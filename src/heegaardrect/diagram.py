"""Combinatorial maps of two transverse curve families on a closed oriented surface.

A diagram is encoded Gauss-code style: every curve is a cyclic word of
crossing ids, every crossing carries a sign recording the local rotation.
The surface is *defined* by the map; faces and genus are derived, never
given as input.

Conventions (fixed once, everything else follows):

* Each crossing has four darts, numbered by port::

      0 = a_out   1 = b_out   2 = a_in   3 = b_in

  "a" is the strand of the first family (disks, signed in files), "b" the
  strand of the second family (dual disks).  "in"/"out" are relative to the
  curve orientations.

* At a crossing of sign ``+1`` the counterclockwise dart order is
  ``(a_out, b_out, a_in, b_in)``; at sign ``-1`` it is
  ``(a_out, b_in, a_in, b_out)``.  Equivalently the sign is the sign of
  ``det(a_direction, b_direction)``.

* The plus side of a curve is its left side with respect to the traversal
  direction and the counterclockwise surface orientation.  With that
  convention, the face on the left of a boundary arc starting at an "out"
  port lies on the plus side of the strand, and on the minus side for an
  "in" port.

* Crossing ``i`` is the i-th token of the first family's words, read curve
  by curve in sorted curve id order, and owns darts ``4i`` to ``4i + 3``,
  dart ``4i + p`` being its port ``p``.  So a first-family curve's crossings
  are consecutive, and only the second family's edges are looked up by id.

* Exchanging the families keeps the surface: the ports are renamed by
  a_out <-> b_out, a_in <-> b_in (dart (x, p) of crossing x becomes
  (x, p ^ 1)), every sign flips, and each face stays a face, its darts so
  renamed in the same cyclic order with the same (curve, side) sides; only
  the family of each side and the numbering change, as the swap numbers
  its crossings in its own first family's word order.  The criteria analyse
  both orientations as two views of one map; `Diagram.swap_roles` builds the
  swap on its own.

* One table of turns is kept, ``_phi``: the next dart round a face, along
  the edge ``_alpha`` and then one turn clockwise at the crossing reached.
  Face tracing walks it; the clockwise turn at a crossing is
  ``sigma_inv[d] = _phi[_alpha[d]]``.

* Faces and crossings are flat integer tables, and every command reads
  only those: face ``i`` is its least dart ``_face_lead[i]`` and its degree
  ``_face_degree[i]``, and `_orbit` walks ``_phi`` round it from that dart;
  ``_dart_code[d]`` is ``4 * curve + (d & 3)``, ``curve`` being dart ``d``'s
  1-based curve index in its family ``d & 1``, its side ``1 - (d & 2)``,
  so ``code >> 2`` is the curve and ``(code >> 1) ^ 1`` the (curve, side)
  node; ``_crossing_ids`` and ``_signs`` follow the crossing numbering,
  and `signs` maps each id to its sign in sorted id order, built on first
  read.  The gathered tables, ``_phi`` and ``_signs``, are tuples (`_gather`).
  `bigon_faces` gives face indices.
  The read-only views `faces` and `crossings`, of `Face`, `FaceSide` and
  `Crossing` objects, are built on first read for the tests and the
  benchmark replay; no command builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, Sequence

MINUS = -1
PLUS = 1

FAMILY_A = "A"
FAMILY_B = "B"

A_OUT, B_OUT, A_IN, B_IN = 0, 1, 2, 3

# the (out, in) ports of each family's strand, and the family it crosses
PORTS = {FAMILY_A: (A_OUT, A_IN), FAMILY_B: (B_OUT, B_IN)}
OTHER_FAMILY = {FAMILY_A: FAMILY_B, FAMILY_B: FAMILY_A}


class DiagramError(ValueError):
    """Raised for malformed diagram data."""


def side_str(side: int) -> str:
    return "+" if side > 0 else "-"


def _gather(seq, idx) -> tuple:
    """``tuple(seq[i] for i in idx)`` for a sized `idx`, gathered by one
    `itemgetter` call at C speed (the call copies a list `idx` into its
    argument tuple, a tuple it does not); with one index `itemgetter` gives
    the bare item, so fewer than two are gathered one by one."""
    if len(idx) < 2:
        return tuple(seq[i] for i in idx)
    return itemgetter(*idx)(seq)


def _union(parent: list, pairs) -> list:
    """Join each pair's groups in the union-find forest `parent` and return it;
    a parent is never above its child, so every root is its group's least member."""
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    return parent


@dataclass(frozen=True)
class Crossing:
    """One transverse intersection point of an a-curve with a b-curve."""

    id: str
    a_curve: str
    b_curve: str
    sign: int


@dataclass(frozen=True)
class FaceSide:
    """One boundary arc of a face: the face lies on `side` of `curve`."""

    family: str
    curve: str
    side: int


@dataclass(frozen=True)
class Face:
    """A complementary region of the diagram, as a cyclic sequence of arcs.

    `darts` are the start darts of the boundary arcs, in order, rotated so
    the smallest dart comes first.  The face interior is on the left of
    every boundary arc.
    """

    index: int
    darts: tuple[int, ...]
    sides: tuple[FaceSide, ...]

    @property
    def degree(self) -> int:
        return len(self.darts)


class Diagram:
    """Immutable two-family curve diagram on a closed oriented surface.

    `a_words` / `b_words` map curve ids to cyclic tuples of crossing ids.
    Every crossing id must occur exactly once among the a-words and exactly
    once among the b-words.
    """

    def __init__(self, a_words: Mapping[str, Sequence[str]],
                 b_words: Mapping[str, Sequence[str]], signs: Mapping[str, int]):
        try:  # ids of mixed types cannot be sorted, nor unhashable ones looked up
            self.a_words, self.b_words = ({c: tuple(w) for c, w in sorted(words.items())}
                                          for words in (a_words, b_words))
            try:
                dart0 = self._sized_ids()
            except TypeError:
                dart0 = None
            if not dart0:  # no ids or a fault: the scan names it
                self._check_words()
        except TypeError:
            raise DiagramError("curve and crossing ids must be hashable and mutually ordered") from None
        ids = tuple(dart0)
        if not all(map(signs.__contains__, ids)):
            raise DiagramError(f"crossing {min(x for x in ids if x not in signs)} has no sign")
        self._crossing_ids: tuple[str, ...] = ids
        self._signs = values = _gather(signs, ids)
        if not (set(map(type, values)) == {int} and set(values) <= {MINUS, PLUS}):
            bad = (x for x, s in zip(ids, values) if type(s) is not int or s not in (MINUS, PLUS))
            raise DiagramError(f"crossing {min(bad)}: sign must be +1 or -1")
        self._build_map(dart0)

    # -- construction ------------------------------------------------------

    def _sized_ids(self) -> dict[str, int] | None:
        """Each id -> its dart 0, in first-family word order, where the sizes
        show a sound input, else None: no word is empty, no curve id is in both
        families, and the n tokens of the second family reach n distinct darts
        of the n of the first.  Ids that are not all `str` are sorted once, so
        ids that cannot be ordered fail as they would in a sort."""
        a, b = self.a_words, self.b_words
        if not (all(a.values()) and all(b.values()) and a.keys().isdisjoint(b)):
            return None
        ids = tuple(chain.from_iterable(a.values()))
        try:
            "".join(ids)  # raises TypeError unless every id is a str, at C speed
        except TypeError:
            sorted(ids)  # ids of other types must still be mutually ordered
        dart0 = dict(zip(ids, range(0, 4 * len(ids), 4)))
        darts = set(map(dart0.get, chain.from_iterable(b.values())))
        if len(ids) == len(darts) == sum(map(len, b.values())) and None not in darts:
            return dart0
        return None

    def _check_words(self) -> None:
        """Name the first fault of a scan, token by token, of each crossing id
        occurring once in each family.  It runs where the size checks of
        `_sized_ids` fail, so words that pass it failed there on unsortable ids."""
        families = ((self.a_words, "first"), (self.b_words, "second"))
        for words, which in families:
            if not words:
                raise DiagramError(f"empty {which} curve family")
        dup = set(self.a_words) & set(self.b_words)
        if dup:
            raise DiagramError(f"curve ids used in both families: {sorted(dup)}")
        ids = []
        for words, which in families:
            seen: set[str] = set()
            for curve, word in words.items():
                if not word:
                    raise DiagramError(f"curve {curve} has an empty word")
                for x in word:
                    if x in seen:
                        raise DiagramError(f"crossing {x} occurs twice in the {which} family")
                    seen.add(x)
            ids.append(seen)
        if ids[0] != ids[1]:
            raise DiagramError(f"crossing occurrences do not match up: {sorted(ids[0] ^ ids[1])}")
        raise TypeError

    def _build_map(self, dart0: dict[str, int]):
        n = len(self._crossing_ids)
        nd = 4 * n
        # sigma_inv turns each dart to the next clockwise at its crossing,
        # ports 0, 3, 2, 1 in turn at sign +1 and 0, 1, 2, 3 at sign -1
        # (sigma, counterclockwise, is its inverse)
        sigma_inv = []
        for b, sign in zip(range(0, nd, 4), self._signs):
            sigma_inv += (b + 3, b, b + 1, b + 2) if sign == PLUS else (b + 1, b + 2, b + 3, b)
        alpha, dart_code = [0] * nd, [0] * nd
        # a first-family curve's crossings are consecutive: its edge i -> i + 1
        # joins a_out of i to a_in of i + 1, its last edge closing the word
        e = 0
        for curve, word in enumerate(self.a_words.values(), 1):
            s, e = e, e + 4 * len(word)
            alpha[s:e:4] = [*range(s + 4 + A_IN, e, 4), s + A_IN]
            alpha[s + A_IN:e:4] = [e - 4, *range(s, e - 4, 4)]
            dart_code[s:e:2] = (4 * curve + A_OUT, 4 * curve + A_IN) * len(word)
        for curve, word in enumerate(self.b_words.values(), 1):
            darts = _gather(dart0, word)
            out_code, in_code = 4 * curve + B_OUT, 4 * curve + B_IN
            for s, t in zip(darts, darts[1:] + darts[:1]):  # the edge s -> t
                alpha[s + B_OUT] = t + B_IN
                alpha[t + B_IN] = s + B_OUT
                dart_code[s + B_OUT], dart_code[s + B_IN] = out_code, in_code
        dart0.clear()  # the numbering is not kept: its memory goes before `_phi` is gathered
        self._alpha = alpha
        self._dart_code = dart_code

        if not self._connected():
            raise DiagramError("disconnected diagram unsupported")

        self._phi = _gather(sigma_inv, alpha)  # the next dart round a face
        self._trace_faces()
        v, e, f = n, 2 * n, len(self._face_degree)
        chi = v - e + f
        if chi % 2 != 0 or chi > 2:
            raise DiagramError(f"corrupted map: Euler characteristic {chi}")
        self._genus = (2 - chi) // 2

    def _connected(self) -> bool:
        # sigma joins the four darts of a crossing and alpha runs along each
        # curve, so the map is connected iff the curves are, joined at the
        # crossings they share; b-curve j is node n + j after the n a-curves
        n, code = len(self.a_words), self._dart_code
        pairs = set(zip(code[A_OUT::4], code[B_OUT::4]))  # each pair of codes decoded once
        parent = _union(list(range(n + len(self.b_words) + 1)),
                        [(a >> 2, n + (b >> 2)) for a, b in pairs])
        return sum(parent[i] == i for i in range(1, len(parent))) == 1

    def _trace_faces(self) -> None:
        """The face tables: faces numbered by least dart, each kept as that dart and its degree.
        A `_phi` that is not a permutation raises `DiagramError`: no orbit walk
        goes on past the dart count."""
        phi = self._phi
        face_of = [-1] * len(phi)
        lead: list[int] = []
        degree: list[int] = []
        start, sizes = 0, range(1, len(phi) + 1)
        try:  # until `index` finds no dart left
            # `for` loops: their backward jumps have CPython 3.11 specialize this in the first call
            for i in range(len(phi)):
                start = face_of.index(-1, start)  # face i's least dart, found at C speed
                face_of[start], d = i, phi[start]
                lead.append(start)
                for size in sizes:  # until the orbit closes, within one step per dart
                    if d == start:
                        break
                    face_of[d] = i
                    d = phi[d]
                else:
                    raise DiagramError("corrupted map: the face turns are not a permutation")
                degree.append(size)
        except DiagramError:  # a ValueError too, but not the one that ends the trace
            raise
        except ValueError:
            pass
        self._face_degree, self._face_lead, self._face_of_dart = degree, lead, face_of

    def _orbit(self, f: int) -> list[int]:
        """Face `f`'s darts in order round it, from its least, walking `_phi`."""
        darts = [self._face_lead[f]]
        for _ in range(self._face_degree[f] - 1):
            darts.append(self._phi[darts[-1]])
        return darts

    # -- basic queries -----------------------------------------------------

    @property
    def genus(self) -> int:
        return self._genus

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        families = ((FAMILY_A, self.a_curve_ids()), (FAMILY_B, self.b_curve_ids())) * 2
        side_of = {4 * i + p: FaceSide(f, c, 1 - (p & 2))  # dart code -> its side
                   for p, (f, ids) in enumerate(families) for i, c in enumerate(ids, 1)}
        code = self._dart_code
        orbits = (tuple(self._orbit(f)) for f in range(len(self._face_lead)))
        return tuple(Face(i, ds, tuple(side_of[code[d]] for d in ds))
                     for i, ds in enumerate(orbits))

    @cached_property
    def crossings(self) -> dict[str, Crossing]:
        ids, code = (tuple(self.a_words), tuple(self.b_words)), self._dart_code
        return {x: Crossing(x, ids[0][(code[d] >> 2) - 1], ids[1][(code[d + 1] >> 2) - 1], sign)
                for x, d, sign in zip(self._crossing_ids, range(0, len(code), 4), self._signs)}

    @cached_property
    def signs(self) -> Mapping[str, int]:
        """Crossing id -> sign, read-only, in sorted id order."""
        return MappingProxyType(dict(sorted(zip(self._crossing_ids, self._signs))))

    @property
    def num_crossings(self) -> int:
        return len(self._crossing_ids)

    def a_curve_ids(self) -> tuple[str, ...]:
        return tuple(self.a_words)

    def b_curve_ids(self) -> tuple[str, ...]:
        return tuple(self.b_words)

    def bigon_faces(self) -> tuple[int, ...]:
        """The indices of the faces of degree two."""
        return tuple(f for f, degree in enumerate(self._face_degree) if degree == 2)

    def is_bigon_free(self) -> bool:
        return not self.bigon_faces()

    # -- transformations ---------------------------------------------------

    def swap_roles(self) -> "Diagram":
        """Exchange the two families.  Crossing signs flip under the swap."""
        signs = {x: -sign for x, sign in zip(self._crossing_ids, self._signs)}
        return Diagram(self.b_words, self.a_words, signs)

    # -- bigon reduction ----------------------------------------------------

    def reduce_bigons(self) -> "Diagram":
        """Remove bigon faces one at a time until none remain.

        Always reduces first the bigon whose least (crossing id, port) over
        its darts is least, so the result depends on the words and signs
        alone, not on how the darts are numbered.  Genus is preserved at every
        step; a curve whose word would become empty signals a non-essential
        configuration.
        """
        d = self
        while bigons := d.bigon_faces():
            d = d._remove_bigon(min(bigons, key=d._least_corner))
        return d

    def _least_corner(self, face: int) -> tuple:
        """The least (crossing id, port) over the darts of `face`."""
        ids = self._crossing_ids
        return min((ids[e >> 2], e & 3) for e in self._orbit(face))

    def _remove_bigon(self, face: int) -> "Diagram":
        ids = self._crossing_ids
        corners = {ids[p // 4] for p in self._orbit(face)}
        if len(corners) != 2:
            raise DiagramError("degenerate bigon with identified corners")
        x, y = sorted(corners)
        a_words, b_words = {}, {}
        for words, out in ((self.a_words, a_words), (self.b_words, b_words)):
            for c, w in words.items():
                nw = tuple(z for z in w if z not in (x, y))
                if not nw:
                    raise DiagramError(f"curve eliminated: {c} meets the rest only in a bigon")
                out[c] = nw
        signs = {z: sign for z, sign in zip(self._crossing_ids, self._signs) if z not in (x, y)}
        out = Diagram(a_words, b_words, signs)
        if out.genus != self.genus:
            raise DiagramError("bigon removal changed the genus; corrupted map")
        return out

    def __repr__(self):
        return (
            f"<Diagram genus={self.genus} n={len(self.a_words)} "
            f"n*={len(self.b_words)} crossings={self.num_crossings}>"
        )

