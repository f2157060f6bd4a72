"""Combinatorial maps of two transverse curve families on a closed oriented surface.

A diagram is encoded Gauss-code style: every curve is a cyclic word of
crossing ids, every crossing carries a sign recording the local rotation.
The surface is *defined* by the map; faces and genus are derived, never
given as input.

Conventions (fixed once, everything else follows):

* Each crossing has four darts, numbered by port::

      0 = a_out   1 = b_out   2 = a_in   3 = b_in

  "a" is the strand of the first family (disks, signed in files), "b" the
  strand of the second family (dual disks, or the auxiliary curve of a
  multicurve map).  "in"/"out" are relative to the curve orientations.

* At a crossing of sign ``+1`` the counterclockwise dart order is
  ``(a_out, b_out, a_in, b_in)``; at sign ``-1`` it is
  ``(a_out, b_in, a_in, b_out)``.  Equivalently the sign is the sign of
  ``det(a_direction, b_direction)``.

* The plus side of a curve is its left side with respect to the traversal
  direction and the counterclockwise surface orientation.  With that
  convention, the face on the left of a boundary arc starting at an "out"
  port lies on the plus side of the strand, and on the minus side for an
  "in" port.

* Exchanging the families keeps the surface: the ports are renamed by
  a_out <-> b_out, a_in <-> b_in (dart ``d`` becomes ``d ^ 1``), every sign
  flips, and each face stays a face, its darts ``d ^ 1`` in the same cyclic
  order with the same (curve, side) sides; only the family of each side and
  the numbering by least dart change.  The criteria analyse both orientations
  as two views of one map; `Diagram.swap_roles` builds the swap on its own.

* One rotation table is kept, ``sigma_inv``: the next dart clockwise at a
  crossing.  Face tracing walks it.

* Faces and crossings are flat integer tables, and a check reads only
  those: face ``i`` is ``_face_darts[_face_start[i]:_face_start[i + 1]]``,
  its orbit from its least dart; ``_dart_curve[d]`` is dart ``d``'s 1-based
  curve index in its family ``d & 1``, its side ``1 - (d & 2)``; ``_signs``
  follows the sorted crossing ids.  `faces` and `crossings` build their
  `Face`, `FaceSide` and `Crossing` objects on first read, `bigon_faces`
  only the bigons'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

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
    once among the b-words.  `aux` marks a multicurve map whose b-family is
    a single auxiliary curve rather than a second disk system.
    """

    def __init__(
        self,
        a_words: Mapping[str, Sequence[str]],
        b_words: Mapping[str, Sequence[str]],
        signs: Mapping[str, int],
        aux: bool = False,
    ):
        self.a_words: dict[str, tuple[str, ...]] = {
            c: tuple(w) for c, w in sorted(a_words.items())
        }
        self.b_words: dict[str, tuple[str, ...]] = {
            c: tuple(w) for c, w in sorted(b_words.items())
        }
        self.aux = aux
        ids = tuple(sorted(self._check_words()))
        missing = [x for x in ids if x not in signs]
        if missing:
            raise DiagramError(f"crossing {missing[0]} has no sign")
        self._crossing_ids: tuple[str, ...] = ids
        self._signs = [signs[x] for x in ids]
        bad = [x for x, s in zip(ids, self._signs) if type(s) is not int or s not in (MINUS, PLUS)]
        if bad:
            raise DiagramError(f"crossing {bad[0]}: sign must be +1 or -1")
        self._cindex = {x: i for i, x in enumerate(ids)}
        self._build_map()

    # -- construction ------------------------------------------------------

    def _check_words(self) -> set[str]:
        """The crossing ids, checked to occur once in each family."""
        families = ((self.a_words, "first"), (self.b_words, "second"))
        for words, which in families:
            if not words:
                raise DiagramError(f"empty {which} curve family")
        if self.aux and len(self.b_words) != 1:
            raise DiagramError("a multicurve map has exactly one auxiliary curve")
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
        return ids[0]

    def _build_map(self):
        n = len(self._crossing_ids)
        nd = 4 * n
        # the one rotation table: sigma_inv turns each dart to the next
        # clockwise at its crossing, ports 0, 3, 2, 1 in turn at sign +1 and
        # 0, 1, 2, 3 at sign -1 (sigma, counterclockwise, is its inverse)
        sigma_inv = []
        for b, sign in zip(range(0, nd, 4), self._signs):
            sigma_inv += (b + 3, b, b + 1, b + 2) if sign == PLUS else (b + 1, b + 2, b + 3, b)
        alpha, dart_curve, cindex = [0] * nd, [0] * nd, self._cindex
        for (out_port, in_port), words in zip(PORTS.values(), (self.a_words, self.b_words)):
            for curve, word in enumerate(words.values(), 1):
                darts = [4 * cindex[x] for x in word]
                for s, t in zip(darts, darts[1:] + darts[:1]):  # the edge s -> t
                    alpha[s + out_port] = t + in_port
                    alpha[t + in_port] = s + out_port
                    dart_curve[s + out_port] = dart_curve[s + in_port] = curve
        self._sigma_inv = sigma_inv
        self._alpha = alpha
        self._dart_curve = dart_curve

        if not self._connected():
            raise DiagramError("disconnected diagram unsupported")

        self._trace_faces()
        v, e, f = n, 2 * n, len(self._face_start) - 1
        chi = v - e + f
        if chi % 2 != 0 or chi > 2:
            raise DiagramError(f"corrupted map: Euler characteristic {chi}")
        self._genus = (2 - chi) // 2

    def _connected(self) -> bool:
        # sigma joins the four darts of a crossing and alpha runs along each
        # curve, so the map is connected iff the curves are, joined at the
        # crossings they share; b-curve j is node n + j after the n a-curves
        n = len(self.a_words)
        parent = list(range(n + len(self.b_words) + 1))
        parts = len(parent) - 1
        curve = self._dart_curve
        for a, b in set(zip(curve[A_OUT::4], curve[B_OUT::4])):
            b += n
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                parts -= 1
        return parts == 1

    def _trace_faces(self) -> None:
        """The face tables: faces numbered by least dart, each orbit from it."""
        phi = list(map(self._sigma_inv.__getitem__, self._alpha))  # the next dart round a face
        face_of = [-1] * len(phi)
        orbit: list[int] = []
        push = orbit.append
        face_start = [0]
        for start in range(len(phi)):
            if face_of[start] >= 0:
                continue
            i, d = len(face_start) - 1, start
            while face_of[d] < 0:
                face_of[d] = i
                push(d)
                d = phi[d]
            face_start.append(len(orbit))
        self._face_start, self._face_darts, self._face_of_dart = face_start, orbit, face_of

    @cached_property
    def _face_sides(self) -> list[list]:
        """[port][curve index]: one FaceSide per (family, curve, side)."""
        families = ((FAMILY_A, self.a_curve_ids()), (FAMILY_B, self.b_curve_ids())) * 2
        return [[None] + [FaceSide(f, c, 1 - (p & 2)) for c in ids]
                for p, (f, ids) in enumerate(families)]

    def _faces(self, indices) -> Iterator[Face]:
        """The `Face` objects of the given face indices, read off the tables."""
        start, orbit, curve = self._face_start, self._face_darts, self._dart_curve
        for i in indices:
            darts, side_of = tuple(orbit[start[i]:start[i + 1]]), self._face_sides
            yield Face(i, darts, tuple(side_of[d & 3][curve[d]] for d in darts))

    # -- basic queries -----------------------------------------------------

    @property
    def genus(self) -> int:
        return self._genus

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return tuple(self._faces(range(len(self._face_start) - 1)))

    @cached_property
    def crossings(self) -> dict[str, Crossing]:
        ids, curve = (tuple(self.a_words), tuple(self.b_words)), self._dart_curve
        return {x: Crossing(x, ids[0][curve[d] - 1], ids[1][curve[d + 1] - 1], sign)
                for x, d, sign in zip(self._crossing_ids, range(0, len(curve), 4), self._signs)}

    @property
    def num_crossings(self) -> int:
        return len(self._crossing_ids)

    def crossing_ids(self) -> tuple[str, ...]:
        return self._crossing_ids

    def curve_family(self, curve: str) -> str:
        if curve in self.a_words:
            return FAMILY_A
        if curve in self.b_words:
            return FAMILY_B
        raise DiagramError(f"unknown curve id {curve!r}")

    def a_curve_ids(self) -> tuple[str, ...]:
        return tuple(self.a_words)

    def b_curve_ids(self) -> tuple[str, ...]:
        return tuple(self.b_words)

    def face_of_dart(self, d: int) -> int:
        return self._face_of_dart[d]

    def dart(self, crossing: str, port: int) -> int:
        return 4 * self._cindex[crossing] + port

    def mate(self, d: int) -> int:
        """The other dart of the same edge."""
        return self._alpha[d]

    def dart_crossing(self, d: int) -> str:
        return self._crossing_ids[d // 4]

    def edges(self, family: str) -> Iterator[tuple[str, str, str]]:
        """Yield (curve, x, y) for every edge of `family`, x -> y."""
        words = self.a_words if family == FAMILY_A else self.b_words
        for curve, word in words.items():
            m = len(word)
            for t in range(m):
                yield curve, word[t], word[(t + 1) % m]

    def bigon_faces(self) -> tuple[Face, ...]:
        start = self._face_start
        return tuple(self._faces(i for i in range(len(start) - 1) if start[i + 1] - start[i] == 2))

    def is_bigon_free(self) -> bool:
        return not self.bigon_faces()

    # -- transformations ---------------------------------------------------

    def swap_roles(self) -> "Diagram":
        """Exchange the two families.  Crossing signs flip under the swap."""
        if self.aux:
            raise DiagramError("cannot swap the families of a multicurve map")
        signs = {x: -sign for x, sign in zip(self._crossing_ids, self._signs)}
        return Diagram(self.b_words, self.a_words, signs)

    def reverse_curve(self, curve: str) -> "Diagram":
        """Reverse the orientation of one curve; its crossing signs flip."""
        words = {FAMILY_A: dict(self.a_words), FAMILY_B: dict(self.b_words)}
        family = words[self.curve_family(curve)]
        on_curve = set(family[curve])
        family[curve] = family[curve][::-1]
        signs = {x: -s if x in on_curve else s for x, s in zip(self._crossing_ids, self._signs)}
        return Diagram(words[FAMILY_A], words[FAMILY_B], signs, aux=self.aux)

    # -- bigon reduction ----------------------------------------------------

    def reduce_bigons(self) -> "Diagram":
        """Remove bigon faces one at a time until none remain.

        Always reduces the bigon with the smallest face index first, so the
        result is deterministic.  Genus is preserved at every step; a curve
        whose word would become empty signals a non-essential configuration.
        """
        d = self
        while True:
            bigons = d.bigon_faces()
            if not bigons:
                return d
            d = d._remove_bigon(bigons[0])

    def _remove_bigon(self, face: Face) -> "Diagram":
        corners = {self.dart_crossing(p) for p in face.darts}
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
        out = Diagram(a_words, b_words, signs, aux=self.aux)
        if out.genus != self.genus:
            raise DiagramError("bigon removal changed the genus; corrupted map")
        return out

    def __repr__(self):
        kind = "MulticurveMap" if self.aux else "Diagram"
        return (
            f"<{kind} genus={self.genus} n={len(self.a_words)} "
            f"n*={len(self.b_words)} crossings={self.num_crossings}>"
        )


def intersection_number(d: Diagram, c1: str, c2: str) -> int:
    """Number of crossings shared by two curves.

    On a bigon-free diagram this equals the geometric intersection number
    for curves in different families; same-family curves are disjoint.
    """
    f1, f2 = d.curve_family(c1), d.curve_family(c2)
    if f1 == f2:
        return 0
    a, b = (c1, c2) if f1 == FAMILY_A else (c2, c1)
    return sum(1 for cr in d.crossings.values() if cr.a_curve == a and cr.b_curve == b)
