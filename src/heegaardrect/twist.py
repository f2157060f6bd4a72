"""Dehn twisting of disk systems along an auxiliary curve, by splicing.

The generator starts from a multicurve map: the disk boundaries together
with one transversal curve gamma.  Each disk is pushed off itself, and
twisting replaces every strand of a push-off through an annulus
neighborhood of gamma by a detour that winds around the annulus, one lap
per unit of twist power.  The splice writes only what the result keeps,
the crossings of the detours with the disks, at exact integer positions
around the annulus, so no two tie; gamma itself is not carried along.
It writes every new crossing as an integer key, and its callers name the
keys once each.

The built-in example family places the disks of a genus-g handlebody in a
row and runs gamma four times across every handle; crossing the resulting
diagrams against an independent annulus model and the expected verdicts is
what pins the pattern constants down.  An example's crossings get their
canonical names on the spliced words, before its one map build, with no
bigon reduction: each twisted curve meets each disk in exactly as many
crossings as their geometric intersection number, so no bigon face is
expected, and validation, which rejects bigons, remains the guard.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, islice, product

from .diagram import Diagram, DiagramError, MINUS, PLUS, _gather
from .systems import validate_disk_systems

GAMMA = "gamma"


@dataclass(frozen=True)
class TwistSpec:
    """Twist power; magnitude one is legal but warns (bigons may appear)."""

    power: int

    def __post_init__(self):
        _check_integer(self.power, "twist power")
        if self.power == 0:
            raise DiagramError("twist power must be nonzero")
        if abs(self.power) == 1:
            warnings.warn(
                "twist power of magnitude 1 may leave removable bigons",
                stacklevel=3,
            )


def multicurve_map(disk_words, gamma_word, signs) -> Diagram:
    """Multicurve map: mutually disjoint disks, and gamma as the second family."""
    try:
        return Diagram(disk_words, {GAMMA: gamma_word}, signs)
    except DiagramError as exc:
        raise DiagramError(f"invalid multicurve map: {exc}") from exc


# -- the splice ------------------------------------------------------------------


def _twisted(base: Diagram, spec: TwistSpec) -> tuple[dict, dict, dict]:
    """The disks, their twisted curves and the signs of their crossings, on keys.

    Each disk is pushed off to its plus side, so its push-off meets gamma
    at a germ a quarter slot beside each of its crossings, on the side of
    the crossing's sign: in quarter slots, crossing i of gamma sits at 4i
    and its germ at 4i + sign.  The w points of this lifted gamma, two per
    crossing, never tie, and a point's slot is its index among them.  The
    twist replaces every push-off strand through the annulus around gamma
    by a detour that winds |power| laps in the drift direction (the sign of
    the power), entering at its germ.  The detour from the germ of x, at
    slot `germ`, meets the strand of the disk crossing a once a lap, in lap
    r, at ``((slot[a] - germ) * drift) % w + r * w`` slots along.  Every
    strand takes its crossings in the order of those positions, reversed
    where its sign is +1 (the strand runs downward through the annulus).
    These are all the crossings: the disks meet gamma alone, so they are
    pairwise disjoint, and every word gets at least |power| crossings.

    Slots and germs both increase along gamma: crossing i has slot 2i and
    germ 2i + 1 where its sign is +1, and the other way round where it is
    -1.  So in each lap the detour from x, crossing i of gamma, meets the
    strands in gamma's cyclic order from its germ in the drift direction:
    up from crossing p where the drift is +1 and down from p - 1 where it
    is -1, p = i + [x has sign +1] being the number of slots below the germ.
    Likewise the strand of a, crossing j, meets the detours in the order of
    their germs from its slot against the drift: down from q - 1 where the
    drift is +1 and up from q where it is -1, q = j + [a has sign -1] being
    the number of germs below the slot.  Lap r comes after lap r - 1.  So
    every strand's order is read off gamma's: no position is computed and
    nothing is sorted.

    No crossing is named here either.  The crossing of the detour from x
    with the strand of a in lap r is the integer key ``k = (i * len(gamma)
    + j) * laps + r``, where x is the i-th crossing over the disk words in
    order and a is the j-th crossing of gamma: the k-th (x, a, r) in that
    order.  The words hold keys, and the signs map each key to its sign, in
    key order.  The callers name every key once.
    """
    _check_base(base)
    laps, drift = abs(spec.power), PLUS if spec.power > 0 else MINUS
    gamma, signs = base.b_words[GAMMA], base.signs
    f_curves = {}
    for disk in base.a_words:
        f_curve = _dual_name(disk)
        if f_curve in f_curves:
            raise DiagramError(f"disks {f_curves[f_curve]} and {disk} both twist to the curve {f_curve}")
        f_curves[f_curve] = disk
    count, laps_on = len(gamma), range(laps)
    index = {a: j for j, a in enumerate(gamma)}
    # the first key of each disk crossing, and of gamma's crossings in gamma's order
    first = {x: i * count * laps for i, x in enumerate(chain.from_iterable(base.a_words.values()))}
    first_at = [first[a] for a in gamma]

    def around(p, d):
        """Gamma's indices in cyclic order, up from p or down from p - 1."""
        if d == PLUS:
            return [*range(p, count), *range(p)]
        return [*range(p - 1, -1, -1), *range(count - 1, p - 1, -1)]

    f_keys, a_keys = {}, {}
    for x, k in first.items():
        lap = [k + j * laps for j in around(index[x] + (signs[x] == PLUS), drift)]
        keys = [key + r for r in laps_on for key in lap]
        f_keys[x] = keys[::-1] if signs[x] == PLUS else keys
    for j, a in enumerate(gamma):
        lap = [first_at[i] + j * laps for i in around(j + (signs[a] == MINUS), -drift)]
        keys = [key + r for r in laps_on for key in lap]
        a_keys[a] = keys[::-1] if signs[a] == PLUS else keys
    # the sign of (x, a) is the drift's where the signs of x and a differ
    by_sign = {PLUS: [-drift * signs[a] for a in gamma for _ in laps_on]}
    by_sign[MINUS] = [-s for s in by_sign[PLUS]]
    out_signs = dict(enumerate(chain.from_iterable(map(by_sign.__getitem__,
                                                       map(signs.__getitem__, first)))))
    a_words = {disk: tuple(chain.from_iterable(map(a_keys.__getitem__, word)))
               for disk, word in base.a_words.items()}
    f_words = {f_curve: tuple(chain.from_iterable(map(f_keys.__getitem__, base.a_words[disk])))
               for f_curve, disk in f_curves.items()}
    return a_words, f_words, out_signs


def _dual_name(disk: str) -> str:
    """The twisted curve of a disk; `_twisted` rejects two disks with one name."""
    return "e" + disk[1:] if disk.startswith("d") else disk + "*"


# -- public operations ---------------------------------------------------------


def dehn_twist(base: Diagram, spec: TwistSpec) -> Diagram:
    """Diagram of the disks together with their twisted images along gamma.

    The crossing of the detour from disk crossing x with the strand of
    gamma's crossing a, in lap r, is named ``t{len(str(x))}_{x}_{a}_{r}``;
    the length of x says where x ends, so no two names tie whatever the ids
    hold.  The raw spliced map is passed through bigon reduction, so the
    output is bigon-free with the genus of the base.
    """
    twisted = _twisted(base, spec)
    # key k is the k-th (x, a, r), x over the disk words, a over gamma, r over the
    # laps; each x's prefix is built once
    tails = [f"{a}_{r}" for a in base.b_words[GAMMA] for r in range(abs(spec.power))]
    heads = [f"t{len(str(x))}_{x}_" for word in base.a_words.values() for x in word]
    names = [head + tail for head in heads for tail in tails]
    named = _named(twisted, names)
    del twisted, names  # the keys are not kept through the map builds
    return _with_genus_of(base, Diagram(*named).reduce_bigons())


def _named(twisted: tuple[dict, dict, dict], names) -> tuple[dict, dict, dict]:
    """The words and signs of a splice whose key k is named ``names[k]``,
    `names` a list or a dict."""
    a_words, f_words, signs = twisted
    return ({c: _gather(names, w) for c, w in a_words.items()},
            {c: _gather(names, w) for c, w in f_words.items()},
            dict(zip(_gather(names, signs), signs.values())))


def _check_base(base: Diagram):
    """The disks and their twisted curves will share one diagram."""
    if tuple(base.b_words) != (GAMMA,):
        raise DiagramError("twisting needs a multicurve map with an auxiliary curve")
    if not base.is_bigon_free():
        raise DiagramError("gamma does not meet the disks essentially: bigon present")
    for disk in base.a_words:
        if not isinstance(disk, str):  # a twisted curve is named after its disk
            raise DiagramError(f"disk id {disk!r} is not a str")
        if _dual_name(disk) in base.a_words:
            raise DiagramError(f"disk {_dual_name(disk)} has the name of the "
                               f"twisted curve of disk {disk}")


def _with_genus_of(base: Diagram, out: Diagram) -> Diagram:
    if out.genus != base.genus:
        raise DiagramError(
            f"twisted diagram has genus {out.genus}, base has {base.genus}"
        )
    return out


# -- the built-in example family ------------------------------------------------


def chain_base(genus: int) -> Diagram:
    """Disks of a genus-g handlebody in a row, gamma crossing each four times.

    Gamma makes two tours of the row of handles.  On one tour it crosses a
    disk three times in a row (looping back twice under the handle), on the
    other tour it crosses the same disk once; odd-numbered disks get the
    triple pass on the first tour, even-numbered ones on the second.  All
    crossings run from the minus to the plus side, so every sign is
    positive, and the four crossings sit on each disk in traversal order.

    When the genus is even, a consistent closed curve needs one exceptional
    disk: the last disk is crossed twice on each tour, with the two pairs
    of crossings interleaved around the disk.  With this pattern the
    double rectangle condition holds at odd genus; at even genus the
    exceptional disk costs it (the rectangle condition is unaffected).
    """
    _check_genus(genus)
    visits: dict[int, list[list[str]]] = {d: [] for d in range(1, genus + 1)}
    gamma_word: list[str] = []
    for t in range(2 * genus):
        d = (t % genus) + 1
        first_tour = t < genus
        if genus % 2 == 0 and d == genus:
            run = 2
        elif (d % 2 == 1) == first_tour:
            run = 3
        else:
            run = 1
        block = [f"g{d}t{t}j{j}" for j in range(run)]
        visits[d].append(block)
        gamma_word.extend(block)
    disk_words = {}
    for d, vis in visits.items():
        if genus % 2 == 0 and d == genus:
            (v1, v2) = vis
            word = [v1[0], v2[0], v1[1], v2[1]]
        else:
            word = [x for block in vis for x in block]
        disk_words[f"d{d}"] = tuple(word)
    signs = {x: PLUS for x in gamma_word}
    return multicurve_map(disk_words, tuple(gamma_word), signs)


def maximal_chain_base() -> Diagram:
    """The genus-3 chain base extended by the three separating disks.

    The extra disks bound around adjacent pairs of handle feet: d4 around
    the plus foot of handle 1 and the minus foot of handle 2, d6 likewise
    for handles 2 and 3, and d5 around the remaining pair, below the row.
    Gamma meets each of them four times, on the loop-backs of the triple
    passes.  Given the crossing sequence and signs read off the drawing,
    the cyclic order of the four crossings on each new disk is the unique
    one that embeds with genus 3 and planar complementary pieces.
    """
    base = chain_base(3)
    disk_words = {c: base.a_words[c] for c in base.a_curve_ids()}
    # gamma word of chain_base(3), with the separating-disk crossings
    # inserted along the loop-back arcs they meet
    g1 = base.a_words["d1"]  # crossings c0 c1 c2 | c7 in gamma order
    g2 = base.a_words["d2"]
    g3 = base.a_words["d3"]
    c0, c1, c2, c7 = g1
    c3, c8, c9, c10 = g2
    c4, c5, c6, c11 = g3
    gamma_word = (
        c0, "q4_0", "q5_0", c1, "q4_1", "q5_1", c2, c3,
        c4, "q5_2", "q6_0", c5, "q5_3", "q6_1", c6, c7,
        c8, "q6_2", "q4_2", c9, "q6_3", "q4_3", c10, c11,
    )
    disk_words["d4"] = ("q4_0", "q4_2", "q4_3", "q4_1")
    disk_words["d5"] = ("q5_0", "q5_1", "q5_3", "q5_2")
    disk_words["d6"] = ("q6_0", "q6_1", "q6_3", "q6_2")
    signs = dict(base.signs)
    signs.update({
        "q4_0": MINUS, "q4_1": MINUS, "q4_2": PLUS, "q4_3": PLUS,
        "q5_0": PLUS, "q5_1": PLUS, "q5_2": MINUS, "q5_3": MINUS,
        "q6_0": PLUS, "q6_1": PLUS, "q6_2": MINUS, "q6_3": MINUS,
    })
    return multicurve_map(disk_words, gamma_word, signs)


def example_diagram(genus: int, power: int, maximal: bool = False) -> Diagram:
    """The example family: disks plus their images under a power of the twist.

    With `maximal` the genus-3 disk systems are extended to maximal ones
    (six disks a side).  Requires ``|power| >= 2``; the resulting diagram is
    validated before it is returned.

    The splice's keys are named ``x`` plus a counter zero-padded to the
    digit count of the crossing number (``x001`` ... ``x288`` for
    ``(3, 2)``), in first-family word order over the sorted disk ids,
    through one int-keyed dict, so the map is built once, on the names.
    That needs no bigon reduction: the splice makes exactly
    ``|power| * i(gamma, D_i) * i(gamma, D_j)`` crossings between the twisted
    curve of ``D_j`` and the disk ``D_i``, which is their geometric
    intersection number, so no face is a bigon.  Validation, which rejects
    bigon faces, still guards the result.
    """
    _check_genus(genus)
    _check_integer(power, "twist power")
    if abs(power) < 2:
        raise DiagramError("twist power must have magnitude at least 2")
    if maximal:
        if genus != 3:
            raise DiagramError("the maximal extension is defined for genus 3 only")
        base = maximal_chain_base()
    else:
        base = chain_base(genus)
    twisted = _twisted(base, TwistSpec(power))
    order = [k for curve in sorted(twisted[0]) for k in twisted[0][curve]]
    # x001, x002, ...: the digit strings of the names' width, in counting order
    digits = ["0123456789"] * len(str(len(order)))
    names = dict(zip(order, map("".join, islice(product("x", *digits), 1, None))))
    named = _named(twisted, names)
    del twisted, order, names  # the keys are not kept through the map build
    out = _with_genus_of(base, Diagram(*named))
    report = validate_disk_systems(out)
    if not report.passed:
        raise DiagramError(f"generated diagram fails validation: {report.entries}")
    return out


def _check_integer(value, what: str):
    if not isinstance(value, int) or isinstance(value, bool):
        raise DiagramError(f"{what} must be an integer")


def _check_genus(genus):
    _check_integer(genus, "genus")
    if genus < 2:
        raise DiagramError("genus must be at least 2")
