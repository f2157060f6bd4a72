"""Dehn twisting of disk systems along an auxiliary curve, by splicing.

The generator starts from a multicurve map: the disk boundaries together
with one transversal curve gamma.  Twisting replaces every strand through
an annulus neighborhood of gamma by a detour that winds around the annulus,
one lap per twist power.  All bookkeeping is exact: positions around the
annulus are integers in quarter-slot units, so strand bundles stay
consistently ordered and no two events ever tie.

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
from itertools import islice, product

from .diagram import Diagram, DiagramError, MINUS, PLUS
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


# -- splice state -------------------------------------------------------------


_AG = "ag"  # disk-family strand crossing gamma
_FG = "fg"  # twisted-family strand crossing gamma
_AF = "af"  # disk-family strand crossing twisted-family strand


@dataclass
class _TwistState:
    """Disks, their twisted copies, and gamma, with all mutual crossings."""

    a_words: dict  # disk curve -> tuple of crossing ids
    f_words: dict  # twisted curve `_dual_name(disk)` -> tuple of crossing ids
    gamma_word: tuple  # cyclic, kinds ag and fg only
    signs: dict
    kinds: dict


def _lift(base: Diagram) -> _TwistState:
    """Push off every disk to its plus side as the twisted family's start."""
    gamma0 = base.b_words[GAMMA]
    slot = {x: i for i, x in enumerate(gamma0)}
    signs = dict(base.signs)
    kinds = dict.fromkeys(signs, _AG)
    f_words = {}
    positions = [(4 * i, x) for i, x in enumerate(gamma0)]
    for disk, word in base.a_words.items():
        f_curve = _dual_name(disk)
        if f_curve in f_words:
            other = next(d for d in base.a_words if _dual_name(d) == f_curve)
            raise DiagramError(f"disks {other} and {disk} both twist to the curve {f_curve}")
        f_word = []
        for x in word:
            germ = f"l_{x}"
            f_word.append(germ)
            signs[germ] = signs[x]
            kinds[germ] = _FG
            positions.append((4 * slot[x] + signs[x], germ))  # +-1: a quarter slot aside
        f_words[f_curve] = tuple(f_word)
    positions.sort()
    gamma_word = tuple(x for _, x in positions)
    return _TwistState(dict(base.a_words), f_words, gamma_word, signs, kinds)


def _dual_name(disk: str) -> str:
    """The twisted curve of a disk; `_lift` rejects two disks with one name."""
    return "e" + disk[1:] if disk.startswith("d") else disk + "*"


def _splice(state: _TwistState, laps: int, drift: int, tag: str) -> _TwistState:
    """Replace every twisted-family strand through gamma by a winding detour.

    Each detour enters a quarter slot behind its old position, runs `laps`
    full turns in the `drift` direction while climbing from the minus to
    the plus boundary of the annulus, and crosses gamma once halfway.  Every
    position is a multiple of a quarter slot, kept as an integer (slot i is
    4*i): scaling by 4 keeps every comparison, and 4v % 4w == 4 * (v % w).
    """
    w = len(state.gamma_word)
    slot = {x: i for i, x in enumerate(state.gamma_word)}
    a_germs = [x for x in state.gamma_word if state.kinds[x] == _AG]
    span = w * laps
    half = 2 * span  # span/2 slots, where every detour crosses gamma

    signs = dict(state.signs)
    kinds = dict(state.kinds)

    strand_events: dict[str, list] = {x: [] for x in a_germs}
    core_positions = []

    f_words = {}
    for f_curve, word in state.f_words.items():
        out = []
        for y in word:
            if state.kinds[y] != _FG:
                out.append(y)
                continue
            x0 = slot[y]
            events = []
            for a in a_germs:
                base_t = ((slot[a] - x0) * drift) % w
                if drift == PLUS:
                    sign = PLUS if state.signs[y] != state.signs[a] else MINUS
                else:
                    sign = MINUS if state.signs[y] != state.signs[a] else PLUS
                for r in range(laps):
                    t = 4 * (base_t + r * w) + 1  # a quarter slot past the lap's start
                    c = f"{tag}_{y}_{a}_{r}"
                    signs[c] = sign
                    kinds[c] = _AF
                    events.append((t, c))
                    strand_events[a].append((t, c))
            core = f"{tag}_{y}_core"
            signs[core] = state.signs[y]
            kinds[core] = _FG
            events.append((half, core))
            seq = [c for _, c in sorted(events)]
            if state.signs[y] == PLUS:  # strand runs downward: reverse the climb
                seq.reverse()
            out.extend(seq)
            del signs[y], kinds[y]
            core_pos = (4 * x0 - drift + 2 * drift * span) % (4 * w)
            core_positions.append((core_pos, core))
        f_words[f_curve] = tuple(out)

    a_words = {}
    for curve, word in state.a_words.items():
        out = []
        for x in word:
            if state.kinds[x] != _AG:
                out.append(x)
                continue
            cluster = sorted(strand_events[x] + [(half, x)])
            seq = [c for _, c in cluster]
            if state.signs[x] == PLUS:  # downward strand meets high laps first
                seq.reverse()
            out.extend(seq)
        a_words[curve] = tuple(out)

    positions = [(4 * slot[a], a) for a in a_germs] + core_positions
    positions.sort()
    gamma_word = tuple(x for _, x in positions)
    return _TwistState(a_words, f_words, gamma_word, signs, kinds)


def _drop_gamma(state: _TwistState) -> tuple[dict, dict, dict]:
    """Forget gamma; the disks and their twisted images, with their signs."""
    families = []
    for words, what, other in ((state.a_words, "disk", "the twisted family"),
                               (state.f_words, "twisted curve", "the disks")):
        kept = {}
        for curve, word in words.items():
            kept[curve] = tuple(x for x in word if state.kinds[x] == _AF)
            if not kept[curve]:
                raise DiagramError(f"{what} {curve} is disjoint from {other}; "
                                   "the result would be a disconnected diagram")
        families.append(kept)
    signs = {x: s for x, s in state.signs.items() if state.kinds[x] == _AF}
    return (*families, signs)


# -- public operations ---------------------------------------------------------


def dehn_twist(base: Diagram, spec: TwistSpec) -> Diagram:
    """Diagram of the disks together with their twisted images along gamma.

    The raw spliced map is passed through bigon reduction, so the output is
    bigon-free with the genus of the base.
    """
    out = Diagram(*_drop_gamma(_twisted(base, spec))).reduce_bigons()
    return _with_genus_of(base, out)


def _twisted(base: Diagram, spec: TwistSpec) -> _TwistState:
    """The lifted base, spliced with every lap of the twist at once."""
    _check_base(base)
    return _splice(_lift(base), abs(spec.power), PLUS if spec.power > 0 else MINUS, "t")


def _check_base(base: Diagram):
    """The disks and their twisted curves will share one diagram."""
    if tuple(base.b_words) != (GAMMA,):
        raise DiagramError("twisting needs a multicurve map with an auxiliary curve")
    if not base.is_bigon_free():
        raise DiagramError("gamma does not meet the disks essentially: bigon present")
    for disk in base.a_words:
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

    The crossings are named ``x`` plus a counter zero-padded to the digit
    count of the crossing number (``x001`` ... ``x288`` for ``(3, 2)``), in
    first-family word order over the sorted disk ids, on the spliced words,
    so the map is built once.
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
    a_words, b_words, signs = _drop_gamma(_twisted(base, TwistSpec(power)))
    order = [x for curve in sorted(a_words) for x in a_words[curve]]
    # x001, x002, ...: the digit strings of the names' width, in counting order
    digits = ["0123456789"] * len(str(len(order)))
    name = dict(zip(order, map("".join, islice(product("x", *digits), 1, None)))).__getitem__
    out = _with_genus_of(base, Diagram(
        {c: tuple(map(name, w)) for c, w in a_words.items()},
        {c: tuple(map(name, w)) for c, w in b_words.items()},
        dict(zip(map(name, signs), signs.values())),
    ))
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
