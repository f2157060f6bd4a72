"""Cut components of a diagram along one family, and disk-system validation.

Cutting the surface along all curves of one family leaves a compact surface
whose components correspond to the complementary pieces of the disk family
in its handlebody.  Each component carries the set of boundary circle
labels (curve index, side) that the criteria modules quantify over.  `_cut`
joins the circles into pieces along the other family's edges
(`cut_components`) or within each face class of a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError, _gather,
    _union,
)


@dataclass(frozen=True)
class CutComponent:
    """A component of the surface cut along one family's curves.

    `a_set` lists the boundary circles as (curve index, side) pairs, indices
    1-based within the cut family, and `index` numbers the components of a
    cut from 1 in the order of their least circle.  `euler` is the Euler
    characteristic of the compact component, read off its face count and
    the crossings on its circles.
    """

    index: int
    a_set: frozenset[tuple[int, int]]
    euler: int

    @property
    def planar(self) -> bool:
        """Whether it is a sphere with one hole per circle: ``euler == 2 - len(a_set)``."""
        return self.euler == 2 - len(self.a_set)


def _node(circle: tuple[int, int]) -> int:
    """Circle (curve index, side) as the node 2i + (side is plus), so nodes sort as circles do."""
    return 2 * circle[0] + (circle[1] == PLUS)


def _label(node: int) -> tuple[int, int]:
    """The circle (curve index, side) of `node`."""
    return (node >> 1, PLUS if node & 1 else MINUS)


def cut_components(diagram: Diagram, family: str = FAMILY_A) -> tuple[CutComponent, ...]:
    """Components of the surface cut along `family`, ordered by their least
    boundary circle (curve index, side), minus before plus.

    An edge of the other family is not cut, so the circles at its two ends,
    read off the cut family's darts that follow it round the faces on
    either side, lie in one piece; `_cut` joins them, each distinct pair of
    dart codes decoded once.  A check joins the circles within its face
    classes instead (`criteria.CriteriaContext`).
    """
    if family not in OTHER_FAMILY:
        raise DiagramError(f"unknown family {family!r}")
    out = PORTS[OTHER_FAMILY[family]][0]
    code, phi = diagram._dart_code, diagram._phi
    # the edge from out dart d ends at the crossings of phi[alpha[d]] and phi[d]
    ends = set(zip(_gather(code, _gather(phi, diagram._alpha[out::4])),
                   _gather(code, phi[out::4])))
    return _cut(diagram, family, [((c >> 1) ^ 1, (e >> 1) ^ 1) for c, e in ends])[0]


def _cut(surface: Diagram, family: str, joins) -> tuple:
    """The cut of `surface` along `family` whose pieces are the circles
    joined by the node pairs `joins`: its components, each piece's node set
    and node -> piece index.  The pieces are numbered from 1 by their least
    circle, minus before plus, which the crossing ids do not touch, and a
    face counts towards the piece of its circle on the cut family: on its
    lead dart, or on the next dart round it when the lead is on the other
    family.
    """
    bit, words = (0, surface.a_words) if family == FAMILY_A else (1, surface.b_words)
    parent = _union(list(range(2 * len(words) + 2)), joins)

    # one pass in increasing order points every node at its root, its
    # piece's least circle, and meets the roots in the order of the pieces
    piece = [0, 0]  # node -> piece index from 1; nodes 0 and 1 are no circle
    nodes: list = []
    for x in range(2, len(parent)):
        parent[x] = root = parent[parent[x]]
        if root == x:
            nodes.append([])
        piece.append(piece[root] if root < x else len(nodes))
        nodes[piece[x] - 1].append(x)
    faces = [len(surface._face_lead)]  # each piece's face count
    if len(nodes) > 1:
        code, phi = surface._dart_code, surface._phi
        faces = [0] * len(nodes)
        for d in surface._face_lead:
            if d & 1 != bit:
                d = phi[d]
            faces[piece[(code[d] >> 1) ^ 1] - 1] += 1
    # a piece's boundary arcs are the arcs of its circles, so its face degrees
    # sum to twice the crossings on them, which gives its Euler characteristic
    lengths = [len(word) for word in words.values()]
    comps = []
    for k, (f, ns) in enumerate(zip(faces, nodes), 1):
        circles = frozenset(map(_label, ns))
        euler = (4 * f - 2 * sum(lengths[i - 1] for i, _ in circles)) // 4
        comps.append(CutComponent(k, circles, euler))
    return tuple(comps), tuple(map(frozenset, nodes)), piece


@dataclass
class ValidationReport:
    """Outcome of the disk-system checks, with one entry per failure."""

    entries: list[tuple[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.entries

    def add(self, code: str, detail: str):
        self.entries.append((code, detail))

    def __iter__(self):
        return iter(self.entries)


def validate_disk_systems(diagram: Diagram) -> ValidationReport:
    """Check that both families are disk systems in essential position.

    Passes iff the genus is at least two, no face is a bigon, every cut
    component of either family is planar, none is a disk or an annulus
    between two distinct curves, and both curve counts lie in [g, 3g-3].
    """
    return validate_components(diagram, cut_components(diagram, FAMILY_A),
                               cut_components(diagram, FAMILY_B))


def validate_components(
    diagram: Diagram,
    comps_a: tuple[CutComponent, ...],
    comps_b: tuple[CutComponent, ...],
) -> ValidationReport:
    """`validate_disk_systems` on the diagram's already cut components."""
    report = ValidationReport()
    g = diagram.genus
    if g < 2:
        report.add("genus", f"genus {g} < 2")
    # a bigon has a dart on each family (dart d's is d & 1); its entry names the
    # first family's curve first, in curve index order, which crossing ids do not touch
    names = (tuple(diagram.a_words), tuple(diagram.b_words))
    code = diagram._dart_code
    darts = (sorted(diagram._orbit(f), key=lambda d: d & 1) for f in diagram.bigon_faces())
    for i, j in sorted((code[d] >> 2, code[e] >> 2) for d, e in darts):
        report.add("bigon", f"bigon between {names[0][i - 1]} and {names[1][j - 1]}")

    for family, words, comps in ((FAMILY_A, names[0], comps_a), (FAMILY_B, names[1], comps_b)):
        hi = max(3 * g - 3, 0)
        if not g <= len(words) <= hi:
            curves = f"{len(words)} curve" + "s" * (len(words) != 1)
            report.add("count", f"family {family} has {curves}, outside [{g}, {hi}]")
        for comp in comps:
            where = f"family {family} component {comp.index}"
            if not comp.planar:
                report.add("nonplanar", f"{where} is not planar (euler {comp.euler}, "
                           f"{len(comp.a_set)} boundary circles)")
            if comp.euler == 1 and len(comp.a_set) == 1:
                report.add("disk", f"{where} is a disk; its curve is inessential")
            if comp.euler == 0 and len(comp.a_set) == 2:
                curves = {words[i - 1] for i, _ in comp.a_set}
                if len(curves) == 2:
                    report.add(
                        "parallel",
                        f"{where} is an annulus between distinct curves "
                        f"{sorted(curves)}; the curves are parallel",
                    )
    return report
