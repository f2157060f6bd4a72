"""Cut components of a diagram along one family, and disk-system validation.

Cutting the surface along all curves of one family leaves a compact surface
whose components correspond to the complementary pieces of the disk family
in its handlebody.  Each component carries the set of boundary circle
labels (curve index, side) that the criteria modules quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError, _union,
)


@dataclass(frozen=True)
class CutComponent:
    """A component of the surface cut along one family's curves.

    `a_set` lists the boundary circles as (curve index, side) pairs, indices
    1-based within the cut family, and `index` numbers the components of a
    cut from 1 in the order of their least circle.  `euler` is the Euler
    characteristic of the compact component, read off its faces (see
    `cut_components`); it is planar iff ``euler == 2 - len(a_set)``.
    """

    index: int
    faces: tuple[int, ...]
    a_set: frozenset[tuple[int, int]]
    euler: int
    planar: bool


def cut_components(diagram: Diagram, family: str = FAMILY_A) -> tuple[CutComponent, ...]:
    """Components of the surface cut along `family`, ordered by their least
    boundary circle (curve index, side), minus before plus.

    Faces belong to the same component iff they are connected across edges
    of the *other* family (those edges are not cut); the boundary circles
    are the cut family's sides of those faces.  Faces alternate the two
    families, so a face of degree f accounts for f/2 split crossings (each
    corner is shared by two faces), f/4 interior edges and f/2 boundary
    arcs, and a component's Euler characteristic is the sum of (4 - f)/4
    over its faces (`_component` reads it off the crossings on its
    circles).  A check cuts both families from the face classes it already
    holds (`criteria._cut_classes`) instead of running this face union.
    """
    if family not in OTHER_FAMILY:
        raise DiagramError(f"unknown family {family!r}")
    other = OTHER_FAMILY[family]

    # union the faces across the other family's edges, each crossing starting
    # one at its out port; every root is its group's least face
    fod, alpha = diagram._face_of_dart, diagram._alpha
    out = PORTS[other][0]
    parent = _union(list(range(len(diagram._face_degree))),
                    zip(fod[out::4], map(fod.__getitem__, alpha[out::4])))

    # one pass in face order points every face at its root
    groups: dict[int, list] = {}
    for f in range(len(parent)):
        parent[f] = root = parent[parent[f]]
        groups.setdefault(root, []).append(f)

    # each side of a cut curve is one boundary circle, on the face left of
    # its out dart (plus) or in dart (minus) at any of its crossings
    out_port, in_port = PORTS[family]
    words = diagram.a_words if family == FAMILY_A else diagram.b_words
    crossing = dict(zip(diagram._dart_curve[out_port::4], range(0, len(alpha), 4)))
    circles: dict[int, list] = {root: [] for root in groups}
    for i, d in sorted(crossing.items()):
        circles[parent[fod[d + in_port]]].append((i, MINUS))
        circles[parent[fod[d + out_port]]].append((i, PLUS))

    lengths = [len(word) for word in words.values()]
    roots = sorted(groups, key=lambda root: min(circles[root]))
    return tuple(_component(k, groups[root], circles[root], lengths)
                 for k, root in enumerate(roots, 1))


def _component(index: int, faces, circles: list, lengths: list) -> CutComponent:
    """The cut component with these faces and boundary circles, (curve index,
    side) pairs, `lengths` giving each cut curve's crossing count by index.
    Its boundary arcs are the arcs of its circles, so its face degrees sum to
    twice the crossings on them, which gives its Euler characteristic."""
    faces = tuple(faces)
    euler = (4 * len(faces) - 2 * sum(lengths[i - 1] for i, _ in circles)) // 4
    return CutComponent(index, faces, frozenset(circles), euler, euler == 2 - len(circles))


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
    curve = diagram._dart_curve
    darts = (sorted(diagram._orbit(f), key=lambda d: d & 1) for f in diagram.bigon_faces())
    for i, j in sorted((curve[d], curve[e]) for d, e in darts):
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
