"""Cut components of a diagram along one family, and disk-system validation.

Cutting the surface along all curves of one family leaves a compact surface
whose components correspond to the complementary pieces of the disk family
in its handlebody.  Each component carries the set of boundary circle
labels (curve index, side) that the criteria modules quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError


@dataclass(frozen=True)
class CutComponent:
    """A component of the surface cut along one family's curves.

    `a_set` lists the boundary circles as (curve index, side) pairs, indices
    1-based within the cut family.  `euler` is the Euler characteristic of
    the compact component, read off its face degrees (see `cut_components`);
    it is planar iff ``euler == 2 - len(a_set)``.
    """

    index: int
    family: str
    faces: tuple[int, ...]
    boundary: tuple[tuple[str, int], ...]
    a_set: frozenset[tuple[int, int]]
    euler: int
    planar: bool


def cut_components(diagram: Diagram, family: str = FAMILY_A) -> tuple[CutComponent, ...]:
    """Components of the surface cut along `family`, ordered by smallest face.

    Faces belong to the same component iff they are connected across edges
    of the *other* family (those edges are not cut); the boundary circles
    are the cut family's sides of those faces.  Faces alternate the two
    families, so a face of degree f accounts for f/2 split crossings (each
    corner is shared by two faces), f/4 interior edges and f/2 boundary
    arcs, and a component's Euler characteristic is the sum of (4 - f)/4
    over its faces.
    """
    if family not in OTHER_FAMILY:
        raise DiagramError(f"unknown family {family!r}")
    other = OTHER_FAMILY[family]

    # union the faces across the other family's edges, each crossing starting
    # one at its out port; a parent is never above its child, so every root
    # is its group's least face
    start, fod, alpha = diagram._face_start, diagram._face_of_dart, diagram._alpha
    parent = list(range(len(start) - 1))
    out = PORTS[other][0]
    for i, j in zip(fod[out::4], map(fod.__getitem__, alpha[out::4])):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j

    # one pass in face order points every face at its root, and the groups
    # arrive in face order
    groups: dict[int, list] = {}
    for f in range(len(parent)):
        parent[f] = root = parent[parent[f]]
        groups.setdefault(root, []).append(f)

    # each side of a cut curve is one boundary circle, on the face left of
    # its out dart (plus) or in dart (minus) at any of its crossings
    out_port, in_port = PORTS[family]
    words = diagram.a_words if family == FAMILY_A else diagram.b_words
    circles: dict[int, list] = {root: [] for root in groups}
    for i, (c, word) in enumerate(words.items(), 1):
        d = 4 * diagram._cindex[word[0]]
        circles[parent[fod[d + in_port]]].append((i, c, MINUS))
        circles[parent[fod[d + out_port]]].append((i, c, PLUS))

    components = []
    for root, faces in groups.items():
        euler = sum(4 - start[f + 1] + start[f] for f in faces) // 4
        components.append(
            CutComponent(
                index=len(components) + 1,
                family=family,
                faces=tuple(faces),
                boundary=tuple((c, s) for _, c, s in circles[root]),
                a_set=frozenset((i, s) for i, _, s in circles[root]),
                euler=euler,
                planar=euler == 2 - len(circles[root]),
            )
        )
    return tuple(components)


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
    comps_b = () if diagram.aux else cut_components(diagram, FAMILY_B)
    return validate_components(diagram, cut_components(diagram, FAMILY_A), comps_b)


def validate_components(
    diagram: Diagram,
    comps_a: tuple[CutComponent, ...],
    comps_b: tuple[CutComponent, ...],
) -> ValidationReport:
    """`validate_disk_systems` on the diagram's already cut components.

    The second family of a multicurve map is not checked, so `comps_b` is
    ignored there.
    """
    report = ValidationReport()
    g = diagram.genus
    if g < 2:
        report.add("genus", f"genus {g} < 2")
    for f in diagram.bigon_faces():
        report.add("bigon", f"bigon face {f.index} between "
                   f"{f.sides[0].curve} and {f.sides[1].curve}")

    for family, count, comps in ((FAMILY_A, len(diagram.a_words), comps_a),
                                 (FAMILY_B, len(diagram.b_words), comps_b)):
        if diagram.aux and family == FAMILY_B:
            report.add("aux", "multicurve maps carry no second disk system")
            continue
        hi = max(3 * g - 3, 0)
        if not g <= count <= hi:
            report.add("count", f"family {family} has {count} curves, outside [{g}, {hi}]")
        for comp in comps:
            where = f"family {family} component {comp.index}"
            if not comp.planar:
                report.add("nonplanar", f"{where} is not planar (euler {comp.euler}, "
                           f"{len(comp.a_set)} boundary circles)")
            if comp.euler == 1 and len(comp.a_set) == 1:
                report.add("disk", f"{where} is a disk; its curve is inessential")
            if comp.euler == 0 and len(comp.a_set) == 2:
                curves = {c for c, _ in comp.boundary}
                if len(curves) == 2:
                    report.add(
                        "parallel",
                        f"{where} is an annulus between distinct curves "
                        f"{sorted(curves)}; the curves are parallel",
                    )
    return report
