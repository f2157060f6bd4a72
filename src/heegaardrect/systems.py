"""Cut components of a diagram along one family, and disk-system validation.

Cutting the surface along all curves of one family leaves a compact surface
whose components correspond to the complementary pieces of the disk family
in its handlebody.  Each component carries the set of boundary circle
labels (curve index, side) that the criteria modules quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import A_IN, A_OUT, B_IN, B_OUT, FAMILY_A, FAMILY_B, Diagram, DiagramError


@dataclass(frozen=True)
class CutComponent:
    """A component of the surface cut along one family's curves.

    `a_set` lists the boundary circles as (curve index, side) pairs, indices
    1-based within the cut family.  `euler` is the Euler characteristic of
    the compact component; it is planar iff ``euler == 2 - len(a_set)``.
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
    of the *other* family (those edges are not cut).  The per-component
    Euler characteristic counts faces, interior other-family edges, cut-side
    boundary arcs and split crossing vertices.
    """
    if family not in (FAMILY_A, FAMILY_B):
        raise DiagramError(f"unknown family {family!r}")
    cut_a = family == FAMILY_A

    nf = len(diagram.faces)
    parent = list(range(nf))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    out_port = B_OUT if cut_a else A_OUT
    edges = diagram.b_edges() if cut_a else diagram.a_edges()
    interior_edges = []
    for _, x, _y in edges:
        d = diagram.dart(x, out_port)
        f1 = diagram.face_of_dart(d)
        f2 = diagram.face_of_dart(diagram.mate(d))
        union(f1, f2)
        interior_edges.append(d)

    groups: dict[int, list[int]] = {}
    for i in range(nf):
        groups.setdefault(find(i), []).append(i)

    cut_ids = diagram.a_curve_ids() if cut_a else diagram.b_curve_ids()
    index_of_curve = {c: i + 1 for i, c in enumerate(cut_ids)}
    cut_family_tag = FAMILY_A if cut_a else FAMILY_B

    # boundary arcs of the cut family, grouped per component
    boundary_arcs: dict[int, list[tuple[str, int]]] = {r: [] for r in groups}
    boundary_arc_count: dict[int, int] = {r: 0 for r in groups}
    for f in diagram.faces:
        r = find(f.index)
        for s in f.sides:
            if s.family == cut_family_tag:
                boundary_arcs[r].append((s.curve, s.side))
                boundary_arc_count[r] += 1

    # split vertices: each crossing contributes one vertex per side of its
    # cut-family strand, assigned to the component of the adjacent quadrant
    vertex_count: dict[int, int] = {r: 0 for r in groups}
    plus_port = A_OUT if cut_a else B_OUT
    minus_port = A_IN if cut_a else B_IN
    for x in diagram.crossing_ids():
        for port in (plus_port, minus_port):
            r = find(diagram.face_of_dart(diagram.dart(x, port)))
            vertex_count[r] += 1

    interior_count: dict[int, int] = {r: 0 for r in groups}
    for d in interior_edges:
        interior_count[find(diagram.face_of_dart(d))] += 1

    components = []
    for r in sorted(groups, key=lambda r: min(groups[r])):
        faces = tuple(sorted(groups[r]))
        circles = sorted({(c, s) for c, s in boundary_arcs[r]})
        a_set = frozenset((index_of_curve[c], s) for c, s in circles)
        if len(a_set) != len(circles):
            raise DiagramError("inconsistent boundary circle labels")
        euler = vertex_count[r] - (interior_count[r] + boundary_arc_count[r]) + len(faces)
        planar = euler == 2 - len(circles)
        components.append(
            CutComponent(
                index=len(components) + 1,
                family=family,
                faces=faces,
                boundary=tuple(circles),
                a_set=a_set,
                euler=euler,
                planar=planar,
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
        if not (g <= count <= max(3 * g - 3, 0)):
            report.add(
                "count",
                f"family {family} has {count} curves, outside [{g}, {3 * g - 3}]",
            )
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
