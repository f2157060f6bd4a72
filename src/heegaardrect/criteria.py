"""Rectangle condition and double rectangle condition with witnesses.

The two criteria are decided through auxiliary graphs built from rectangle
and composed-rectangle types.  Vertices of the detail graphs are boundary
circle labels (curve index, side) of a cut component of the second family;
vertices of the per-disk graphs are labels of the first family, tagged by
the side of the distinguished disk when both sides are in play.

Connectivity conventions are exactly the ones the criteria quantify over,
which differ from textbook biconnectivity in the small cases: the empty
graph and one-vertex graphs count as connected, hence a one-vertex graph
is 2-connected, and the doubly-2-connected test deletes one vertex from
each block simultaneously and asks nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import FAMILY_A, FAMILY_B, Diagram, DiagramError, MINUS, PLUS, side_str
from .rectangles import _composed, _side_types, _swapped_types
from .systems import _swapped_components, cut_components, validate_components

Vertex = tuple
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class CriteriaGraph:
    """Finite simple graph on tuple-labeled vertices, optionally 2-blocked."""

    vertices: frozenset
    edges: frozenset
    partition: Optional[tuple[frozenset, frozenset]] = None

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise DiagramError(f"loop edge at {u}")
            if u not in self.vertices or v not in self.vertices:
                raise DiagramError(f"edge ({u},{v}) leaves the vertex set")
        if self.partition is not None:
            lo, hi = self.partition
            if lo & hi or (lo | hi) != self.vertices:
                raise DiagramError("partition blocks must be disjoint and cover")

    def neighbors(self) -> dict:
        adj: dict = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def graph_from_edges(edges: Sequence[Edge], vertices=(), partition=None) -> CriteriaGraph:
    vs = set(vertices)
    es = set()
    for u, v in edges:
        if u == v:
            continue
        vs.add(u)
        vs.add(v)
        es.add((u, v) if u <= v else (v, u))
    return CriteriaGraph(frozenset(vs), frozenset(es), partition)


def _connected_parts(adj: dict, removed: frozenset = frozenset()) -> list:
    """Vertex sets of the components of the graph minus `removed`, by least vertex."""
    seen = set(removed)
    parts = []
    for v in sorted(adj):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        parts.append(comp)
    return parts


def is_two_connected(graph: CriteriaGraph) -> bool:
    """Connected, and still connected after deleting any single vertex.

    Implemented through articulation points (iterative lowlink); graphs on
    at most one vertex are 2-connected under this reading.
    """
    return two_connected_witness(graph) is None


def articulation_points(adj: dict) -> set:
    """Articulation points of a connected graph, by iterative DFS lowlink."""
    disc: dict = {}
    low: dict = {}
    points: set = set()
    for root in adj:
        if root in disc:
            continue
        root_children = 0
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = len(disc)
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    low[u] = min(low[u], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, u, iter(adj[w])))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[u])
                if parent == root:
                    root_children += 1
                elif low[u] >= disc[parent]:
                    points.add(parent)
        if root_children > 1:
            points.add(root)
    return points


def two_connected_witness(graph: CriteriaGraph) -> Optional[tuple]:
    """None if 2-connected, else ('disconnected',) or ('cut-vertex', v)."""
    adj = graph.neighbors()
    if len(adj) <= 1:
        return None
    if len(_connected_parts(adj)) > 1:
        return ("disconnected",)
    pts = articulation_points(adj)
    if pts:
        return ("cut-vertex", min(pts))
    return None


def is_doubly_two_connected(graph: CriteriaGraph) -> bool:
    """Connected after deleting any one vertex from each partition block."""
    return doubly_two_connected_witness(graph) is None


def doubly_two_connected_witness(graph: CriteriaGraph) -> Optional[tuple[Vertex, Vertex]]:
    """First vertex pair (one per block) whose deletion disconnects, if any.

    Pairs are ordered by the first block's vertex, then the second's, and
    the search makes one scan of G - a per vertex a of the first block.  If
    G - a is connected, (a, b) disconnects exactly when b is a cut point of
    G - a.  If G - a is disconnected, every b keeps it disconnected except a
    b that is, on its own, one of exactly two parts.
    """
    if graph.partition is None:
        raise DiagramError("doubly-2-connected test needs a partition")
    adj = graph.neighbors()
    lo, hi = graph.partition
    hi_sorted = sorted(hi)
    for a in sorted(lo):
        rest = {v: nbrs - {a} for v, nbrs in adj.items() if v != a}
        parts = _connected_parts(rest)
        if len(parts) <= 1:
            cut = articulation_points(rest) & hi
            if cut:
                return (a, min(cut))
            continue
        alone = set()
        if len(parts) == 2:
            alone = {v for part in parts if len(part) == 1 for v in part}
        for b in hi_sorted:
            if b not in alone:
                return (a, b)
    return None


# -- analysis context --------------------------------------------------------


class CriteriaContext:
    """The analysis of one diagram orientation, shared by every criterion.

    It cuts each family once; the disk-system `validation`, the rectangle
    indexes and the pair verdicts are all derived from those components.

    A pair verdict says whether the detail graph is 2-connected for every
    l.  It is computed on first use, once per label pair (k, p, q) and once
    per composed-rectangle pair (disk, end_minus, end_plus), and kept in
    `pair_verdicts` and `cross_verdicts` as the first failing l (None when
    it holds).  The component graphs, the disk graphs and the missing-type
    search all read these.

    `swapped`, the context of the diagram with the families exchanged, is
    built on first use and kept (its own `swapped` is this context).  It
    builds the swapped `Diagram` but reuses this context's cut components
    and rectangle side types, renumbered through the face correspondence.
    """

    def __init__(self, diagram: Diagram):
        self._analyse(diagram, cut_components(diagram, FAMILY_A),
                      cut_components(diagram, FAMILY_B), _side_types(diagram))

    def _analyse(self, diagram: Diagram, comps_a, comps_b, types) -> None:
        """Validation and indexes from the cut components and `_side_types`."""
        self.diagram = diagram
        self.comps_a = comps_a
        self.comps_b = comps_b
        self._types = types
        self.validation = validate_components(diagram, comps_a, comps_b)
        self.m = len(comps_a)
        self.m_star = len(comps_b)
        self.n = len(diagram.a_words)
        self.n_star = len(diagram.b_words)
        self.pair_verdicts: dict = {}
        self.cross_verdicts: dict = {}
        self._swapped: Optional[CriteriaContext] = None

        face_to_l = {}
        for comp in comps_b:
            for fi in comp.faces:
                face_to_l[fi] = comp.index

        # a-side pair -> l -> set of b-side pairs that are not loops
        self.rect_index: dict = {}
        for fi, a_sides in types[FAMILY_A].items():
            u, v = b_sides = types[FAMILY_B][fi]
            if u == v:
                continue
            l = face_to_l[fi]
            if not {u, v} <= self.a_star_set(l):
                raise DiagramError("rectangle crosses its own cut component")
            self.rect_index.setdefault(a_sides, {}).setdefault(l, set()).add(b_sides)

        # (axis, end_minus, end_plus) -> l -> set of b-side pairs that are not loops
        self.composed_index: dict = {}
        for ctype, f_minus, f_plus in _composed(diagram, FAMILY_A, types):
            l = face_to_l[f_minus.index]
            if face_to_l[f_plus.index] != l:
                raise DiagramError("composed rectangle straddles cut components")
            if ctype.b_sides[0] == ctype.b_sides[1]:
                continue
            key = (ctype.axis, ctype.end_minus, ctype.end_plus)
            self.composed_index.setdefault(key, {}).setdefault(l, set()).add(ctype.b_sides)

    @property
    def swapped(self) -> "CriteriaContext":
        """Context of the diagram with the families exchanged, built once.

        Dart d is dart d ^ 1 of the swap (see `diagram`), so face f is face
        perm[f] there; the components and side types are mapped through it.
        """
        if self._swapped is None:
            diagram = self.diagram.swap_roles()
            perm = [diagram.face_of_dart(f.darts[0] ^ 1) for f in self.diagram.faces]
            ctx = CriteriaContext.__new__(CriteriaContext)
            ctx._analyse(diagram, _swapped_components(self.comps_b, perm),
                         _swapped_components(self.comps_a, perm),
                         _swapped_types(self._types, perm))
            ctx._swapped = self
            self._swapped = ctx
        return self._swapped

    def a_set(self, k: int) -> frozenset:
        if not 1 <= k <= self.m:
            raise DiagramError(f"component index {k} out of range 1..{self.m}")
        return self.comps_a[k - 1].a_set

    def a_star_set(self, l: int) -> frozenset:
        if not 1 <= l <= self.m_star:
            raise DiagramError(f"component index {l} out of range 1..{self.m_star}")
        return self.comps_b[l - 1].a_set

    def k_of(self, disk: int, side: int) -> int:
        """Index k of the first-family component whose labels A_k hold (disk, side)."""
        if not 1 <= disk <= self.n:
            raise DiagramError(f"disk index {disk} out of range 1..{self.n}")
        if side not in (MINUS, PLUS):
            raise DiagramError("side must be +1 or -1")
        for comp in self.comps_a:
            if (disk, side) in comp.a_set:
                return comp.index
        raise DiagramError(f"({disk},{side_str(side)}) not on any component")

    def lambda_of(self, disk: int, side: int) -> frozenset:
        """The punctured label set A_k minus (disk, side), k = `k_of(disk, side)`."""
        k = self.k_of(disk, side)
        return frozenset(self.a_set(k) - {(disk, side)})

    # -- graph builders ----------------------------------------------------

    def detail_graph(self, k: int, l: int, p: Vertex, q: Vertex) -> CriteriaGraph:
        self._check_detail_pair(k, p, q)
        vertices = self.a_star_set(l)
        edges = self.rect_index.get((p, q) if p <= q else (q, p), {}).get(l, ())
        return graph_from_edges(edges, vertices=vertices)

    def _check_detail_pair(self, k: int, p: Vertex, q: Vertex) -> None:
        a_k = self.a_set(k)
        if p not in a_k or q not in a_k:
            raise DiagramError(f"{p} or {q} is not in A_{k}")

    def component_graph(self, k: int) -> CriteriaGraph:
        a_k = sorted(self.a_set(k))
        edges = []
        for i, p in enumerate(a_k):
            for q in a_k[i + 1:]:
                if self.first_failing_l_detail(k, p, q) is None:
                    edges.append((p, q))
        return graph_from_edges(edges, vertices=a_k)

    def cross_detail_graph(
        self, l: int, disk: int, end_minus: Vertex, end_plus: Vertex
    ) -> CriteriaGraph:
        self._check_cross_pair(disk, end_minus, end_plus)
        vertices = self.a_star_set(l)
        edges = self.composed_index.get((disk, end_minus, end_plus), {}).get(l, ())
        return graph_from_edges(edges, vertices=vertices)

    def _check_cross_pair(self, disk: int, end_minus: Vertex, end_plus: Vertex) -> None:
        for end, side in ((end_minus, MINUS), (end_plus, PLUS)):
            if end == (disk, side) or end not in self.a_set(self.k_of(disk, side)):
                raise DiagramError(f"{end} is not in Lambda_({disk},{side_str(side)})")

    def disk_graph(self, disk: int) -> CriteriaGraph:
        lam_minus = sorted(self.lambda_of(disk, MINUS))
        lam_plus = sorted(self.lambda_of(disk, PLUS))
        block_minus = frozenset((MINUS,) + p for p in lam_minus)
        block_plus = frozenset((PLUS,) + p for p in lam_plus)
        edges = []
        for kappa, lam in ((MINUS, lam_minus), (PLUS, lam_plus)):
            k = self.k_of(disk, kappa)
            for i, p in enumerate(lam):
                for q in lam[i + 1:]:
                    if self.first_failing_l_detail(k, p, q) is None:
                        edges.append(((kappa,) + p, (kappa,) + q))
        for p in lam_minus:
            for q in lam_plus:
                if self.first_failing_l_cross(disk, p, q) is None:
                    edges.append(((MINUS,) + p, (PLUS,) + q))
        return graph_from_edges(
            edges,
            vertices=block_minus | block_plus,
            partition=(block_minus, block_plus),
        )

    # -- pair verdicts -----------------------------------------------------

    def first_failing_l_detail(self, k: int, p: Vertex, q: Vertex) -> Optional[int]:
        """First l whose detail graph G(k, l, p, q) is not 2-connected, or None."""
        key = (k, p, q) if p <= q else (k, q, p)
        if key not in self.pair_verdicts:
            self._check_detail_pair(k, p, q)
            self.pair_verdicts[key] = self._first_failing_l(
                self.rect_index.get(key[1:], {}),
                lambda l: self.detail_graph(k, l, p, q),
            )
        return self.pair_verdicts[key]

    def first_failing_l_cross(
        self, disk: int, end_minus: Vertex, end_plus: Vertex
    ) -> Optional[int]:
        """First l whose composed-rectangle detail graph is not 2-connected, or None."""
        key = (disk, end_minus, end_plus)
        if key not in self.cross_verdicts:
            self._check_cross_pair(disk, end_minus, end_plus)
            self.cross_verdicts[key] = self._first_failing_l(
                self.composed_index.get(key, {}),
                lambda l: self.cross_detail_graph(l, disk, end_minus, end_plus),
            )
        return self.cross_verdicts[key]

    def _first_failing_l(self, edges_by_l: dict, graph) -> Optional[int]:
        """First l whose detail graph `graph(l)` is not 2-connected, or None.

        A 2-connected graph on n >= 3 vertices has at least n edges, so an l
        with fewer edges in `edges_by_l` fails without its graph being built.
        """
        for comp in self.comps_b:
            n = len(comp.a_set)
            if n >= 3 and len(edges_by_l.get(comp.index, ())) < n:
                return comp.index
            if not is_two_connected(graph(comp.index)):
                return comp.index
        return None


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class MissingType:
    """A rectangle or composed-rectangle type whose absence broke an edge."""

    kind: str  # "rectangle" | "composed-rectangle"
    a_data: tuple
    first_failing_l: Optional[int]
    failing_vertex: Optional[tuple]

    def describe(self) -> str:
        if self.kind == "rectangle":
            (i, e), (j, dl) = self.a_data
            head = f"rectangle of type ((D_{i},{side_str(e)}),(D_{j},{side_str(dl)}); .,.)"
        else:
            (i, e), d, (j, dl) = self.a_data
            head = (
                f"composed rectangle of type ((D_{i},{side_str(e)}),"
                f"D_{d},(D_{j},{side_str(dl)}); .,.)"
            )
        tail = ""
        if self.first_failing_l is not None:
            tail = f" [detail graph fails first at l={self.first_failing_l}"
            if self.failing_vertex is not None:
                tail += f", vertex {_fmt_vertex(self.failing_vertex)}"
            tail += "]"
        return "missing " + head + tail


@dataclass(frozen=True)
class Witness:
    """One failure record of a criterion."""

    kind: str  # "rc" | "drc"
    swapped: bool  # True when the families were exchanged for this check
    index: int  # failing component index k, or disk index d
    reason: str  # "disconnected" | "cut-vertex" | "pair"
    vertices: tuple
    missing: tuple = ()

    def describe(self) -> str:
        where = "after switching the families, " if self.swapped else ""
        if self.kind == "rc":
            head = f"{where}G_{self.index} is not 2-connected"
        else:
            head = f"{where}H_{self.index} is not doubly 2-connected"
        if self.reason == "disconnected":
            head += " (already disconnected)"
        elif self.vertices:
            head += f" (delete {', '.join(_fmt_vertex(v) for v in self.vertices)})"
        return head


def _fmt_vertex(v: tuple) -> str:
    if len(v) == 2:
        return f"({v[0]},{side_str(v[1])})"
    if len(v) == 3:
        return f"({side_str(v[0])};{v[1]},{side_str(v[2])})"
    return str(v)


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus machine-readable witnesses."""

    holds: bool
    witnesses: tuple[Witness, ...]
    note: str = ""

    def __post_init__(self):
        if self.holds != (not self.witnesses):
            raise DiagramError("verdict boolean must match witness emptiness")


NOTE_RC = "the Heegaard splitting is strongly irreducible"
NOTE_DRC = "the Goeritz group of the Heegaard splitting is finite"


def rectangle_condition(diagram: Diagram, ctx: Optional[CriteriaContext] = None) -> Verdict:
    """Holds iff the component graph G_k is 2-connected for every k."""
    ctx = ctx or CriteriaContext(diagram)
    witnesses = []
    for k in range(1, ctx.m + 1):
        gk = ctx.component_graph(k)
        failure = two_connected_witness(gk)
        if failure is None:
            continue
        if failure[0] == "disconnected":
            reason, verts = "disconnected", ()
        else:
            reason, verts = "cut-vertex", (failure[1],)
        missing = _missing_types(gk, verts, lambda p, q: _missing_rectangle(ctx, k, p, q))
        witnesses.append(
            Witness("rc", False, k, reason, verts, missing)
        )
    holds = not witnesses
    return Verdict(holds, tuple(witnesses), NOTE_RC if holds else "")


def _missing_types(graph, deleted, explain, cap=6) -> tuple:
    """Absent edges between the parts of `graph` minus `deleted` that would
    reconnect it, each explained by `explain(u, v)` as a `MissingType`."""
    parts = _connected_parts(graph.neighbors(), frozenset(deleted))
    missing = []
    for i, part in enumerate(parts):
        for other in parts[i + 1:]:
            for u in sorted(part):
                for v in sorted(other):
                    missing.append(explain(u, v))
                    if len(missing) >= cap:
                        return tuple(missing)
    return tuple(missing)


def _missing_type(kind, a_data, l_fail, graph_of_l) -> MissingType:
    """The missing type, with the vertex where the detail graph at `l_fail` breaks."""
    vert = None
    if l_fail is not None:
        w = two_connected_witness(graph_of_l(l_fail))
        vert = w[1] if w and len(w) > 1 else None
    return MissingType(kind, a_data, l_fail, vert)


def _missing_rectangle(ctx, k, p, q) -> MissingType:
    """The rectangle type for the absent edge p-q of G_k."""
    p, q = sorted((p, q))
    return _missing_type("rectangle", (p, q), ctx.first_failing_l_detail(k, p, q),
                         lambda l: ctx.detail_graph(k, l, p, q))


def _missing_disk_edge(ctx, disk, u, v) -> MissingType:
    """The type for the absent edge u-v of H_d: a rectangle inside one block,
    a composed rectangle across the blocks."""
    if u[0] == v[0]:
        return _missing_rectangle(ctx, ctx.k_of(disk, u[0]), u[1:], v[1:])
    em, ep = (u[1:], v[1:]) if u[0] == MINUS else (v[1:], u[1:])
    return _missing_type("composed-rectangle", (em, disk, ep),
                         ctx.first_failing_l_cross(disk, em, ep),
                         lambda l: ctx.cross_detail_graph(l, disk, em, ep))


def double_rectangle_condition(
    diagram: Diagram, ctx: Optional[CriteriaContext] = None
) -> Verdict:
    """Holds iff every disk graph H_d is doubly 2-connected, both ways round.

    The condition is checked on the diagram as given and on the diagram with
    the families exchanged; witnesses record which direction failed.  A
    given `ctx` must be the context of `diagram`; the exchanged direction
    then uses `ctx.swapped`, so a caller that also checks RC on both sides
    builds each context once.  Disk graphs that pass the pairwise-deletion
    test without being connected are flagged in the note, since stronger
    readings would reject them.
    """
    ctx = ctx or CriteriaContext(diagram)
    witnesses = []
    borderline = []
    for swapped, octx in ((False, ctx), (True, ctx.swapped)):
        for disk in range(1, octx.n + 1):
            hd = octx.disk_graph(disk)
            pair = doubly_two_connected_witness(hd)
            if pair is None:
                if len(_connected_parts(hd.neighbors())) > 1:
                    tag = "families switched, " if swapped else ""
                    borderline.append(f"{tag}H_{disk}")
                continue
            missing = _missing_types(
                hd, pair, lambda u, v: _missing_disk_edge(octx, disk, u, v)
            )
            witnesses.append(Witness("drc", swapped, disk, "pair", pair, missing))
    holds = not witnesses
    note = NOTE_DRC if holds else ""
    if borderline:
        flag = (
            "informational: the pairwise-deletion reading holds on a "
            "disconnected graph for " + "; ".join(borderline)
        )
        note = f"{note} ({flag})" if note else flag
    return Verdict(holds, tuple(witnesses), note)
