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

import itertools
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

from .diagram import FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, Diagram, DiagramError, side_str
from .rectangles import _composed, _side_types
from .systems import ValidationReport, cut_components, validate_components

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
    return _two_connected_failure(graph.neighbors())


def _two_connected_failure(adj: dict) -> Optional[tuple]:
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

    Pairs are ordered by the first block's vertex, then the second's.  A
    2-connected graph on three or more vertices is searched in one pass over
    its skeleton (`_skeleton_witness`); any other graph by one scan of G - a
    per vertex a of the first block (`_scan_witness`).
    """
    if graph.partition is None:
        raise DiagramError("doubly-2-connected test needs a partition")
    adj = graph.neighbors()
    lo, hi = graph.partition
    if len(adj) >= 3 and _two_connected_failure(adj) is None:
        return _skeleton_witness(adj, lo, hi)
    return _scan_witness(adj, lo, hi)


def _scan_witness(adj: dict, lo: frozenset, hi: frozenset) -> Optional[tuple[Vertex, Vertex]]:
    """`doubly_two_connected_witness` by one scan of G - a per a in `lo`.

    If G - a is connected, (a, b) disconnects exactly when b is a cut point
    of G - a.  If G - a is disconnected, every b keeps it disconnected
    except a b that is, on its own, one of exactly two parts.
    """
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


def _skeleton_witness(adj: dict, lo: frozenset, hi: frozenset) -> Optional[tuple[Vertex, Vertex]]:
    """`doubly_two_connected_witness` of a 2-connected graph on >= 3 vertices.

    A chain is a maximal path of degree-2 vertices (a cycle is one chain);
    its ends are the branch vertices (degree >= 3) it runs between.  The
    skeleton K has a node per branch vertex and per chain, a chain node
    joined to its two ends, and the edges between branch vertices; K is
    2-connected too.  Deleting a and b disconnects the graph exactly when

    - a and b are not adjacent and lie on one chain (inside it or at its
      ends), which leaves a piece of that chain cut off, or
    - a and b lie on different nodes x, y of K and y is a cut point of K - x.

    So every pair is decided on the nodes of K, once per node, plus a look
    at the first few vertices of `hi` on each chain that a lies on.
    """
    node = {v: i for i, v in enumerate(v for v in adj if len(adj[v]) > 2)}
    skeleton: dict = {i: set() for i in node.values()}
    on_chain: dict = {}  # chain node -> the vertices inside it and its ends
    for v in adj:
        if len(adj[v]) > 2:
            skeleton[node[v]].update(node[w] for w in adj[v] if len(adj[w]) > 2)
            continue
        if v in node:
            continue
        c = len(skeleton)
        skeleton[c] = set()
        on_chain[c] = {v}
        node[v] = c
        for w in adj[v]:
            prev = v
            while w not in node:
                node[w] = c
                on_chain[c].add(w)
                prev, w = w, next(u for u in adj[w] if u != prev)
            if node[w] != c:
                on_chain[c].add(w)
                skeleton[c].add(node[w])
                skeleton[node[w]].add(c)

    least_hi: dict = {}  # K node -> its least vertex in `hi`
    for b in sorted(hi, reverse=True):
        least_hi[node[b]] = b
    hi_on = {c: sorted(vs & hi) for c, vs in on_chain.items()}
    cut_least: dict = {}  # K node x -> least `hi` vertex on a cut point of K - x
    for a in sorted(lo):
        x = node[a]
        if x not in cut_least:
            rest = {y: nbrs - {x} for y, nbrs in skeleton.items() if y != x}
            cut_least[x] = min((least_hi[y] for y in articulation_points(rest)
                                if y in least_hi), default=None)
        found = [] if cut_least[x] is None else [cut_least[x]]
        for c in (x,) if x in on_chain else (y for y in skeleton[x] if y in on_chain):
            b = next((b for b in hi_on[c] if b not in adj[a]), None)
            if b is not None:
                found.append(b)
        if found:
            return (a, min(found))
    return None


# -- analysis context --------------------------------------------------------


def _numbered(surface: Diagram, comps: tuple, flip: int, family: str) -> tuple:
    """`comps` renumbered by their least dart d ^ flip, as cut components of `family`;
    with flip 0 they already are, being ordered by least face (flip is 0 or 1)."""
    if not flip:
        return comps
    # a face's least d ^ 1, from its least dart m (its orbit's first): m - 1
    # if m is odd, m if m + 1 lies in the face too, else m + 1
    fod = surface._face_of_dart
    least = [m - 1 if m & 1 else m if fod[m + 1] == f else m + 1
             for f, m in enumerate(map(surface._face_darts.__getitem__, surface._face_start[:-1]))]
    order = sorted(comps, key=lambda c: min(map(least.__getitem__, c.faces)))
    return tuple(replace(c, index=i, family=family) for i, c in enumerate(order, 1))


class CriteriaContext:
    """The analysis of one orientation of a diagram, shared by every criterion.

    It cuts each family once; the disk-system `validation`, the rectangle
    indexes and the pair verdicts are all derived from those components.

    A pair verdict says whether the detail graph is 2-connected for every
    l.  It is computed on first use, once per label pair (k, p, q) and once
    per composed-rectangle pair (disk, end_minus, end_plus), and kept in
    `pair_verdicts` and `cross_verdicts` as the first failing l (None when
    it holds).  A pair that is not a key of `rect_index` or
    `composed_index` has an edgeless detail graph at every l, so it fails
    at the first l with two or more labels.  The criteria graphs therefore
    ask for the verdicts of index keys only, unless no A*_l has two labels
    (a diagram that fails validation), where every keyless pair holds and
    every pair is asked.  `component_graph` keeps each G_k, and a disk
    graph takes its block edges from it.  The missing-type search asks for
    the verdicts of the absent edges it explains, keys or not.

    The two orientations are two views of one surface: `swapped`, the view
    with the families exchanged, is built on first use by the same
    `_analyse` from this view's cut components and side types, read with
    the families exchanged, and keeps this diagram's face numbers.  The swap
    renames dart d to d ^ 1 (see the `diagram` module), so each view numbers
    its cut components (the k and l of its witnesses) by their least dart
    d ^ flip, flip 1 when swapped, as a context of `swap_roles()` would.
    The swapped view builds its `diagram` and `validation` only when read.
    Its own `swapped` is this context while this context is alive; it
    refers back weakly, so the two form no reference cycle.
    """

    def __init__(self, diagram: Diagram):
        cuts = {family: cut_components(diagram, family) for family in OTHER_FAMILY}
        self._analyse(diagram, FAMILY_A, cuts, _side_types(diagram))

    def _analyse(self, surface: Diagram, first: str, cuts: dict, types: dict) -> None:
        """Indexes of the view of `surface` whose first family is `first`,
        from its cut components and `_side_types`, both keyed by family."""
        second, flip = OTHER_FAMILY[first], int(first != FAMILY_A)
        self._surface, self._first, self._cuts, self._types = surface, first, cuts, types
        self.comps_a = comps_a = _numbered(surface, cuts[first], flip, FAMILY_A)
        self.comps_b = comps_b = _numbered(surface, cuts[second], flip, FAMILY_B)
        self.m, self.m_star = len(comps_a), len(comps_b)
        counts = (len(surface.a_words), len(surface.b_words))
        self.n, self.n_star = counts[::-1] if flip else counts
        self.pair_verdicts: dict = {}
        self.cross_verdicts: dict = {}
        self._component_graphs: dict = {}
        self._keyless_pairs_hold = all(len(comp.a_set) <= 1 for comp in comps_b)
        self._swapped = None  # a callable that returns the swapped context, or None

        face_to_l = [0] * (len(surface._face_start) - 1)
        for comp in comps_b:
            for fi in comp.faces:
                face_to_l[fi] = comp.index
        a_star = [None] + [comp.a_set for comp in comps_b]

        # a-side pair -> l -> set of b-side pairs that are not loops; most
        # rectangles repeat a few (type, l, b-sides) triples, so each distinct
        # triple is indexed once, in order of first occurrence
        self.rect_index: dict = {}
        for a_sides, l, b_sides in dict.fromkeys(zip(types[first], face_to_l, types[second])):
            if a_sides is None:  # not a rectangle
                continue
            u, v = b_sides
            if u == v:
                continue
            if u not in a_star[l] or v not in a_star[l]:
                raise DiagramError("rectangle crosses its own cut component")
            self.rect_index.setdefault(a_sides, {}).setdefault(l, set()).add(b_sides)

        # (axis, end_minus, end_plus) -> l -> set of b-side pairs that are not loops
        self.composed_index: dict = {}
        for key, b_sides, l, l_plus in dict.fromkeys(
                ((axis, end_minus, end_plus), b_sides, face_to_l[f_minus], face_to_l[f_plus])
                for axis, end_minus, end_plus, b_sides, f_minus, f_plus
                in _composed(surface, first, types)):
            if l_plus != l:
                raise DiagramError("composed rectangle straddles cut components")
            if b_sides[0] == b_sides[1]:
                continue
            self.composed_index.setdefault(key, {}).setdefault(l, set()).add(b_sides)

    @cached_property
    def diagram(self) -> Diagram:
        """The diagram of this orientation; the swapped view builds it on first read."""
        return self._surface if self._first == FAMILY_A else self._surface.swap_roles()

    @cached_property
    def validation(self) -> ValidationReport:
        """The disk-system checks of this orientation, on its own cut components."""
        return validate_components(self.diagram, self.comps_a, self.comps_b)

    @property
    def swapped(self) -> "CriteriaContext":
        """The view with the families exchanged, built once by `_analyse`.

        This context holds it strongly and it refers back weakly; when the
        context it refers back to is gone, a new one is built.
        """
        ctx = None if self._swapped is None else self._swapped()
        if ctx is None:
            if self._surface.aux:
                raise DiagramError("cannot swap the families of a multicurve map")
            ctx = CriteriaContext.__new__(CriteriaContext)
            ctx._analyse(self._surface, OTHER_FAMILY[self._first], self._cuts, self._types)
            ctx._swapped = weakref.ref(self)
            self._swapped = lambda: ctx
        return ctx

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
        """G_k: the labels A_k, with p-q an edge when every detail graph
        G(k, l, p, q) is 2-connected; built once per k.

        A pair with no `rect_index` key has edgeless detail graphs, so it is
        an edge only when no A*_l has two labels (`_keyless_pairs_hold`);
        otherwise only the keys are tested.
        """
        if k not in self._component_graphs:
            a_k = self.a_set(k)
            if self._keyless_pairs_hold:
                pairs = itertools.combinations(sorted(a_k), 2)
            else:
                pairs = (key for key in self.rect_index
                         if key[0] != key[1] and key[0] in a_k and key[1] in a_k)
            edges = [(p, q) for p, q in pairs if self.first_failing_l_detail(k, p, q) is None]
            self._component_graphs[k] = graph_from_edges(edges, vertices=a_k)
        return self._component_graphs[k]

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
        """H_d: the labels of Lambda_{d,-} and Lambda_{d,+}, each tagged by its
        side of D_d, with the two tagged copies as the partition blocks.

        The edges inside a block are the edges of G_k on Lambda_{d,kappa},
        k = `k_of(d, kappa)`.  A cross edge p-q holds when every
        composed-rectangle detail graph of (d, p, q) is 2-connected; only the
        `composed_index` keys with axis d are tested, unless keyless pairs
        hold (see `component_graph`).
        """
        lam_minus = self.lambda_of(disk, MINUS)
        lam_plus = self.lambda_of(disk, PLUS)
        edges = []
        for kappa in (MINUS, PLUS):
            own = (disk, kappa)
            for p, q in self.component_graph(self.k_of(disk, kappa)).edges:
                if own != p and own != q:
                    edges.append(((kappa,) + p, (kappa,) + q))
        if self._keyless_pairs_hold:
            pairs = itertools.product(sorted(lam_minus), sorted(lam_plus))
        else:
            pairs = (key[1:] for key in self.composed_index
                     if key[0] == disk and key[1] in lam_minus and key[2] in lam_plus)
        for p, q in pairs:
            if self.first_failing_l_cross(disk, p, q) is None:
                edges.append(((MINUS,) + p, (PLUS,) + q))
        block_minus = frozenset((MINUS,) + p for p in lam_minus)
        block_plus = frozenset((PLUS,) + p for p in lam_plus)
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


def rectangle_condition(
    diagram: Optional[Diagram], ctx: Optional[CriteriaContext] = None
) -> Verdict:
    """Holds iff the component graph G_k is 2-connected for every k; `diagram`
    is read only when no `ctx` is given, so `ctx` may be a swapped view."""
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
    diagram: Optional[Diagram], ctx: Optional[CriteriaContext] = None
) -> Verdict:
    """Holds iff every disk graph H_d is doubly 2-connected, both ways round.

    The condition is checked on the diagram as given and on the diagram with
    the families exchanged; witnesses record which direction failed.
    `diagram` is read only when no `ctx` is given; the exchanged direction
    uses `ctx.swapped`, so a caller that also checks RC on both sides
    analyses each orientation once.  Disk graphs that pass the
    pairwise-deletion test without being connected are flagged in the note,
    since stronger readings would reject them.
    """
    ctx = ctx or CriteriaContext(diagram)
    witnesses = []
    borderline = []
    for swapped, octx in ((False, ctx), (True, ctx.swapped)):
        for disk in range(1, octx.n + 1):
            hd = octx.disk_graph(disk)
            pair = doubly_two_connected_witness(hd)
            if pair is not None:
                missing = _missing_types(
                    hd, pair, lambda u, v: _missing_disk_edge(octx, disk, u, v)
                )
                witnesses.append(Witness("drc", swapped, disk, "pair", pair, missing))
            # only a block of <= 1 vertex lets a disconnected graph pass: for a != a'
            # and b != b', all parts but one lie in {a, b} and all but one in {a', b'},
            # so the parts are {a, b}, {a', b'}, and likewise {a, b'}, {a', b}: absurd
            elif min(map(len, hd.partition)) <= 1 and len(_connected_parts(hd.neighbors())) > 1:
                borderline.append(f"{'families switched, ' if swapped else ''}H_{disk}")
    holds = not witnesses
    note = NOTE_DRC if holds else ""
    if borderline:
        flag = (
            "informational: the pairwise-deletion reading holds on a "
            "disconnected graph for " + "; ".join(borderline)
        )
        note = f"{note} ({flag})" if note else flag
    return Verdict(holds, tuple(witnesses), note)
