"""Rectangle condition and double rectangle condition with witnesses.

The two criteria are decided through auxiliary graphs built from rectangle
and composed-rectangle types.  Vertices of the detail graphs are boundary
circle labels (curve index, side) of a cut component of the second family;
vertices of the per-disk graphs are labels of the first family, tagged by
the side of the distinguished disk when both sides are in play.  Inside
this module, as in `systems`, circle (i, side) is the node 2i + (side is
plus), and H_d's vertex (kappa, i, side) is that node plus 2(n + 1) when
kappa is plus, so nodes sort as the tuples do.  Tuples (`_label`,
`_vertex`) come back only in witnesses, graph exports and accessors.

Connectivity conventions are exactly the ones the criteria quantify over,
which differ from textbook biconnectivity in the small cases: the empty
graph and one-vertex graphs count as connected, hence a one-vertex graph
is 2-connected, and the doubly-2-connected test deletes one vertex from
each block simultaneously and asks nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Optional, Sequence

from .diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError, _gather,
    side_str,
)
from .systems import _cut, _label, _node, validate_components

Vertex = tuple
Edge = tuple[Vertex, Vertex]


def _vertex(node: int, plus: int) -> Vertex:
    """H_d's vertex of `node`, `plus` = 2(n + 1) being the tag of its plus block."""
    return (PLUS,) + _label(node - plus) if node >= plus else (MINUS,) + _label(node)


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


def _adjacency(vertices, edges) -> dict:
    """Vertex -> set of neighbours, for edges with both ends in `vertices`."""
    adj: dict = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components(adj: dict) -> tuple[list, set]:
    """The vertex sets of the components of `adj`, by least vertex, and its
    cut points, in one pass of iterative DFS lowlink."""
    disc: dict = {}
    low: dict = {}
    parts: list = []
    points: set = set()
    for root in sorted(adj):
        if root in disc:
            continue
        root_children = 0
        part = {root}
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = len(disc)
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    low[u] = min(low[u], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    part.add(w)
                    stack.append((w, u, iter(adj[w])))
                    break
            else:  # u is done
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[u])
                    if parent == root:
                        root_children += 1
                    elif low[u] >= disc[parent]:
                        points.add(parent)
        if root_children > 1:
            points.add(root)
        parts.append(part)
    return parts, points


def _two_connected_failure(adj: dict) -> Optional[tuple]:
    """None if 2-connected, else ('disconnected',) or ('cut-vertex', v)."""
    parts, points = _components(adj)
    if len(parts) > 1:
        return ("disconnected",)
    return ("cut-vertex", min(points)) if points else None


def doubly_two_connected_witness(graph: CriteriaGraph) -> Optional[tuple[Vertex, Vertex]]:
    """First vertex pair (one per block) whose deletion disconnects, if any,
    ordered by the first block's vertex, then the second's: `_pair_witness`,
    the search `double_rectangle_condition` runs on each H_d."""
    if graph.partition is None:
        raise DiagramError("doubly-2-connected test needs a partition")
    return _pair_witness(_adjacency(graph.vertices, graph.edges), *graph.partition)


def _pair_witness(adj: dict, lo: frozenset, hi: frozenset) -> Optional[tuple[Vertex, Vertex]]:
    """`doubly_two_connected_witness` of the adjacency `adj` with blocks `lo`, `hi`.

    A graph on three or more vertices of minimum degree 2 and its skeleton K
    subdivide one multigraph (a chain with one end gives K a degree-1 node, a
    lone cycle an isolated one), so K decides whether the graph is 2-connected,
    and then one pass over K finds the pair; any other graph is scanned.
    """
    if len(adj) >= 3 and min(map(len, adj.values())) >= 2:
        skeleton = _skeleton(adj)
        if _two_connected_failure(skeleton[1]) is None:
            return _skeleton_witness(adj, lo, hi, *skeleton)
    return _scan_witness(adj, lo, hi)


def _scan_witness(adj: dict, lo: frozenset, hi: frozenset) -> Optional[tuple[Vertex, Vertex]]:
    """`doubly_two_connected_witness` by one scan of G - a per a in `lo`.

    If G - a is connected, (a, b) disconnects exactly when b is a cut point
    of G - a.  If G - a is disconnected, every b keeps it disconnected
    except a b that is, on its own, one of exactly two parts.
    """
    hi_sorted = sorted(hi)
    for a in sorted(lo):
        parts, points = _components({v: nbrs - {a} for v, nbrs in adj.items() if v != a})
        if len(parts) <= 1:
            cut = points & hi
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


def _skeleton(adj: dict) -> tuple[dict, dict, dict]:
    """The skeleton K of a graph of minimum degree 2: (vertex -> its K node,
    K's adjacency, chain node -> the vertices inside the chain and its ends).
    A chain is a maximal path of degree-2 vertices (a cycle is one chain);
    its ends are the branch vertices (degree >= 3) it runs between.  K has a
    node per branch vertex and per chain, a chain node joined to its ends,
    and the edges between branch vertices.
    """
    node = {v: i for i, v in enumerate(v for v in adj if len(adj[v]) > 2)}
    skeleton: dict = {i: set() for i in node.values()}
    on_chain: dict = {}
    for v in adj:
        if len(adj[v]) > 2:
            skeleton[node[v]].update(node[w] for w in adj[v] if len(adj[w]) > 2)
            continue
        if v in node:
            continue
        node[v] = c = len(skeleton)
        skeleton[c], on_chain[c] = set(), {v}
        for w in adj[v]:
            prev = v
            while w not in node:
                node[w] = c
                on_chain[c].add(w)
                x, y = adj[w]
                prev, w = w, y if x == prev else x
            if node[w] != c:
                on_chain[c].add(w)
                skeleton[c].add(node[w])
                skeleton[node[w]].add(c)
    return node, skeleton, on_chain


def _skeleton_witness(adj, lo, hi, node, skeleton, on_chain) -> Optional[tuple[Vertex, Vertex]]:
    """`doubly_two_connected_witness` of a 2-connected graph on >= 3 vertices,
    from its `_skeleton` K, which is 2-connected too.  Deleting a and b
    disconnects the graph exactly when

    - a and b are not adjacent and lie on one chain (inside it or at its
      ends), which leaves a piece of that chain cut off, or
    - a and b lie on different nodes x, y of K and y is a cut point of K - x.

    So every pair is decided on the nodes of K, once per node, plus a look
    at the first few vertices of `hi` on each chain that a lies on.
    """
    least_hi: dict = {}  # K node -> its least vertex in `hi`
    for b in sorted(hi, reverse=True):
        least_hi[node[b]] = b
    hi_on = {c: sorted(vs & hi) for c, vs in on_chain.items()}
    cut_least: dict = {}  # K node x -> least `hi` vertex on a cut point of K - x
    for a in sorted(lo):
        x = node[a]
        if x not in cut_least:
            rest = {y: nbrs - {x} for y, nbrs in skeleton.items() if y != x}
            cut_least[x] = min((least_hi[y] for y in _components(rest)[1]
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


def _class_table(surface: Diagram) -> tuple:
    """The faces of `surface` sorted into classes, each class decoded once.

    A face's class is its key: its degree and the codes (``4 * curve +
    port``, `Diagram._dart_code`) of the first four darts of its orbit, five
    fields from four gathers.  Faces of one class have the same sides, and
    most faces of a large diagram fall into a few classes, so the keys are
    gathered and deduplicated at C speed and only the distinct ones are
    decoded.  A face's darts alternate the two families, so darts 0 and 2 of
    its orbit lie on one family and darts 1 and 3 on the other; the sorted
    pair of their sides, as nodes (``(code >> 1) ^ 1``), is the class's pair
    on that family, each distinct pair one tuple.  Returns each face's
    class, numbered by its first face; class -> ((a-type, b-type), (a-pair,
    b-pair)), a type being the pair of a rectangle (a face of degree 4,
    whose pairs are all its sides) and None for any other face; and the
    faces of degree above 4, the only ones with sides beyond their key.
    """
    degrees, code, phi = surface._face_degree, surface._dart_code, surface._phi
    # the codes of the first four darts of every orbit, from its least, each
    # dart the face successor `phi` of the last, so a bigon repeats its two;
    # only the last darts are kept, as tuples, which `_gather` does not copy
    darts, columns = tuple(surface._face_lead), []
    for _ in range(3):
        columns.append(_gather(code, darts))
        darts = _gather(phi, darts)
    columns.append(_gather(code, darts))
    classes: dict = {}
    face_class = list(map(classes.setdefault, zip(degrees, *columns), count()))

    decoded, pairs = {}, {}
    for (degree, c0, c1, c2, c3), i in classes.items():
        p, q = (c0 >> 1) ^ 1, (c2 >> 1) ^ 1
        u, v = (c1 >> 1) ^ 1, (c3 >> 1) ^ 1
        own, other = (p, q) if p <= q else (q, p), (u, v) if u <= v else (v, u)
        sides = pairs.setdefault(own, own), pairs.setdefault(other, other)
        if c0 & 1:  # dart 0 is on the second family
            sides = sides[::-1]
        decoded[i] = (sides if degree == 4 else (None, None)), sides
    return face_class, decoded, list(compress(count(), map((4).__lt__, degrees)))


def _axis_edges(surface: Diagram, family: str, face_class: list):
    """(axis code, minus class, plus class) of each edge of a `family` curve,
    by crossing: the edge that leaves it along that family, and the code of
    its out dart, ``4 * axis`` plus the out port.  The face left of the out
    dart is on the plus side of the edge, the face of its mate on the minus
    side."""
    out = PORTS[family][0]
    fod = surface._face_of_dart
    return zip(surface._dart_code[out::4],
               _gather(face_class, _gather(fod, surface._alpha[out::4])),
               _gather(face_class, fod[out::4]))


def _glued_once(surface: Diagram, family: str, x: int) -> bool:
    """Whether the two faces on the `family` edge that leaves crossing index
    x share no other edge: one arc of the minus face has the plus face across."""
    fod, alpha = surface._face_of_dart, surface._alpha
    d = 4 * x + PORTS[family][0]
    return [fod[alpha[e]] for e in surface._orbit(fod[alpha[d]])].count(fod[d]) == 1


class CriteriaContext:
    """The analysis of one orientation of a diagram, shared by every criterion.

    It sorts the faces into classes once (`_class_table`) and cuts each
    family by `systems._cut`, joining the circles within each class, where
    `cut_components` joins them along the other family's edges; the
    disk-system `validation`, the rectangle indexes and the pair verdicts
    are all derived from those.  The criteria are stated for disk systems,
    so each graph and pair verdict of a diagram that fails `validation`
    raises, naming the failed checks.

    The indexes, G_k and H_d hold nodes (see the module docstring); the
    accessors and the graph exports take and give (curve index, side) tuples.

    A pair verdict says whether the detail graph is 2-connected for every
    l, so it depends only on the pair's edge sets: the sets (l, edges at l)
    of its `rect_index` or `composed_index` entry.  Each view keeps one memo,
    keyed by those sets, of the failure record: the first failing l with its
    detail graph's least cut vertex (None when it is disconnected), or None
    when every l holds.  So each distinct set of detail graphs is tested
    once, whichever pairs share it.  The criteria graphs ask for the verdicts
    of index keys only: every cut piece of a disk system has at least three
    labels, so a pair with no key has disconnected detail graphs and fails.
    Each G_k is one adjacency, built once per piece; H_d is built straight
    from the G_k of its two sides and the entry of axis d of `composed_index`,
    which is grouped by axis as it is filled.  The missing-type search reads
    the records of the absent edges it explains.

    The two orientations are two views of one surface: `swapped`, the view
    with the families exchanged, is built once, on first use, by the same
    `_analyse` from this view's cuts and class table, read with the families
    exchanged, and keeps this diagram's face numbers.  Both views share one
    pair of cuts, whose pieces (the k and l of the witnesses) are numbered
    by their least boundary circle, as in a context of `swap_roles()`: the
    swap keeps every circle (see the `diagram` module).
    A context built from a diagram keeps it as `diagram`, with its
    `validation`; the swapped view has neither, shares the failed checks,
    and holds no reference back.
    """

    def __init__(self, diagram: Diagram):
        face_class, classes, big = _class_table(diagram)
        # a face's circles on a family lie in one piece of its cut: a class's
        # pair, and round a face of degree above 4 every other dart's circle
        dart_code, cuts = diagram._dart_code, {}
        for bit, family in enumerate((FAMILY_A, FAMILY_B)):
            joins = [sides[bit] for _, sides in classes.values()]
            for f in big:
                orbit = diagram._orbit(f)
                circles = [(dart_code[d] >> 1) ^ 1 for d in orbit[bit ^ orbit[0] & 1::2]]
                joins += zip(circles, circles[1:])
            cuts[family] = _cut(diagram, family, joins)
        # each class's piece in each cut: the piece of a circle of its pair
        piece_a, piece_b = cuts[FAMILY_A][2], cuts[FAMILY_B][2]
        classes = {i: (types, (piece_a[a[0]], piece_b[b[0]]))
                   for i, (types, (a, b)) in classes.items()}
        self.diagram = diagram
        self._analyse(diagram, FAMILY_A, (cuts, face_class, classes))
        self.validation = validate_components(diagram, self.comps_a, self.comps_b)
        self._failed_checks = ", ".join(dict.fromkeys(code for code, _ in self.validation))

    def _analyse(self, surface: Diagram, first: str, table: tuple) -> None:
        """Indexes of the view of `surface` whose first family is `first`,
        from `table`: the cuts keyed by family (as `systems._cut` gives them),
        each face's class, and class -> (its types as `_class_table` gives
        them, its (a-piece, b-piece) by index in the cut).  Each class is read
        once for `rect_index`, and each distinct (axis code, minus class, plus
        class) of an edge of a `first` curve (`_axis_edges`) once for
        `composed_index`."""
        second, flip = OTHER_FAMILY[first], int(first != FAMILY_A)
        self._surface, self._first, self._table = surface, first, table
        cuts, face_class, classes = table
        self.comps_a, self._nodes_a, self._piece_a = cuts[first]
        self.comps_b, self._nodes_b, _ = cuts[second]
        self.m, self.m_star = len(self.comps_a), len(self.comps_b)
        counts = (len(surface.a_words), len(surface.b_words))
        self.n, self.n_star = counts[::-1] if flip else counts
        self._plus = 2 * self.n + 2  # the tag of H_d's plus block
        self._failures: dict = {}  # frozen (l, edges) sets -> failure record
        self._component_adjs: dict = {}  # k -> G_k's adjacency

        # a-side pair -> l -> set of b-side pairs that are not loops, which lie
        # in A*_l (a face's sides are boundary circles of its piece)
        self.rect_index: dict = {}
        for types, pieces in classes.values():
            a_sides, b_sides = types[flip], types[1 - flip]
            if a_sides is not None and b_sides[0] != b_sides[1]:  # a rectangle, not a loop
                self.rect_index.setdefault(a_sides, {}).setdefault(
                    pieces[1 - flip], set()).add(b_sides)

        # axis -> (end_minus, end_plus) -> l -> set of b-side pairs that are
        # not loops, for each pair of distinct rectangles in piece l glued along
        # exactly one edge of an axis curve; the two share their cross sides,
        # as at each end of the edge they lie on one side of the cross curve
        self.composed_index: dict = {}
        edges: dict = {}  # (axis code, minus class, plus class) -> its first edge's crossing
        deque(map(edges.setdefault, _axis_edges(surface, first, face_class), count()), 0)
        for (code, minus, plus), x in edges.items():
            axis = code >> 2  # decoded once per distinct edge triple
            (types, pieces), sides_plus = classes[minus], classes[plus][0][flip]
            sides_minus, b_sides = types[flip], types[1 - flip]
            if sides_minus is None or sides_plus is None or b_sides[0] == b_sides[1]:
                continue
            # the outer side of each end: the one that is not its axis side (the
            # minus face holds the edge's in dart, the plus face its out dart)
            (s, t), (u, v) = sides_minus, sides_plus
            end_minus = t if s == 2 * axis else s
            end_plus = v if u == 2 * axis + 1 else u
            # two faces that share a second edge have complementary ends (one
            # curve, both sides): along the axis family it joins their outer
            # sides; along the cross family it leaves each face with both axis
            # darts of one crossing; a face that meets itself has both sides of
            # its axis.  Only then are edges looked at one by one: the first,
            # and if it is glued twice, every edge of the same classes, whose
            # faces may share just that edge
            if (end_plus == end_minus ^ 1
                    and not _glued_once(surface, first, x)
                    and not any(_glued_once(surface, first, y) for y in compress(
                        count(), map((code, minus, plus).__eq__,
                                     _axis_edges(surface, first, face_class))))):
                continue
            by_ends = self.composed_index.setdefault(axis, {})
            by_ends.setdefault((end_minus, end_plus), {}).setdefault(
                pieces[1 - flip], set()).add(b_sides)

    @cached_property
    def swapped(self) -> "CriteriaContext":
        """The view with the families exchanged, analysed once from this view's table."""
        ctx = CriteriaContext.__new__(CriteriaContext)
        ctx._analyse(self._surface, OTHER_FAMILY[self._first], self._table)
        ctx._failed_checks = self._failed_checks
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
        """Index k of the first-family component whose labels A_k hold (disk, side);
        each cut files both sides of every curve, so one does."""
        if not 1 <= disk <= self.n:
            raise DiagramError(f"disk index {disk} out of range 1..{self.n}")
        if side not in (MINUS, PLUS):
            raise DiagramError("side must be +1 or -1")
        return self._piece_a[_node((disk, side))]

    # -- graph builders ----------------------------------------------------

    def detail_graph(self, k: int, l: int, p: Vertex, q: Vertex) -> CriteriaGraph:
        return _labelled(self._detail_entry(k, p, q).get(l, ()), self.a_star_set(l))

    def _check_valid(self) -> None:
        if self._failed_checks:
            raise DiagramError(f"diagram fails validation: {self._failed_checks}")

    def _detail_entry(self, k: int, p: Vertex, q: Vertex) -> dict:
        """The `rect_index` entry of the labels p and q, which must lie in A_k."""
        self._check_valid()
        a_k = self.a_set(k)
        if p not in a_k or q not in a_k:  # name the first label outside A_k
            raise DiagramError(f"{_fmt_vertex(q if p in a_k else p)} is not in A_{k}")
        return self.rect_index.get(tuple(sorted(map(_node, (p, q)))), {})

    def component_graph(self, k: int) -> CriteriaGraph:
        """G_k: the labels A_k, with p-q an edge when every detail graph
        G(k, l, p, q) is 2-connected, as a `CriteriaGraph` for export."""
        adj = self._component_adjacency(k)
        return _labelled([(u, v) for u in adj for v in adj[u]], self.a_set(k))

    def _component_adjacency(self, k: int) -> dict:
        """G_k as node -> its neighbours, built once per k from the
        `rect_index` keys."""
        if k not in self._component_adjs:
            self._check_valid()
            self.a_set(k)
            a_k = self._nodes_a[k - 1]
            adj = {v: set() for v in a_k}
            for (p, q), by_l in self.rect_index.items():
                if p != q and p in a_k and q in a_k and self._failure(by_l) is None:
                    adj[p].add(q)
                    adj[q].add(p)
            self._component_adjs[k] = adj
        return self._component_adjs[k]

    def disk_graph(self, disk: int) -> CriteriaGraph:
        """H_d as a `CriteriaGraph`, for export and inspection: the graph of
        `_disk_adjacency`, with its two blocks as the partition."""
        adj, *blocks = self._disk_adjacency(disk)
        label = {v: _vertex(v, self._plus) for v in adj}
        return graph_from_edges([(label[u], label[v]) for u in adj for v in adj[u]], label.values(),
                                tuple(frozenset(map(label.get, block)) for block in blocks))

    def _disk_adjacency(self, disk: int) -> tuple[dict, frozenset, frozenset]:
        """H_d as (adjacency, minus block, plus block): the labels of
        Lambda_{d,-} and Lambda_{d,+}, each tagged by its side of D_d.

        The edges inside a block are the edges of G_k on Lambda_{d,kappa},
        k = `k_of(d, kappa)`.  A cross edge p-q holds when every
        composed-rectangle detail graph of (d, p, q) is 2-connected; only the
        `composed_index` entry of axis d is tested (see the class docstring).
        """
        plus, own_minus, own_plus = self._plus, 2 * disk, 2 * disk + 1  # (d, -) and (d, +)
        lo = self._component_adjacency(self.k_of(disk, MINUS))
        hi = self._component_adjacency(self.k_of(disk, PLUS))
        adj = {v: nbrs - {own_minus} for v, nbrs in lo.items() if v != own_minus}
        block_minus = frozenset(adj)
        adj.update((v + plus, {w + plus for w in nbrs if w != own_plus})  # tagged as copied
                   for v, nbrs in hi.items() if v != own_plus)
        block_plus = frozenset(adj).difference(block_minus)
        for (p, q), by_l in self.composed_index.get(disk, {}).items():
            q += plus
            if p in block_minus and q in block_plus and self._failure(by_l) is None:
                adj[p].add(q)
                adj[q].add(p)
        return adj, block_minus, block_plus

    # -- pair verdicts -----------------------------------------------------

    def _failure(self, edges_by_l: dict) -> Optional[tuple[int, Optional[Vertex]]]:
        """(l, v) for the first l whose detail graph, the nodes of A*_l with
        the edges `edges_by_l[l]`, is not 2-connected, v the label of its
        least cut vertex or None when it is disconnected; None when every l
        holds.  Memoised by the (l, edges) sets."""
        key = frozenset((l, frozenset(edges)) for l, edges in edges_by_l.items())
        if key not in self._failures:
            self._failures[key] = None
            for l, nodes in enumerate(self._nodes_b, 1):
                failure = _two_connected_failure(_adjacency(nodes, edges_by_l.get(l, ())))
                if failure is not None:
                    self._failures[key] = (l, _label(failure[1]) if len(failure) > 1 else None)
                    break
        return self._failures[key]


def _labelled(edges, vertices) -> CriteriaGraph:
    """The graph on the labels `vertices` with the node pairs `edges`."""
    return graph_from_edges([(_label(u), _label(v)) for u, v in edges], vertices=vertices)


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class MissingType:
    """A rectangle or composed-rectangle type whose absence broke an edge."""

    kind: str  # "rectangle" | "composed-rectangle"
    a_data: tuple
    first_failing_l: int
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
        tail = f" [detail graph fails first at l={self.first_failing_l}"
        if self.failing_vertex is not None:
            tail += f", vertex {_fmt_vertex(self.failing_vertex)}"
        return "missing " + head + tail + "]"


@dataclass(frozen=True)
class Witness:
    """One failure record of a criterion."""

    kind: str  # "rc" | "drc"
    swapped: bool  # the orientation of the view that found it: True when exchanged
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
MISSING_TYPES_CAP = 6  # the most missing types a witness lists


def rectangle_condition(
    diagram: Optional[Diagram], ctx: Optional[CriteriaContext] = None
) -> Verdict:
    """Holds iff every component graph G_k is 2-connected.  `diagram` is read
    only when no `ctx` is given; `ctx` may be a swapped view, as its witnesses say."""
    ctx = ctx or CriteriaContext(diagram)
    witnesses = []
    for k in range(1, ctx.m + 1):
        adj = ctx._component_adjacency(k)
        failure = _two_connected_failure(adj)
        if failure is None:
            continue
        reason, verts = failure[0], failure[1:]  # ("disconnected",) or ("cut-vertex", v)
        missing = _missing_types(adj, verts, lambda p, q: _missing_rectangle(ctx, p, q))
        witnesses.append(Witness("rc", ctx._first != FAMILY_A, k, reason,
                                 tuple(map(_label, verts)), missing))
    holds = not witnesses
    return Verdict(holds, tuple(witnesses), NOTE_RC if holds else "")


def _missing_types(adj: dict, deleted, explain) -> tuple:
    """Absent edges between the parts of the graph `adj` minus `deleted` that
    would reconnect it, each explained by `explain(u, v)` as a `MissingType`."""
    adj = {v: nbrs.difference(deleted) for v, nbrs in adj.items() if v not in deleted}
    parts = _components(adj)[0]
    missing = []
    for i, part in enumerate(parts):
        for other in parts[i + 1:]:
            for u in sorted(part):
                for v in sorted(other):
                    missing.append(explain(u, v))
                    if len(missing) >= MISSING_TYPES_CAP:
                        return tuple(missing)
    return tuple(missing)


def _missing_rectangle(ctx, p, q) -> MissingType:
    """The rectangle type for the absent edge p-q of a G_k, nodes p and q."""
    p, q = sorted((p, q))
    failure = ctx._failure(ctx.rect_index.get((p, q), {}))
    return MissingType("rectangle", (_label(p), _label(q)), *failure)


def _missing_disk_edge(ctx, disk, u, v) -> MissingType:
    """The type for the absent edge u-v of H_d: a rectangle inside one block,
    a composed rectangle across the blocks."""
    plus, (em, ep) = ctx._plus, sorted((u, v))
    if (em < plus) == (ep < plus):  # one block; `% plus` drops its tag
        return _missing_rectangle(ctx, em % plus, ep % plus)
    failure = ctx._failure(ctx.composed_index.get(disk, {}).get((em, ep - plus), {}))
    return MissingType("composed-rectangle", (_label(em), disk, _label(ep - plus)), *failure)


def double_rectangle_condition(
    diagram: Optional[Diagram], ctx: Optional[CriteriaContext] = None
) -> Verdict:
    """Holds iff every disk graph H_d is doubly 2-connected, both ways round.

    The condition is checked on `ctx`, then on `ctx.swapped`, the view with
    the families exchanged; each witness takes the orientation of the view
    that found it.  `diagram` is read only when no `ctx` is given, so a
    caller that also checks RC on both sides analyses each orientation once.
    Each H_d is searched as the adjacency `_disk_adjacency` builds, with no
    `CriteriaGraph`.  Each block of an H_d has at least two labels, so a
    disconnected H_d always has a witness pair.
    """
    ctx = ctx or CriteriaContext(diagram)
    witnesses = []
    for octx in (ctx, ctx.swapped):  # the exchanged view is built once per context
        for disk in range(1, octx.n + 1):
            adj, block_minus, block_plus = octx._disk_adjacency(disk)
            pair = _pair_witness(adj, block_minus, block_plus)
            if pair is not None:
                missing = _missing_types(
                    adj, pair, lambda u, v: _missing_disk_edge(octx, disk, u, v)
                )
                pair = tuple(_vertex(v, octx._plus) for v in pair)
                witnesses.append(Witness("drc", octx._first != FAMILY_A, disk, "pair", pair, missing))
    holds = not witnesses
    return Verdict(holds, tuple(witnesses), NOTE_DRC if holds else "")
