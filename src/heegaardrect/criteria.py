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

import weakref
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import and_, sub
from typing import Optional, Sequence

from .diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError, _union,
    side_str,
)
from .systems import ValidationReport, _component, validate_components

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
        return _adjacency(self.vertices, self.edges)


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


def is_two_connected(graph: CriteriaGraph) -> bool:
    """Connected, and still connected after deleting any single vertex.

    Implemented through articulation points (iterative lowlink); graphs on
    at most one vertex are 2-connected under this reading.
    """
    return _two_connected_failure(graph.neighbors()) is None


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
    return _pair_witness(graph.neighbors(), *graph.partition)


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

    A face's class is its key: its degree and the curve and port of the first
    four darts of its orbit.  Faces of one class have the same sides, and most
    faces of a large diagram fall into a few classes, so the keys are
    deduplicated at C speed and only the distinct ones are read.  A face's
    darts alternate the two families, so darts 0 and 2 of its orbit lie on
    one family and darts 1 and 3 on the other; the sorted pair of their
    (curve index, side) sides is the class's pair on that family, each
    distinct pair one tuple.  Returns each face's class, numbered by its first
    face; class -> ((a-type, b-type), (a-pair, b-pair)), a type being the
    pair of a rectangle (a face of degree 4, whose pairs are all its sides)
    and None for any other face; and the faces of degree above 4, the only
    ones with sides beyond their key.
    """
    start, orbit, curve = surface._face_start, surface._face_darts, surface._dart_curve
    phi = surface._phi
    degrees = list(map(sub, start[1:], start))
    # the first four darts of every orbit, each the face successor `phi` of
    # the last, so a bigon repeats its two
    darts = [list(map(orbit.__getitem__, start[:-1]))]
    for _ in range(3):
        darts.append(list(map(phi.__getitem__, darts[-1])))
    keys = zip(degrees, *(m for ds in darts
                          for m in (map(curve.__getitem__, ds), map(and_, ds, repeat(3)))))
    classes: dict = {}
    face_class = list(map(classes.setdefault, keys, count()))

    decoded, pairs = {}, {}
    for (degree, c0, p0, c1, p1, c2, p2, c3, p3), i in classes.items():
        p, q = (c0, 1 - (p0 & 2)), (c2, 1 - (p2 & 2))
        u, v = (c1, 1 - (p1 & 2)), (c3, 1 - (p3 & 2))
        own, other = (p, q) if p <= q else (q, p), (u, v) if u <= v else (v, u)
        sides = pairs.setdefault(own, own), pairs.setdefault(other, other)
        if p0 & 1:  # dart 0 is on the second family
            sides = sides[::-1]
        decoded[i] = (sides if degree == 4 else (None, None)), sides
    return face_class, decoded, list(compress(count(), map((4).__lt__, degrees)))


def _cut_classes(surface: Diagram, face_class: list, classes: dict, big: list) -> dict:
    """Both families' cut components, keyed by family and equal to
    `cut_components`, from what `_class_table` returns.

    A face's circles of the cut family lie in its piece, and two faces
    across an uncut edge share the circle at either end of it, so the pieces
    are the circles joined within each face: both of a class's pair, and
    every circle of a face of degree above 4.  A class's piece is that of its
    pair.  The pieces are numbered from 1 by their least boundary circle
    (curve index, side), minus before plus, which the crossing ids do not
    touch.
    """
    start, orbit, curve = surface._face_start, surface._face_darts, surface._dart_curve
    every = tuple(range(len(face_class)))  # the face numbers, shared by every piece
    cuts = {}
    for bit, (family, words) in enumerate(((FAMILY_A, surface.a_words),
                                           (FAMILY_B, surface.b_words))):
        # circle (i, side) is node 2i, plus one on the plus side, so nodes
        # sort as circles do
        pairs = [(2 * p[0] + (p[1] > 0), 2 * q[0] + (q[1] > 0))
                 for p, q in (sides[bit] for _, sides in classes.values())]
        joins = pairs[:]
        for f in big:  # its darts on this family, every other one from the first
            k = start[f] + (bit ^ orbit[start[f]] & 1)
            nodes = [2 * curve[d] + (not d & 2) for d in orbit[k:start[f + 1]:2]]
            joins += zip(nodes, nodes[1:])
        parent = _union(list(range(2 * len(words) + 2)), joins)

        # one pass in increasing order points every node at its root, its
        # piece's least circle, and meets the roots in the order of the pieces
        index: dict = {}  # root -> piece index from 0
        circles: list = []
        for x in range(2, len(parent)):
            parent[x] = root = parent[parent[x]]
            if root == x:
                index[x] = len(circles)
                circles.append([])
            circles[index[root]].append((x >> 1, PLUS if x & 1 else MINUS))
        if len(circles) == 1:
            faces = [every]
        else:
            held: list = [set() for _ in circles]
            for c, (p, _) in zip(classes, pairs):
                held[index[parent[p]]].add(c)
            faces = [compress(every, map(h.__contains__, face_class)) for h in held]
        lengths = [len(word) for word in words.values()]
        cuts[family] = tuple(_component(k, fs, cs, lengths)
                             for k, (fs, cs) in enumerate(zip(faces, circles), 1))
    return cuts


def _axis_edges(surface: Diagram, family: str, face_class: list):
    """(axis, minus class, plus class) of each edge of a `family` curve, by
    crossing: the edge that leaves it along that family.  The face left of
    the out dart is on the plus side of the edge, the face of its mate on
    the minus side."""
    out = PORTS[family][0]
    fod, in_class = surface._face_of_dart, face_class.__getitem__
    return zip(surface._dart_curve[out::4],
               map(in_class, map(fod.__getitem__, surface._alpha[out::4])),
               map(in_class, fod[out::4]))


def _glued_once(surface: Diagram, family: str, x: int) -> bool:
    """Whether the two faces on the `family` edge that leaves crossing index
    x share no other edge: one arc of the minus face has the plus face across."""
    fod, alpha, start = surface._face_of_dart, surface._alpha, surface._face_start
    d = 4 * x + PORTS[family][0]
    k, f_plus = start[fod[alpha[d]]], fod[d]
    return [fod[alpha[e]] for e in surface._face_darts[k:k + 4]].count(f_plus) == 1


class CriteriaContext:
    """The analysis of one orientation of a diagram, shared by every criterion.

    It sorts the faces into classes once (`_class_table`) and cuts each
    family from those classes (`_cut_classes`); the disk-system
    `validation`, the rectangle indexes and the pair verdicts are all
    derived from those.  The criteria are
    stated for disk systems, so each graph and pair verdict of a diagram
    that fails `validation` raises, naming the failed checks.

    A pair verdict says whether the detail graph is 2-connected for every
    l, so it depends only on the pair's edge sets: the sets (l, edges at l)
    of its `rect_index` or `composed_index` entry.  Each view keeps one memo,
    keyed by those sets, of the failure record: the first failing l with its
    detail graph's least cut vertex (None when it is disconnected), or None
    when every l holds.  So each distinct set of detail graphs is tested
    once, whichever pairs share it.  The criteria graphs ask for the verdicts
    of index keys only: every cut piece of a disk system has at least three
    labels, so a pair with no key has disconnected detail graphs and fails.
    `component_graph` keeps each G_k, and a disk graph takes its block edges
    from it.  The missing-type search reads the records of the absent edges
    it explains.

    The two orientations are two views of one surface: `swapped`, the view
    with the families exchanged, is built on first use by the same
    `_analyse` from this view's cut components and class table, read with
    the families exchanged, and keeps this diagram's face numbers.  Both
    views share one pair of cuts, whose pieces (the k and l of the
    witnesses) are numbered by their least boundary circle, as in a context
    of `swap_roles()`: the swap keeps every circle (see the `diagram` module).
    The swapped view builds its `diagram` and `validation` only when read.
    Its own `swapped` is this context while this context is alive; it
    refers back weakly, so the two form no reference cycle.
    """

    def __init__(self, diagram: Diagram):
        face_class, classes, big = _class_table(diagram)
        cuts = _cut_classes(diagram, face_class, classes, big)
        # each class's piece in each cut: the piece of a circle of its pair
        piece_a, piece_b = ({c: comp.index for comp in cuts[family] for c in comp.a_set}
                            for family in (FAMILY_A, FAMILY_B))
        classes = {i: (types, (piece_a[a[0]], piece_b[b[0]]))
                   for i, (types, (a, b)) in classes.items()}
        self._analyse(diagram, FAMILY_A, (cuts, face_class, classes))
        self._failed_checks = ", ".join(dict.fromkeys(code for code, _ in self.validation))

    def _analyse(self, surface: Diagram, first: str, table: tuple) -> None:
        """Indexes of the view of `surface` whose first family is `first`,
        from `table`: the cut components keyed by family, each face's class,
        and class -> (its types as `_class_table` gives them, its (a-piece,
        b-piece) by index in the cut).  Each class is read once for
        `rect_index`, and each distinct (axis, minus class, plus class) of an
        edge of a `first` curve once for `composed_index`."""
        second, flip = OTHER_FAMILY[first], int(first != FAMILY_A)
        self._surface, self._first, self._table = surface, first, table
        cuts, face_class, classes = table
        self.comps_a, self.comps_b = cuts[first], cuts[second]
        self.m, self.m_star = len(self.comps_a), len(self.comps_b)
        counts = (len(surface.a_words), len(surface.b_words))
        self.n, self.n_star = counts[::-1] if flip else counts
        self._failures: dict = {}  # frozen (l, edges) sets -> failure record
        self._component_graphs: dict = {}
        self._swapped = None  # a callable that returns the swapped context, or None

        # a-side pair -> l -> set of b-side pairs that are not loops, which lie
        # in A*_l (a face's sides are boundary circles of its piece)
        self.rect_index: dict = {}
        for types, pieces in classes.values():
            a_sides, b_sides = types[flip], types[1 - flip]
            if a_sides is not None and b_sides[0] != b_sides[1]:  # a rectangle, not a loop
                self.rect_index.setdefault(a_sides, {}).setdefault(
                    pieces[1 - flip], set()).add(b_sides)

        # (axis, end_minus, end_plus) -> l -> set of b-side pairs that are not
        # loops, for each pair of distinct rectangles in piece l glued along
        # exactly one edge of an axis curve; the two share their cross sides,
        # as at each end of the edge they lie on one side of the cross curve
        self.composed_index: dict = {}
        edges: dict = {}  # (axis, minus class, plus class) -> its first edge's crossing
        deque(map(edges.setdefault, _axis_edges(surface, first, face_class), count()), 0)
        for (axis, minus, plus), x in edges.items():
            (types, pieces), sides_plus = classes[minus], classes[plus][0][flip]
            sides_minus, b_sides = types[flip], types[1 - flip]
            if sides_minus is None or sides_plus is None or b_sides[0] == b_sides[1]:
                continue
            # the outer side of each end: the one that is not its axis side (the
            # minus face holds the edge's in dart, the plus face its out dart)
            (s, t), (u, v) = sides_minus, sides_plus
            end_minus = t if s == (axis, MINUS) else s
            end_plus = v if u == (axis, PLUS) else u
            # two faces that share a second edge have complementary ends (one
            # curve, both sides): along the axis family it joins their outer
            # sides; along the cross family it leaves each face with both axis
            # darts of one crossing; a face that meets itself has both sides of
            # its axis.  Only then are edges looked at one by one: the first,
            # and if it is glued twice, every edge of the same classes, whose
            # faces may share just that edge
            if (end_plus == (end_minus[0], -end_minus[1])
                    and not _glued_once(surface, first, x)
                    and not any(_glued_once(surface, first, y) for y in compress(
                        count(), map((axis, minus, plus).__eq__,
                                     _axis_edges(surface, first, face_class))))):
                continue
            self.composed_index.setdefault((axis, end_minus, end_plus), {}).setdefault(
                pieces[1 - flip], set()).add(b_sides)

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
            ctx = CriteriaContext.__new__(CriteriaContext)
            ctx._analyse(self._surface, OTHER_FAMILY[self._first], self._table)
            ctx._failed_checks = self._failed_checks
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
        """Index k of the first-family component whose labels A_k hold (disk, side);
        each cut files both sides of every curve, so one does."""
        if not 1 <= disk <= self.n:
            raise DiagramError(f"disk index {disk} out of range 1..{self.n}")
        if side not in (MINUS, PLUS):
            raise DiagramError("side must be +1 or -1")
        return next(comp.index for comp in self.comps_a if (disk, side) in comp.a_set)

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

    def _check_valid(self) -> None:
        if self._failed_checks:
            raise DiagramError(f"diagram fails validation: {self._failed_checks}")

    def _check_detail_pair(self, k: int, p: Vertex, q: Vertex) -> None:
        self._check_valid()
        a_k = self.a_set(k)
        if p not in a_k or q not in a_k:
            raise DiagramError(f"{p} or {q} is not in A_{k}")

    def component_graph(self, k: int) -> CriteriaGraph:
        """G_k: the labels A_k, with p-q an edge when every detail graph
        G(k, l, p, q) is 2-connected; built once per k from the `rect_index` keys."""
        if k not in self._component_graphs:
            self._check_valid()
            a_k = self.a_set(k)
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
        self._check_valid()
        for end, side in ((end_minus, MINUS), (end_plus, PLUS)):
            if end == (disk, side) or end not in self.a_set(self.k_of(disk, side)):
                raise DiagramError(f"{end} is not in Lambda_({disk},{side_str(side)})")

    def disk_graph(self, disk: int) -> CriteriaGraph:
        """H_d as a `CriteriaGraph`, for export and inspection: the graph of
        `_disk_adjacency`, with its two blocks as the partition."""
        adj, block_minus, block_plus = self._disk_adjacency(disk)
        return graph_from_edges([(u, v) for u in adj for v in adj[u]], vertices=adj,
                                partition=(block_minus, block_plus))

    def _disk_adjacency(self, disk: int) -> tuple[dict, frozenset, frozenset]:
        """H_d as (adjacency, minus block, plus block): the labels of
        Lambda_{d,-} and Lambda_{d,+}, each tagged by its side of D_d.

        The edges inside a block are the edges of G_k on Lambda_{d,kappa},
        k = `k_of(d, kappa)`.  A cross edge p-q holds when every
        composed-rectangle detail graph of (d, p, q) is 2-connected; only the
        `composed_index` keys with axis d are tested (see the class docstring).
        """
        lam_minus = self.lambda_of(disk, MINUS)
        lam_plus = self.lambda_of(disk, PLUS)
        edges = []
        for kappa in (MINUS, PLUS):
            own = (disk, kappa)
            for p, q in self.component_graph(self.k_of(disk, kappa)).edges:
                if own != p and own != q:
                    edges.append(((kappa,) + p, (kappa,) + q))
        for axis, p, q in self.composed_index:
            if (axis == disk and p in lam_minus and q in lam_plus
                    and self.first_failing_l_cross(disk, p, q) is None):
                edges.append(((MINUS,) + p, (PLUS,) + q))
        block_minus = frozenset((MINUS,) + p for p in lam_minus)
        block_plus = frozenset((PLUS,) + p for p in lam_plus)
        return _adjacency(block_minus | block_plus, edges), block_minus, block_plus

    # -- pair verdicts -----------------------------------------------------

    def first_failing_l_detail(self, k: int, p: Vertex, q: Vertex) -> Optional[int]:
        """First l whose detail graph G(k, l, p, q) is not 2-connected, or None."""
        self._check_detail_pair(k, p, q)
        failure = self._failure(self.rect_index.get((p, q) if p <= q else (q, p), {}))
        return None if failure is None else failure[0]

    def first_failing_l_cross(
        self, disk: int, end_minus: Vertex, end_plus: Vertex
    ) -> Optional[int]:
        """First l whose composed-rectangle detail graph is not 2-connected, or None."""
        self._check_cross_pair(disk, end_minus, end_plus)
        failure = self._failure(self.composed_index.get((disk, end_minus, end_plus), {}))
        return None if failure is None else failure[0]

    def _failure(self, edges_by_l: dict) -> Optional[tuple[int, Optional[Vertex]]]:
        """(l, v) for the first l whose detail graph, the labels A*_l with the
        edges `edges_by_l[l]`, is not 2-connected, v its least cut vertex or
        None when it is disconnected; None when every l holds.  Memoised by
        the (l, edges) sets."""
        key = frozenset((l, frozenset(edges)) for l, edges in edges_by_l.items())
        if key not in self._failures:
            self._failures[key] = None
            for comp in self.comps_b:
                failure = _two_connected_failure(
                    _adjacency(comp.a_set, edges_by_l.get(comp.index, ())))
                if failure is not None:
                    self._failures[key] = (comp.index, failure[1] if len(failure) > 1 else None)
                    break
        return self._failures[key]


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
        adj = ctx.component_graph(k).neighbors()
        failure = _two_connected_failure(adj)
        if failure is None:
            continue
        reason, verts = failure[0], failure[1:]  # ("disconnected",) or ("cut-vertex", v)
        missing = _missing_types(adj, verts, lambda p, q: _missing_rectangle(ctx, p, q))
        witnesses.append(Witness("rc", False, k, reason, verts, missing))
    holds = not witnesses
    return Verdict(holds, tuple(witnesses), NOTE_RC if holds else "")


def _missing_types(adj: dict, deleted, explain, cap=6) -> tuple:
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
                    if len(missing) >= cap:
                        return tuple(missing)
    return tuple(missing)


def _missing_rectangle(ctx, p, q) -> MissingType:
    """The rectangle type for the absent edge p-q of a G_k."""
    p, q = sorted((p, q))
    return MissingType("rectangle", (p, q), *ctx._failure(ctx.rect_index.get((p, q), {})))


def _missing_disk_edge(ctx, disk, u, v) -> MissingType:
    """The type for the absent edge u-v of H_d: a rectangle inside one block,
    a composed rectangle across the blocks."""
    if u[0] == v[0]:
        return _missing_rectangle(ctx, u[1:], v[1:])
    em, ep = (u[1:], v[1:]) if u[0] == MINUS else (v[1:], u[1:])
    failure = ctx._failure(ctx.composed_index.get((disk, em, ep), {}))
    return MissingType("composed-rectangle", (em, disk, ep), *failure)


def double_rectangle_condition(
    diagram: Optional[Diagram], ctx: Optional[CriteriaContext] = None
) -> Verdict:
    """Holds iff every disk graph H_d is doubly 2-connected, both ways round.

    The condition is checked on the diagram as given and on the diagram with
    the families exchanged; witnesses record which direction failed.
    `diagram` is read only when no `ctx` is given; the exchanged direction
    uses `ctx.swapped`, so a caller that also checks RC on both sides
    analyses each orientation once.  Each H_d is searched as the adjacency
    `_disk_adjacency` builds, with no `CriteriaGraph`.  Each block of an H_d
    has at least two labels, so a disconnected H_d always has a witness pair.
    """
    ctx = ctx or CriteriaContext(diagram)
    witnesses = []
    for swapped in (False, True):
        octx = ctx.swapped if swapped else ctx  # the exchanged view, built once per context
        for disk in range(1, octx.n + 1):
            adj, block_minus, block_plus = octx._disk_adjacency(disk)
            pair = _pair_witness(adj, block_minus, block_plus)
            if pair is not None:
                missing = _missing_types(
                    adj, pair, lambda u, v: _missing_disk_edge(octx, disk, u, v)
                )
                witnesses.append(Witness("drc", swapped, disk, "pair", pair, missing))
    holds = not witnesses
    return Verdict(holds, tuple(witnesses), NOTE_DRC if holds else "")
