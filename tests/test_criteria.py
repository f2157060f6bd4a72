import gc
import importlib.util
import itertools
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from heegaardrect import criteria
from heegaardrect.criteria import (
    CriteriaContext,
    Verdict,
    Witness,
    _class_table,
    _components,
    _fmt_vertex,
    _pair_witness,
    double_rectangle_condition,
    rectangle_condition,
)
from heegaardrect.diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, Diagram, DiagramError,
)
from heegaardrect.diagramio import build_report, report_to_json
from heegaardrect.systems import cut_components, validate_disk_systems
from heegaardrect.twist import chain_base, example_diagram, maximal_chain_base

from conftest import (
    SWEEP, face_oracle_cases, fixture_cases, hexagon_diagram, maximal_subsystems,
    random_multicurve_map, random_twisted_diagrams, torus_one,
)
from map_oracles import (
    Graph, _composed, _side_types, component_graph, cross_detail_graph, crossing_ids, dart_of,
    decoded_indexes, detail_graph, disk_graph, doubly_two_connected_witness, face_classes,
    face_of_dart, face_union_components, face_union_pieces, first_failing_l_cross,
    first_failing_l_detail, graph_from_edges, is_two_connected, lambda_of, neighbors,
    node_label, relabel_crossings, reverse_curve, stabilized,
)


def calibration_graph() -> Graph:
    """Six-vertex test graph with the two published partition verdicts."""
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 5), (2, 4)]
    return graph_from_edges(edges, vertices=range(1, 7))


# -- connectivity -------------------------------------------------------------


def test_two_connected_basics():
    path3 = graph_from_edges([(1, 2), (2, 3)])
    assert not is_two_connected(path3)
    c4 = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
    assert is_two_connected(c4)
    k2 = graph_from_edges([(1, 2)])
    assert is_two_connected(k2)
    k1 = graph_from_edges([], vertices=[1])
    assert is_two_connected(k1)
    empty = graph_from_edges([])
    assert is_two_connected(empty)
    two_isolated = graph_from_edges([], vertices=[1, 2])
    assert not is_two_connected(two_isolated)


def test_doubly_two_connected_calibration():
    g = calibration_graph()
    bad = Graph(g.vertices, g.edges,
                (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    assert doubly_two_connected_witness(bad) is not None
    # deleting the vertices 2 and 5 is one of the disconnecting pairs
    disconnecting = {
        (a, b)
        for a in (1, 2, 3)
        for b in (4, 5, 6)
        if not _brute_connected_after(bad, {a, b})
    }
    assert (2, 5) in disconnecting
    good = Graph(g.vertices, g.edges,
                 (frozenset({1, 2, 4, 5}), frozenset({3, 6})))
    assert doubly_two_connected_witness(good) is None


def test_doubly_two_connected_k4():
    g = graph_from_edges(
        [(a, b) for a in range(4) for b in range(a + 1, 4)],
        partition=(frozenset({0, 1}), frozenset({2, 3})),
    )
    assert doubly_two_connected_witness(g) is None


def test_doubly_two_connected_needs_partition():
    g = graph_from_edges([(1, 2)])
    with pytest.raises(DiagramError, match="partition"):
        doubly_two_connected_witness(g)


def test_doubly_two_connected_literal_reading():
    """The pairwise-deletion reading can hold on a disconnected graph."""
    g = graph_from_edges(
        [(1, 2), (2, 3), (3, 1)],
        vertices=[0, 1, 2, 3],
        partition=(frozenset({0}), frozenset({1, 2, 3})),
    )
    assert doubly_two_connected_witness(g) is None


def _brute_connected_after(graph: Graph, removed) -> bool:
    adj = neighbors(graph)
    nodes = [v for v in adj if v not in removed]
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def _brute_two_connected(graph: Graph) -> bool:
    adj = neighbors(graph)

    def connected_after(removed):
        nodes = [v for v in adj if v not in removed]
        if not nodes:
            return True
        seen = set()

        def dfs(v):
            seen.add(v)
            for w in adj[v]:
                if w not in removed and w not in seen:
                    dfs(w)

        dfs(nodes[0])
        return len(seen) == len(nodes)

    return connected_after(set()) and all(connected_after({v}) for v in adj)


def _brute_doubly_witness(graph: Graph):
    """First pair of sorted(lo) x sorted(hi) whose deletion disconnects."""
    lo, hi = graph.partition
    for a in sorted(lo):
        for b in sorted(hi):
            if not _brute_connected_after(graph, {a, b}):
                return (a, b)
    return None


def _blocked(edges, n, lo):
    vertices = range(n)
    return (
        graph_from_edges(edges, vertices=vertices),
        (frozenset(lo), frozenset(vertices) - frozenset(lo)),
    )


# one graph per branch of the skeleton gate in `_pair_witness`
GATE_CASES = [
    # a single cycle: its skeleton is one node, 2-connected
    _blocked([(0, 1), (1, 2), (2, 3), (3, 0)], 4, [0, 1]),
    # a figure-eight: two chains from one branch vertex give two degree-1 nodes
    _blocked([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], 5, [1, 3]),
    # a cycle with a pendant vertex: minimum degree 1, no skeleton
    _blocked([(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)], 5, [0, 2]),
    # a cycle beside a disjoint theta: the cycle is an isolated node
    _blocked([(0, 1), (1, 2), (2, 0), (3, 5), (5, 4), (3, 6), (6, 4), (3, 7), (7, 4)],
             8, [0, 3, 5]),
    # K4 subdivided on three edges, with branch-branch edges and the chord 4-6
    _blocked([(0, 4), (4, 1), (0, 5), (5, 6), (6, 2), (1, 7), (7, 2), (0, 3), (1, 3),
              (2, 3), (4, 6)], 8, [0, 4, 5, 7]),
]


def _gate_examples(test):
    for case in GATE_CASES:
        test = example(case)(test)
    return test


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 10))
    vertices = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    cut = draw(st.integers(0, n))
    partition = (frozenset(vertices[:cut]), frozenset(vertices[cut:]))
    return graph_from_edges(edges, vertices=vertices), partition


@settings(max_examples=300, deadline=None)
@given(random_graphs())
@example(_blocked([], 0, []))
@example(_blocked([], 1, [0]))
@example(_blocked([], 2, [0]))
@example(_blocked([(0, 1)], 2, [0]))
@example(_blocked([(0, 1), (1, 2), (2, 0)], 3, []))
@example(_blocked([(0, 1), (1, 2)], 3, [0, 1, 2]))
# G - 0 splits into {1} and {2, 3}: deleting 1 leaves it connected, 2 does not
@example(_blocked([(0, 1), (0, 2), (2, 3)], 4, [0]))
# G - 0 splits into {1} and {2}: no pair disconnects
@example(_blocked([(0, 1), (0, 2)], 3, [0]))
@_gate_examples
def test_connectivity_matches_brute_force(data):
    graph, partition = data
    assert is_two_connected(graph) == _brute_two_connected(graph)
    blocked = Graph(graph.vertices, graph.edges, partition)
    witness = _brute_doubly_witness(blocked)
    assert doubly_two_connected_witness(blocked) == witness


@settings(max_examples=300, deadline=None)
@given(random_graphs())
# two edges {a, b} and {a', b'}: deleting a and b' leaves b and a' apart
@example(_blocked([(0, 2), (1, 3)], 4, [0, 1]))
def test_passing_graph_with_two_big_blocks_is_connected(data):
    """With two or more vertices in each block, a graph no pair disconnects is
    connected; each block of a disk graph H_d of a disk system has two or
    more, so `double_rectangle_condition` needs no separate connectivity test."""
    graph, partition = data
    blocked = Graph(graph.vertices, graph.edges, partition)
    if min(map(len, partition)) >= 2 and _brute_doubly_witness(blocked) is None:
        assert _brute_connected_after(blocked, set())


def _scan_doubly_witness(graph: Graph):
    """The witness by one scan of G - a per a: the oracle of the one-pass search.

    Pairs are ordered by the first block's vertex, then the second's, and
    the search makes one scan of G - a per vertex a of the first block.  If
    G - a is connected, (a, b) disconnects exactly when b is a cut point of
    G - a.  If G - a is disconnected, every b keeps it disconnected except a
    b that is, on its own, one of exactly two parts.
    """
    if graph.partition is None:
        raise DiagramError("doubly-2-connected test needs a partition")
    adj = neighbors(graph)
    lo, hi = graph.partition
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


NEAR_CYCLE_SKELETONS = {
    "cycle": (3, [(0, 1), (1, 2), (2, 0)]),
    "theta": (2, [(0, 1), (0, 1), (0, 1)]),
    "k4": (4, list(itertools.combinations(range(4), 2))),
}


def _subdivided(skeleton: str, spread, chords=(), order=None):
    """`skeleton`'s edges subdivided (spread[i] = the edge holding new vertex
    i), plus `chords`, with vertex v renamed order[v]."""
    branch, edges = NEAR_CYCLE_SKELETONS[skeleton]
    paths = [[u] for u, _ in edges]
    for i, e in enumerate(spread):
        paths[e].append(branch + i)
    for path, (_, v) in zip(paths, edges):
        path.append(v)
    n = branch + len(spread)
    order = order or list(range(n))
    pairs = [e for path in paths for e in zip(path, path[1:])] + list(chords)
    return graph_from_edges([(order[u], order[v]) for u, v in pairs], vertices=range(n))


@st.composite
def near_cycle_graphs(draw):
    """A cycle, theta or K4 subdivided to 3-60 vertices, plus 0-4 chords,
    with random blocks (either may be empty)."""
    skeleton = draw(st.sampled_from(sorted(NEAR_CYCLE_SKELETONS)))
    branch, edges = NEAR_CYCLE_SKELETONS[skeleton]
    extra = draw(st.integers(max(0, 3 - branch), 60 - branch))
    spread = draw(st.lists(st.integers(0, len(edges) - 1), min_size=extra, max_size=extra))
    n = branch + extra
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=4))
    graph = _subdivided(skeleton, spread, chords, draw(st.permutations(range(n))))
    in_lo = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lo = frozenset(v for v in range(n) if in_lo[v])
    return graph, (lo, frozenset(range(n)) - lo)


def _split(graph, lo):
    return graph, (frozenset(lo), graph.vertices - frozenset(lo))


@settings(max_examples=400, deadline=None)
@given(st.one_of(near_cycle_graphs(), random_graphs()))
@example(_split(_subdivided("cycle", [0, 1, 2, 2]), [0, 2, 5]))
@example(_split(_subdivided("theta", [0, 1, 1, 2, 2, 2]), [1, 3, 6]))
@example(_split(_subdivided("k4", [0, 5, 5]), []))
@example(_split(_subdivided("k4", [0, 5, 5]), range(7)))
# three triangles in a row: the cut vertex 2 is in the first block, 4 in the second
@example(_blocked([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 4)],
                  7, [0, 2, 5]))
# two disjoint triangles
@example(_blocked([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6, [1, 3]))
@_gate_examples
def test_witness_matches_the_scan(data):
    graph, partition = data
    blocked = Graph(graph.vertices, graph.edges, partition)
    witness = doubly_two_connected_witness(blocked)
    assert witness == _scan_doubly_witness(blocked)
    if len(graph.vertices) <= 12:
        assert witness == _brute_doubly_witness(blocked)


@settings(max_examples=200, deadline=None)
@given(st.one_of(near_cycle_graphs(), random_graphs()))
def test_articulation_points_match_networkx(data):
    """Both halves of `_components`: the parts, ordered by least vertex, and
    the cut points."""
    nx = pytest.importorskip("networkx")
    graph, _ = data
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    parts, points = _components(neighbors(graph))
    assert parts == sorted(nx.connected_components(g), key=min)
    assert points == set(nx.articulation_points(g))


# -- graph builders ------------------------------------------------------------


def _first_failing_l(graphs):
    return next((l for l, g in enumerate(graphs, 1) if not is_two_connected(g)), None)


def _passing(diagrams):
    """The diagrams that pass validation, the only ones the criteria decide."""
    return [d for d in diagrams if validate_disk_systems(d).passed]


def test_pair_verdicts_match_definition(example_32_maximal):
    """The verdict of each index key is the first l whose detail graph is
    not 2-connected, so None exactly when all of them are."""
    verdicts = set()
    for d in _passing([*random_twisted_diagrams(100), example_32_maximal,
                       *maximal_subsystems(50)]):
        ctx = CriteriaContext(d)
        for c in (ctx, ctx.swapped):
            rect_index, composed_index = decoded_indexes(c)
            for p, q in rect_index:
                for k in range(1, c.m + 1):
                    if p in c.a_set(k) and q in c.a_set(k):
                        graphs = [detail_graph(c, k, l, p, q) for l in range(1, c.m_star + 1)]
                        l_fail = first_failing_l_detail(c, k, p, q)
                        assert l_fail == _first_failing_l(graphs)
                        verdicts.add(("detail", l_fail is None))
            for disk, em, ep in composed_index:
                if em in lambda_of(c, disk, MINUS) and ep in lambda_of(c, disk, PLUS):
                    graphs = [
                        cross_detail_graph(c, l, disk, em, ep) for l in range(1, c.m_star + 1)
                    ]
                    l_fail = first_failing_l_cross(c, disk, em, ep)
                    assert l_fail == _first_failing_l(graphs)
                    verdicts.add(("cross", l_fail is None))
    assert verdicts == {(kind, holds) for kind in ("detail", "cross") for holds in (True, False)}


def _brute_least_cut_vertex(graph: Graph):
    """The least vertex whose deletion disconnects `graph`, by deleting each."""
    return next((v for v in sorted(graph.vertices) if not _brute_connected_after(graph, {v})), None)


def test_missing_types_match_definition():
    """Each missing type of RC, swapped RC and DRC names the first l whose
    detail graph is not 2-connected, and that graph's least cut vertex, or
    None when the graph is disconnected."""
    vertices = 0
    for d in _passing([*random_twisted_diagrams(100), *maximal_subsystems(50)]):
        ctx = CriteriaContext(d)
        found = [(ctx, w) for w in rectangle_condition(d, ctx).witnesses]
        found += [(ctx.swapped, w) for w in rectangle_condition(None, ctx.swapped).witnesses]
        found += [(ctx.swapped if w.swapped else ctx, w)
                  for w in double_rectangle_condition(d, ctx).witnesses]
        for c, w in found:
            for mt in w.missing:
                if mt.kind == "rectangle":
                    p, q = mt.a_data
                    k = c.k_of(*p)
                    graphs = [detail_graph(c, k, l, p, q) for l in range(1, c.m_star + 1)]
                else:
                    em, disk, ep = mt.a_data
                    graphs = [
                        cross_detail_graph(c, l, disk, em, ep) for l in range(1, c.m_star + 1)
                    ]
                assert mt.first_failing_l == _first_failing_l(graphs) is not None
                g = graphs[mt.first_failing_l - 1]
                if _brute_connected_after(g, set()):
                    assert mt.failing_vertex == _brute_least_cut_vertex(g) is not None
                    assert mt.describe().endswith(f", vertex {_fmt_vertex(mt.failing_vertex)}]")
                    vertices += 1
                else:
                    assert mt.failing_vertex is None
    assert vertices


def three_circles_sphere() -> Diagram:
    """Genus 0: one b-circle through three disjoint a-circles.

    Each side of the b-circle is a disk, so every A*_l has one label, and
    the a-cut has three disk pieces and a pants piece.  Not a valid diagram.
    """
    xs = ["x1", "x2", "x3", "x4", "x5", "x6"]
    return Diagram({"a1": xs[:2], "a2": xs[2:4], "a3": xs[4:]}, {"b": xs},
                   dict(zip(xs, (1, -1) * 3)))


def test_criteria_refuse_a_diagram_that_fails_validation():
    """Every graph and pair verdict of either view of a diagram that fails
    validation raises, naming the failed checks; the validation and the
    validation-only report are still given."""
    nonplanar = [d for d in maximal_subsystems(50) if not validate_disk_systems(d).passed]
    assert len(nonplanar) == 6
    for d in [torus_one(), three_circles_sphere(), chain_base(3), *nonplanar]:
        ctx = CriteriaContext(d)
        assert ctx.validation.entries == validate_disk_systems(d).entries != []
        codes = ", ".join(dict.fromkeys(code for code, _ in ctx.validation))
        assert (codes == "nonplanar") == (d in nonplanar)
        assert (codes == "count, nonplanar") == (d.b_curve_ids() == ("gamma",))
        for c in (ctx, ctx.swapped):
            asks = [
                lambda: rectangle_condition(None, c),
                lambda: double_rectangle_condition(None, c),
                lambda: component_graph(c, 1),
                lambda: disk_graph(c, 1),
                lambda: detail_graph(c, 1, 1, (1, MINUS), (1, PLUS)),
                lambda: cross_detail_graph(c, 1, 1, (1, PLUS), (1, MINUS)),
                lambda: first_failing_l_detail(c, 1, (1, MINUS), (1, PLUS)),
                lambda: first_failing_l_cross(c, 1, (1, PLUS), (1, MINUS)),
            ]
            for ask in asks:
                with pytest.raises(DiagramError) as err:
                    ask()
                assert str(err.value) == f"diagram fails validation: {codes}"
        report = build_report(d)
        assert report["validation"] == {
            "passed": False,
            "entries": [{"code": c, "detail": t} for c, t in ctx.validation],
        }
        assert report["input"]["m"] is report["input"]["m_star"] is None
        assert "rc" not in report and "drc" not in report


def _dense_graphs(ctx):
    """G_k for every k and H_d for every disk, testing every label pair."""
    gks = []
    for k in range(1, ctx.m + 1):
        a_k = sorted(ctx.a_set(k))
        edges = [(p, q) for p, q in itertools.combinations(a_k, 2)
                 if first_failing_l_detail(ctx, k, p, q) is None]
        gks.append(graph_from_edges(edges, vertices=a_k))
    hds = []
    for disk in range(1, ctx.n + 1):
        lam = {s: sorted(lambda_of(ctx, disk, s)) for s in (MINUS, PLUS)}
        edges = [((s,) + p, (s,) + q) for s in (MINUS, PLUS)
                 for p, q in itertools.combinations(lam[s], 2)
                 if first_failing_l_detail(ctx, ctx.k_of(disk, s), p, q) is None]
        edges += [((MINUS,) + p, (PLUS,) + q)
                  for p, q in itertools.product(lam[MINUS], lam[PLUS])
                  if first_failing_l_cross(ctx, disk, p, q) is None]
        blocks = tuple(frozenset((s,) + p for p in lam[s]) for s in (MINUS, PLUS))
        hds.append(graph_from_edges(edges, vertices=blocks[0] | blocks[1], partition=blocks))
    return gks, hds


def test_key_driven_graphs_match_every_pair(example_32_maximal):
    """G_k and H_d read off the index keys equal the graphs that test every
    pair."""
    for d in _passing([*fixture_cases(example_32_maximal), *maximal_subsystems(50)]):
        for swapped in (False, True):
            ctx, fresh = CriteriaContext(d), CriteriaContext(d)
            if swapped:
                ctx, fresh = ctx.swapped, fresh.swapped
            gks, hds = _dense_graphs(fresh)
            assert [component_graph(ctx, k) for k in range(1, ctx.m + 1)] == gks
            assert [disk_graph(ctx, disk) for disk in range(1, ctx.n + 1)] == hds


def test_verdicts_are_computed_only_for_index_keys(monkeypatch):
    """Where both conditions hold, no pair without an index key is asked:
    each pair verdict `_failure` computes is of the edge sets of a key of
    `rect_index` (a detail pair) or `composed_index` (a cross pair)."""
    asked = []
    failure = CriteriaContext._failure

    def recording(ctx, edges_by_l):
        asked.append((ctx, edges_by_l))
        return failure(ctx, edges_by_l)

    monkeypatch.setattr(CriteriaContext, "_failure", recording)
    report = build_report(example_diagram(5, 2), "both")
    assert report["rc"]["holds"] and report["drc"]["holds"]
    kinds = []
    for ctx, edges_by_l in asked:
        detail = any(edges_by_l is by_l for by_l in ctx.rect_index.values())
        cross = any(edges_by_l is by_l for by_ends in ctx.composed_index.values()
                    for by_l in by_ends.values())
        assert detail or cross
        kinds.append("detail" if detail else "cross")
    assert set(kinds) == {"detail", "cross"}
    assert len({ctx for ctx, _ in asked}) == 2


def test_each_distinct_set_of_detail_graphs_is_tested_once(monkeypatch):
    """A report tests detail-graph connectivity once per distinct (l, edges)
    set that a view asks for, not once per pair."""
    contexts, tested = [], []
    analyse, adjacency = CriteriaContext._analyse, criteria._adjacency

    def recording(ctx, *args):
        contexts.append(ctx)
        return analyse(ctx, *args)

    def counting(vertices, edges):
        tested.append(vertices)
        return adjacency(vertices, edges)

    monkeypatch.setattr(CriteriaContext, "_analyse", recording)
    monkeypatch.setattr(criteria, "_adjacency", counting)
    report = build_report(example_diagram(5, 2), "both")
    assert report["rc"]["holds"] and report["drc"]["holds"]
    assert len(contexts) == 2
    pieces, distinct, pairs = [], 0, 0
    for ctx in contexts:
        assert ctx.m_star == 1  # so each set is one detail graph
        pieces += ctx._nodes_b  # each piece's node set, its detail graphs' vertices
        a_sets = [ctx.a_set(k) for k in range(1, ctx.m + 1)]
        rect_index, composed_index = decoded_indexes(ctx)
        asked = [by_l for (p, q), by_l in rect_index.items()
                 if p != q and any(p in a and q in a for a in a_sets)]
        asked += [by_l for (disk, em, ep), by_l in composed_index.items()
                  if em in lambda_of(ctx, disk, MINUS) and ep in lambda_of(ctx, disk, PLUS)]
        pairs += len(asked)
        distinct += len({frozenset((l, frozenset(edges)) for l, edges in by_l.items())
                         for by_l in asked})
    detail_tests = sum(any(v is piece for piece in pieces) for v in tested)
    assert detail_tests == distinct == 2 < pairs


def test_report_contexts_die_without_the_cycle_collector(example_32, monkeypatch):
    """The swapped context holds no reference back to the context it came
    from, so a report's two contexts are freed by reference counting alone."""
    refs = []
    analyse = CriteriaContext._analyse

    def recording(ctx, *args):
        refs.append(weakref.ref(ctx))
        return analyse(ctx, *args)

    monkeypatch.setattr(CriteriaContext, "_analyse", recording)
    gc.disable()
    try:
        build_report(example_32, "both")
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False, False]


HEXAGON = [
    ((1, MINUS), (1, PLUS)), ((1, PLUS), (2, MINUS)), ((2, MINUS), (2, PLUS)),
    ((2, PLUS), (3, MINUS)), ((3, MINUS), (3, PLUS)), ((1, MINUS), (3, PLUS)),
]

H1_EDGES = {
    ((MINUS, 1, PLUS), (MINUS, 2, MINUS)),
    ((MINUS, 2, MINUS), (MINUS, 2, PLUS)),
    ((MINUS, 2, PLUS), (MINUS, 3, MINUS)),
    ((MINUS, 3, MINUS), (MINUS, 3, PLUS)),
    ((PLUS, 1, MINUS), (PLUS, 3, PLUS)),
    ((PLUS, 2, MINUS), (PLUS, 2, PLUS)),
    ((PLUS, 2, PLUS), (PLUS, 3, MINUS)),
    ((PLUS, 3, MINUS), (PLUS, 3, PLUS)),
    ((MINUS, 1, PLUS), (PLUS, 1, MINUS)),
    ((MINUS, 1, PLUS), (PLUS, 2, MINUS)),
    ((MINUS, 3, PLUS), (PLUS, 1, MINUS)),
    ((MINUS, 3, PLUS), (PLUS, 2, MINUS)),
}


def test_component_graph_is_hexagon(example_32):
    gk = component_graph(CriteriaContext(example_32), 1)
    assert len(gk.vertices) == 6
    assert gk.edges == frozenset(HEXAGON)
    assert is_two_connected(gk)


def test_detail_graphs_two_connected_on_hexagon_pairs(example_32):
    ctx = CriteriaContext(example_32)
    for p, q in HEXAGON:
        g = detail_graph(ctx, 1, 1, p, q)
        assert is_two_connected(g)
        assert g.vertices == frozenset(
            (v, s) for v in (1, 2, 3) for s in (MINUS, PLUS)
        )


def test_detail_graph_precondition(example_32):
    ctx = CriteriaContext(example_32)
    with pytest.raises(DiagramError, match="not in A_1"):
        detail_graph(ctx, 1, 1, (99, PLUS), (1, MINUS))
    with pytest.raises(DiagramError, match="out of range"):
        detail_graph(ctx, 7, 1, (1, PLUS), (1, MINUS))
    with pytest.raises(DiagramError, match="out of range"):
        component_graph(ctx, 99)


def test_hexagon_fixture_graphs_edgeless():
    ctx = CriteriaContext(hexagon_diagram())
    gk = component_graph(ctx, 1)
    assert gk.edges == frozenset()
    g = detail_graph(ctx, 1, 1, (1, MINUS), (1, PLUS))
    assert g.edges == frozenset()


def test_disk_graph_structure(example_32):
    hd = disk_graph(CriteriaContext(example_32), 1)
    assert len(hd.vertices) == 10
    lo, hi = hd.partition
    assert len(lo) == len(hi) == 5
    assert all(v[0] == MINUS for v in lo)
    assert all(v[0] == PLUS for v in hi)
    assert hd.edges == frozenset(H1_EDGES)
    assert doubly_two_connected_witness(hd) is None


def test_disk_graph_all_disks(example_32):
    ctx = CriteriaContext(example_32)
    for disk in (1, 2, 3):
        assert doubly_two_connected_witness(disk_graph(ctx, disk)) is None


def test_disk_graph_out_of_range(example_32):
    ctx = CriteriaContext(example_32)
    with pytest.raises(DiagramError, match="out of range"):
        disk_graph(ctx, 0)
    with pytest.raises(DiagramError, match="out of range"):
        disk_graph(ctx, 4)


def test_cross_detail_precondition(example_32):
    with pytest.raises(DiagramError, match="Lambda"):
        cross_detail_graph(CriteriaContext(example_32), 1, 1, (1, MINUS), (2, MINUS))


def _all_pants(ctx) -> bool:
    return all(len(c.a_set) == 3 and c.planar for c in (*ctx.comps_a, *ctx.comps_b))


def _pants_rule(view, first_types, second_types) -> bool:
    """Casson and Gordon's rectangle condition on pants: every pair of pieces
    (k, l) of `view` has all 9 rectangle types, each a pair of two of the
    three circles of k with two of the three circles of l.  `first_types`
    and `second_types` are `_side_types` of the view's first and second
    family."""
    k_of = {side: c.index for c in view.comps_a for side in c.a_set}
    l_of = {side: c.index for c in view.comps_b for side in c.a_set}
    found = {}
    for p, q in zip(first_types, second_types):
        if p is not None and p[0] != p[1] and q[0] != q[1]:
            found.setdefault((k_of[p[0]], l_of[q[0]]), set()).add((p, q))
    return all(len(found.get((k, l), ())) == 9
               for k in range(1, view.m + 1) for l in range(1, view.m_star + 1))


def test_rc_on_pants_is_the_flat_rule():
    """When every piece of both cuts is a pair of pants, RC holds in a view
    exactly when every pair of pieces has all 9 rectangle types.  Checked in
    both views on the maximal example at four powers and on the sub-systems
    whose pieces are all pants; every one of them holds RC."""
    maximal = [example_diagram(3, p, maximal=True) for p in (2, 3, -2, -3)]
    subsystems = [d for d in _passing(maximal_subsystems(200)) if _all_pants(CriteriaContext(d))]
    assert len(subsystems) == 14
    for d in [*maximal, *subsystems]:
        ctx = CriteriaContext(d)
        assert ctx.validation.passed and _all_pants(ctx)
        types = _side_types(d)
        for view, first in ((ctx, FAMILY_A), (ctx.swapped, FAMILY_B)):
            rule = _pants_rule(view, types[first], types[OTHER_FAMILY[first]])
            assert rectangle_condition(None, view).holds == rule


def test_class_table_matches_the_word_oracle(example_32_maximal):
    """The class table's face classes, keyed on dart codes, are the classes
    keyed face by face on (curve index, port) read off the words, with the
    same numbering, on the sweep, the maximal example and random members."""
    corpus = [example_32_maximal, *(example_diagram(g, l) for g, l in SWEEP),
              *random_twisted_diagrams(50)]
    for d in corpus:
        assert _class_table(d)[0] == face_classes(d)


def test_minimal_case_matches_flat_definitions(example_32, example_22):
    """With one complementary piece per side, the general graphs collapse
    to the ones built directly from rectangle and composed-rectangle types.
    """
    for d in (example_32, example_22):
        n = len(d.a_words)
        all_labels = [(i, s) for i in range(1, n + 1) for s in (MINUS, PLUS)]
        types = _side_types(d)
        # (a_sides, b_sides) of every rectangle; (axis, end_minus, end_plus, b_sides)
        # of every composed rectangle along the first family
        rect_types = [t for t in zip(types[FAMILY_A], types[FAMILY_B]) if t[0] is not None]
        comp_types = [t[:4] for t in _composed(d, FAMILY_A, types)]

        def flat_detail(p, q):
            edges = [
                b_sides for a_sides, b_sides in rect_types
                if a_sides == tuple(sorted((p, q))) and b_sides[0] != b_sides[1]
            ]
            return graph_from_edges(edges, vertices=all_labels)

        ctx = CriteriaContext(d)
        gk = component_graph(ctx, 1)
        expected = [
            (p, q)
            for p, q in itertools.combinations(sorted(all_labels), 2)
            if is_two_connected(flat_detail(p, q))
        ]
        assert gk.edges == frozenset(expected)
        assert gk.vertices == frozenset(all_labels)

        for disk in range(1, n + 1):
            hd = disk_graph(ctx, disk)
            lam = [p for p in all_labels if p != (disk, MINUS)]
            lam_plus = [p for p in all_labels if p != (disk, PLUS)]
            cross = []
            for p in lam:
                for q in lam_plus:
                    edges = [
                        b_sides for *ends, b_sides in comp_types
                        if tuple(ends) == (disk, p, q) and b_sides[0] != b_sides[1]
                    ]
                    if is_two_connected(graph_from_edges(edges, vertices=all_labels)):
                        cross.append(((MINUS,) + p, (PLUS,) + q))
            got_cross = {e for e in hd.edges if e[0][0] != e[1][0]}
            assert got_cross == {tuple(sorted(e)) for e in cross}


# -- verdicts -------------------------------------------------------------------


def test_rectangle_condition_example(example_32):
    v = rectangle_condition(example_32)
    assert v.holds and not v.witnesses
    assert "strongly irreducible" in v.note


def test_rectangle_condition_hexagon_fixture():
    v = rectangle_condition(hexagon_diagram())
    assert not v.holds
    failing = {w.index for w in v.witnesses}
    m = len(cut_components(hexagon_diagram(), "A"))
    assert failing == set(range(1, m + 1))
    assert not double_rectangle_condition(hexagon_diagram()).holds


def test_maximal_component_graphs_have_three_vertices(example_32_maximal):
    """Pants pieces have three boundary sides, so each G_k sits on three."""
    ctx = CriteriaContext(example_32_maximal)
    for k in (1, 2, 3, 4):
        assert len(component_graph(ctx, k).vertices) == 3


def test_disk_graph_vertex_count_minimal(example_22):
    """Minimal genus-g systems give 2(2g-1) vertices per disk graph."""
    assert len(disk_graph(CriteriaContext(example_22), 1).vertices) == 6


def test_verdicts_invariant_under_crossing_relabeling(example_22):
    mapping = {x: f"z{i}" for i, x in enumerate(crossing_ids(example_22))}
    r = relabel_crossings(example_22, mapping)
    assert rectangle_condition(r).holds == rectangle_condition(example_22).holds
    assert (
        double_rectangle_condition(r).holds
        == double_rectangle_condition(example_22).holds
    )


def _bigon_maps(draws: int, seed: int) -> list:
    """The random multicurve maps with bigons among `draws` unreduced draws."""
    rng, maps = random.Random(seed), []
    for _ in range(draws):
        try:
            d = random_multicurve_map(rng)
        except DiagramError:
            continue
        if d.bigon_faces():
            maps.append(d)
    return maps


def test_reports_do_not_depend_on_crossing_names():
    """Seeded renamings of the crossings, which reorder the crossing ids and
    so every dart and face number, move no report: five of each random
    twisted diagram and of each random multicurve map with bigons (whose
    validation names every bigon), and ten of each sub-system of the
    maximal example."""
    rng = random.Random(20261019)
    bigon_maps = _bigon_maps(300, 5)
    assert len(bigon_maps) > 150
    for corpus, times in ((random_twisted_diagrams(300), 5), (bigon_maps, 5),
                          (maximal_subsystems(50), 10)):
        for d in corpus:
            report = report_to_json(build_report(d))
            ids = sorted(d.signs)
            for _ in range(times):
                names = [f"r{i}" for i in range(len(ids))]
                rng.shuffle(names)
                renamed = relabel_crossings(d, dict(zip(ids, names)))
                assert report_to_json(build_report(renamed)) == report


def test_verdicts_invariant_under_curve_renaming(example_22):
    """Renaming curves permutes indices in witnesses, not the verdicts."""
    from heegaardrect.diagram import Diagram

    d = example_22
    renamed = Diagram(
        {"dz": d.a_words["d1"], "d2": d.a_words["d2"]},  # d1 sorts last now
        d.b_words,
        {x: c.sign for x, c in d.crossings.items()},
    )
    assert rectangle_condition(renamed).holds == rectangle_condition(d).holds
    assert (
        double_rectangle_condition(renamed).holds
        == double_rectangle_condition(d).holds
    )


def test_double_rectangle_condition_example(example_32):
    v = double_rectangle_condition(example_32)
    assert v.holds
    assert "Goeritz" in v.note


def test_double_rectangle_condition_maximal(example_32_maximal):
    assert rectangle_condition(example_32_maximal).holds
    v = double_rectangle_condition(example_32_maximal)
    assert not v.holds
    assert all(w.kind == "drc" for w in v.witnesses)
    composed_missing = [
        m for w in v.witnesses for m in w.missing if m.kind == "composed-rectangle"
    ]
    assert composed_missing
    assert any(len(w.vertices) == 2 for w in v.witnesses)


def test_drc_swap_symmetry(example_32, example_32_maximal):
    for d in (example_32, example_32_maximal, hexagon_diagram()):
        assert (
            double_rectangle_condition(d).holds
            == double_rectangle_condition(d.swap_roles()).holds
        )


@pytest.mark.parametrize("genus", [3, 4, 5, 13])
def test_drc_decides_the_examples_on_the_skeleton(monkeypatch, genus):
    """Every H_d of example(g, 2), in both views, has minimum degree 2 and a
    2-connected skeleton, so DRC finds each verdict and witness pair from the
    skeleton and never falls back to the one-vertex-at-a-time scan."""
    d = example_diagram(genus, 2)
    want = double_rectangle_condition(d)

    def scan(*args):
        raise AssertionError("H_d was scanned")

    monkeypatch.setattr(criteria, "_scan_witness", scan)
    assert double_rectangle_condition(d) == want


def _digest_members():
    """(name, diagram) for each member of `tests/golden/digests.txt`, from
    `scripts/make_golden.py`."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    return make_golden.contract_members()


def _digest_corpus():
    """The members of `tests/golden/digests.txt`."""
    return [d for _, d in _digest_members()]


def test_rc_swapped_witnesses_say_they_are_swapped():
    """Each witness of `rc_swapped` describes the view with the families
    exchanged, and says so; each witness of `rc` says it is not swapped.
    Taken over the first 20 random digest members with an `rc_swapped`
    witness."""
    members = 0
    for name, d in _digest_members():
        if not name.startswith("random:"):
            continue
        report = build_report(d)
        swapped = report.get("rc_swapped", {}).get("witnesses")
        if not swapped:
            continue
        for w in swapped:
            assert w["families_swapped"] is True, name
            assert w["description"].startswith("after switching the families, "), name
        for w in report["rc"]["witnesses"]:
            assert w["families_swapped"] is False, name
            assert not w["description"].startswith("after switching"), name
        members += 1
        if members == 20:
            return
    pytest.fail(f"only {members} random members have an rc_swapped witness")


def test_drc_witnesses_take_the_orientation_of_their_view(example_32_maximal):
    """DRC searches `ctx` and then `ctx.swapped`, and each witness is flagged
    with the orientation of the view it was found in: called on the exchanged
    view, DRC gives that view's three witnesses, flagged swapped, before the
    original orientation's three, flagged not swapped."""
    ctx = CriteriaContext(example_32_maximal)
    given = double_rectangle_condition(None, ctx).witnesses
    exchanged = double_rectangle_condition(None, ctx.swapped).witnesses
    assert [w.swapped for w in given] == [False] * 3 + [True] * 3
    assert [w.swapped for w in exchanged] == [True] * 3 + [False] * 3
    assert exchanged == given[3:] + given[:3]


def test_node_witnesses_match_the_exported_disk_graphs():
    """For every view and disk of the digest corpus, H_d as DRC searches it,
    a node adjacency, read back as labels is the label graph `disk_graph`, and
    the pair `_pair_witness` finds on it, read back, is the witness
    `doubly_two_connected_witness` finds on that graph."""
    disks = pairs = 0
    for d in _passing(_digest_corpus()):
        ctx = CriteriaContext(d)
        for view in (ctx, ctx.swapped):
            for disk in range(1, view.n + 1):
                adj, block_minus, block_plus = view._disk_adjacency(disk)
                graph = disk_graph(view, disk)
                label = {v: node_label(v, view.n) for v in adj}
                assert {label[v]: {label[w] for w in nbrs} for v, nbrs in adj.items()} == (
                    neighbors(graph))
                assert (frozenset(map(label.get, block_minus)),
                        frozenset(map(label.get, block_plus))) == graph.partition
                pair = _pair_witness(adj, block_minus, block_plus)
                want = doubly_two_connected_witness(graph)
                assert (None if pair is None else tuple(map(label.get, pair))) == want
                disks += 1
                pairs += want is not None
    assert disks >= 1900 and 1000 < pairs < disks


def test_drc_pairs_match_brute_force():
    """The pair `double_rectangle_condition` reports for each view and disk, or
    its absence, is the brute-force witness of that H_d.  DRC searches each
    H_d as an adjacency, not through the public witness, so this ties its
    own path to the oracle.  The sweep is among the examples."""
    examples = sorted({(g, p) for g in range(2, 9) for p in (2, -2, 3)} | set(SWEEP))
    corpus = [*(example_diagram(g, p) for g, p in examples), *maximal_subsystems(50),
              *random_twisted_diagrams(100)]
    for d in _passing(corpus):
        ctx = CriteriaContext(d)
        reported = {(w.swapped, w.index): w.vertices
                    for w in double_rectangle_condition(None, ctx).witnesses}
        for swapped, view in ((False, ctx), (True, ctx.swapped)):
            for disk in range(1, view.n + 1):
                assert reported.get((swapped, disk)) == _brute_doubly_witness(
                    disk_graph(view, disk)), (swapped, disk)


def test_implication_on_fixtures(example_32, example_32_maximal, example_22):
    for d in (example_32, example_32_maximal, example_22, hexagon_diagram()):
        if double_rectangle_condition(d).holds:
            assert rectangle_condition(d).holds


def test_orientation_invariance_smoke(example_22):
    rc = rectangle_condition(example_22).holds
    drc = double_rectangle_condition(example_22).holds
    for curve in ("d1", "e2"):
        r = reverse_curve(example_22, curve)
        assert rectangle_condition(r).holds == rc
        assert double_rectangle_condition(r).holds == drc


def test_stabilized_diagrams_fail_both_conditions(example_32_maximal):
    """A stabilized splitting is not strongly irreducible and its Goeritz
    group is infinite, so adding a handle whose new curves meet once makes
    RC fail in both views and DRC fail, on a diagram that passes validation,
    whether the handle's second crossing goes into an a-curve or a b-curve."""
    bases = [*random_twisted_diagrams(60),
             *(example_diagram(g, p) for g in (2, 3, 4, 5) for p in (2, -3)),
             *(example_diagram(g, l) for g, l in SWEEP),
             example_32_maximal,
             *_passing(maximal_subsystems(50))]
    for i, d in enumerate(bases):
        for family, words in (("a", d.a_words), ("b", d.b_words)):
            curve = min(words)
            for signs in itertools.product((1, -1), repeat=2):
                s = stabilized(d, curve, i % len(words[curve]), signs, family)
                ctx = CriteriaContext(s)
                assert s.genus == d.genus + 1
                assert ctx.validation.passed, (i, family, signs)
                assert not rectangle_condition(None, ctx).holds
                assert not rectangle_condition(None, ctx.swapped).holds
                assert not double_rectangle_condition(None, ctx).holds


def test_stabilized_s3_diagrams_fail_both_conditions():
    """Every splitting of S^3 of genus at least two is stabilized (Waldhausen
    1968), so each valid diagram of one fails RC in both views and DRC.  The
    torus square is a genus-1 diagram of S^3; stabilizing it g - 1 times, with
    the same family and signs at each step, gives one of genus g."""
    seen = 0
    for family, signs in itertools.product("ab", itertools.product((1, -1), repeat=2)):
        s = torus_one()
        for genus in range(2, 6):
            words = s.a_words if family == "a" else s.b_words
            s = stabilized(s, min(words), genus % len(words[min(words)]), signs, family,
                           prefix=f"s{genus}")
            ctx = CriteriaContext(s)
            assert s.genus == genus
            assert ctx.validation.passed, (genus, family, signs)
            assert not rectangle_condition(None, ctx).holds
            assert not rectangle_condition(None, ctx.swapped).holds
            assert not double_rectangle_condition(None, ctx).holds
            seen += 1
    assert seen == 32


def test_verdict_invariant():
    with pytest.raises(DiagramError, match="witness"):
        Verdict(True, (Witness("rc", False, 1, "disconnected", ()),))


# -- the swapped orientation ----------------------------------------------------


def test_swap_maps_every_face_through_the_port_involution(example_32_maximal):
    """Dart (x, p) of a diagram is dart (x, p ^ 1) of its swap, x a crossing
    id: each face maps onto a face, its darts in the same cyclic order with
    the same (curve, side) sides, each side of the other family."""
    for d in fixture_cases(example_32_maximal):
        swapped, ids = d.swap_roles(), crossing_ids(d)

        def image(dart):
            return dart_of(swapped, ids[dart >> 2], (dart & 3) ^ 1)

        perm = [face_of_dart(swapped, image(f.darts[0])) for f in d.faces]
        assert sorted(perm) == list(range(len(swapped.faces)))
        for f in d.faces:
            face = swapped.faces[perm[f.index]]
            start = face.darts.index(image(f.darts[0]))
            assert face.darts[start:] + face.darts[:start] == tuple(map(image, f.darts))
            sides = face.sides[start:] + face.sides[:start]
            assert [(s.family, s.curve, s.side) for s in sides] == [
                (OTHER_FAMILY[s.family], s.curve, s.side) for s in f.sides
            ]


def test_pieces_are_numbered_by_least_boundary_circle(example_32_maximal):
    """Every cut numbers its pieces from 1 by their least boundary circle
    (curve index, side), minus before plus: `cut_components` of either family
    and both views of a context, which share one pair of cuts, each equal to
    the face union oracle.  Each piece's circles are read here off the
    sides of the faces the oracle puts in it."""
    for d in _cut_corpora(example_32_maximal):
        ctx = CriteriaContext(d)
        assert ctx.swapped.comps_a is ctx.comps_b and ctx.swapped.comps_b is ctx.comps_a
        for family, ids in ((FAMILY_A, d.a_curve_ids()), (FAMILY_B, d.b_curve_ids())):
            oracle, piece = face_union_components(d, family), face_union_pieces(d, family)
            for comps in (cut_components(d, family), ctx.comps_a if family == FAMILY_A
                          else ctx.comps_b):
                assert comps == oracle
                circles = [{(ids.index(s.curve) + 1, s.side) for f in d.faces
                            if piece[f.index] == c.index
                            for s in f.sides if s.family == family} for c in comps]
                assert [c.a_set for c in comps] == circles
                least = [min(cs) for cs in circles]  # MINUS < PLUS
                assert least == sorted(least)
                assert [c.index for c in comps] == list(range(1, len(comps) + 1))


def _cut_corpora(maximal: Diagram):
    """The fixtures, the face oracle cases (example(13, 2) has faces of
    degree above 4), the sub-systems of the maximal example, valid or not and
    of several pieces, the multicurve maps, and 300 more random twisted
    diagrams, drawn at a seed of their own."""
    yield from fixture_cases(maximal)
    yield from face_oracle_cases()
    yield from maximal_subsystems(50)
    yield from (chain_base(g) for g in range(2, 6))
    yield maximal_chain_base()
    yield from random_twisted_diagrams(300, seed=20261020)


def test_swapped_context_matches_a_fresh_build(example_32_maximal):
    """`ctx.swapped` is the view of this diagram with the families exchanged;
    the context built from scratch on the swap is the oracle.  A context
    joins the circles within its face classes and `cut_components` along
    edges, both through one cut; in both orientations the face union oracle
    is the oracle of both, field for field, and `validate_disk_systems` of
    the context's validation."""
    seen = 0
    for d in _cut_corpora(example_32_maximal):
        ctx = CriteriaContext(d)
        for family, comps in ((FAMILY_A, ctx.comps_a), (FAMILY_B, ctx.comps_b)):
            assert comps == cut_components(d, family) == face_union_components(d, family)
        seen += 1
        swap = d.swap_roles()
        fresh = CriteriaContext(swap)
        swapped = ctx.swapped
        assert ctx.validation.entries == validate_disk_systems(d).entries
        for family, comps in ((FAMILY_A, fresh.comps_a), (FAMILY_B, fresh.comps_b)):
            assert comps == cut_components(swap, family) == face_union_components(swap, family)
        assert fresh.validation.entries == validate_disk_systems(swap).entries
        for attr in ("comps_a", "comps_b", "m", "m_star", "n", "n_star"):
            assert getattr(swapped, attr) == getattr(fresh, attr), attr
        assert decoded_indexes(swapped) == decoded_indexes(fresh)
    assert seen == 624
