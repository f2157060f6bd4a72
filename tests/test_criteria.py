import gc
import itertools
import weakref
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from heegaardrect.criteria import (
    CriteriaContext,
    CriteriaGraph,
    Verdict,
    Witness,
    _connected_parts,
    articulation_points,
    double_rectangle_condition,
    doubly_two_connected_witness,
    graph_from_edges,
    is_doubly_two_connected,
    is_two_connected,
    rectangle_condition,
)
from heegaardrect.diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, Diagram, DiagramError,
)
from heegaardrect.diagramio import build_report
from heegaardrect.rectangles import composed_rectangles, rectangle_faces
from heegaardrect.systems import CutComponent, cut_components
from heegaardrect.twist import example_diagram

from conftest import (
    face_oracle_cases, fixture_cases, hexagon_diagram, random_twisted_diagrams, torus_one,
)
from map_oracles import relabel_crossings


def calibration_graph() -> CriteriaGraph:
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
    bad = CriteriaGraph(g.vertices, g.edges,
                        (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    assert not is_doubly_two_connected(bad)
    # deleting the vertices 2 and 5 is one of the disconnecting pairs
    disconnecting = {
        (a, b)
        for a in (1, 2, 3)
        for b in (4, 5, 6)
        if not _brute_connected_after(bad, {a, b})
    }
    assert (2, 5) in disconnecting
    good = CriteriaGraph(g.vertices, g.edges,
                         (frozenset({1, 2, 4, 5}), frozenset({3, 6})))
    assert is_doubly_two_connected(good)


def test_doubly_two_connected_k4():
    g = graph_from_edges(
        [(a, b) for a in range(4) for b in range(a + 1, 4)],
        partition=(frozenset({0, 1}), frozenset({2, 3})),
    )
    assert is_doubly_two_connected(g)


def test_doubly_two_connected_needs_partition():
    g = graph_from_edges([(1, 2)])
    with pytest.raises(DiagramError, match="partition"):
        is_doubly_two_connected(g)


def test_doubly_two_connected_literal_reading():
    """The pairwise-deletion reading can hold on a disconnected graph."""
    g = graph_from_edges(
        [(1, 2), (2, 3), (3, 1)],
        vertices=[0, 1, 2, 3],
        partition=(frozenset({0}), frozenset({1, 2, 3})),
    )
    assert is_doubly_two_connected(g)


def test_no_loops_or_stray_edges():
    with pytest.raises(DiagramError, match="loop"):
        CriteriaGraph(frozenset({1}), frozenset({(1, 1)}))
    with pytest.raises(DiagramError, match="vertex set"):
        CriteriaGraph(frozenset({1}), frozenset({(1, 2)}))


def _brute_connected_after(graph: CriteriaGraph, removed) -> bool:
    adj = graph.neighbors()
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


def _brute_two_connected(graph: CriteriaGraph) -> bool:
    adj = graph.neighbors()

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


def _brute_doubly_witness(graph: CriteriaGraph):
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
def test_connectivity_matches_brute_force(data):
    graph, partition = data
    assert is_two_connected(graph) == _brute_two_connected(graph)
    blocked = CriteriaGraph(graph.vertices, graph.edges, partition)
    witness = _brute_doubly_witness(blocked)
    assert doubly_two_connected_witness(blocked) == witness
    assert is_doubly_two_connected(blocked) == (witness is None)


@settings(max_examples=300, deadline=None)
@given(random_graphs())
# two edges {a, b} and {a', b'}: deleting a and b' leaves b and a' apart
@example(_blocked([(0, 2), (1, 3)], 4, [0, 1]))
def test_passing_graph_with_two_big_blocks_is_connected(data):
    """With two or more vertices in each block, a graph no pair disconnects is
    connected, so `double_rectangle_condition` tests connectivity only when a
    block has at most one vertex."""
    graph, partition = data
    blocked = CriteriaGraph(graph.vertices, graph.edges, partition)
    if min(map(len, partition)) >= 2 and _brute_doubly_witness(blocked) is None:
        assert _brute_connected_after(blocked, set())


def test_drc_flags_a_disconnected_disk_graph_that_passes():
    """On the torus square each block of H_1 is one label and no edge joins
    them: the pairwise-deletion reading holds, and the note says so."""
    v = double_rectangle_condition(torus_one())
    assert v.holds
    assert v.note.endswith("disconnected graph for H_1; families switched, H_1)")


def _scan_doubly_witness(graph: CriteriaGraph):
    """The witness by one scan of G - a per a: the oracle of the one-pass search.

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
def test_witness_matches_the_scan(data):
    graph, partition = data
    blocked = CriteriaGraph(graph.vertices, graph.edges, partition)
    witness = doubly_two_connected_witness(blocked)
    assert witness == _scan_doubly_witness(blocked)
    if len(graph.vertices) <= 12:
        assert witness == _brute_doubly_witness(blocked)


@settings(max_examples=200, deadline=None)
@given(st.one_of(near_cycle_graphs(), random_graphs()))
def test_articulation_points_match_networkx(data):
    nx = pytest.importorskip("networkx")
    graph, _ = data
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    assert articulation_points(graph.neighbors()) == set(nx.articulation_points(g))


# -- graph builders ------------------------------------------------------------


def _first_failing_l(graphs):
    return next((l for l, g in enumerate(graphs, 1) if not is_two_connected(g)), None)


def test_pair_verdicts_match_definition(example_32_maximal):
    """Each memoised verdict is the first l whose detail graph is not
    2-connected, so None exactly when all of them are; pre-check included."""
    prechecked = built = 0
    diagrams = list(random_twisted_diagrams(100)) + [example_32_maximal]
    for d in diagrams:
        ctx = CriteriaContext(d)
        rectangle_condition(d, ctx)
        double_rectangle_condition(d, ctx)
        for c in (ctx, ctx.swapped):
            assert c.pair_verdicts and c.cross_verdicts
            for (k, p, q), l_fail in c.pair_verdicts.items():
                graphs = [c.detail_graph(k, l, p, q) for l in range(1, c.m_star + 1)]
                assert l_fail == _first_failing_l(graphs)
                if l_fail is not None:
                    g = graphs[l_fail - 1]
                    if len(g.vertices) >= 3 and len(g.edges) < len(g.vertices):
                        prechecked += 1
                    else:
                        built += 1
            for (disk, em, ep), l_fail in c.cross_verdicts.items():
                graphs = [
                    c.cross_detail_graph(l, disk, em, ep) for l in range(1, c.m_star + 1)
                ]
                assert l_fail == _first_failing_l(graphs)
    assert prechecked and built


def three_circles_sphere() -> Diagram:
    """Genus 0: one b-circle through three disjoint a-circles.

    Each side of the b-circle is a disk, so every A*_l has one label, and
    the a-cut has a pants piece whose two faces are hexagons: G_2 is a
    triangle of pairs with no rectangle at all.  Not a valid diagram.
    """
    xs = ["x1", "x2", "x3", "x4", "x5", "x6"]
    return Diagram({"a1": xs[:2], "a2": xs[2:4], "a3": xs[4:]}, {"b": xs},
                   dict(zip(xs, (1, -1) * 3)))


def _dense_graphs(ctx):
    """G_k for every k and H_d for every disk, testing every label pair."""
    gks = []
    for k in range(1, ctx.m + 1):
        a_k = sorted(ctx.a_set(k))
        edges = [(p, q) for p, q in itertools.combinations(a_k, 2)
                 if ctx.first_failing_l_detail(k, p, q) is None]
        gks.append(graph_from_edges(edges, vertices=a_k))
    hds = []
    for disk in range(1, ctx.n + 1):
        lam = {s: sorted(ctx.lambda_of(disk, s)) for s in (MINUS, PLUS)}
        edges = [((s,) + p, (s,) + q) for s in (MINUS, PLUS)
                 for p, q in itertools.combinations(lam[s], 2)
                 if ctx.first_failing_l_detail(ctx.k_of(disk, s), p, q) is None]
        edges += [((MINUS,) + p, (PLUS,) + q)
                  for p, q in itertools.product(lam[MINUS], lam[PLUS])
                  if ctx.first_failing_l_cross(disk, p, q) is None]
        blocks = tuple(frozenset((s,) + p for p in lam[s]) for s in (MINUS, PLUS))
        hds.append(graph_from_edges(edges, vertices=blocks[0] | blocks[1], partition=blocks))
    return gks, hds


def test_key_driven_graphs_match_every_pair(example_32_maximal):
    """G_k and H_d read off the index keys equal the graphs that test every
    pair, including where pairs with no key are edges."""
    corner = CriteriaContext(three_circles_sphere())
    assert not corner.rect_index and len(corner.component_graph(2).edges) == 3
    cases = [three_circles_sphere(), *fixture_cases(example_32_maximal)]
    for d in cases:
        for swapped in (False, True):
            ctx, fresh = CriteriaContext(d), CriteriaContext(d)
            if swapped:
                ctx, fresh = ctx.swapped, fresh.swapped
            gks, hds = _dense_graphs(fresh)
            assert [ctx.component_graph(k) for k in range(1, ctx.m + 1)] == gks
            assert [ctx.disk_graph(disk) for disk in range(1, ctx.n + 1)] == hds


def test_verdicts_are_computed_only_for_index_keys(monkeypatch):
    """Where both conditions hold, no pair without an index key is tested."""
    contexts = []
    analyse = CriteriaContext._analyse

    def recording(ctx, *args):
        contexts.append(ctx)
        return analyse(ctx, *args)

    monkeypatch.setattr(CriteriaContext, "_analyse", recording)
    report = build_report(example_diagram(5, 2), "both")
    assert report["rc"]["holds"] and report["drc"]["holds"]
    assert len(contexts) == 2
    for ctx in contexts:
        assert ctx.cross_verdicts and len(ctx.cross_verdicts) <= len(ctx.composed_index)
        assert ctx.pair_verdicts and len(ctx.pair_verdicts) <= len(ctx.rect_index)


def test_report_contexts_die_without_the_cycle_collector(example_32, monkeypatch):
    """The swapped context refers back weakly, so a report's two contexts are
    freed by reference counting alone."""
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
    gk = CriteriaContext(example_32).component_graph(1)
    assert len(gk.vertices) == 6
    assert gk.edges == frozenset(HEXAGON)
    assert is_two_connected(gk)


def test_detail_graphs_two_connected_on_hexagon_pairs(example_32):
    ctx = CriteriaContext(example_32)
    for p, q in HEXAGON:
        g = ctx.detail_graph(1, 1, p, q)
        assert is_two_connected(g)
        assert g.vertices == frozenset(
            (v, s) for v in (1, 2, 3) for s in (MINUS, PLUS)
        )


def test_detail_graph_precondition(example_32):
    ctx = CriteriaContext(example_32)
    with pytest.raises(DiagramError, match="not in A_1"):
        ctx.detail_graph(1, 1, (99, PLUS), (1, MINUS))
    with pytest.raises(DiagramError, match="out of range"):
        ctx.detail_graph(7, 1, (1, PLUS), (1, MINUS))
    with pytest.raises(DiagramError, match="out of range"):
        ctx.component_graph(99)


def test_hexagon_fixture_graphs_edgeless():
    ctx = CriteriaContext(hexagon_diagram())
    gk = ctx.component_graph(1)
    assert gk.edges == frozenset()
    g = ctx.detail_graph(1, 1, (1, MINUS), (1, PLUS))
    assert g.edges == frozenset()


def test_disk_graph_structure(example_32):
    hd = CriteriaContext(example_32).disk_graph(1)
    assert len(hd.vertices) == 10
    lo, hi = hd.partition
    assert len(lo) == len(hi) == 5
    assert all(v[0] == MINUS for v in lo)
    assert all(v[0] == PLUS for v in hi)
    assert hd.edges == frozenset(H1_EDGES)
    assert is_doubly_two_connected(hd)


def test_disk_graph_all_disks(example_32):
    ctx = CriteriaContext(example_32)
    for disk in (1, 2, 3):
        assert is_doubly_two_connected(ctx.disk_graph(disk))


def test_disk_graph_out_of_range(example_32):
    ctx = CriteriaContext(example_32)
    with pytest.raises(DiagramError, match="out of range"):
        ctx.disk_graph(0)
    with pytest.raises(DiagramError, match="out of range"):
        ctx.disk_graph(4)


def test_cross_detail_precondition(example_32):
    with pytest.raises(DiagramError, match="Lambda"):
        CriteriaContext(example_32).cross_detail_graph(1, 1, (1, MINUS), (2, MINUS))


def test_minimal_case_matches_flat_definitions(example_32, example_22):
    """With one complementary piece per side, the general graphs collapse
    to the ones built directly from rectangle and composed-rectangle types.
    """
    for d in (example_32, example_22):
        n = len(d.a_words)
        all_labels = [(i, s) for i in range(1, n + 1) for s in (MINUS, PLUS)]
        rect_types = [t for _, t in rectangle_faces(d)]
        comp_types = [t for t, _, _ in composed_rectangles(d, "A")]

        def flat_detail(p, q):
            edges = [
                t.b_sides for t in rect_types
                if t.a_sides == tuple(sorted((p, q))) and t.b_sides[0] != t.b_sides[1]
            ]
            return graph_from_edges(edges, vertices=all_labels)

        ctx = CriteriaContext(d)
        gk = ctx.component_graph(1)
        expected = [
            (p, q)
            for p, q in itertools.combinations(sorted(all_labels), 2)
            if is_two_connected(flat_detail(p, q))
        ]
        assert gk.edges == frozenset(expected)
        assert gk.vertices == frozenset(all_labels)

        for disk in range(1, n + 1):
            hd = ctx.disk_graph(disk)
            lam = [p for p in all_labels if p != (disk, MINUS)]
            lam_plus = [p for p in all_labels if p != (disk, PLUS)]
            cross = []
            for p in lam:
                for q in lam_plus:
                    edges = [
                        t.b_sides for t in comp_types
                        if (t.axis, t.end_minus, t.end_plus) == (disk, p, q)
                        and t.b_sides[0] != t.b_sides[1]
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
        assert len(ctx.component_graph(k).vertices) == 3


def test_disk_graph_vertex_count_minimal(example_22):
    """Minimal genus-g systems give 2(2g-1) vertices per disk graph."""
    assert len(CriteriaContext(example_22).disk_graph(1).vertices) == 6


def test_verdicts_invariant_under_crossing_relabeling(example_22):
    mapping = {x: f"z{i}" for i, x in enumerate(example_22.crossing_ids())}
    r = relabel_crossings(example_22, mapping)
    assert rectangle_condition(r).holds == rectangle_condition(example_22).holds
    assert (
        double_rectangle_condition(r).holds
        == double_rectangle_condition(example_22).holds
    )


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


def test_implication_on_fixtures(example_32, example_32_maximal, example_22):
    for d in (example_32, example_32_maximal, example_22, hexagon_diagram()):
        if double_rectangle_condition(d).holds:
            assert rectangle_condition(d).holds


def test_orientation_invariance_smoke(example_22):
    rc = rectangle_condition(example_22).holds
    drc = double_rectangle_condition(example_22).holds
    for curve in ("d1", "e2"):
        r = example_22.reverse_curve(curve)
        assert rectangle_condition(r).holds == rc
        assert double_rectangle_condition(r).holds == drc


def test_verdict_invariant():
    with pytest.raises(DiagramError, match="witness"):
        Verdict(True, (Witness("rc", False, 1, "disconnected", ()),))


# -- the swapped orientation ----------------------------------------------------


def test_swap_maps_every_face_through_the_port_involution(example_32_maximal):
    for d in fixture_cases(example_32_maximal):
        swapped = d.swap_roles()
        perm = [swapped.face_of_dart(f.darts[0] ^ 1) for f in d.faces]
        assert sorted(perm) == list(range(len(swapped.faces)))
        for f in d.faces:
            image = swapped.faces[perm[f.index]]
            start = image.darts.index(f.darts[0] ^ 1)
            assert image.darts[start:] + image.darts[:start] == tuple(p ^ 1 for p in f.darts)
            sides = image.sides[start:] + image.sides[:start]
            assert [(s.family, s.curve, s.side) for s in sides] == [
                (OTHER_FAMILY[s.family], s.curve, s.side) for s in f.sides
            ]


def test_swapped_numbering_is_by_least_swapped_dart():
    """The swapped view orders each family's cut components by their least
    dart d ^ 1, found here by brute force over every dart of every face."""
    for d in face_oracle_cases():
        swapped = CriteriaContext(d).swapped
        for attr, family in (("comps_a", FAMILY_B), ("comps_b", FAMILY_A)):
            order = sorted(cut_components(d, family), key=lambda c: min(
                e ^ 1 for f in c.faces for e in d.faces[f].darts))
            assert [c.faces for c in getattr(swapped, attr)] == [c.faces for c in order]
            assert [c.index for c in getattr(swapped, attr)] == list(range(1, len(order) + 1))


def test_swapped_context_matches_a_fresh_build(example_32_maximal):
    """`ctx.swapped` is the view of this diagram with the families exchanged;
    the context built from scratch on the swap is the oracle.  The view keeps
    this diagram's face numbers, so only those are mapped, through d -> d ^ 1
    (see `test_swap_maps_every_face_through_the_port_involution`)."""
    for d in fixture_cases(example_32_maximal):
        ctx = CriteriaContext(d)
        swap = d.swap_roles()
        fresh = CriteriaContext(swap)
        swapped = ctx.swapped
        assert ctx.comps_a == cut_components(d, FAMILY_A)
        assert ctx.comps_b == cut_components(d, FAMILY_B)
        perm = [swap.face_of_dart(f.darts[0] ^ 1) for f in d.faces]
        for attr in ("comps_a", "comps_b"):
            mine, theirs = getattr(swapped, attr), getattr(fresh, attr)
            assert len(mine) == len(theirs), attr
            for comp, oracle in zip(mine, theirs):
                for field in fields(CutComponent):
                    value = getattr(comp, field.name)
                    if field.name == "faces":
                        value = tuple(sorted(perm[f] for f in value))
                    assert value == getattr(oracle, field.name), (attr, field.name)
        for attr in ("rect_index", "composed_index", "m", "m_star", "n", "n_star"):
            assert getattr(swapped, attr) == getattr(fresh, attr), attr
        assert swapped.validation.passed == fresh.validation.passed
        assert swapped.validation.entries == fresh.validation.entries
        assert swapped.diagram.a_words == swap.a_words == d.b_words
        assert swapped.diagram.b_words == swap.b_words == d.a_words
        assert {x: cr.sign for x, cr in swapped.diagram.crossings.items()} == {
            x: -cr.sign for x, cr in d.crossings.items()
        }
        assert swapped.swapped is ctx
