import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from heegaardrect.criteria import (
    CriteriaContext,
    CriteriaGraph,
    Verdict,
    Witness,
    double_rectangle_condition,
    doubly_two_connected_witness,
    graph_from_edges,
    is_doubly_two_connected,
    is_two_connected,
    rectangle_condition,
)
from heegaardrect.diagram import DiagramError, MINUS, OTHER_FAMILY, PLUS
from heegaardrect.rectangles import composed_rectangles, rectangle_faces
from heegaardrect.twist import example_diagram

from conftest import (
    hexagon_diagram,
    random_twisted_diagrams,
    reducible_torus,
    sphere_bigons,
    split_components_diagram,
    torus_one,
    torus_two,
)

SWEEP = [(g, l) for g in (2, 3, 4) for l in (2, 3, -2)]


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
    from heegaardrect.systems import cut_components

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
    r = example_22.relabel_crossings(mapping)
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


def _swap_cases(example_32_maximal):
    """The six small fixtures, the sweep, the maximal example and 200 random
    twisted diagrams."""
    yield from (make() for make in (torus_one, torus_two, sphere_bigons, reducible_torus,
                                    hexagon_diagram, split_components_diagram))
    yield from (example_diagram(g, l) for g, l in SWEEP)
    yield example_32_maximal
    yield from random_twisted_diagrams(200)


def test_swap_maps_every_face_through_the_port_involution(example_32_maximal):
    for d in _swap_cases(example_32_maximal):
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


def test_swapped_context_matches_a_fresh_build(example_32_maximal):
    """`ctx.swapped` maps this context's analysis; building the swap's context
    from scratch is the oracle."""
    for d in _swap_cases(example_32_maximal):
        ctx = CriteriaContext(d)
        fresh = CriteriaContext(d.swap_roles())
        swapped = ctx.swapped
        for attr in ("comps_a", "comps_b", "rect_index", "composed_index", "m", "m_star"):
            assert getattr(swapped, attr) == getattr(fresh, attr), attr
        assert swapped.validation.passed == fresh.validation.passed
        assert swapped.validation.entries == fresh.validation.entries
        assert swapped.swapped is ctx
