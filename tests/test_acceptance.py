"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import json
import random
import time
from pathlib import Path

from heegaardrect.cli import main as cli_main
from heegaardrect.criteria import double_rectangle_condition, rectangle_condition
from heegaardrect.diagram import FAMILY_A, MINUS, PLUS
from heegaardrect.diagramio import serialize_diagram
from heegaardrect.systems import cut_components, validate_disk_systems
from heegaardrect.twist import TwistSpec, chain_base, dehn_twist, example_diagram, maximal_chain_base

from conftest import hexagon_diagram, random_twisted_diagrams, split_components_diagram
from map_oracles import (
    Graph, doubly_two_connected_witness, graph_from_edges, intersection_number, is_isomorphic,
    is_two_connected, neighbors, reverse_curve, stabilized,
)
from shear_oracle import oracle_intersections

GOLDEN = Path(__file__).parent / "golden"
SWEEP = [(g, l) for g in (2, 3, 4) for l in (2, 3, -2)]


def _ok(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_positive_verdict(tmp_path, capsys):
    """generate(3,2) + check both: exit 0, RC and DRC hold, under 10 s."""
    t0 = time.time()
    f = tmp_path / "d.json"
    assert cli_main(["generate", "--genus", "3", "--power", "2", "-o", str(f)]) == 0
    code = cli_main(["check", str(f), "--condition", "both", "--structured"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    assert code == 0
    report = json.loads(out)
    assert report["rc"]["holds"] is True
    assert report["drc"]["holds"] is True
    assert elapsed < 10.0
    _ok(1, f"genus-3 power-2 diagram satisfies both conditions ({elapsed:.1f}s)")


def test_criterion_02_negative_verdict(tmp_path, capsys):
    """generate(3,2,maximal) + check drc: exit 1, missing composed type."""
    t0 = time.time()
    f = tmp_path / "m.json"
    assert cli_main(
        ["generate", "--genus", "3", "--power", "2", "--maximal", "-o", str(f)]
    ) == 0
    code = cli_main(["check", str(f), "--condition", "drc", "--structured"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    assert code == 1
    report = json.loads(out)
    witnesses = report["drc"]["witnesses"]
    assert witnesses
    named = [
        m for w in witnesses for m in w["missing_types"]
        if m["kind"] == "composed-rectangle"
    ]
    assert named
    assert elapsed < 30.0
    _ok(2, f"maximal extension fails DRC, witness names a missing "
           f"composed-rectangle type ({elapsed:.1f}s)")


def test_criterion_03_family_sweep():
    """All nine (g, l): valid, correct counts, RC holds; DRC as recorded."""
    t0 = time.time()
    golden = json.loads((GOLDEN / "sweep.json").read_text())
    for g, l in SWEEP:
        d = example_diagram(g, l)
        assert d.genus == g
        assert len(d.a_words) == len(d.b_words) == g
        assert d.is_bigon_free()
        assert validate_disk_systems(d).passed
        assert rectangle_condition(d).holds
        drc = double_rectangle_condition(d).holds
        assert drc == golden[f"{g},{l}"]["drc"]
        assert golden[f"{g},{l}"]["rc"] is True
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _ok(3, f"nine-member family sweep validates, RC holds, DRC verdicts "
           f"match the golden record ({elapsed:.1f}s)")


def test_criterion_04_implication_property(example_32, example_32_maximal):
    """No diagram anywhere has DRC true with RC false (zero tolerance)."""
    checked = 0
    diagrams = [example_32, example_32_maximal, hexagon_diagram()]
    diagrams += [example_diagram(g, l) for g, l in SWEEP]
    for d in diagrams:
        if double_rectangle_condition(d).holds:
            assert rectangle_condition(d).holds
        checked += 1
    for d in random_twisted_diagrams(100):
        if double_rectangle_condition(d).holds:
            assert rectangle_condition(d).holds
        checked += 1
    assert checked >= 112
    _ok(4, f"double condition implies the plain condition on {checked} diagrams")


def test_criterion_05_calibration_graph():
    """Both published partition verdicts on the six-vertex test graph."""
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 5), (2, 4)]
    g = graph_from_edges(edges, vertices=range(1, 7))
    bad = Graph(g.vertices, g.edges,
                (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    good = Graph(g.vertices, g.edges,
                 (frozenset({1, 2, 4, 5}), frozenset({3, 6})))
    assert doubly_two_connected_witness(bad) is not None
    assert doubly_two_connected_witness(good) is None
    _ok(5, "calibration graph: not doubly 2-connected for ({1,2,3},{4,5,6}), "
           "doubly 2-connected for ({1,2,4,5},{3,6})")


def test_criterion_06_split_components_fixture():
    """Cutting along the disks finds the component with the quoted labels."""
    comps = cut_components(split_components_diagram(), FAMILY_A)
    target = frozenset({(1, MINUS), (2, PLUS), (3, MINUS), (3, PLUS)})
    assert any(c.a_set == target for c in comps)
    _ok(6, "cut component with labels {(1,-),(2,+),(3,-),(3,+)} found")


def test_criterion_07_connectivity_oracle():
    """Both checkers agree with brute-force deletion search, 10^4 graphs."""
    rng = random.Random(99)

    def brute_connected(adj, removed):
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

    mismatches = 0
    for _ in range(10_000):
        n = rng.randrange(0, 13)
        vertices = list(range(n))
        p = rng.random()
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        graph = graph_from_edges(edges, vertices=vertices)
        adj = neighbors(graph)
        brute_two = brute_connected(adj, set()) and all(
            brute_connected(adj, {v}) for v in vertices
        )
        if is_two_connected(graph) != brute_two:
            mismatches += 1
        cut = rng.randrange(0, n + 1)
        blocked = Graph(
            graph.vertices, graph.edges,
            (frozenset(vertices[:cut]), frozenset(vertices[cut:])),
        )
        brute_double = all(
            brute_connected(adj, {a, b})
            for a in vertices[:cut]
            for b in vertices[cut:]
        )
        if (doubly_two_connected_witness(blocked) is None) != brute_double:
            mismatches += 1
    assert mismatches == 0
    _ok(7, "2-connectivity and doubly-2-connectivity match brute force on "
           "10000 random graphs")


def test_criterion_08_orientation_invariance(example_32, example_32_maximal,
                                             example_22):
    """Reversing any one curve never changes either boolean verdict."""
    cases = 0
    for d in (example_22, example_32, hexagon_diagram(), example_32_maximal):
        rc = rectangle_condition(d).holds
        drc = double_rectangle_condition(d).holds
        for curve in d.a_curve_ids() + d.b_curve_ids():
            r = reverse_curve(d, curve)
            assert rectangle_condition(r).holds == rc
            assert double_rectangle_condition(r).holds == drc
            cases += 1
    _ok(8, f"verdicts invariant under all {cases} single-curve reversals")


def test_criterion_09_structural_invariants(example_32, example_32_maximal,
                                            example_22):
    """Euler identity, alternation, reduction, swap involution, DRC swap."""
    diagrams = {
        "example(2,2)": example_22,
        "example(3,2)": example_32,
        "example(3,2,maximal)": example_32_maximal,
        "hexagons": hexagon_diagram(),
        "split-components": split_components_diagram(),
    }
    for name, d in diagrams.items():
        assert len(d.faces) - d.num_crossings == 2 - 2 * d.genus, name
        for f in d.faces:
            fams = [s.family for s in f.sides]
            assert all(
                fams[i] != fams[(i + 1) % len(fams)] for i in range(len(fams))
            ), name
        reduced = d.reduce_bigons()
        assert reduced.is_bigon_free() and reduced.genus == d.genus, name
        swapped_twice = d.swap_roles().swap_roles()
        assert is_isomorphic(swapped_twice, d), name
    for name, d in diagrams.items():
        if name == "split-components":
            continue  # not a valid disk-system diagram
        assert (
            double_rectangle_condition(d).holds
            == double_rectangle_condition(d.swap_roles()).holds
        ), name
    _ok(9, f"structural invariants hold on {len(diagrams)} fixtures")


def test_criterion_10_intersection_oracle():
    """Splice counts equal the exact shear-model counts and the golden tables."""
    tables = json.loads((GOLDEN / "intersections.json").read_text())
    cases = SWEEP + ["maximal"]
    for case in cases:
        if case == "maximal":
            base, power, key = maximal_chain_base(), 2, "3,2,maximal"
        else:
            g, power = case
            base, key = chain_base(g), f"{g},{power}"
        d = dehn_twist(base, TwistSpec(power))
        got = {
            f"{a}:{b}": intersection_number(d, a, b)
            for a in d.a_curve_ids()
            for b in d.b_curve_ids()
        }
        oracle, removed = oracle_intersections(base, power)
        assert removed == 0
        assert got == {f"{a}:{b}": n for (a, b), n in oracle.items()}
        assert got == tables[key]
    _ok(10, f"pairwise counts match the shear oracle and golden tables on "
            f"{len(cases)} generator outputs")


def test_criterion_11_stabilized_diagram_fails(tmp_path, capsys):
    """check of the stabilized generate(3,2): exit 1, both conditions fail
    with witnesses."""
    f = tmp_path / "s.json"
    d = example_diagram(3, 2)
    f.write_text(serialize_diagram(stabilized(d, min(d.b_words), 0, (1, 1))))
    code = cli_main(["check", str(f), "--structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["input"]["genus"] == 4 and report["validation"]["passed"]
    assert report["rc"]["holds"] is False and report["rc"]["witnesses"]
    assert report["drc"]["holds"] is False and report["drc"]["witnesses"]
    _ok(11, "stabilized genus-3 power-2 diagram passes validation and fails "
            "both conditions, with witnesses")
