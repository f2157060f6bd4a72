import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import heegaardrect
from heegaardrect.criteria import CriteriaContext
from heegaardrect.diagram import (
    DiagramError, FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS,
)
from heegaardrect.diagramio import serialize_diagram
from heegaardrect.systems import cut_components, validate_disk_systems
from heegaardrect.twist import chain_base, example_diagram

from conftest import (
    distinct_twisted_diagrams,
    fixture_cases,
    hexagon_diagram,
    maximal_subsystems,
    reducible_torus,
    split_components_diagram,
    sphere_bigons,
    torus_one,
    torus_two,
)
from map_oracles import (
    crossing_ids, dart_of, edges, face_of_dart, face_union_pieces, lambda_of, mate_of,
)


def test_torus_cut_is_annulus():
    comps = cut_components(torus_one(), FAMILY_A)
    assert len(comps) == 1
    (c,) = comps
    assert c.a_set == frozenset({(1, MINUS), (1, PLUS)})
    assert c.euler == 0
    assert c.planar


def test_minimal_system_cuts_to_one_ball(example_32):
    comps = cut_components(example_32, FAMILY_A)
    assert len(comps) == 1
    assert comps[0].a_set == frozenset(
        (i, s) for i in (1, 2, 3) for s in (MINUS, PLUS)
    )
    assert comps[0].planar and comps[0].euler == -4
    comps_b = cut_components(example_32, FAMILY_B)
    assert len(comps_b) == 1 and comps_b[0].planar


def test_maximal_system_cuts_to_pants(example_32_maximal):
    for family in (FAMILY_A, FAMILY_B):
        comps = cut_components(example_32_maximal, family)
        assert len(comps) == 4
        assert all(len(c.a_set) == 3 for c in comps)
        assert all(c.planar and c.euler == -1 for c in comps)


def test_split_components_fixture():
    """One complementary piece carries the labels of a one-handled piece."""
    d = split_components_diagram()
    assert d.genus == 3
    comps = cut_components(d, FAMILY_A)
    a_sets = {c.a_set for c in comps}
    target = frozenset({(1, MINUS), (2, PLUS), (3, MINUS), (3, PLUS)})
    assert target in a_sets
    assert frozenset({(1, PLUS), (2, MINUS)}) in a_sets
    by_set = {c.a_set: c for c in comps}
    assert by_set[target].euler == -4 and not by_set[target].planar
    annulus = by_set[frozenset({(1, PLUS), (2, MINUS)})]
    assert annulus.euler == 0 and annulus.planar


@pytest.mark.parametrize("make", [torus_one, torus_two, hexagon_diagram,
                                  split_components_diagram])
def test_a_sets_partition_labels(make):
    d = make()
    for family, n in ((FAMILY_A, len(d.a_words)), (FAMILY_B, len(d.b_words))):
        comps = cut_components(d, family)
        labels = [p for c in comps for p in c.a_set]
        assert len(labels) == len(set(labels)) == 2 * n
        assert set(labels) == {(i, s) for i in range(1, n + 1) for s in (MINUS, PLUS)}


@pytest.mark.parametrize("make", [torus_one, torus_two, hexagon_diagram,
                                  split_components_diagram, sphere_bigons])
def test_component_euler_sum(make):
    """Cutting along circles preserves the Euler characteristic."""
    d = make()
    for family in (FAMILY_A, FAMILY_B):
        comps = cut_components(d, family)
        assert sum(c.euler for c in comps) == 2 - 2 * d.genus


def _euler_from_darts(d, family):
    """V - E + F of each cut piece, counted cell by cell from the darts.

    One split vertex per crossing and side of the cut strand, one interior
    edge per other-family edge and two boundary arcs per cut-family edge;
    each cell goes to the piece holding the face of its dart, as the face
    union oracle numbers the pieces.
    """
    piece = face_union_pieces(d, family)
    chi = Counter(piece)
    other = OTHER_FAMILY[family]
    for x in crossing_ids(d):
        for port in PORTS[family]:
            chi[piece[face_of_dart(d, dart_of(d, x, port))]] += 1
    for _, x, _y in edges(d, other):
        chi[piece[face_of_dart(d, dart_of(d, x, PORTS[other][0]))]] -= 1
    for _, x, _y in edges(d, family):
        dart = dart_of(d, x, PORTS[family][0])
        for p in (dart, mate_of(d, dart)):
            chi[piece[face_of_dart(d, p)]] -= 1
    return chi


def test_component_euler_matches_cell_count(example_32, example_32_maximal):
    """Each piece's Euler characteristic, read off face degrees, is V - E + F."""
    fixtures = [make() for make in (torus_one, torus_two, sphere_bigons, reducible_torus,
                                    hexagon_diagram, split_components_diagram)]
    for d in fixtures + [example_32, example_32_maximal] + list(distinct_twisted_diagrams(200)):
        for family in (FAMILY_A, FAMILY_B):
            expected = _euler_from_darts(d, family)
            assert {c.index: c.euler for c in cut_components(d, family)} == expected


def test_valid_diagrams_cut_into_pieces_of_three_or_more_labels(example_32_maximal):
    """A planar piece with one label is a disk and one with two an annulus,
    which validation rejects (a closed torus fails the genus check), so every
    cut piece of a diagram that passes has at least three labels: the
    criteria test only index keys and need no borderline note on it."""
    valid = [d for d in (*fixture_cases(example_32_maximal), *maximal_subsystems(50))
             if validate_disk_systems(d).passed]
    assert len(valid) > 200
    sizes = {len(comp.a_set) for d in valid for family in (FAMILY_A, FAMILY_B)
             for comp in cut_components(d, family)}
    assert min(sizes) == 3


def test_cut_components_bad_family():
    with pytest.raises(DiagramError, match="family"):
        cut_components(torus_one(), "C")


def test_lambda_set_minimal(example_32):
    ctx = CriteriaContext(example_32)
    k, lam = ctx.k_of(1, MINUS), lambda_of(ctx, 1, MINUS)
    assert k == 1
    assert len(lam) == 5
    assert (1, MINUS) not in lam and (1, PLUS) in lam


def test_lambda_set_split_fixture():
    d = split_components_diagram()
    lam = lambda_of(CriteriaContext(d), 3, MINUS)
    assert lam == frozenset({(1, MINUS), (2, PLUS), (3, PLUS)})


def test_lambda_set_out_of_range(example_32):
    ctx = CriteriaContext(example_32)
    with pytest.raises(DiagramError, match="out of range"):
        lambda_of(ctx, 99, MINUS)
    with pytest.raises(DiagramError, match="out of range"):
        lambda_of(ctx, 0, PLUS)
    with pytest.raises(DiagramError, match="side"):
        lambda_of(ctx, 1, 0)


def test_validation_rejects_low_genus():
    report = validate_disk_systems(torus_one())
    assert not report.passed
    assert any(code == "genus" for code, _ in report)


def test_validation_rejects_bigons_with_witness():
    report = validate_disk_systems(sphere_bigons())
    codes = {code for code, _ in report}
    assert "bigon" in codes
    assert [detail for code, detail in report if code == "bigon"] == ["bigon between a and b"] * 4


def test_validation_rejects_nonplanar_and_parallel():
    report = validate_disk_systems(split_components_diagram())
    codes = {code for code, _ in report}
    assert "nonplanar" in codes
    assert "parallel" in codes


def test_validation_accepts_fixtures(example_32, example_32_maximal, example_22):
    for d in (example_32, example_32_maximal, example_22, hexagon_diagram()):
        assert validate_disk_systems(d).passed


def test_validation_curve_count_bounds():
    """A multicurve map has a one-curve second family: flagged, not crashed.
    Gamma alone is fewer than g curves, and cuts the surface to one nonplanar
    piece."""
    report = validate_disk_systems(chain_base(2))
    assert [code for code, _ in report] == ["count", "nonplanar"]
    assert report.entries[0][1] == "family B has 1 curve, outside [2, 3]"


# parses the diagram file argv[1] and prints the bytes still allocated once a
# validation of it and its report are dropped
_LEFT_BEHIND = """
import gc, sys, tracemalloc
from pathlib import Path
from heegaardrect.diagramio import parse_diagram
from heegaardrect.systems import validate_disk_systems
d = parse_diagram(Path(sys.argv[1]).read_text())
gc.collect()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
report = validate_disk_systems(d)
assert report.passed
del report
gc.collect()
print(tracemalloc.get_traced_memory()[0] - base)
"""


def test_validation_leaves_no_memory_behind(tmp_path):
    """Once a validation's report is dropped, its cut pieces and every table
    they were counted from are freed, within a few KB.  A fresh interpreter
    parses example(13, 2) without validating it, so no earlier validation
    holds anything of its size."""
    f = tmp_path / "e.json"
    f.write_text(serialize_diagram(example_diagram(13, 2)))
    env = {**os.environ, "PYTHONPATH": str(Path(heegaardrect.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", _LEFT_BEHIND, str(f)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 4096
