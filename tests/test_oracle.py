"""Agreement between the splice implementation and the exact shear model.

The oracle recomputes the twisted diagram from line geometry over the
annulus universal cover and counts crossings after its own bigon sweep;
the committed golden tables were produced from the oracle.  Where the
oracle's map needs no bigon removal, the whole map is compared too: the
order of the crossings along every word, up to relabeling the crossings.
On random bases the raw spliced map, before any bigon reduction, is
compared with the oracle's map before its sweep.
"""

import json
import random
import warnings
from pathlib import Path

import pytest

from heegaardrect.diagram import Diagram, DiagramError
from heegaardrect.twist import (
    TwistSpec,
    _twisted,
    chain_base,
    dehn_twist,
    maximal_chain_base,
    multicurve_map,
)

from conftest import random_base
from map_oracles import intersection_number, is_isomorphic
from shear_oracle import FlatMap, oracle_intersections, shear_model

GOLDEN = Path(__file__).parent / "golden"
SWEEP = [(g, l) for g in (2, 3, 4) for l in (2, 3, -2)]


def _main_counts(base, power):
    d = dehn_twist(base, TwistSpec(power))
    return {
        (a, b): intersection_number(d, a, b)
        for a in d.a_curve_ids()
        for b in d.b_curve_ids()
    }


@pytest.mark.parametrize("genus,power", SWEEP)
def test_oracle_matches_splice_on_family(genus, power):
    base = chain_base(genus)
    counts, removed = oracle_intersections(base, power)
    assert removed == 0
    assert counts == _main_counts(base, power)


def test_oracle_matches_splice_on_maximal():
    base = maximal_chain_base()
    counts, removed = oracle_intersections(base, 2)
    assert removed == 0
    assert counts == _main_counts(base, 2)


def _asymmetric_base():
    words = {"d1": ("u", "v"), "d2": ("w", "x", "y", "z")}
    gamma = ("u", "w", "x", "v", "y", "z")
    signs = {c: 1 for c in gamma}
    signs["v"] = -1
    return multicurve_map(words, gamma, signs)


def test_oracle_matches_splice_on_asymmetric_base():
    base = _asymmetric_base()
    for power in (2, -2, 3, -3):
        counts, removed = oracle_intersections(base, power)
        assert removed == 0
        assert counts == _main_counts(base, power)


MAP_CASES = (
    [(f"chain({g})", p) for g in (2, 3, 4) for p in (2, 3, -2, -3)]
    + [("asymmetric", p) for p in (2, 3, -2, -3)]
    + [("maximal", p) for p in (2, -2)]
)
BASES = {"chain(2)": lambda: chain_base(2), "chain(3)": lambda: chain_base(3),
         "chain(4)": lambda: chain_base(4), "asymmetric": _asymmetric_base,
         "maximal": maximal_chain_base}


@pytest.mark.parametrize("base_name,power", MAP_CASES)
def test_oracle_map_matches_splice(base_name, power):
    """Same words, crossing order and signs as the oracle, up to relabeling."""
    base = BASES[base_name]()
    oracle = Diagram(*shear_model(base, power))
    assert is_isomorphic(oracle, dehn_twist(base, TwistSpec(power)))


@pytest.fixture(scope="module")
def random_bases():
    """60 random multicurve bases, drawn as the random twisted diagrams' are."""
    rng, bases = random.Random(20240809), []
    while len(bases) < 60:
        try:
            bases.append(random_base(rng))
        except DiagramError:
            continue
    return bases


@pytest.mark.parametrize("power", [1, -1, 2, -2, 3, -3])
def test_oracle_map_matches_raw_splice_on_random_bases(random_bases, power):
    """The spliced map, before any bigon reduction, is the oracle's map."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = TwistSpec(power)
    for base in random_bases:
        assert is_isomorphic(Diagram(*shear_model(base, power)), Diagram(*_twisted(base, spec)))


def test_tables_match_golden():
    tables = json.loads((GOLDEN / "intersections.json").read_text())
    for (genus, power) in SWEEP:
        want = tables[f"{genus},{power}"]
        got = {
            f"{a}:{b}": n for (a, b), n in _main_counts(chain_base(genus), power).items()
        }
        assert got == want
    want = tables["3,2,maximal"]
    got = {f"{a}:{b}": n for (a, b), n in _main_counts(maximal_chain_base(), 2).items()}
    assert got == want


def test_oracle_flat_map_genus_and_bigons():
    """The oracle's own map assembly detects genus and removes bigons."""
    a_words, b_words, signs = shear_model(chain_base(2), 2)
    m = FlatMap(a_words, b_words, signs)
    assert m.genus() == 2
    assert m.remove_bigons() == 0
    # a two-crossing sphere configuration reduces until a curve dies
    bad = FlatMap({"a": ["x", "y"]}, {"b": ["x", "y"]}, {"x": 1, "y": -1})
    with pytest.raises(AssertionError, match="eliminated"):
        bad.remove_bigons()
