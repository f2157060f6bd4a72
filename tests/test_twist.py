import hashlib
import re
import warnings

import pytest

from heegaardrect.diagram import Diagram, DiagramError, FAMILY_A
from heegaardrect.systems import cut_components, validate_disk_systems
from heegaardrect.twist import (
    TwistSpec,
    _twisted,
    chain_base,
    dehn_twist,
    example_diagram,
    maximal_chain_base,
    multicurve_map,
)
from heegaardrect.diagramio import build_report, serialize_diagram

from conftest import random_twisted_diagrams
from map_oracles import intersection_number, relabel_crossings


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_chain_base_fills_its_surface(genus):
    base = chain_base(genus)
    assert base.genus == genus
    assert base.is_bigon_free()
    assert len(base.a_words) == genus
    comps = cut_components(base, FAMILY_A)
    assert len(comps) == 1 and comps[0].planar
    for word in base.a_words.values():
        assert len(word) == 4


def test_maximal_chain_base_structure():
    base = maximal_chain_base()
    assert base.genus == 3
    assert len(base.a_words) == 6
    comps = cut_components(base, FAMILY_A)
    assert len(comps) == 4
    assert all(c.planar and len(c.a_set) == 3 for c in comps)


def test_twist_spec_validation():
    with pytest.raises(DiagramError, match="nonzero"):
        TwistSpec(0)
    with pytest.warns(UserWarning, match="magnitude 1"):
        TwistSpec(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TwistSpec(2)
        TwistSpec(-3)


@pytest.mark.parametrize("power", [2.5, 2.0, "2", True, False, None, [2]])
def test_twist_power_must_be_an_integer(power):
    for make in (TwistSpec, lambda p: example_diagram(3, p)):
        with pytest.raises(DiagramError, match="^twist power must be an integer$"):
            make(power)


@pytest.mark.parametrize("genus", [3.0, 2.5, "3", True, False, None])
def test_genus_must_be_an_integer(genus):
    for make in (chain_base, lambda g: example_diagram(g, 2)):
        with pytest.raises(DiagramError, match="^genus must be an integer$"):
            make(genus)


def test_dehn_twist_requires_multicurve(example_32):
    with pytest.raises(DiagramError, match="auxiliary"):
        dehn_twist(example_32, TwistSpec(2))


def test_dehn_twist_rejects_inessential_base():
    base = Diagram({"d1": ["x", "y"]}, {"gamma": ["x", "y"]}, {"x": 1, "y": -1})
    assert not base.is_bigon_free()
    with pytest.raises(DiagramError, match="bigon"):
        dehn_twist(base, TwistSpec(2))


def test_disks_with_one_twisted_name_rejected():
    """`d1*` and `e1` both name their twisted curve `e1*`; neither may be lost."""
    base = chain_base(2)
    renamed = multicurve_map({"d1*": base.a_words["d1"], "e1": base.a_words["d2"]},
                             base.b_words["gamma"],
                             {x: cr.sign for x, cr in base.crossings.items()})
    with pytest.raises(DiagramError, match=r"disks d1\* and e1 both twist to the curve e1\*"):
        dehn_twist(renamed, TwistSpec(2))


@pytest.mark.parametrize("first,second", [("d1", "e1"), ("x", "x*")])
def test_disk_named_like_a_twisted_curve_rejected(first, second):
    """The twisted curve of `first` is named `second`, which is also a disk."""
    base = chain_base(2)
    renamed = multicurve_map({first: base.a_words["d1"], second: base.a_words["d2"]},
                             base.b_words["gamma"],
                             {x: cr.sign for x, cr in base.crossings.items()})
    message = f"disk {second} has the name of the twisted curve of disk {first}"
    with pytest.raises(DiagramError, match=f"^{re.escape(message)}$"):
        dehn_twist(renamed, TwistSpec(2))


def test_disjoint_disk_is_unrepresentable():
    """A disk missing gamma leaves the union disconnected at construction."""
    with pytest.raises(DiagramError, match="empty|disconnected"):
        multicurve_map(
            {"d1": ("x", "y"), "d2": ()},
            ("x", "y"),
            {"x": 1, "y": 1},
        )
    with pytest.raises(DiagramError, match="match up|disconnected"):
        multicurve_map(
            {"d1": ("x", "y"), "d2": ("z",)},
            ("x", "y"),
            {"x": 1, "y": 1, "z": 1},
        )


@pytest.mark.parametrize("genus,power", [(2, 2), (3, 2), (2, -2), (3, -3)])
def test_twist_output_is_clean(genus, power):
    base = chain_base(genus)
    d = dehn_twist(base, TwistSpec(power))
    assert d.genus == genus
    assert d.is_bigon_free()
    assert len(d.a_words) == len(d.b_words) == genus
    for a in d.a_curve_ids():
        for b in d.b_curve_ids():
            assert intersection_number(d, a, b) == 16 * abs(power)


def test_twist_counts_scale_with_gamma_crossings():
    """|twisted_j . disk_i| = |power| * |disk_j . gamma| * |gamma . disk_i|."""
    words = {"d1": ("u", "v"), "d2": ("w", "x", "y", "z")}
    gamma = ("u", "w", "x", "v", "y", "z")
    signs = {c: 1 for c in gamma}
    signs["v"] = -1
    base = multicurve_map(words, gamma, signs)
    d = dehn_twist(base, TwistSpec(2))
    gam = {c: len(base.a_words[c]) for c in base.a_words}
    for a in d.a_curve_ids():
        for b in d.b_curve_ids():
            expected = 2 * gam[a] * gam["d" + b[1:]]
            assert intersection_number(d, a, b) == expected


def test_splice_names_are_unambiguous():
    """Crossing ids holding "_" give every spliced crossing its own name: with
    a, a_b, c and b_c, a name that only joined x, a and r with "_" would
    give t_l_a_b_c_0 twice, once for (a, b_c) and once for (a_b, c)."""
    words = {"d1": ("a", "a_b"), "d2": ("c", "b_c")}
    gamma = ("a", "c", "a_b", "b_c")
    signs = {"a": 1, "c": 1, "a_b": 1, "b_c": -1}
    base = multicurve_map(words, gamma, signs)
    for power in (2, -2, 3):
        d = dehn_twist(base, TwistSpec(power))
        assert d.genus == 2
        assert d.num_crossings == abs(power) * 4 * 4
        assert "t1_a_b_c_0" in d.signs and "t3_a_b_c_0" in d.signs


def test_twisted_corpus_is_pinned():
    """The random twisted diagrams are the recorded ones, byte for byte: this
    pins `dehn_twist`'s crossing names and word order, which the benchmark's
    random members (`perfbench/inputs.py`) share."""
    digest = hashlib.sha256()
    for d in random_twisted_diagrams(100):
        digest.update(serialize_diagram(d).encode())
    assert digest.hexdigest() == (
        "a497899557f911bdbbbf3dd69fbe3c7ae5b0f0910f669e5d2d1be0214f8f3413")


def test_example_diagram_validates_and_is_deterministic():
    d1 = example_diagram(3, 2)
    d2 = example_diagram(3, 2)
    assert serialize_diagram(d1) == serialize_diagram(d2)
    assert validate_disk_systems(d1).passed


@pytest.mark.parametrize("maximal", [False, True])
def test_example_diagram_builds_one_diagram(monkeypatch, maximal):
    """The crossings are named before the map is built, not after: one
    diagram is built whose second family is not gamma alone."""
    built = []
    init = Diagram.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.b_curve_ids() != ("gamma",):
            built.append(self)

    monkeypatch.setattr(Diagram, "__init__", counting_init)
    example_diagram(3, 2, maximal=maximal)
    assert len(built) == 1


def _canonical_names(d):
    """x1, x2, ... in first-family word order over the sorted curve ids."""
    width = len(str(d.num_crossings))
    order = (x for curve in d.a_curve_ids() for x in d.a_words[curve])
    return {x: f"x{i:0{width}d}" for i, x in enumerate(order, 1)}


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6, 7, "maximal"])
def test_example_diagram_is_the_renamed_reduced_twist(genus):
    """Naming the spliced words equals twisting, reducing, then renaming."""
    maximal = genus == "maximal"
    base = maximal_chain_base() if maximal else chain_base(genus)
    for power in (2, -2) if maximal else (2, 3, -2, -3):
        twisted = dehn_twist(base, TwistSpec(power))
        want = serialize_diagram(relabel_crossings(twisted, _canonical_names(twisted)))
        got = serialize_diagram(example_diagram(3 if maximal else genus, power, maximal))
        assert got == want


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6, 7, "maximal"])
def test_raw_splice_has_no_bigon(genus):
    """Each twisted curve meets each disk minimally, before any reduction."""
    base = maximal_chain_base() if genus == "maximal" else chain_base(genus)
    for power in (1, -1, 2, -2, 3, -3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = TwistSpec(power)
        assert Diagram(*_twisted(base, spec)).is_bigon_free()


def test_example_diagram_parameter_errors():
    with pytest.raises(DiagramError, match="magnitude"):
        example_diagram(3, 1)
    with pytest.raises(DiagramError, match="magnitude"):
        example_diagram(3, 0)
    with pytest.raises(DiagramError, match="genus"):
        example_diagram(1, 2)
    with pytest.raises(DiagramError, match="genus 3"):
        example_diagram(2, 2, maximal=True)
    with pytest.raises(DiagramError, match="genus 3"):
        example_diagram(4, 2, maximal=True)


def test_example_diagram_maximal_counts(example_32_maximal):
    assert len(example_32_maximal.a_words) == 6
    assert len(example_32_maximal.b_words) == 6
    assert validate_disk_systems(example_32_maximal).passed


def _report_less_crossings(genus: int, power: int) -> dict:
    report = build_report(example_diagram(genus, power), "both")
    del report["input"]["crossings"]
    return report


@pytest.mark.parametrize("genus, powers", [
    *((g, (2, 3, 5, 8)) for g in range(2, 7)),
    (3, (16, 32)),
])
def test_report_does_not_depend_on_the_power(genus, powers):
    """The report of example(g, p), less its crossing count, is that of
    example(g, 2) at every power tested, of either sign: the power changes
    how many faces there are, not the verdicts, witnesses or counts."""
    base = _report_less_crossings(genus, 2)
    for power in (*powers, *(-p for p in powers)):
        assert _report_less_crossings(genus, power) == base, power
