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
    assert not base.bigon_faces()
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
    assert base.bigon_faces()
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


def test_disk_ids_must_be_strings():
    """A `Diagram` takes any sortable curve ids, but a twisted curve is named
    after its disk, so the twist refuses a disk id that is not a str."""
    base = chain_base(2)
    keyed = multicurve_map(dict(enumerate(base.a_words.values(), 1)), base.b_words["gamma"],
                           dict(base.signs))
    with pytest.raises(DiagramError, match="^disk id 1 is not a str$"):
        dehn_twist(keyed, TwistSpec(2))


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
    assert not d.bigon_faces()
    assert len(d.a_words) == len(d.b_words) == genus
    for a in d.a_words:
        for b in d.b_words:
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
    for a in d.a_words:
        for b in d.b_words:
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


def test_splice_works_on_integer_keys():
    """The splice names nothing: its words hold the keys 0..n-1, each once in
    each family, and its signs are keyed by the same ints, in key order."""
    a_words, f_words, signs = _twisted(chain_base(3), TwistSpec(2))
    n = 2 * 12 * 12  # |power| crossings for each pair of gamma's 12 crossings
    for words in (a_words, f_words):
        keys = [k for word in words.values() for k in word]
        assert {type(k) for k in keys} == {int}
        assert sorted(keys) == list(range(n))
    assert list(signs) == list(range(n))


# sha256 of serialize_diagram(example_diagram(g, p)) under "g,p", and of the
# maximal example at power p under "maximal,p"
EXAMPLE_FILE_DIGESTS = {
    "2,2": "3d9da5be80c248bcb8649345be63aaf652f6ea1d15edcb4c6b3af92cc210922b",
    "2,3": "122aaf811af7baa0e4283b73550d920ac28f532bc03aa86a83b04394ca4a7b8d",
    "2,-2": "2765c75a4edadb788f47d69040f935a2a02b41010d16d6adacfc63c3e65c7295",
    "2,-3": "e603f38742d27948ab06224dc0c10c598f0bde10463873c5a936a60e41aad573",
    "3,2": "8674470400627e55f7c141b9d7f44b5650a7d9f7c4944d5fe95b108cdc6d4cd5",
    "3,3": "c9f384d5a5e350594638633b9ecb76cb8c1cac486c930519da08512d1925a0dd",
    "3,-2": "0baedaf0514a3df584a9622c2299b41b46efa31d8876379a232f2eb4f5d2759b",
    "3,-3": "44b3dc4753ee7762e38c8d7d4dc8c037d14d6d3f4e07a0f2d673721ad136687b",
    "4,2": "0a3ef5f321398b38e762f4e4a4999d938f9c3f29bf5f323c1abb6f0310cfd78d",
    "4,3": "80518419b4e77eb7a0d4a0ddc6b8abefe506c83dd560bc48b91d060bbe187129",
    "4,-2": "7cabd08fd9b483ac26c6110a4710f11545d2f204fe4601784548861a5dfea481",
    "4,-3": "0095c0e5bc9b14c4423536c570f4f2651b35d9156c325263de9a850dd88df45f",
    "5,2": "4bc4fb2e97109f754698d74d353598cc904baf814eef5fdfb9404fd52e70b2bc",
    "5,3": "f37f960322af81ebfb893787f419084cb98978813565b10659c32395076806ae",
    "5,-2": "a86e98fd79996d8de8dfa105487fd4d47fa68e3bb24edfda54900330dc6be750",
    "5,-3": "844c2e6fe8d8bb9f4a95e8461a9c2e9223e812a173e345f1cdd35501de3dfbb6",
    "6,2": "5cf1a639c1eee1541da2c9cfa0340285ce8efe8a708fad3123650f1672209bde",
    "6,3": "a0c0797aa6cdad22769beb485dff45066e175ca4efa11f7ff184a952adbb4ba0",
    "6,-2": "13bb7f9c2f779396d22d30c44eaaf7b635cae2ceeabbb599496748806faa97ce",
    "6,-3": "60e97c50c1718d6f3c7f4e68c486f7019590c294dbe3daec6805c8c8a4aaed2b",
    "7,2": "08629a326941109436959bb727bd0e2952205a3c2cff1ed96417c7a5aa1a8fe7",
    "7,3": "912b84325a2d78bab938114f3231f7080960d3aeefb7d4dd971043b36121ec65",
    "7,-2": "7dc0a02232083460c57a2329fdd557545895777f86181b887a10042d7e6eeaa8",
    "7,-3": "18a3e87e34e15aff22ada6cf8bff206737b52687a5a9ee99266f34cbad0605ab",
    "8,2": "ad94d4a580ead8ef172adcb3bfed8e1225695eb10de24c3ed744c97f6e7f25ad",
    "8,3": "dcfc0c8e62f97b3043454f459c846bd8527ce60bbab9ad7e89d0d0fe6987ee95",
    "8,-2": "d39d9f863d7c7009581db0e882597e2d085aad1bcb2fef60b2cd30d5931ef21e",
    "8,-3": "0b0968e65a8f5dae52290f34f49e244236a6954c43e06ca3b7d857a7b288850c",
    "maximal,2": "8cdd1af08274af4460372d812b5479a846e67021aee040b1bb93880b1c2d7b92",
    "maximal,-2": "1d95a573ba6bea146bcd17f0f65c05b6da0902a4fd133dcf58baa7e965854709",
    "maximal,3": "bfeceaab606c5105a3e8effe885e7f387059cb075a4fe1d541db58d030437b08",
}


def test_example_files_are_pinned():
    """Every example file is the recorded one, byte for byte."""
    moved = []
    for member, want in EXAMPLE_FILE_DIGESTS.items():
        genus, power = member.split(",")
        maximal = genus == "maximal"
        d = example_diagram(3 if maximal else int(genus), int(power), maximal)
        if hashlib.sha256(serialize_diagram(d).encode()).hexdigest() != want:
            moved.append(member)
    assert not moved, f"example files moved: {moved}"


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
        if tuple(self.b_words) != ("gamma",):
            built.append(self)

    monkeypatch.setattr(Diagram, "__init__", counting_init)
    example_diagram(3, 2, maximal=maximal)
    assert len(built) == 1


def _canonical_names(d):
    """x1, x2, ... in first-family word order over the sorted curve ids."""
    width = len(str(d.num_crossings))
    order = (x for curve in d.a_words for x in d.a_words[curve])
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
        assert not Diagram(*_twisted(base, spec)).bigon_faces()


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


def test_drc_holds_exactly_at_odd_genus():
    """The parity rule through g = 16 at p = 2: every example validates and
    satisfies RC in both views, and DRC holds exactly when g is odd."""
    for genus in range(2, 17):
        report = build_report(example_diagram(genus, 2))
        assert report["validation"]["passed"], genus
        assert report["rc"]["holds"] and report["rc_swapped"]["holds"], genus
        assert report["drc"]["holds"] == (genus % 2 == 1), genus
