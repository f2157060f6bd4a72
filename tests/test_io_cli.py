import argparse
import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import heegaardrect
from heegaardrect import cli
from heegaardrect.cli import main
from heegaardrect.criteria import (
    CriteriaContext, double_rectangle_condition, rectangle_condition,
)
from heegaardrect.diagram import Crossing, Diagram, DiagramError, Face, FaceSide
from heegaardrect.diagramio import (
    _dumps,
    build_report,
    parse_diagram,
    report_to_json,
    report_to_text,
    serialize_diagram,
)
from heegaardrect.systems import validate_disk_systems
from heegaardrect.twist import TwistSpec, chain_base, dehn_twist, example_diagram

from conftest import (
    SWEEP,
    hexagon_diagram,
    random_twisted_diagrams,
    reducible_torus,
    split_components_diagram,
    sphere_bigons,
    torus_one,
    torus_two,
)
from map_oracles import is_isomorphic, relabel_crossings

GOLDEN = Path(__file__).parent / "golden"


# -- file format ---------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [torus_one, hexagon_diagram, split_components_diagram]
)
def test_round_trip_is_isomorphic(make):
    d = make()
    r = parse_diagram(serialize_diagram(d))
    assert is_isomorphic(r, d)
    assert serialize_diagram(r) == serialize_diagram(d)


def test_round_trip_multicurve():
    """A multicurve map is written as any diagram is, gamma its one dstar curve."""
    base = chain_base(3)
    text = serialize_diagram(base)
    assert list(json.loads(text)) == ["format_version", "d_curves", "dstar_curves"]
    r = parse_diagram(text)
    assert r.b_curve_ids() == ("gamma",)
    assert is_isomorphic(r, base)


@pytest.mark.parametrize("bad", ["x-1", "", "x y", 1])
def test_serialize_writes_only_ids_that_read_back(example_22, bad):
    """A crossing id outside [A-Za-z0-9_]+ would give a file `parse_diagram`
    rejects, so serializing raises, naming the id; renamed, it round-trips."""
    cases = [relabel_crossings(torus_one(), {"x": bad})]
    if isinstance(bad, str):  # a Diagram sorts its ids, so they share one type
        cases.append(relabel_crossings(
            example_22, {x: bad if x == "x064" else x for x in example_22.crossings}))
    for d in cases:
        with pytest.raises(DiagramError, match=re.escape(f"crossing id {bad!r} ")):
            serialize_diagram(d)
        good = relabel_crossings(d, {x: f"c{i}" for i, x in enumerate(d.crossings)})
        assert is_isomorphic(parse_diagram(serialize_diagram(good)), d)


def test_serialize_writes_only_curve_ids_that_read_back(example_32_maximal):
    """A JSON key reads back as a str, and a diagram numbers its curves by
    sorted id, so disks 9..14 would read back as '10', ..., '14', '9', a
    different diagram; serializing raises, naming the first such id."""
    d = example_32_maximal
    signs = {x: cr.sign for x, cr in d.crossings.items()}
    renamed = [dict(zip(range(9, 15), words.values())) for words in (d.a_words, d.b_words)]
    for a_words, b_words in ((renamed[0], d.b_words), (d.a_words, renamed[1])):
        with pytest.raises(DiagramError, match=re.escape("curve id 9 is not a str")):
            serialize_diagram(Diagram(a_words, b_words, signs))


def test_reserialization_is_byte_identical(example_32):
    text = serialize_diagram(example_32)
    assert serialize_diagram(parse_diagram(text)) == text


def test_generated_file_matches_golden(example_32):
    assert serialize_diagram(example_32) == (GOLDEN / "example_3_2.json").read_text()


@pytest.mark.parametrize(
    "mangle,match",
    [
        (lambda doc: doc.update(format_version=9), "format_version"),
        (lambda doc: doc.pop("d_curves"), "d_curves"),
        (lambda doc: doc["d_curves"].update(a=["x+", "x+"]), "twice"),
        (lambda doc: doc["dstar_curves"].update(b2=["x"]), "twice"),
        (lambda doc: doc["d_curves"].update(a=["x"]), "token"),
        (lambda doc: doc.update(aux_curve={"g": ["x"]}), "^unknown top-level key 'aux_curve'$"),
        (lambda doc: doc.pop("dstar_curves"), "^dstar_curves must be a non-empty mapping$"),
        (lambda doc: doc.update(z=1, b_extra=[]), "^unknown top-level key 'b_extra'$"),
        # each bad token of either family, the first named exactly
        (lambda doc: doc["d_curves"].update(a=["x+", "p", "q"]), "^curve a: bad signed token 'p'$"),
        (lambda doc: doc["d_curves"].update(a=["x+ y+"]), r"^curve a: bad signed token 'x\+ y\+'$"),
        (lambda doc: doc["d_curves"].update(a=["x+", ""]), "^curve a: bad signed token ''$"),
        (lambda doc: doc["d_curves"].update(a=["x+", 1]), "^curve a: bad signed token 1$"),
        (lambda doc: doc["dstar_curves"].update(b=["x", "p-", "q+"]), "^curve b: bad token 'p-'$"),
        (lambda doc: doc["dstar_curves"].update(b=["x y"]), "^curve b: bad token 'x y'$"),
        (lambda doc: doc["dstar_curves"].update(b=["x", ""]), "^curve b: bad token ''$"),
        (lambda doc: doc["dstar_curves"].update(b=["x", None]), "^curve b: bad token None$"),
    ],
)
def test_parse_rejects_malformed(mangle, match):
    doc = json.loads(serialize_diagram(torus_one()))
    mangle(doc)
    with pytest.raises(DiagramError, match=match):
        parse_diagram(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(DiagramError, match="JSON"):
        parse_diagram("{nope")
    # `json` would keep the last of two equal keys and drop the first
    with pytest.raises(DiagramError, match="^not valid JSON: duplicate key 'a'$"):
        parse_diagram('{"format_version":1,"d_curves":{"a":["x+"],"a":["y+"]},"dstar_curves":{"b":["y"]}}')


# -- reports --------------------------------------------------------------------


def test_report_structure(example_32):
    report = build_report(example_32)
    assert report["input"]["genus"] == 3
    assert report["input"]["n"] == report["input"]["n_star"] == 3
    assert report["input"]["m"] == report["input"]["m_star"] == 1
    assert report["validation"]["passed"]
    assert report["rc"]["holds"] and report["drc"]["holds"]
    assert report["rc"]["witnesses"] == []
    assert any("strongly irreducible" in a for a in report["annotations"])
    assert any("Goeritz" in a for a in report["annotations"])
    text = report_to_text(report)
    assert "rectangle condition: holds" in text
    assert "double rectangle condition: holds" in text


def test_report_matches_golden(example_32):
    got = report_to_json(build_report(example_32))
    assert got == (GOLDEN / "report_3_2.json").read_text()


def test_failing_report_matches_golden(example_32_maximal):
    got = report_to_json(build_report(example_32_maximal))
    assert got == (GOLDEN / "report_3_2_maximal.json").read_text()


_JSON_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001d11e'),
))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64),
              st.integers(max_value=-2**64), _JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4),
                            st.lists(_JSON_TEXT, max_size=4)),
    max_leaves=20,
)


@given(_JSON_VALUES)
@example({"": [[], {}, True, False, None, 0, -1, 2**70, "\ud800"]})
@example([1, True, -2**70, False])
@settings(max_examples=150, deadline=None)
def test_writer_matches_the_standard_library(x):
    assert _dumps(x) == json.dumps(x, indent=2)


class _Port(IntEnum):
    OUT = 0


@pytest.mark.parametrize(
    "x", [1.5, [["a"], 0.0], _Port.OUT, {"a": [_Port.OUT]}, {1: "a"}, {"a": {None: 1}}, ("a",)]
)
def test_writer_rejects_other_types(x):
    with pytest.raises(TypeError):
        _dumps(x)


def test_report_json_is_the_standard_librarys(example_32_maximal):
    diagrams = [*random_twisted_diagrams(400), *(example_diagram(g, l) for g, l in SWEEP),
                example_32_maximal]
    for d in diagrams:
        report = build_report(d)
        assert report_to_json(report) == json.dumps(report, indent=2) + "\n"


def _count_calls(monkeypatch, counts: dict, home, name):
    """Count calls of `home.name` into `counts[name]`, from every package
    module that holds it."""
    original = getattr(home, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("heegaardrect") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)


def test_report_builds_one_context_per_orientation(example_32, monkeypatch):
    counts = {"contexts": 0, "swaps": 0, "cut_components": 0, "_class_table": 0}
    analyse, swap_roles = CriteriaContext._analyse, Diagram.swap_roles

    def counting_analyse(self, *args):
        # the swapped context bypasses __init__; every context is analysed once
        counts["contexts"] += 1
        analyse(self, *args)

    def counting_swap_roles(self):
        counts["swaps"] += 1
        return swap_roles(self)

    monkeypatch.setattr(CriteriaContext, "_analyse", counting_analyse)
    monkeypatch.setattr(Diagram, "swap_roles", counting_swap_roles)
    _count_calls(monkeypatch, counts, heegaardrect, "cut_components")
    _count_calls(monkeypatch, counts, heegaardrect.criteria, "_class_table")
    build_report(example_32, "both")
    # the faces are classed once, and both families are cut from those
    # classes, not along edges; the swapped orientation reads that
    # analysis with the families exchanged and builds no swapped diagram
    assert counts == {"contexts": 2, "swaps": 0, "cut_components": 0, "_class_table": 1}


def test_validation_builds_no_class_table_and_cuts_each_family_once(example_32, monkeypatch):
    """`validate_disk_systems` (the `validate` and `generate` commands) holds
    no face classes and builds none: it cuts each family once, joining its
    circles along the other family's edges (`cut_components`)."""
    counts = {"cut_components": 0, "_class_table": 0}
    _count_calls(monkeypatch, counts, heegaardrect, "cut_components")
    _count_calls(monkeypatch, counts, heegaardrect.criteria, "_class_table")
    assert validate_disk_systems(example_32).passed
    assert counts == {"cut_components": 2, "_class_table": 0}


def _count_constructions(monkeypatch, *classes) -> dict:
    """Count the objects of each class built from here on, by class name."""
    counts = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_check_builds_no_face_or_crossing_object(example_32_maximal, tmp_path, capsys,
                                                 monkeypatch):
    """Every command runs on the flat face and crossing tables: parsing and
    checking, validation and bigon reduction of a diagram with bigons, the
    twist and generation."""
    texts = [(GOLDEN / "example_3_2.json").read_text(), serialize_diagram(example_32_maximal)]
    bigons = tmp_path / "bigons.json"
    bigons.write_text(serialize_diagram(reducible_torus()))
    counts = _count_constructions(monkeypatch, Face, FaceSide, Crossing)
    for text in texts:
        build_report(parse_diagram(text))
    assert [code for code, _ in validate_disk_systems(reducible_torus())].count("bigon") == 2
    assert reducible_torus().reduce_bigons().is_bigon_free()
    serialize_diagram(dehn_twist(chain_base(3), TwistSpec(2)))
    serialize_diagram(example_diagram(3, 2))
    assert run_cli("validate", str(bigons)) == 1
    assert "[bigon] bigon between a and b" in capsys.readouterr().out
    assert run_cli("generate", "--genus", "2", "--power", "2", "-o", str(tmp_path / "g.json")) == 0
    assert counts == {"Face": 0, "FaceSide": 0, "Crossing": 0}


def test_report_builds_no_criteria_graph(example_32, example_32_maximal):
    """A check searches G_k and H_d as node adjacencies, the only form of a
    graph the package has: `build_report` decides where both conditions hold
    and where DRC fails with witnesses and missing types, and the package
    has no graph class."""
    diagrams = (example_32, example_32_maximal, *random_twisted_diagrams(20))
    reports = [build_report(d) for d in diagrams]
    assert {r["drc"]["holds"] for r in reports} == {True, False}
    assert any(w["missing_types"] for r in reports for w in r["drc"]["witnesses"])
    rectangle_condition(example_32_maximal)
    double_rectangle_condition(example_32_maximal)
    assert not hasattr(heegaardrect.criteria, "CriteriaGraph")


def test_bigon_entries_build_only_the_bigon_faces(monkeypatch):
    """The bigon entries are read off the face tables: not even the bigons
    become `Face` objects."""
    counts = _count_constructions(monkeypatch, Face, FaceSide, Crossing)
    report = build_report(reducible_torus())
    bigons = [e["detail"] for e in report["validation"]["entries"] if e["code"] == "bigon"]
    assert bigons == ["bigon between a and b", "bigon between a and b"]
    assert counts == {"Face": 0, "FaceSide": 0, "Crossing": 0}


def test_report_witnesses_serialize(example_32_maximal):
    report = build_report(example_32_maximal, condition="drc")
    assert not report["drc"]["holds"]
    w = report["drc"]["witnesses"][0]
    assert w["kind"] == "drc"
    assert len(w["vertices"]) == 2
    kinds = {m["kind"] for m in w["missing_types"]}
    assert "composed-rectangle" in kinds
    text = report_to_text(report)
    assert "not doubly 2-connected" in text


# -- command line ----------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_generate_and_check(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run_cli("generate", "--genus", "3", "--power", "2", "-o", str(out)) == 0
    assert run_cli("check", str(out), "--condition", "both") == 0
    text = capsys.readouterr().out
    assert "rectangle condition: holds" in text
    assert "double rectangle condition: holds" in text


def test_cli_check_structured(tmp_path, capsys):
    out = tmp_path / "d.json"
    run_cli("generate", "--genus", "2", "--power", "2", "-o", str(out))
    assert run_cli("check", str(out), "--structured", "--condition", "rc") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rc"]["holds"] is True
    assert "drc" not in doc


def test_cli_check_maximal_drc_fails(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli("generate", "--genus", "3", "--power", "2", "--maximal",
                   "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["d_curves"]) == len(doc["dstar_curves"]) == 6
    assert run_cli("check", str(out), "--condition", "drc", "--structured") == 1
    report = json.loads(capsys.readouterr().out)
    missing = [
        m for w in report["drc"]["witnesses"] for m in w["missing_types"]
    ]
    assert any(m["kind"] == "composed-rectangle" for m in missing)


def test_cli_check_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(serialize_diagram(torus_one()))
    doc["d_curves"]["a"] = ["x+", "x+"]
    doc["dstar_curves"]["b"] = ["x", "x"]
    bad.write_text(json.dumps(doc))
    assert run_cli("check", str(bad)) == 2
    assert run_cli("validate", str(bad)) == 2


def _torus_doc_with(mangle) -> str:
    doc = json.loads(serialize_diagram(torus_one()))
    mangle(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        _torus_doc_with(lambda doc: doc["dstar_curves"].update(b=[1])),
        _torus_doc_with(lambda doc: doc["dstar_curves"].update(b=[True])),
        _torus_doc_with(lambda doc: doc["d_curves"].update(a=[1])),
        _torus_doc_with(lambda doc: doc.update(format_version=True)),
        _torus_doc_with(lambda doc: doc.update(format_version=1.0)),
        "[" * 100000,
        b"\xff\xfe{",
        _torus_doc_with(lambda doc: doc["d_curves"].update(a=["x+\n"])),
        (GOLDEN / "example_3_2.json").read_text().replace('"x001-"', '"x001-\\n"', 1),
        '{"format_version": ' + "1" * 5000 + "}",
        "[1]",
        _torus_doc_with(lambda doc: doc.update(dstar_curves={})),
        _torus_doc_with(lambda doc: doc["d_curves"].update(a="x+")),
        _torus_doc_with(lambda doc: doc["dstar_curves"].update(b=[])),
        '{"format_version":1,"d_curves":{"a":["x+"],"a":["y+"]},"dstar_curves":{"b":["y"]}}',
        '{"format_version":1,"d_curves":{"a":["x+"]},"dstar_curves":{"b":["x"]},'
        '"d_curves":{"a":["x-"]}}',
    ],
    ids=["int-token", "bool-token", "int-signed-token", "version-true",
         "version-float", "deep-nesting", "non-utf8", "newline-signed-token",
         "newline-token-in-example", "huge-int", "top-level-array",
         "empty-second-family", "first-word-not-list", "second-word-empty",
         "duplicate-curve-id", "duplicate-top-level-key"],
)
def test_cli_rejects_hostile_input(tmp_path, capsys, text):
    f = tmp_path / "hostile.json"
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    for command in (["check"], ["validate"], ["export-graph", "--which", "Gk:1"]):
        assert run_cli(*command[:1], str(f), *command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_check_invalid_diagram_exits_2(tmp_path):
    f = tmp_path / "torus.json"
    f.write_text(serialize_diagram(torus_one()))
    assert run_cli("check", str(f)) == 2  # fails validation: genus 1


def test_cli_check_validation_report_matches_golden(tmp_path, capsys):
    f = tmp_path / "split.json"
    f.write_text(serialize_diagram(split_components_diagram()))
    for extra, golden in (([], "report_split_invalid.txt"),
                          (["--structured"], "report_split_invalid.json")):
        assert run_cli("check", str(f), *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / golden).read_text()
        assert captured.err == ""


def test_cli_check_count_message_prints_the_checked_interval(tmp_path, capsys):
    # genus 0: the curve count must lie in [g, max(3g-3, 0)] = [0, 0]
    f = tmp_path / "sphere.json"
    f.write_text('{"format_version":1,"d_curves":{"a":["x+","y-"]},'
                 '"dstar_curves":{"b":["x","y"]}}')
    assert run_cli("check", str(f)) == 2
    out = capsys.readouterr().out
    for family in "AB":
        assert f"  - [count] family {family} has 1 curve, outside [0, 0]\n" in out
    assert "-3]" not in out


@pytest.mark.parametrize(
    "command",
    [
        ["check", "{file}"],
        ["generate", "--genus", "2", "--power", "2"],
        ["export-graph", "{file}", "--which", "Gk:1"],
    ],
    ids=["check", "generate", "export-graph"],
)
def test_cli_rejects_unwritable_output(tmp_path, capsys, example_22, command):
    f = tmp_path / "d.json"
    f.write_text(serialize_diagram(example_22))
    out = tmp_path / "missing" / "out.txt"
    argv = [str(f) if arg == "{file}" else arg for arg in command]
    assert run_cli(*argv, "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_validate(tmp_path, capsys):
    f = tmp_path / "hex.json"
    f.write_text(serialize_diagram(hexagon_diagram()))
    assert run_cli("validate", str(f)) == 0
    f2 = tmp_path / "split.json"
    f2.write_text(serialize_diagram(split_components_diagram()))
    assert run_cli("validate", str(f2)) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_line_break_in_a_curve_id_forges_no_report_line(tmp_path, capsys):
    """A curve id named in a validation entry keeps the entry on one line in
    `check`'s text report and in `validate`'s output, its line breaks read as
    spaces; the JSON report keeps the id as it is."""
    forged = "rectangle condition: holds"
    f = _bigons_file(tmp_path / "d.json", f"a\n{forged}", "b")
    assert run_cli("check", str(f)) == 2
    check = capsys.readouterr().out.splitlines()
    assert run_cli("validate", str(f)) == 1
    validate = capsys.readouterr().out.splitlines()
    assert validate == check[1:]
    assert validate[0] == "validation: FAILED"
    assert all(line.startswith("  - [") for line in validate[1:])
    assert f"  - [bigon] bigon between a {forged} and b" in validate
    assert run_cli("check", str(f), "--structured") == 2
    details = [e["detail"] for e in json.loads(capsys.readouterr().out)["validation"]["entries"]]
    assert f"bigon between a\n{forged} and b" in details


def test_cli_generate_bad_parameters(capsys):
    assert run_cli("generate", "--genus", "3", "--power", "1") == 2
    assert run_cli("generate", "--genus", "1", "--power", "2") == 2
    assert run_cli("generate", "--genus", "2", "--power", "2", "--maximal") == 2


def test_cli_export_graph(tmp_path, capsys):
    f = tmp_path / "d.json"
    run_cli("generate", "--genus", "3", "--power", "2", "-o", str(f))
    assert run_cli("export-graph", str(f), "--which", "Gk:1", "--dot") == 0
    dot = capsys.readouterr().out
    assert dot == (GOLDEN / "gk1.dot").read_text()
    assert run_cli("export-graph", str(f), "--which", "Hd:1", "--dot") == 0
    dot = capsys.readouterr().out
    assert dot == (GOLDEN / "hd1.dot").read_text()
    assert "cluster_minus" in dot and "cluster_plus" in dot
    assert run_cli(
        "export-graph", str(f), "--which", "Gdetail:1,1,1,+,2,-", "--dot"
    ) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in (
        'graph "Gdetail:1,1,1,+,2,-" {',
        '  "(1,-)";',
        '  "(1,+)";',
        '  "(2,-)";',
        '  "(2,+)";',
        '  "(3,-)";',
        '  "(3,+)";',
        '  "(1,-)" -- "(1,+)";',
        '  "(1,-)" -- "(3,+)";',
        '  "(1,+)" -- "(2,-)";',
        '  "(2,-)" -- "(2,+)";',
        '  "(2,+)" -- "(3,-)";',
        '  "(3,-)" -- "(3,+)";',
        "}",
    ))


def test_cli_exports_a_piece_of_the_maximal_example(tmp_path, capsys):
    """The maximal example cuts each family into four pants; `Gk:1` is the
    one whose least boundary circle is the least of all, (1,-)."""
    f = tmp_path / "m.json"
    run_cli("generate", "--genus", "3", "--power", "2", "--maximal", "-o", str(f))
    assert run_cli("export-graph", str(f), "--which", "Gk:1") == 0
    dot = capsys.readouterr().out
    assert dot == (GOLDEN / "gk1_maximal.dot").read_text()
    assert dot.splitlines()[1] == '  "(1,-)";'


@pytest.mark.parametrize(
    "make,code",
    [(torus_one, "genus"), (lambda: chain_base(3), "count")],
    ids=["genus-1", "aux-curve"],
)
def test_cli_export_graph_rejects_invalid_diagram(tmp_path, capsys, make, code):
    f = tmp_path / "d.json"
    f.write_text(serialize_diagram(make()))
    for which in ("Gk:1", "Hd:1"):
        assert run_cli("export-graph", str(f), "--which", which, "--dot") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: diagram fails validation: ")
        assert captured.err.count("\n") == 1 and code in captured.err


def test_cli_export_graph_names_the_label_outside_a_k(tmp_path, capsys):
    """A `Gdetail` label outside A_k is named, the first of the two, as the
    reports write labels; A_1 of the maximal example is (1,-), (3,+), (5,+)."""
    f = tmp_path / "m.json"
    run_cli("generate", "--genus", "3", "--power", "2", "--maximal", "-o", str(f))
    for which, label in (("1,2,1,+,2,-", "(1,+)"), ("1,2,1,-,2,-", "(2,-)")):
        assert run_cli("export-graph", str(f), "--which", f"Gdetail:{which}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {label} is not in A_1\n"


def test_cli_export_graph_bad_selector(tmp_path, capsys):
    f = tmp_path / "d.json"
    run_cli("generate", "--genus", "2", "--power", "2", "-o", str(f))
    capsys.readouterr()
    for which in ("Gk:99", "Zz:1", "Gdetail:1,1", "Gk:x", "Gdetail:1,1,1,*,2,-",
                  "Gdetail:1,99,1,+,2,-"):
        assert run_cli("export-graph", str(f), "--which", which, "--dot") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # the last one passes the pair check and fails on its piece l
    assert err == "error: component index 99 out of range 1..1\n"
    # each index is range-checked, l = 0 too, which must not read the last piece
    for which, message in (("Gk:0", "component index 0 out of range 1..1"),
                           ("Hd:0", "disk index 0 out of range 1..2"),
                           ("Hd:99", "disk index 99 out of range 1..2"),
                           ("Gdetail:1,0,1,+,2,-", "component index 0 out of range 1..1")):
        assert run_cli("export-graph", str(f), "--which", which, "--dot") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # an index is ASCII digits only, with no sign, space or digit separator
    for index in ("1_0", "\u0661", "+1", " 1"):
        assert run_cli("export-graph", str(f), "--which", f"Gk:{index}", "--dot") == 2
        assert capsys.readouterr().err == f"error: bad index {index!r} in the selector\n"


@pytest.fixture
def collector_state():
    """Leave the cycle collector as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, collector_state):
    """Each command, its exit-2 paths too, leaves nothing for the cycle
    collector: with the collector off, a collection after it finds nothing.
    `main` runs the command with the collector off and leaves it as it found it."""
    e, bad, torus = tmp_path / "e.json", tmp_path / "bad.json", tmp_path / "t.json"
    assert run_cli("generate", "--genus", "3", "--power", "2", "-o", str(e)) == 0
    bad.write_text("{not json")
    torus.write_text(serialize_diagram(torus_one()))
    runs = [
        (0, "check", e), (0, "check", e, "--structured"), (0, "validate", e),
        (0, "export-graph", e, "--which", "Gk:1"), (0, "export-graph", e, "--which", "Hd:1"),
        (0, "export-graph", e, "--which", "Gdetail:1,1,1,+,2,-"),
        (0, "generate", "--genus", "3", "--power", "2"),
        (0, "generate", "--genus", "3", "--power", "2", "--maximal"),
        (2, "check", tmp_path / "missing.json"), (2, "check", bad), (2, "check", torus),
        (2, "check", torus, "--structured"), (2, "export-graph", torus, "--which", "Gk:1"),
        (2, "export-graph", e, "--which", "Zz:1"), (2, "export-graph", e, "--which", "Gk:x"),
    ]
    for enabled in (False, True):
        for code, *argv in runs:
            gc.disable()
            gc.collect()
            if enabled:
                gc.enable()
            assert run_cli(*map(str, argv)) == code, argv
            assert gc.isenabled() is enabled, argv
            gc.disable()
            assert gc.collect() == 0, argv
    capsys.readouterr()


def test_cli_output_is_plain_text(tmp_path, capsys):
    f = tmp_path / "d.json"
    run_cli("generate", "--genus", "2", "--power", "2", "-o", str(f))
    run_cli("check", str(f))
    out = capsys.readouterr().out
    assert "\x1b[" not in out  # no ANSI escapes regardless of NO_COLOR


def _exit_code(argv) -> int:
    """`main`'s return value, or the code of the `SystemExit` argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _fresh_exit_code(monkeypatch, argv) -> int:
    """`_exit_code` with a parser built just for this call."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_PARSER", cli._build_parser())
        return _exit_code(argv)


def test_cli_reuses_one_parser_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    """Repeated in-process calls of every command, a usage error and an
    invalid diagram among them, build no parser and print, write and exit as
    calls with a freshly built parser do."""
    e = tmp_path / "e.json"
    e.write_text((GOLDEN / "example_3_2.json").read_text())
    torus = tmp_path / "torus.json"
    torus.write_text(serialize_diagram(torus_one()))
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    calls = [
        ["check", str(e), "--structured", "-o", str(reports[0])],
        ["validate", str(e)],
        ["export-graph", str(e), "--which", "Gk:1"],
        ["generate", "--genus", "3", "--power", "2"],
        ["check", str(e), "--condition", "neither"],
        ["check", str(torus)],
        ["check", str(e), "--structured", "-o", str(reports[1])],
    ]
    counts = _count_constructions(monkeypatch, argparse.ArgumentParser)
    shared = []
    for argv in calls:
        code = _exit_code(argv)
        shared.append((code, *capsys.readouterr()))
    assert counts == {"ArgumentParser": 0}
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 2, 0]
    golden = (GOLDEN / "report_3_2.json").read_bytes()
    assert all(report.read_bytes() == golden for report in reports)
    fresh = []
    for argv in calls:
        code = _fresh_exit_code(monkeypatch, argv)
        fresh.append((code, *capsys.readouterr()))
    assert fresh == shared
    assert counts == {"ArgumentParser": 5 * len(calls)}  # the root and four subcommands


def test_cli_help_wraps_to_the_width_of_each_call(monkeypatch, capsys):
    helps = {}
    for width in (40, 120):
        monkeypatch.setenv("COLUMNS", str(width))
        for argv in (["--help"], ["check", "--help"]):
            assert _exit_code(argv) == 0
            out = capsys.readouterr().out
            assert _fresh_exit_code(monkeypatch, argv) == 0
            assert capsys.readouterr().out == out
            helps[width, argv[0]] = out
    description = cli._PARSER.description
    assert description not in helps[40, "--help"].splitlines()
    assert description in helps[120, "--help"].splitlines()
    assert helps[40, "check"] != helps[120, "check"]


def _bigons_file(path: Path, a: str, b: str) -> Path:
    """`sphere_bigons` with curve ids `a` and `b`; its bigon entries name them."""
    d = sphere_bigons()
    path.write_text(serialize_diagram(Diagram({a: d.a_words["a"]}, {b: d.b_words["b"]},
                                              {x: cr.sign for x, cr in d.crossings.items()})))
    return path


def _cli_under_ascii_locale(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter whose stdout encoding is ASCII."""
    src = str(Path(heegaardrect.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    return subprocess.run([sys.executable, "-m", "heegaardrect.cli", *argv],
                          env=env, capture_output=True, timeout=120)


def test_cli_non_ascii_ids_under_an_ascii_locale(tmp_path):
    """Non-ASCII curve ids exit as ASCII ones do: stdout escapes them, `-o`
    files hold them as UTF-8, and no run ends in a traceback."""
    codes = {}
    for tag, (a, b) in (("ascii", ("a", "b")), ("snowman", ("a\u2603", "b\u2603"))):
        f = _bigons_file(tmp_path / f"{tag}.json", a, b)
        out = tmp_path / f"{tag}.txt"
        runs = [_cli_under_ascii_locale("check", str(f), "-o", str(out)),
                _cli_under_ascii_locale("check", str(f)),
                _cli_under_ascii_locale("validate", str(f))]
        assert all(run.stderr == b"" for run in runs)
        for run in runs[1:]:
            assert f"between {a} and {b}".encode("ascii", "backslashreplace") in run.stdout
        assert f"between {a} and {b}" in out.read_text(encoding="utf-8")
        codes[tag] = [run.returncode for run in runs]
    assert codes["snowman"] == codes["ascii"] == [2, 2, 1]


@pytest.mark.parametrize("genus, power", [("3", "99999999999999999999"), ("99999999", "2")])
def test_cli_out_of_memory_is_one_error_line(genus, power):
    """A generate too large for memory, run in a child whose address space is
    capped at 1 GiB, exits 2 with one `error:` line, not a traceback."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")

    def cap():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(heegaardrect.__file__).parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "heegaardrect.cli", "generate", "--genus", genus, "--power", power],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120, preexec_fn=cap)
    assert run.returncode == 2
    assert run.stderr == b"error: out of memory\n"


FULL_STDOUT = [("generate", "--genus", "3", "--power", "2"), ("check", "e.json"),
               ("validate", "e.json"), ("export-graph", "e.json", "--which", "Hd:1")]
NO_SPACE = b"error: cannot write standard output: [Errno 28] No space left on device\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this platform")


def _on_full_stdout(tmp_path, *argv) -> subprocess.CompletedProcess:
    """Run `python argv` in `tmp_path`, beside `e.json`, with stdout on /dev/full."""
    (tmp_path / "e.json").write_text(serialize_diagram(example_diagram(3, 2)))
    src = str(Path(heegaardrect.__file__).parent.parent)
    with open("/dev/full", "w") as full:
        return subprocess.run([sys.executable, *argv], cwd=tmp_path, stdout=full,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                              timeout=120)


@needs_dev_full
@pytest.mark.parametrize("argv", FULL_STDOUT, ids=[argv[0] for argv in FULL_STDOUT])
def test_cli_full_stdout_is_one_error_line(tmp_path, argv):
    """A command whose stdout cannot be written exits 2 with one `error:`
    line: no traceback, and no second failure at exit from what stayed
    buffered."""
    run = _on_full_stdout(tmp_path, "-m", "heegaardrect.cli", *argv)
    assert run.returncode == 2
    assert run.stderr == NO_SPACE


@needs_dev_full
def test_cli_full_stdout_fails_each_call_in_one_process(tmp_path):
    """After a failed write, `main` runs again in the same process and fails
    the same way, for the bytes are dropped and stdout is left as it was."""
    run = _on_full_stdout(tmp_path, "-c", "import sys\nfrom heegaardrect.cli import main\n"
                          "print([main(['check', 'e.json']) for _ in range(3)], file=sys.stderr)")
    assert run.returncode == 0
    assert run.stderr == NO_SPACE * 3 + b"[2, 2, 2]\n"


def test_cli_lone_surrogate_id(tmp_path, capsys):
    """A JSON curve id that is no valid text is escaped on stdout, and a file
    that cannot hold it is an error, not a traceback."""
    f = tmp_path / "d.json"
    f.write_text(serialize_diagram(sphere_bigons()).replace('"a"', '"a\\ud800"'))
    assert run_cli("check", str(f)) == 2
    assert "between a\\ud800 and b" in capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert run_cli("check", str(f), "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not out.exists()


# -- fuzzing ---------------------------------------------------------------------

# The two families draw curve ids from alphabets that share one id, so some
# diagrams use an id in both families; the shared id holds a line break.
FIRST_IDS, SECOND_IDS = ("a", "b", "s\n"), ("e", "f", "s\n")
CROSSING_IDS = ("p", "q", "r", "s", "t", "u")
JUNK_TOKENS = (1, True, None, "", "p", "p+", "q-", "p\n", ["p"])
# valid (RC holds or fails), invalid, and multicurve-map files to start from
FIXTURE_DOCS = tuple(
    json.loads(serialize_diagram(d))
    for d in (example_diagram(2, 2), hexagon_diagram(), torus_two(),
              split_components_diagram(), chain_base(2))
)


@st.composite
def diagram_files(draw):
    """JSON text of small diagrams, from random words or a fixture, some with a defect."""

    def curves(tokens, alphabet, most=3):
        order = draw(st.permutations(tokens))
        count = draw(st.integers(1, min(most, len(order))))
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(order) - 1)),
                                   min_size=count - 1, max_size=count - 1)))
        ids = draw(st.lists(st.sampled_from(alphabet), min_size=count,
                            max_size=count, unique=True))
        bounds = [0, *cuts, len(order)]
        return {c: list(order[i:j]) for c, i, j in zip(ids, bounds, bounds[1:])}

    if draw(st.booleans()):
        doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    else:
        crossings = draw(st.lists(st.sampled_from(CROSSING_IDS), min_size=1,
                                  max_size=len(CROSSING_IDS), unique=True))
        second_most = draw(st.sampled_from((3, 3, 1)))  # 1: a multicurve map's one gamma
        doc = {
            "format_version": 1,
            "d_curves": curves([x + draw(st.sampled_from("+-")) for x in crossings],
                               FIRST_IDS),
            "dstar_curves": curves(crossings, SECOND_IDS, second_most),
        }
    defect = draw(st.sampled_from((None, None, "version", "rename", "sign", "junk", "key")))
    family = doc[draw(st.sampled_from([k for k in doc if k != "format_version"]))]
    word = family[draw(st.sampled_from(sorted(family)))]
    if defect == "version":
        doc["format_version"] = draw(st.sampled_from((2, "1", 1.0, True, None)))
    elif defect == "rename":
        family[draw(st.sampled_from(FIRST_IDS + SECOND_IDS))] = word
    elif defect == "sign":
        signed = doc["d_curves"][draw(st.sampled_from(sorted(doc["d_curves"])))]
        i = draw(st.integers(0, len(signed) - 1))
        signed[i] = signed[i][:-1] + ("-" if signed[i].endswith("+") else "+")
    elif defect == "junk":
        word.insert(draw(st.integers(0, len(word))), draw(st.sampled_from(JUNK_TOKENS)))
    elif defect == "key":  # the second family under the key of the retired multicurve format
        doc["aux_curve"] = doc.pop("dstar_curves")
    return json.dumps(doc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=diagram_files())
def test_cli_fuzz_exit_codes(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "fuzz.json"
    f.write_text(text)
    for command in (["check"], ["validate"], ["export-graph", "--which", "Gk:1"],
                    ["export-graph", "--which", "Hd:1"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(f), *command[1:]])
        assert code in (0, 1, 2)
        stderr = err.getvalue()
        if code == 2 and not (command == ["check"] and stderr == ""):
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
        elif code != 2:
            assert stderr == ""
