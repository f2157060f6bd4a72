import json
from pathlib import Path

import pytest

from heegaardrect.cli import main
from heegaardrect.criteria import CriteriaContext
from heegaardrect.diagram import Diagram, DiagramError
from heegaardrect.diagramio import (
    build_report,
    parse_diagram,
    report_to_json,
    report_to_text,
    serialize_diagram,
)
from heegaardrect.twist import chain_base

from conftest import hexagon_diagram, split_components_diagram, torus_one

GOLDEN = Path(__file__).parent / "golden"


# -- file format ---------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [torus_one, hexagon_diagram, split_components_diagram]
)
def test_round_trip_is_isomorphic(make):
    d = make()
    r = parse_diagram(serialize_diagram(d))
    assert r.is_isomorphic(d)
    assert r.aux == d.aux


def test_round_trip_multicurve():
    base = chain_base(3)
    r = parse_diagram(serialize_diagram(base))
    assert r.aux
    assert r.is_isomorphic(base)


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
        (lambda doc: doc.update(aux_curve={"g": ["x"]}), "exactly one"),
        (lambda doc: doc.pop("dstar_curves"), "exactly one"),
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


def test_report_builds_one_context_per_orientation(example_32, monkeypatch):
    counts = {"contexts": 0, "swaps": 0}
    init, swap_roles = CriteriaContext.__init__, Diagram.swap_roles

    def counting_init(self, diagram):
        counts["contexts"] += 1
        init(self, diagram)

    def counting_swap_roles(self):
        counts["swaps"] += 1
        return swap_roles(self)

    monkeypatch.setattr(CriteriaContext, "__init__", counting_init)
    monkeypatch.setattr(Diagram, "swap_roles", counting_swap_roles)
    build_report(example_32, "both")
    assert counts == {"contexts": 2, "swaps": 1}


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
    ],
    ids=["int-token", "bool-token", "int-signed-token", "version-true",
         "version-float", "deep-nesting"],
)
def test_cli_rejects_hostile_input(tmp_path, capsys, text):
    f = tmp_path / "hostile.json"
    f.write_text(text)
    for command in (["check"], ["validate"], ["export-graph", "--which", "Gk:1"]):
        assert run_cli(*command[:1], str(f), *command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_check_invalid_diagram_exits_2(tmp_path):
    f = tmp_path / "torus.json"
    f.write_text(serialize_diagram(torus_one()))
    assert run_cli("check", str(f)) == 2  # fails validation: genus 1


def test_cli_validate(tmp_path, capsys):
    f = tmp_path / "hex.json"
    f.write_text(serialize_diagram(hexagon_diagram()))
    assert run_cli("validate", str(f)) == 0
    f2 = tmp_path / "split.json"
    f2.write_text(serialize_diagram(split_components_diagram()))
    assert run_cli("validate", str(f2)) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out


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
    assert "--" in capsys.readouterr().out


def test_cli_export_graph_bad_selector(tmp_path, capsys):
    f = tmp_path / "d.json"
    run_cli("generate", "--genus", "2", "--power", "2", "-o", str(f))
    assert run_cli("export-graph", str(f), "--which", "Gk:99", "--dot") == 2
    assert run_cli("export-graph", str(f), "--which", "Zz:1", "--dot") == 2
    assert run_cli("export-graph", str(f), "--which", "Gdetail:1,1", "--dot") == 2


def test_cli_output_is_plain_text(tmp_path, capsys):
    f = tmp_path / "d.json"
    run_cli("generate", "--genus", "2", "--power", "2", "-o", str(f))
    run_cli("check", str(f))
    out = capsys.readouterr().out
    assert "\x1b[" not in out  # no ANSI escapes regardless of NO_COLOR
