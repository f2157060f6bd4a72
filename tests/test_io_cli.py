import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import heegaardrect
from heegaardrect.cli import main
from heegaardrect.criteria import CriteriaContext
from heegaardrect.diagram import Crossing, Diagram, DiagramError, Face, FaceSide
from heegaardrect.diagramio import (
    build_report,
    parse_diagram,
    report_to_json,
    report_to_text,
    serialize_diagram,
)
from heegaardrect.twist import chain_base, example_diagram

from conftest import (
    hexagon_diagram,
    reducible_torus,
    split_components_diagram,
    sphere_bigons,
    torus_one,
    torus_two,
)
from map_oracles import is_isomorphic

GOLDEN = Path(__file__).parent / "golden"


# -- file format ---------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [torus_one, hexagon_diagram, split_components_diagram]
)
def test_round_trip_is_isomorphic(make):
    d = make()
    r = parse_diagram(serialize_diagram(d))
    assert is_isomorphic(r, d)
    assert r.aux == d.aux


def test_round_trip_multicurve():
    base = chain_base(3)
    r = parse_diagram(serialize_diagram(base))
    assert r.aux
    assert is_isomorphic(r, base)


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
    counts = {"contexts": 0, "swaps": 0, "cut_components": 0, "_side_types": 0}
    analyse, swap_roles = CriteriaContext._analyse, Diagram.swap_roles

    def counting_analyse(self, *args):
        # the swapped context bypasses __init__; every context is analysed once
        counts["contexts"] += 1
        analyse(self, *args)

    def counting_swap_roles(self):
        counts["swaps"] += 1
        return swap_roles(self)

    def count_calls(home, name):
        """Count calls of `home.name` from every package module that holds it."""
        original = getattr(home, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("heegaardrect") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)

    monkeypatch.setattr(CriteriaContext, "_analyse", counting_analyse)
    monkeypatch.setattr(Diagram, "swap_roles", counting_swap_roles)
    count_calls(heegaardrect, "cut_components")
    count_calls(heegaardrect.rectangles, "_side_types")
    build_report(example_32, "both")
    # the diagram is cut and its rectangles typed once; the swapped
    # orientation reads that analysis with the families exchanged and
    # builds no swapped diagram
    assert counts == {"contexts": 2, "swaps": 0, "cut_components": 2, "_side_types": 1}


def _count_constructions(monkeypatch, *classes) -> dict:
    """Count the objects of each class built from here on, by class name."""
    counts = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_check_builds_no_face_or_crossing_object(example_32_maximal, monkeypatch):
    """Parsing and checking run on the flat face and crossing tables."""
    texts = [(GOLDEN / "example_3_2.json").read_text(), serialize_diagram(example_32_maximal)]
    counts = _count_constructions(monkeypatch, Face, FaceSide, Crossing)
    for text in texts:
        build_report(parse_diagram(text))
    assert counts == {"Face": 0, "FaceSide": 0, "Crossing": 0}


def test_bigon_entries_build_only_the_bigon_faces(monkeypatch):
    counts = _count_constructions(monkeypatch, Face, Crossing)
    report = build_report(reducible_torus())
    bigons = [e["detail"] for e in report["validation"]["entries"] if e["code"] == "bigon"]
    assert bigons == ["bigon face 1 between b and a", "bigon face 2 between b and a"]
    assert counts == {"Face": 2, "Crossing": 0}


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
    ],
    ids=["int-token", "bool-token", "int-signed-token", "version-true",
         "version-float", "deep-nesting", "non-utf8", "newline-signed-token",
         "newline-token-in-example", "huge-int"],
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
        assert f"  - [count] family {family} has 1 curves, outside [0, 0]\n" in out
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


@pytest.mark.parametrize(
    "make,code",
    [(torus_one, "genus"), (lambda: chain_base(3), "aux")],
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
        second = draw(st.sampled_from(("dstar_curves", "dstar_curves", "aux_curve")))
        doc = {
            "format_version": 1,
            "d_curves": curves([x + draw(st.sampled_from("+-")) for x in crossings],
                               FIRST_IDS),
            second: curves(crossings, SECOND_IDS, 1 if second == "aux_curve" else 3),
        }
    defect = draw(st.sampled_from((None, None, "version", "rename", "sign", "junk")))
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
