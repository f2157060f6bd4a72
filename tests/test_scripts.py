"""Smoke tests of the scripts: pattern search and golden regeneration."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_patterns_summaries(capsys):
    search = _load_script("search_patterns")
    search.search_minimal(2, 2)
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "8 embeddable patterns, 0 satisfy both conditions"
    search.search_maximal(2)
    assert capsys.readouterr().out.splitlines()[-1] == "1 embeddable separating-disk orders"


def test_make_golden_regenerates_every_golden_file(tmp_path):
    """The golden files are exactly what `scripts/make_golden.py` writes today."""
    _load_script("make_golden").main(tmp_path)
    golden = ROOT / "tests" / "golden"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
