"""Smoke test of the pattern-search script."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "search_patterns.py"


def test_search_patterns_summaries(capsys):
    spec = importlib.util.spec_from_file_location("search_patterns", SCRIPT)
    search = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search)
    search.search_minimal(2, 2)
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "8 embeddable patterns, 0 satisfy both conditions"
    search.search_maximal(2)
    assert capsys.readouterr().out.splitlines()[-1] == "1 embeddable separating-disk orders"
