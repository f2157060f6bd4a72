"""Smoke tests of the scripts: pattern search, golden regeneration, and the
benchmark's names for the functions it traces."""

import importlib
import importlib.util
import types
from pathlib import Path

import map_oracles

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


def test_digests_name_the_members_that_moved():
    """Each member of the digest corpus reports, validates and exports what
    `tests/golden/digests.txt` records; a failure names every member whose
    line moved, so a change that renumbers pieces says where."""
    make_golden = _load_script("make_golden")
    recorded = (ROOT / "tests" / "golden" / "digests.txt").read_text().splitlines()
    now = [make_golden.digest_line(name, d) for name, d in make_golden.contract_members()]
    assert [line.split()[0] for line in now] == [line.split()[0] for line in recorded]
    moved = [old.split()[0] for old, new in zip(recorded, now) if old != new]
    assert not moved, f"{len(moved)} members moved: {moved}"


# counted or replayed by the benchmark's trace but moved to the test oracles,
# as no command calls them; the trace counts them 0 and lists them as absent,
# and without `disk_graph` and the witness it replays each condition whole
MOVED_TO_ORACLES = {"criteria.CriteriaContext.cross_detail_graph": "cross_detail_graph",
                    "criteria.is_two_connected": "is_two_connected",
                    "criteria.CriteriaContext.detail_graph": "detail_graph",
                    "criteria.graph_from_edges": "graph_from_edges",
                    "criteria.CriteriaContext.disk_graph": "disk_graph",
                    "criteria.doubly_two_connected_witness": "doubly_two_connected_witness"}


def test_benchmark_traces_only_functions_the_package_has():
    """Every dotted path the benchmark's trace counts or replays resolves to
    an attribute of the package, so a refactor cannot drop a traced stage
    unnoticed; the counted functions moved to `tests/map_oracles.py`
    resolve there and not in the package.  The module is run from its
    source, so nothing is written beside it."""
    path = ROOT / "perfbench" / "replay.py"
    replay = types.ModuleType("replay")
    exec(compile(path.read_text(), str(path), "exec"), replay.__dict__)
    paths = [*replay.COUNTED.values(), *replay.STAGED_REPORT]
    assert len(paths) >= 12
    for dotted in paths:
        assert (replay.find(dotted) is None) == (dotted in MOVED_TO_ORACLES), dotted
    for name in MOVED_TO_ORACLES.values():
        assert callable(getattr(map_oracles, name)), name
