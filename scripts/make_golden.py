#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Intersection tables come from the exact annulus shear model (the oracle),
not from the splice implementation, so the committed numbers stay an
independent reference.  `digests.txt` pins what a user reads off each
member of a wider corpus (`contract_members`), one line per member.  Run
from the repository root:

    python3 scripts/make_golden.py

`main(out)` writes the same files into another directory.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from heegaardrect.cli import export_graph
from heegaardrect.criteria import CriteriaContext, double_rectangle_condition, rectangle_condition
from heegaardrect.diagramio import build_report, report_to_json, report_to_text, serialize_diagram
from heegaardrect.systems import validate_disk_systems
from heegaardrect.twist import chain_base, example_diagram, maximal_chain_base

from conftest import maximal_subsystems, random_twisted_diagrams, split_components_diagram
from shear_oracle import oracle_intersections

GOLDEN = ROOT / "tests" / "golden"

SWEEP = [(g, l) for g in (2, 3, 4) for l in (2, 3, -2)]


def contract_members():
    """(name, diagram) for each member of the digest corpus, in file order:
    300 random twisted diagrams, 50 sub-systems of the maximal example (valid
    or not), example(g, p) for g = 2..5 and p in (2, 3, -2), and the maximal
    example."""
    yield from ((f"random:{i}", d) for i, d in enumerate(random_twisted_diagrams(300)))
    yield from ((f"subsystem:{i}", d) for i, d in enumerate(maximal_subsystems(50)))
    for g in range(2, 6):
        yield from ((f"example:{g},{p}", example_diagram(g, p)) for p in (2, 3, -2))
    yield "maximal", example_diagram(3, 2, maximal=True)


def _digest(*texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


def digest_line(name: str, d) -> str:
    """The member's name and three digests, each the first 16 hex digits of
    a sha256: of `check`'s JSON and text reports, of `validate`'s entries, and
    of every `Gk:k` and `Hd:d` graph `export-graph` writes for the member (none
    when it fails validation)."""
    report = build_report(d)
    validation = "".join(f"[{code}] {detail}\n" for code, detail in validate_disk_systems(d))
    graphs = []
    if report["validation"]["passed"]:
        ctx = CriteriaContext(d)
        graphs += (export_graph(ctx, f"Gk:{k}") for k in range(1, ctx.m + 1))
        graphs += (export_graph(ctx, f"Hd:{i}") for i in range(1, ctx.n + 1))
    return " ".join((name, _digest(report_to_json(report), report_to_text(report)),
                     _digest(validation), _digest(*graphs)))


def main(out: Path = GOLDEN):
    out.mkdir(exist_ok=True)

    sweep = {}
    for g, l in SWEEP:
        d = example_diagram(g, l)
        sweep[f"{g},{l}"] = {
            "genus": d.genus,
            "crossings": d.num_crossings,
            "rc": rectangle_condition(d).holds,
            "drc": double_rectangle_condition(d).holds,
        }
    dm = example_diagram(3, 2, maximal=True)
    sweep["3,2,maximal"] = {
        "genus": dm.genus,
        "crossings": dm.num_crossings,
        "rc": rectangle_condition(dm).holds,
        "drc": double_rectangle_condition(dm).holds,
    }
    (out / "sweep.json").write_text(json.dumps(sweep, indent=2) + "\n")

    tables = {}
    for g, l in SWEEP:
        counts, removed = oracle_intersections(chain_base(g), l)
        assert removed == 0
        tables[f"{g},{l}"] = {f"{a}:{b}": n for (a, b), n in sorted(counts.items())}
    counts, removed = oracle_intersections(maximal_chain_base(), 2)
    assert removed == 0
    tables["3,2,maximal"] = {f"{a}:{b}": n for (a, b), n in sorted(counts.items())}
    (out / "intersections.json").write_text(json.dumps(tables, indent=2) + "\n")

    d32 = example_diagram(3, 2)
    (out / "example_3_2.json").write_text(serialize_diagram(d32))
    (out / "report_3_2.json").write_text(report_to_json(build_report(d32)))
    (out / "report_3_2_maximal.json").write_text(
        report_to_json(build_report(dm))
    )

    invalid = build_report(split_components_diagram())
    (out / "report_split_invalid.txt").write_text(report_to_text(invalid))
    (out / "report_split_invalid.json").write_text(report_to_json(invalid))

    ctx = CriteriaContext(d32)
    (out / "gk1.dot").write_text(export_graph(ctx, "Gk:1"))
    (out / "hd1.dot").write_text(export_graph(ctx, "Hd:1"))
    (out / "gk1_maximal.dot").write_text(export_graph(CriteriaContext(dm), "Gk:1"))

    lines = (digest_line(name, d) + "\n" for name, d in contract_members())
    (out / "digests.txt").write_text("".join(lines))
    print(f"wrote golden files to {out}")


if __name__ == "__main__":
    main()
