#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Intersection tables come from the exact annulus shear model (the oracle),
not from the splice implementation, so the committed numbers stay an
independent reference.  Run from the repository root:

    python3 scripts/make_golden.py

`main(out)` writes the same files into another directory.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from heegaardrect.criteria import CriteriaContext, double_rectangle_condition, rectangle_condition
from heegaardrect.diagramio import (
    build_report,
    graph_to_dot,
    report_to_json,
    report_to_text,
    serialize_diagram,
)
from heegaardrect.twist import chain_base, example_diagram, maximal_chain_base

from conftest import split_components_diagram
from shear_oracle import oracle_intersections

GOLDEN = ROOT / "tests" / "golden"

SWEEP = [(g, l) for g in (2, 3, 4) for l in (2, 3, -2)]


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
    (out / "gk1.dot").write_text(graph_to_dot(ctx.component_graph(1), "Gk:1"))
    (out / "hd1.dot").write_text(graph_to_dot(ctx.disk_graph(1), "Hd:1"))
    print(f"wrote golden files to {out}")


if __name__ == "__main__":
    main()
