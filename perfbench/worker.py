"""One phase of a workload in a fresh interpreter: set-up, or the measured phase.

Started by run.py with the package's ``src`` directory on PYTHONPATH.

- Without ``--measure`` it sets up: it imports the package, generates and
  writes the workload's inputs with a manifest of the requests, makes one
  untimed warm-up request, prints ``READY <json>`` and exits.
- With ``--measure`` it reads the manifest the last set-up wrote, makes one
  warm-up request, then runs the timed loop (or, with ``--trace 1``, the
  traced replay) and prints ``RESULT <json>``.

A fresh interpreter per phase keeps import, input generation and warm-up
out of the timed requests, and keeps ``ru_maxrss`` of the measured phase to
the workload's requests alone: no input is generated in that process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from pathlib import Path

from heegaardrect import cli

import inputs
from speed import HostSpeed, probe_seconds, scale_between

IMPORTED_AT = time.monotonic()


class Tally:
    """Requests attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, label: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{label}: {problem}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def verify(req: inputs.Request, code: int):
    """The request's failure reason, or None when it matches its known answer."""
    try:
        return req.expect(code)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_request(req: inputs.Request, tally: Tally) -> tuple:
    """Run one request in-process; return (wall seconds, failure reason or None)."""
    gc.collect()
    start = time.perf_counter()
    try:
        code = cli.main(req.argv)
    except (Exception, SystemExit) as exc:  # a request that raises is a failed request
        elapsed = time.perf_counter() - start
        problem = f"raised {type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - start
        problem = verify(req, code)
    tally.record(req.label, problem)
    return elapsed, problem


def timed_loop(requests: list, seconds: float, tally: Tally) -> dict:
    """Closed loop, one client: whole passes over the requests until `seconds` pass.

    Stopping only between passes keeps every request equally often in the
    sample, so a partial pass cannot tilt the mix of small and large inputs.
    """
    speed = HostSpeed()
    records = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for req in requests:
            wall, _ = run_request(req, tally)
            record = {"wall": wall, "crossings": req.crossings}
            records.append(record)
            speed.track(record)
    speed.flush()
    return {
        "times": [r["wall"] * r["scale"] for r in records],
        "wall": [r["wall"] for r in records],
        "crossings": [r["crossings"] for r in records],
        "probes": speed.probes,
    }


def traced(requests: list, extras: list, seconds: float, spans_path: Path, header: dict,
           tally: Tally) -> dict:
    """Untraced request, then its traced replay, for every pass item until `seconds` pass.

    A pass is the workload's requests plus its trace extras (see
    `inputs.build`), generate requests first, as set-up made them.
    """
    import replay  # only the traced run depends on the functions it replays

    items = [r for r in requests + extras if r.kind == "generate"]
    items += [r for r in requests + extras if r.kind == "check"]
    spans = replay.Spans()
    speed = HostSpeed()
    log = []
    counts = None
    deadline = time.perf_counter() + seconds
    passno = 0
    while True:
        pass_counts = dict.fromkeys(
            ("crossings", "faces", "rectangles", "composed_rectangles",
             "disk_graph_pairs", "witnesses"), 0)
        for item in items:
            wall, problem = run_request(item, tally)
            entry = {"request": len(log), "pass": passno, "kind": item.kind,
                     "label": item.label, "untraced": wall, "stage_sum": None}
            log.append(entry)
            if problem is None:
                out = Path(item.out)
                replay_out = out.with_name(f"{item.label}.replay.json")
                if item.kind == "check":
                    report = json.loads(out.read_text())
                    entry["stage_sum"] = replay.replay_check(
                        spans, entry["request"], Path(item.source), replay_out, report,
                        pass_counts)
                else:
                    entry["stage_sum"] = replay.replay_generate(
                        spans, entry["request"], item.family, replay_out)
            speed.track(entry)
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            tally.record(f"pass {passno}", f"counts {pass_counts} differ from pass 0 {counts}")
        passno += 1
        if time.perf_counter() >= deadline:
            break
    speed.flush()

    calls = dict.fromkeys(replay.COUNTED, 0)
    distinct = 0
    checks = [item for item in items if item.kind == "check"]
    for item in checks:
        code, item_calls, item_distinct = replay.profiled_check(item.argv, spans.absent)
        tally.record(item.label + " (profiled)", verify(item, code))
        for name, n in item_calls.items():
            calls[name] += n
        distinct += item_distinct

    replay.write_spans(spans_path, dict(header, requests=log, probes=speed.probes), spans)
    metrics = per_layer_metrics(spans, log, passno, counts, calls, distinct, len(checks),
                                len(items), speed.probes)
    return {"per_layer": metrics, "absent": sorted(spans.absent)}


SPAN_METRICS = (
    "criteria.double_rectangle_condition", "criteria.disk_graph",
    "criteria.doubly_two_connected_witness", "criteria.CriteriaContext",
    "criteria.rectangle_condition", "criteria.rectangle_condition_swapped",
    "systems.cut_components", "systems.validate_disk_systems",
    "rectangles.rectangle_faces", "rectangles.composed_rectangles",
    "diagram.swap_roles", "diagram.Diagram",
    "diagramio.parse_diagram", "diagramio.build_report", "diagramio.report_to_json",
    "diagramio.serialize_diagram", "twist.chain_base", "twist.dehn_twist",
    "twist.example_diagram", "generate.validate_disk_systems", "generate.Diagram",
)


def per_layer_metrics(spans, log, passes, counts, calls, distinct, checks, items, probes) -> dict:
    """Per-pass totals in reference seconds, median over passes; counts of one pass."""
    scale = {e["request"]: e["scale"] for e in log}
    pass_of = {e["request"]: e["pass"] for e in log}
    totals = [dict.fromkeys(SPAN_METRICS, 0.0) for _ in range(passes)]
    for _, name, start, end, _, rid in spans.rows:
        if name in totals[0]:
            totals[pass_of[rid]][name] += (end - start) * scale[rid]
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = (statistics.median(t[name] for t in totals), "s")
    untraced = [0.0] * passes
    staged = [0.0] * passes
    for e in log:
        untraced[e["pass"]] += e["untraced"] * e["scale"]
        staged[e["pass"]] += (e["stage_sum"] or 0.0) * e["scale"]
    metrics["cli.main_s"] = (statistics.median(untraced), "s")
    metrics["replay.stage_sum_s"] = (statistics.median(staged), "s")
    metrics["replay.gap_ratio"] = (
        statistics.median(s / u - 1 for s, u in zip(staged, untraced)), "ratio")
    for name, n in calls.items():
        metrics[f"calls.{name}"] = (n, "count")
    # a function that is gone or never called wastes nothing: its ratio reads 1
    metrics["criteria.detail_graph_useful_ratio"] = (
        distinct / calls["detail_graph"] if calls["detail_graph"] else 1.0, "ratio")
    metrics["criteria.context_useful_ratio"] = (
        2 * checks / calls["CriteriaContext"] if calls["CriteriaContext"] else 1.0, "ratio")
    for name, n in counts.items():
        metrics[f"count.{name}"] = (n, "count")
    metrics["count.requests"] = (items, "count")
    metrics["host.probe_s"] = (statistics.median(probes), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def set_up(args) -> dict:
    """Import, then inputs, then warm-up; each phase is rescaled by the probes on
    either side of it, and the probes are not counted."""
    probes = [args.probe_before, probe_seconds()]
    setup = (IMPORTED_AT - args.spawned_at) * scale_between(*probes)
    tally = Tally()
    start = time.perf_counter()
    requests, extras = inputs.build(args.workload, args.seed, args.workdir, args.golden)
    inputs.write_manifest(args.workdir, requests, extras)
    if args.workload == "generate":
        run_request(inputs.golden_generate(args.workdir, args.golden), tally)
    inputs_s = time.perf_counter() - start
    probes.append(probe_seconds())
    setup += inputs_s * scale_between(*probes[-2:])
    warm_up_s, _ = run_request(requests[0], tally)
    probes.append(probe_seconds())
    setup += warm_up_s * scale_between(*probes[-2:])
    return dict(tally.as_dict(), setup_s=setup, rss_kb=max_rss_kb())


def measure(args) -> dict:
    """Read the manifest, warm up untimed, then time (or trace) the workload."""
    tally = Tally()
    requests, extras = inputs.read_manifest(args.workdir)
    run_request(requests[0], tally)
    ready_rss_kb = max_rss_kb()
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed}
        result = traced(requests, extras, args.seconds, args.spans, header, tally)
    else:
        result = timed_loop(requests, args.seconds, tally)
    result.update(tally.as_dict())
    result["ready_rss_kb"] = ready_rss_kb
    result["peak_rss_kb"] = max_rss_kb()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--golden", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("--measure", action="store_true",
                   help="run the measured phase on the inputs a set-up wrote")
    p.add_argument("--spawned-at", type=float,
                   help="set-up only: time.monotonic() when the parent started this process")
    p.add_argument("--probe-before", type=float,
                   help="set-up only: the parent's probe time just before it started this process")
    args = p.parse_args(argv)
    if args.measure:
        print("RESULT " + json.dumps(measure(args)), flush=True)
    else:
        print("READY " + json.dumps(set_up(args)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
