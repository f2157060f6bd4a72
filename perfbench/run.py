"""heegaardrect benchmark: check and generate latency on four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload genus-wall --seed 1 --seconds 20 --trace 0

Workloads: genus-wall, twist-depth, small-batch, generate (see README.md
beside this file).  It sets the workload up several times, each in a fresh
interpreter, then measures in one more fresh interpreter that reads the
inputs the last set-up wrote.  With ``--trace 0`` that times a closed loop
of one client for ``--seconds`` and prints the end-to-end metrics.  With
``--trace 1`` it replays the workload's requests stage by stage, writes the
spans under ``.perfbench/`` and prints the per-layer metrics.  Every request's output
is checked against a known answer; any mismatch makes the exit code 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import probe_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("genus-wall", "twist-depth", "small-batch", "generate")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170  # the whole run, set-ups included, ends within this


class BenchError(Exception):
    pass


def run_worker(args, workdir: Path, spans: Path, deadline: float, extra: list, tag: str) -> dict:
    """Run worker.py to its end and return the JSON of its `tag` line.

    Other lines of its standard output are echoed to standard error; its
    standard error passes through.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--golden", str(ROOT / "tests" / "golden"),
           "--spans", str(spans), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:  # run() has killed the worker and waited for it
        raise BenchError(f"worker sent no {tag} line in time") from None
    found = None
    for line in proc.stdout.decode().splitlines():
        if line.startswith(tag + " ") and found is None:
            found = json.loads(line[len(tag) + 1:])
        else:
            print(line, file=sys.stderr)
    if found is None:
        raise BenchError(f"worker exited with code {proc.returncode} without a {tag} line")
    return found


def end_to_end(result: dict, setups: list) -> tuple:
    """The metrics BENCHMARK.json bounds, and context lines that are printed only."""
    times = result["times"]
    metrics = {
        "crossings_per_s": (sum(result["crossings"]) / sum(times), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    # every request occurs equally often in a run (see worker.timed_loop), so
    # the mean request time is crossings per pass / requests per pass / crossings_per_s
    context = {"request_s.mean": (statistics.fmean(times), "s"),
               "samples": (len(times), "count"),
               "request_s.p50": (statistics.median(times), "s")}
    if len(times) >= 100:  # so that at least ten samples lie beyond the 90th percentile
        context["request_s.p90"] = (statistics.quantiles(times, n=10)[8], "s")
    context["wall_s.p50 (not rescaled)"] = (statistics.median(result["wall"]), "s")
    context["host.probe_s"] = (statistics.median(result["probes"]), "s")
    context["rss_mb after warm-up"] = (result["ready_rss_kb"] / 1024, "MB")
    context["set-up rss_mb"] = (statistics.median(s["rss_kb"] for s in setups) / 1024, "MB")
    return metrics, context


def bench(args, workdir: Path, spans: Path) -> tuple:
    """Run the set-ups and the measured phase; return (metrics, context, tally)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        probe_before = probe_seconds()
        setups.append(run_worker(
            args, workdir, spans, deadline,
            ["--probe-before", repr(probe_before), "--spawned-at", repr(time.monotonic())],
            "READY"))
    result = run_worker(args, workdir, spans, deadline, ["--measure"], "RESULT")
    tally = {"attempted": 0, "failed": 0, "problems": []}
    for phase in setups + [result]:
        for key in tally:
            tally[key] += phase[key]
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["per_layer"].items()}
        # functions the replay could not find; their spans and counts read 0
        context = {"absent functions": (", ".join(result["absent"]) or "none", "")}
        return metrics, context, tally
    return (*end_to_end(result, setups), tally)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    for needed in (ROOT / "src" / "heegaardrect" / "cli.py", ROOT / "tests" / "golden" / "sweep.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    spans = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, context, tally = bench(args, workdir, spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally["attempted"], tally["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(f"  {'fail_share':40s} {failed / max(attempted, 1):>14.6g} ratio"
          f"  ({failed} of {attempted} requests)")
    for name, (value, unit) in context.items():
        shown = value if isinstance(value, str) else f"{value:>14.6g}"
        print(f"  ({name:38s} {shown} {unit})")
    if args.trace:
        print(f"  spans written to {spans.relative_to(ROOT)}")
    for problem in tally["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
