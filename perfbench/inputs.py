"""Workload inputs, written at set-up, and the known answer of each request.

Every request is a list of arguments for ``heegaardrect.cli.main`` plus its
known answer.  A set-up worker generates the inputs and writes them, with a
manifest of the requests, into the work directory; the measuring worker
only reads the manifest, so input generation never counts in its time or
its peak memory.  `Request.expect` reads the output file after the request
and returns None when the exit code and the output agree with the known
answer, and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from heegaardrect.diagram import DiagramError
from heegaardrect.diagramio import serialize_diagram
from heegaardrect.systems import validate_disk_systems
from heegaardrect.twist import TwistSpec, dehn_twist, example_diagram, multicurve_map

SWEEP = [(g, p) for g in (2, 3, 4) for p in (2, 3, -2)]
RANDOM_MEMBERS = 400
GOLDEN_REPORTS = {(3, 2, False): "report_3_2.json", (3, 2, True): "report_3_2_maximal.json"}
MANIFEST = "manifest.json"


@dataclass
class Request:
    kind: str  # "check" | "generate"
    label: str
    argv: list
    out: str
    crossings: int
    # check: genus, crossings, rc, drc (None = not known in advance), golden (path or None);
    # generate: reference, the path of the bytes the output must equal
    answer: dict
    source: Optional[str] = None  # the diagram file a check reads
    family: Optional[tuple] = None  # (genus, power, maximal) of an example diagram

    def expect(self, code: int) -> Optional[str]:
        """Why the finished request disagrees with its known answer, or None."""
        out = Path(self.out)
        if self.kind == "generate":
            if code != 0:
                return f"exit code {code}"
            if out.read_bytes() != Path(self.answer["reference"]).read_bytes():
                return "output differs from the reference bytes"
            return None
        a = self.answer
        if a["golden"] is not None and out.read_bytes() != Path(a["golden"]).read_bytes():
            return "report differs from the golden report"
        return _verdict_problem(json.loads(out.read_text()), code, a["genus"], a["crossings"],
                                a["rc"], a["drc"])


def check_argv(source: Path, out: Path) -> list:
    return ["check", str(source), "--condition", "both", "--structured", "-o", str(out)]


def generate_argv(genus: int, power: int, maximal: bool, out: Path) -> list:
    argv = ["generate", "--genus", str(genus), "--power", str(power), "-o", str(out)]
    return argv + ["--maximal"] if maximal else argv


def random_twisted_diagrams(count: int, seed: int):
    """Valid twisted diagrams from random multicurve bases, deterministically.

    Mirrors the test suite's generator of the same name, so that the
    benchmark's population does not move when the tests change.
    """
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 500 * count:
            raise RuntimeError("random diagram yield collapsed")
        g = rng.choice((2, 2, 3))
        per_disk = [rng.choice((1, 2, 2, 3)) for _ in range(g)]
        names = [f"c{d}_{i}" for d, k in enumerate(per_disk, 1) for i in range(k)]
        gamma = names[:]
        rng.shuffle(gamma)
        words = {}
        for d, k in enumerate(per_disk, start=1):
            xs = [f"c{d}_{i}" for i in range(k)]
            rng.shuffle(xs)
            words[f"d{d}"] = tuple(xs)
        signs = {x: rng.choice((1, -1)) for x in names}
        try:
            base = multicurve_map(words, tuple(gamma), signs).reduce_bigons()
            power = rng.choice((2, -2, 3))
            diagram = dehn_twist(base, TwistSpec(power))
        except DiagramError:
            continue
        if not validate_disk_systems(diagram).passed:
            continue
        produced += 1
        yield diagram


# -- known answers -------------------------------------------------------------


def _verdict_problem(report: dict, code: int, genus: int, crossings: int,
                     rc: Optional[bool], drc: Optional[bool]) -> Optional[str]:
    """Why a check report disagrees with its known answer, or None.

    An `rc` or `drc` of None means that verdict is not known in advance;
    it is then only checked for consistency with the other and the exit code.
    """
    if not report["validation"]["passed"]:
        return "validation failed"
    got_rc, got_drc = report["rc"]["holds"], report["drc"]["holds"]
    if report["input"]["genus"] != genus or report["input"]["crossings"] != crossings:
        return f"input summary {report['input']} is not genus {genus}, {crossings} crossings"
    if rc is not None and got_rc != rc:
        return f"rc holds={got_rc}, expected {rc}"
    if drc is not None and got_drc != drc:
        return f"drc holds={got_drc}, expected {drc}"
    if got_drc and not got_rc:
        return "drc holds but rc fails"
    if code != (0 if got_rc and got_drc else 1):
        return f"exit code {code} disagrees with rc={got_rc} drc={got_drc}"
    return None


# -- workloads -----------------------------------------------------------------


def example_check(workdir: Path, genus: int, power: int, maximal: bool,
                  sweep: dict, golden_dir: Path) -> Request:
    """Write one example diagram and return the check request on it."""
    tag = f"example_{genus}_{power}" + ("_maximal" if maximal else "")
    diagram = example_diagram(genus, power, maximal=maximal)
    source = workdir / f"{tag}.json"
    source.write_text(serialize_diagram(diagram))
    out = workdir / f"{tag}.report.json"
    key = f"{genus},{power}" + (",maximal" if maximal else "")
    if maximal:
        rc, drc = sweep[key]["rc"], sweep[key]["drc"]
    else:
        # the family rule: RC always holds, DRC holds iff the genus is odd
        rc, drc = True, genus % 2 == 1
        if key in sweep and (sweep[key]["rc"], sweep[key]["drc"]) != (rc, drc):
            raise RuntimeError(f"golden sweep disagrees with the family rule at {key}")
    crossings = sweep[key]["crossings"] if maximal else 16 * abs(power) * genus ** 2
    golden_name = GOLDEN_REPORTS.get((genus, power, maximal))
    golden = str(golden_dir / golden_name) if golden_name else None
    answer = {"genus": genus, "crossings": crossings, "rc": rc, "drc": drc, "golden": golden}
    return Request("check", tag, check_argv(source, out), str(out), diagram.num_crossings,
                   answer, source=str(source), family=(genus, power, maximal))


def generate_request(family: tuple, out: Path, reference: Path, crossings: int) -> Request:
    """`generate -o OUT` for an example diagram whose serialization is the file `reference`."""
    genus, power, maximal = family
    tag = f"generate_{genus}_{power}" + ("_maximal" if maximal else "")
    return Request("generate", tag, generate_argv(genus, power, maximal, out), str(out),
                   crossings, {"reference": str(reference)}, family=family)


def random_checks(workdir: Path, seed: int) -> list:
    """Write the seeded random members and return one check request on each."""
    requests = []
    for i, diagram in enumerate(random_twisted_diagrams(RANDOM_MEMBERS, seed)):
        source = workdir / f"random_{i:03d}.json"
        source.write_text(serialize_diagram(diagram))
        out = workdir / f"random_{i:03d}.report.json"
        # only consistency is known in advance: DRC => RC, and the exit code
        answer = {"genus": diagram.genus, "crossings": diagram.num_crossings,
                  "rc": None, "drc": None, "golden": None}
        requests.append(Request("check", f"random_{i:03d}", check_argv(source, out), str(out),
                                diagram.num_crossings, answer, source=str(source)))
    return requests


def build(workload: str, seed: int, workdir: Path, golden_dir: Path) -> tuple:
    """Generate and write the workload's inputs; return (requests, trace_extras).

    The extras are the requests a traced pass makes besides the workload's
    own, so that every layer is timed on every workload: a check workload
    also generates each of its example inputs, and `generate` also checks
    what it generates.
    """
    sweep = json.loads((golden_dir / "sweep.json").read_text())
    if workload in ("genus-wall", "twist-depth", "small-batch"):
        if workload == "genus-wall":
            requests = [example_check(workdir, 13, 2, False, sweep, golden_dir)]
        elif workload == "twist-depth":
            requests = [example_check(workdir, 3, 32, False, sweep, golden_dir)]
        else:
            requests = [example_check(workdir, g, p, False, sweep, golden_dir) for g, p in SWEEP]
            requests.append(example_check(workdir, 3, 2, True, sweep, golden_dir))
            requests += random_checks(workdir, seed)
        extras = [generate_request(r.family, workdir / f"{r.label}.generated.json",
                                   Path(r.source), r.crossings)
                  for r in requests if r.family is not None]
        return requests, extras
    if workload == "generate":
        # the check request's source is the serialization of example (13, 2),
        # so it is also the reference that every `generate` output must equal
        check = example_check(workdir, 13, 2, False, sweep, golden_dir)
        gen = generate_request(check.family, workdir / "generated_13_2.json",
                               Path(check.source), check.crossings)
        return [gen], [check]
    raise ValueError(f"unknown workload {workload!r}")


def golden_generate(workdir: Path, golden_dir: Path) -> Request:
    """`generate --genus 3 --power 2`, whose output is a golden file."""
    return generate_request((3, 2, False), workdir / "generated_3_2.json",
                            golden_dir / "example_3_2.json", 288)


def write_manifest(workdir: Path, requests: list, extras: list) -> None:
    doc = {"requests": [asdict(r) for r in requests], "extras": [asdict(r) for r in extras]}
    (workdir / MANIFEST).write_text(json.dumps(doc))


def read_manifest(workdir: Path) -> tuple:
    """The (requests, trace_extras) that `write_manifest` wrote."""
    doc = json.loads((workdir / MANIFEST).read_text())

    def load(d):
        if d["family"] is not None:
            d["family"] = tuple(d["family"])
        return Request(**d)
    return [load(d) for d in doc["requests"]], [load(d) for d in doc["extras"]]
