"""Traced replay of `check` and `generate`, and exact call counts.

The replay runs the stages of one request as separate calls into the
package's public functions, in the order the program runs them, and
records one span per call: (id, name, start, end, parent id, request id).
The direct children of a request's root span are its stages; their sum is
compared with the same request run untraced, and the difference is the
cost of replaying and tracing.  Work that no public function exposes as a
stage of its own (the `Diagram` constructor inside parsing, the cut
components and rectangle indexes inside `CriteriaContext`, the steps of
`example_diagram`) is timed by calling those functions once more under a
second root span, ``side``, which is not part of the stage sum.

Every function the replay calls below the CLI is looked up when the replay
runs, not when this module is imported.  A function the package no longer
has is recorded in `Spans.absent` and its spans and counts read 0.  Where
the stages of `build_report` cannot be replayed one by one, each condition
is replayed as one stage (so the context builds fall inside them), and
failing that, the whole of `build_report` is one stage.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from heegaardrect import cli, diagramio

# calls.<name>: the function whose calls cProfile counts, keyed by code object
COUNTED = {
    "detail_graph": "criteria.CriteriaContext.detail_graph",
    "cross_detail_graph": "criteria.CriteriaContext.cross_detail_graph",
    "is_two_connected": "criteria.is_two_connected",
    "graph_from_edges": "criteria.graph_from_edges",
    "CriteriaContext": "criteria.CriteriaContext.__init__",
    "cut_components": "systems.cut_components",
    "swap_roles": "diagram.Diagram.swap_roles",
}

# what the stage-by-stage replay of `build_report` calls
STAGED_REPORT = (
    "criteria.CriteriaContext", "criteria.CriteriaContext.disk_graph",
    "criteria.rectangle_condition", "criteria.doubly_two_connected_witness",
    "diagram.Diagram.swap_roles",
)


def find(path: str):
    """`heegaardrect.<module>.<attr>...` by dotted path, or None if it is gone."""
    module, _, rest = path.partition(".")
    try:
        obj = importlib.import_module(f"heegaardrect.{module}")
    except ImportError:
        return None
    for part in rest.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Spans:
    """Spans kept in memory; nesting follows the `with` blocks."""

    def __init__(self):
        self.rows: list = []
        self._open: list = []
        self.absent: set = set()

    @contextmanager
    def span(self, name: str, request: int):
        parent = self._open[-1] if self._open else None
        row = [len(self.rows), name, time.perf_counter(), None, parent, request]
        self.rows.append(row)
        self._open.append(row[0])
        try:
            yield row
        finally:
            row[3] = time.perf_counter()
            self._open.pop()

    def lookup(self, *paths: str) -> list:
        """The functions at `paths`, or None when any is gone (each gone one is noted)."""
        found = [find(p) for p in paths]
        missing = {p for p, fn in zip(paths, found) if fn is None}
        self.absent |= missing
        return None if missing else found

    def timed(self, name: str, rid: int, path: str, *args):
        """Call the function at `path` under a span named `name`; skip it if it is gone."""
        fns = self.lookup(path)
        if fns is None:
            return None
        with self.span(name, rid):
            return fns[0](*args)

    def stage_sum(self, root: list) -> float:
        return sum(r[3] - r[2] for r in self.rows if r[4] == root[0])


def _staged_report(spans: Spans, rid: int, d, counts: dict) -> bool:
    """Replay `build_report` stage by stage; False when the package lacks a stage."""
    fns = spans.lookup(*STAGED_REPORT)
    if fns is None:
        return False
    Context, _, rectangle_condition, witness, _ = fns
    with spans.span("criteria.CriteriaContext", rid):
        ctx = Context(d)
    with spans.span("criteria.rectangle_condition", rid):
        rectangle_condition(d, ctx)
    with spans.span("diagram.swap_roles", rid):
        swapped = d.swap_roles()
    with spans.span("criteria.CriteriaContext", rid):
        swapped_ctx = Context(swapped)
    with spans.span("criteria.rectangle_condition_swapped", rid):
        rectangle_condition(swapped, swapped_ctx)
    with spans.span("criteria.double_rectangle_condition", rid):
        for flip in (False, True):
            oriented = d
            if flip:
                with spans.span("diagram.swap_roles", rid):
                    oriented = d.swap_roles()
            with spans.span("criteria.CriteriaContext", rid):
                octx = Context(oriented)
            for disk in range(1, octx.n + 1):
                with spans.span("criteria.disk_graph", rid):
                    hd = octx.disk_graph(disk)
                with spans.span("criteria.doubly_two_connected_witness", rid):
                    witness(hd)
                lo, hi = hd.partition
                counts["disk_graph_pairs"] += len(lo) * len(hi)
    return True


def _condition_report(spans: Spans, rid: int, d) -> bool:
    """Replay `build_report` one condition per stage, each building what it needs."""
    fns = spans.lookup("criteria.rectangle_condition", "criteria.double_rectangle_condition")
    if fns is None:
        return False
    rectangle_condition, double_rectangle_condition = fns
    with spans.span("criteria.rectangle_condition", rid):
        rectangle_condition(d)
    with spans.span("diagram.swap_roles", rid):
        swapped = d.swap_roles()
    with spans.span("criteria.rectangle_condition_swapped", rid):
        rectangle_condition(swapped)
    with spans.span("criteria.double_rectangle_condition", rid):
        double_rectangle_condition(d)
    return True


def replay_check(spans: Spans, rid: int, source: Path, out: Path, report: dict,
                 counts: dict) -> float:
    """Replay one `check --condition both --structured -o OUT`; return its stage sum.

    `report` is the report the untraced request wrote; serializing it again
    times `report_to_json` on the same document.
    """
    with spans.span("check", rid) as root:
        with spans.span("cli.read", rid):
            text = source.read_text()
        with spans.span("diagramio.parse_diagram", rid):
            d = diagramio.parse_diagram(text)
        validation = spans.timed("systems.validate_disk_systems", rid,
                                 "systems.validate_disk_systems", d)
        with spans.span("diagramio.build_report", rid):
            if not (_staged_report(spans, rid, d, counts) or _condition_report(spans, rid, d)):
                diagramio.build_report(d, "both", validation)
        with spans.span("diagramio.report_to_json", rid):
            text_out = diagramio.report_to_json(report)
        with spans.span("cli.write", rid):
            out.write_text(text_out)
    with spans.span("side", rid):
        signs = {x: cr.sign for x, cr in d.crossings.items()}
        spans.timed("diagram.Diagram", rid, "diagram.Diagram", d.a_words, d.b_words, signs)
        families = spans.lookup("diagram.FAMILY_A", "diagram.FAMILY_B")
        if families is not None:
            for family in families:
                spans.timed("systems.cut_components", rid, "systems.cut_components", d, family)
        rects = spans.timed("rectangles.rectangle_faces", rid, "rectangles.rectangle_faces", d)
        composed = None
        if families is not None:
            composed = spans.timed("rectangles.composed_rectangles", rid,
                                   "rectangles.composed_rectangles", d, families[0])
    counts["crossings"] += d.num_crossings
    counts["faces"] += len(d.faces)
    counts["rectangles"] += len(rects or ())
    counts["composed_rectangles"] += len(composed or ())
    counts["witnesses"] += sum(len(report[key]["witnesses"]) for key in ("rc", "rc_swapped", "drc"))
    return spans.stage_sum(root)


def replay_generate(spans: Spans, rid: int, family: tuple, out: Path) -> float:
    """Replay one `generate -o OUT`; return its stage sum.

    The side spans are named ``generate.*`` where the same function is also a
    stage of `check`, so that the check's metric holds the check's calls only.
    """
    genus, power, maximal = family
    with spans.span("generate", rid) as root:
        with spans.span("twist.example_diagram", rid):
            d = find("twist.example_diagram")(genus, power, maximal=maximal)
        with spans.span("diagramio.serialize_diagram", rid):
            text = diagramio.serialize_diagram(d)
        with spans.span("cli.write", rid):
            out.write_text(text)
    with spans.span("side", rid):
        if maximal:
            base = spans.timed("twist.chain_base", rid, "twist.maximal_chain_base")
        else:
            base = spans.timed("twist.chain_base", rid, "twist.chain_base", genus)
        fns = spans.lookup("twist.dehn_twist", "twist.TwistSpec")
        if base is not None and fns is not None:
            dehn_twist, TwistSpec = fns
            with spans.span("twist.dehn_twist", rid):
                dehn_twist(base, TwistSpec(power))
        spans.timed("generate.validate_disk_systems", rid, "systems.validate_disk_systems", d)
        signs = {x: cr.sign for x, cr in d.crossings.items()}
        spans.timed("generate.Diagram", rid, "diagram.Diagram", d.a_words, d.b_words, signs)
    return spans.stage_sum(root)


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profiled_check(argv: list, absent: set) -> tuple:
    """Run one real check under cProfile; return (exit code, calls, distinct detail graphs).

    Only call counts are read from the profile: profiling inflates the run
    time two- to three-fold, so its timings are not used.  A detail graph
    is identified by its orientation (the first family's curve ids) and
    (k, l, p, q); the count of distinct ones is taken by wrapping
    `CriteriaContext.detail_graph` for the length of this call.  A counted
    function the package no longer has counts 0 and is added to `absent`.
    """
    counted = {}
    for name, path in COUNTED.items():
        fn = find(path)
        if getattr(fn, "__code__", None) is None:
            absent.add(path)
        else:
            counted[name] = _code_key(fn)
    Context = find("criteria.CriteriaContext")
    original = getattr(Context, "detail_graph", None)
    distinct = set()

    def recording(ctx, k, l, p, q):
        distinct.add((tuple(ctx.diagram.a_words), k, l, p, q))
        return original(ctx, k, l, p, q)

    profile = cProfile.Profile()
    if original is not None:
        Context.detail_graph = recording
    try:
        code = profile.runcall(cli.main, argv)
    finally:
        if original is not None:
            Context.detail_graph = original
    stats = pstats.Stats(profile).stats
    calls = dict.fromkeys(COUNTED, 0)
    for name, key in counted.items():
        entry = stats.get(key)
        calls[name] = entry[1] if entry else 0  # total calls, recursive ones included
    return code, calls, len(distinct)


def write_spans(path: Path, header: dict, spans: Spans) -> None:
    doc = dict(header)
    doc["absent"] = sorted(spans.absent)
    doc["span_fields"] = ["id", "name", "start", "end", "parent", "request"]
    doc["spans"] = spans.rows
    path.write_text(json.dumps(doc) + "\n")
