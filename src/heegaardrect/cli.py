"""Command-line interface: check, generate, validate, export-graph.

Exit codes across all commands: 0 = success / all requested conditions
hold, 1 = a requested condition fails, 2 = invalid input or parameters.
Output is plain text (nothing to disable for NO_COLOR).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Optional

from .criteria import CriteriaContext, _adjacency, _vertex
from .diagram import Diagram, DiagramError, MINUS, PLUS
from .diagramio import (
    build_report,
    graph_to_dot,
    parse_diagram,
    report_to_json,
    report_to_text,
    serialize_diagram,
    validation_lines,
)
from .systems import _label, validate_disk_systems
from .twist import example_diagram


def _load(path: str) -> Diagram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramError(f"cannot read {path}: {exc}") from exc
    return parse_diagram(text)


def _write(text: str, output: Optional[str]) -> None:
    """Write a command's output to the `-o` file as UTF-8, or to stdout without
    one, backslash-escaping what stdout cannot encode."""
    if not output:
        encoding = sys.stdout.encoding or "utf-8"
        try:
            sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))
            sys.stdout.flush()
        except OSError as exc:
            _drop_buffered_stdout()
            raise DiagramError(f"cannot write standard output: {exc}") from exc
        return
    try:
        Path(output).write_bytes(text.encode("utf-8"))
    except (OSError, UnicodeEncodeError) as exc:
        raise DiagramError(f"cannot write {output}: {exc}") from exc


def _drop_buffered_stdout() -> None:
    """Flush what a failed write left in stdout's buffer to the null device, then
    give fd 1 back, so nothing fails again at exit and a later write still tries."""
    fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
    saved = os.dup(fd)
    try:
        os.dup2(null, fd)
        sys.stdout.flush()
    finally:
        os.dup2(saved, fd)
        os.close(saved)
        os.close(null)


def cmd_check(args) -> int:
    report = build_report(_load(args.file), args.condition)
    _write(report_to_json(report) if args.structured else report_to_text(report),
           args.output)
    if not report["validation"]["passed"]:
        return 2
    requested = [report[key]["holds"] for key in ("rc", "drc") if key in report]
    return 0 if all(requested) else 1


def cmd_generate(args) -> int:
    diagram = example_diagram(args.genus, args.power, maximal=args.maximal)
    _write(serialize_diagram(diagram), args.output)
    return 0


def cmd_validate(args) -> int:
    validation = validate_disk_systems(_load(args.file))
    _write("\n".join(validation_lines(validation.passed, validation)) + "\n", None)
    return 0 if validation.passed else 1


def _parse_index(s: str) -> int:
    # ASCII digits only: `int` alone also reads "1_0", "+1", " 1" and other scripts' digits
    try:
        if s.isascii() and s.isdigit():
            return int(s)
    except ValueError:  # more digits than `int` converts
        pass
    raise DiagramError(f"bad index {s!r} in the selector")


def _parse_side(s: str) -> int:
    if s == "+":
        return PLUS
    if s == "-":
        return MINUS
    raise DiagramError(f"bad side label {s!r} (use + or -)")


def export_graph(ctx: CriteriaContext, which: str) -> str:
    """DOT text of the graph of `ctx` that the selector `which` names, drawn
    from the node adjacency the criteria search: Gk:K, Hd:D or
    Gdetail:K,L,I,EPS,J,DELTA."""
    kind, _, rest = which.partition(":")
    label, blocks = _label, None
    if kind == "Gk":
        adj = ctx._component_adjacency(_parse_index(rest))
    elif kind == "Hd":
        adj, *blocks = ctx._disk_adjacency(_parse_index(rest))
        label = lambda v: _vertex(v, ctx._plus)
    elif kind == "Gdetail":
        parts = rest.split(",")
        if len(parts) != 6:
            raise DiagramError("Gdetail selector needs k,l,i,eps,j,delta")
        k, l, i, j = (_parse_index(parts[t]) for t in (0, 1, 2, 4))
        p = (i, _parse_side(parts[3]))
        q = (j, _parse_side(parts[5]))
        edges = ctx._detail_entry(k, p, q).get(l, ())
        ctx.a_star_set(l)  # the range check of l, after the pair's
        adj = _adjacency(ctx._nodes_b[l - 1], edges)
    else:
        raise DiagramError(f"unknown selector kind {kind!r}")
    return graph_to_dot(adj, label, blocks, which)


def cmd_export_graph(args) -> int:
    _write(export_graph(CriteriaContext(_load(args.file)), args.which), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once when this module is imported.

    Each subcommand's `func` default is bound here, so `main` dispatches to the
    `cmd_*` functions as they were at import.  argparse reads the terminal width
    and `sys.stderr` when it formats or parses, not here, so one shared parser
    prints what a fresh one would.
    """
    parser = argparse.ArgumentParser(
        prog="heegaardrect",
        description="Rectangle and double rectangle conditions for "
        "disk-system diagrams of Heegaard splittings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the conditions for a diagram file")
    p.add_argument("file")
    p.add_argument("--condition", choices=("rc", "drc", "both"), default="both")
    p.add_argument("--structured", action="store_true",
                   help="emit a JSON report instead of text")
    p.add_argument("-o", "--output", help="write the report to a file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="generate a twisted example diagram")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--maximal", action="store_true",
                   help="extend to maximal disk systems (genus 3 only)")
    p.add_argument("-o", "--output", help="write the diagram to a file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="run the disk-system checks only")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-graph", help="export a criteria graph as DOT")
    p.add_argument("file")
    p.add_argument("--which", required=True,
                   help="Gk:K | Hd:D | Gdetail:K,L,I,EPS,J,DELTA")
    p.add_argument("--dot", action="store_true",
                   help="DOT output (the default and only format)")
    p.add_argument("-o", "--output", help="write the graph to a file")
    p.set_defaults(func=cmd_export_graph)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    """Run one command; `argv` defaults to `sys.argv[1:]`.

    It may be called any number of times in one process: each call parses
    with `_PARSER` and carries nothing over to the next.  The command runs
    with the automatic cycle collector off, since it leaves no cyclic garbage
    and a collection would only walk its fresh tables; the collector's state
    is restored on every exit.
    """
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except DiagramError as exc:
        # one line even when a path or a curve id in the message holds a line break
        message = " ".join(str(exc).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
