"""Interchange format, verdict reports, and graph export.

A diagram file is a JSON document.  The first family's words carry the
crossing signs as a trailing ``+`` or ``-`` on each token; the second
family's words (or the auxiliary curve of a multicurve map) list the bare
tokens.  Serialization is canonical: curves sorted by id, each word
rotated to start at its lexicographically smallest token, so re-serializing
an unchanged diagram is byte-identical.
"""

from __future__ import annotations

import json
import re

from .criteria import (
    CriteriaContext,
    CriteriaGraph,
    Verdict,
    _fmt_vertex,
    double_rectangle_condition,
    rectangle_condition,
)
from .diagram import Diagram, DiagramError, MINUS, PLUS

FORMAT_VERSION = 1

_TOKEN = re.compile(r"([A-Za-z0-9_]+)([+-])")
_BARE = re.compile(r"[A-Za-z0-9_]+")


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram file; inverse of `serialize_diagram` up to rotation."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise DiagramError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DiagramError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DiagramError("top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DiagramError(f"unsupported format_version {version!r}")
    d_curves = doc.get("d_curves")
    if not isinstance(d_curves, dict) or not d_curves:
        raise DiagramError("d_curves must be a non-empty mapping")
    dstar = doc.get("dstar_curves")
    aux = doc.get("aux_curve")
    if (dstar is None) == (aux is None):
        raise DiagramError("exactly one of dstar_curves and aux_curve is required")
    if aux is not None and (not isinstance(aux, dict) or len(aux) != 1):
        raise DiagramError("aux_curve must be a mapping with a single curve")
    second = dstar if dstar is not None else aux
    if not isinstance(second, dict) or not second:
        raise DiagramError("second curve family must be a non-empty mapping")

    a_words = {}
    signs = {}
    for curve, word in d_curves.items():
        if not isinstance(word, list) or not word:
            raise DiagramError(f"curve {curve}: word must be a non-empty list")
        toks = []
        for tok in word:
            m = _TOKEN.fullmatch(tok) if isinstance(tok, str) else None
            if not m:
                raise DiagramError(f"curve {curve}: bad signed token {tok!r}")
            x, s = m.group(1), m.group(2)
            signs[x] = PLUS if s == "+" else MINUS
            toks.append(x)
        a_words[curve] = tuple(toks)
    b_words = {}
    for curve, word in second.items():
        if not isinstance(word, list) or not word:
            raise DiagramError(f"curve {curve}: word must be a non-empty list")
        for tok in word:
            if not isinstance(tok, str) or not _BARE.fullmatch(tok):
                raise DiagramError(f"curve {curve}: bad token {tok!r}")
        b_words[curve] = tuple(word)
    return Diagram(a_words, b_words, signs, aux=aux is not None)


def _rotate_min(word: tuple[str, ...]) -> tuple[str, ...]:
    k = word.index(min(word))
    return word[k:] + word[:k]


def serialize_diagram(d: Diagram) -> str:
    """Canonical JSON text for a diagram."""
    doc = {"format_version": FORMAT_VERSION}
    d_curves = {}
    for curve in sorted(d.a_words):
        toks = tuple(
            x + ("+" if d._signs[d._cindex[x]] == PLUS else "-") for x in d.a_words[curve]
        )
        d_curves[curve] = list(_rotate_min(toks))
    doc["d_curves"] = d_curves
    second = {
        curve: list(_rotate_min(d.b_words[curve])) for curve in sorted(d.b_words)
    }
    if d.aux:
        doc["aux_curve"] = second
    else:
        doc["dstar_curves"] = second
    return json.dumps(doc, indent=2) + "\n"


# -- reports -------------------------------------------------------------------


def _verdict_json(v: Verdict) -> dict:
    return {
        "holds": v.holds,
        "witnesses": [
            {
                "kind": w.kind,
                "families_swapped": w.swapped,
                "index": w.index,
                "reason": w.reason,
                "vertices": [list(x) for x in w.vertices],
                "missing_types": [
                    {
                        "kind": m.kind,
                        "data": _missing_data(m),
                        "first_failing_l": m.first_failing_l,
                        "description": m.describe(),
                    }
                    for m in w.missing
                ],
                "description": w.describe(),
            }
            for w in v.witnesses
        ],
        "note": v.note,
    }


def _missing_data(m) -> list:
    if m.kind == "rectangle":
        return [list(m.a_data[0]), list(m.a_data[1])]
    return [list(m.a_data[0]), m.a_data[1], list(m.a_data[2])]


def build_report(diagram: Diagram, condition: str = "both") -> dict:
    """Structured report with input summary, validation and verdicts.

    A diagram that fails validation gets no verdicts: its report gives the
    failing checks, with m and m* left null.
    """
    ctx = CriteriaContext(diagram)
    validation = ctx.validation
    report = {
        "input": {
            "genus": diagram.genus,
            "n": len(diagram.a_words),
            "n_star": len(diagram.b_words),
            "m": ctx.m if validation.passed else None,
            "m_star": ctx.m_star if validation.passed else None,
            "crossings": diagram.num_crossings,
        },
        "validation": {
            "passed": validation.passed,
            "entries": [{"code": c, "detail": t} for c, t in validation],
        },
    }
    if not validation.passed:
        report["annotations"] = []
        return report
    if condition in ("rc", "both"):
        report["rc"] = _verdict_json(rectangle_condition(diagram, ctx))
        report["rc_swapped"] = _verdict_json(rectangle_condition(None, ctx.swapped))
        report["rc_swapped"]["note"] = (
            "informational: the rectangle condition after switching the families; "
            "whether the general condition is symmetric is not asserted"
        )
    if condition in ("drc", "both"):
        report["drc"] = _verdict_json(double_rectangle_condition(diagram, ctx))
    annotations = []
    if report.get("rc", {}).get("holds"):
        annotations.append("rectangle condition holds: " +
                           "the Heegaard splitting is strongly irreducible")
    if report.get("drc", {}).get("holds"):
        annotations.append("double rectangle condition holds: " +
                           "the Goeritz group of the Heegaard splitting is finite")
    report["annotations"] = annotations
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_to_text(report: dict) -> str:
    """Human-readable report mirroring the k / l / A_k vocabulary."""
    lines = []
    inp = report["input"]
    lines.append(
        f"diagram: genus {inp['genus']}, n={inp['n']}, n*={inp['n_star']}, "
        f"m={inp['m']}, m*={inp['m_star']}, {inp['crossings']} crossings"
    )
    val = report["validation"]
    if val["passed"]:
        lines.append("validation: passed")
    else:
        lines.append("validation: FAILED")
        for e in val["entries"]:
            lines.append(f"  - [{e['code']}] {e['detail']}")
    for key, label in (("rc", "rectangle condition"),
                       ("drc", "double rectangle condition")):
        if key not in report:
            continue
        v = report[key]
        lines.append(f"{label}: {'holds' if v['holds'] else 'FAILS'}")
        for w in v["witnesses"]:
            lines.append(f"  - {w['description']}")
            for m in w["missing_types"]:
                lines.append(f"      {m['description']}")
    if "rc_swapped" in report:
        v = report["rc_swapped"]
        lines.append(
            "rectangle condition with families switched (informational): "
            + ("holds" if v["holds"] else "FAILS")
        )
    for note in report["annotations"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# -- graph export ---------------------------------------------------------------


def graph_to_dot(graph: CriteriaGraph, name: str = "G") -> str:
    """DOT text for a criteria graph; partition blocks become clusters."""
    lines = [f'graph "{name}" {{']
    if graph.partition is not None:
        for tag, block in zip(("minus", "plus"), graph.partition):
            lines.append(f"  subgraph cluster_{tag} {{")
            lines.append(f'    label="{tag} block";')
            for v in sorted(block):
                lines.append(f'    "{_fmt_vertex(v)}";')
            lines.append("  }")
    else:
        for v in sorted(graph.vertices):
            lines.append(f'  "{_fmt_vertex(v)}";')
    for u, v in sorted(graph.edges):
        lines.append(f'  "{_fmt_vertex(u)}" -- "{_fmt_vertex(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
