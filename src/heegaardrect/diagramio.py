"""Interchange format, verdict reports, and graph export.

A diagram file is a JSON document with the keys ``format_version``,
``d_curves`` and ``dstar_curves`` only.  The first family's words carry the
crossing signs as a trailing ``+`` or ``-`` on each token; the second
family's words list the bare tokens.  Serialization is canonical: curves
sorted by id, each word rotated to start at its lexicographically smallest
token, so re-serializing an unchanged diagram is byte-identical.

A criteria graph is exported as DOT text straight from the node adjacency
that the criteria search, its nodes written as their labels.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .criteria import (
    CriteriaContext,
    Verdict,
    _fmt_vertex,
    double_rectangle_condition,
    rectangle_condition,
)
from .diagram import Diagram, DiagramError, MINUS, PLUS, _gather

FORMAT_VERSION = 1

# a whole word, its tokens joined by single spaces
_SIGNED = re.compile(r"[A-Za-z0-9_]+[+-](?: [A-Za-z0-9_]+[+-])*")
_BARE = re.compile(r"[A-Za-z0-9_]+(?: [A-Za-z0-9_]+)*")
_SIGN = {"+": PLUS, "-": MINUS}
# translation tables of a signed word's text: the one deletes its signs, the
# other every ASCII character but the signs and the spaces
_UNSIGNED = dict.fromkeys(map(ord, "+-"))
_SIGNS_ONLY = dict.fromkeys(i for i in range(128) if chr(i) not in "+- ")


def _reads_back(word, pattern) -> str | None:
    """`word` joined by single spaces if every token is a `str` of `pattern`'s
    token form: one match of the joined word, whose only spaces are the joins;
    else None.  A match is never empty."""
    try:
        text = " ".join(word)
    except TypeError:
        return None
    return text if pattern.fullmatch(text) and text.count(" ") == len(word) - 1 else None


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if a key repeats: `json` would keep the last."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DiagramError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram file; inverse of `serialize_diagram` up to rotation."""
    try:  # a DiagramError of `_unique_keys` is a ValueError too
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise DiagramError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DiagramError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DiagramError("top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DiagramError(f"unsupported format_version {version!r}")
    unknown = doc.keys() - {"format_version", "d_curves", "dstar_curves"}
    if unknown:
        raise DiagramError(f"unknown top-level key {min(unknown)!r}")
    d_curves = doc.get("d_curves")
    if not isinstance(d_curves, dict) or not d_curves:
        raise DiagramError("d_curves must be a non-empty mapping")
    second = doc.get("dstar_curves")
    if not isinstance(second, dict) or not second:
        raise DiagramError("dstar_curves must be a non-empty mapping")

    a_words, signs = {}, {}
    for words, pattern, what in ((d_curves, _SIGNED, "signed token"), (second, _BARE, "token")):
        for curve, word in words.items():
            if not isinstance(word, list) or not word:
                raise DiagramError(f"curve {curve}: word must be a non-empty list")
            text = _reads_back(word, pattern)
            if text is None:
                tok = next(t for t in word if not _reads_back([t], pattern))
                raise DiagramError(f"curve {curve}: bad {what} {tok!r}")
            if words is d_curves:  # the ids are the text less the signs, the signs the rest
                a_words[curve] = ids = text.translate(_UNSIGNED).split(" ")
                signs.update(zip(ids, map(_SIGN.__getitem__,
                                          text.translate(_SIGNS_ONLY).split(" "))))
    return Diagram(a_words, second, signs)


def _rotate_min(word: list) -> list:
    k = word.index(min(word))
    return word[k:] + word[:k]


def serialize_diagram(d: Diagram) -> str:
    """Canonical JSON text for a diagram; every curve id must be a `str`, and
    every crossing id a token that `parse_diagram` reads back, [A-Za-z0-9_]+."""
    bad = [c for c in (*d.a_words, *d.b_words) if not isinstance(c, str)]
    if bad:  # a JSON key reads back as a str, which may sort differently
        raise DiagramError(f"curve id {bad[0]!r} is not a str")
    ids = d._crossing_ids
    # word by word (each id is in one): a match's backtracking stack grows per token
    if not all(_reads_back(word, _BARE) for word in d.a_words.values()):
        bad = min(x for x in ids if not _reads_back([x], _BARE))
        raise DiagramError(f"crossing id {bad!r} is not [A-Za-z0-9_]+")
    signed = {x: x + ("+" if s == PLUS else "-") for x, s in zip(ids, d._signs)}
    doc = {"format_version": FORMAT_VERSION, "d_curves": {
        curve: _rotate_min(list(_gather(signed, word))) for curve, word in d.a_words.items()
    }, "dstar_curves": {
        curve: _rotate_min(list(word)) for curve, word in d.b_words.items()
    }}
    return _dumps(doc) + "\n"


def _dumps(x) -> str:
    """Exactly the text `json.dumps` writes for `x` at an indent of 2, for the types
    this package writes: dicts with str keys, lists, str, int, True, False and None;
    any other key or value, a dict or list subclass too, raises `TypeError`.  Every
    piece goes to one list, joined once; a list of only strs or only ints in one call."""
    out: list = []
    _dump(x, "\n", out.append)
    return "".join(out)


def _dump(x, indent: str, put) -> None:
    """`_dumps` of `x` at the line break `indent`, each piece passed to `put`."""
    t = type(x)
    if t is dict:
        inner = indent + "  "
        lead = "{" + inner
        for k, v in x.items():
            put(lead + _quote(k) + ": ")
            _dump(v, inner, put)
            lead = "," + inner
        put(indent + "}" if x else "{}")
    elif t is list:
        inner = indent + "  "
        kinds = set(map(type, x))
        if kinds == {int} or kinds == {str}:
            encode = repr if kinds == {int} else _quote
            put("[" + inner + ("," + inner).join(map(encode, x)) + indent + "]")
            return
        lead = "[" + inner
        for v in x:
            put(lead)
            _dump(v, inner, put)
            lead = "," + inner
        put(indent + "]" if x else "[]")
    elif t is str or isinstance(x, str):
        put(_quote(x))
    elif t is int:
        put(repr(x))
    elif x is None or x is True or x is False:
        put("null" if x is None else "true" if x else "false")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


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
                        "data": [list(x) if type(x) is tuple else x for x in m.a_data],
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


def build_report(diagram: Diagram, condition: str = "both") -> dict:
    """Structured report with input summary, validation and verdicts.

    A diagram that fails validation gets no verdicts: its report gives the
    failing checks, with m and m* left null.
    """
    if condition not in ("rc", "drc", "both"):
        raise DiagramError(f"unknown condition {condition!r}: expected rc, drc or both")
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
        report["rc"] = _verdict_json(rectangle_condition(ctx))
        report["rc_swapped"] = _verdict_json(rectangle_condition(ctx.swapped))
        report["rc_swapped"]["note"] = (
            "informational: the rectangle condition after switching the families; "
            "whether the general condition is symmetric is not asserted"
        )
    if condition in ("drc", "both"):
        report["drc"] = _verdict_json(double_rectangle_condition(ctx))
    report["annotations"] = [
        f"{name} condition holds: {report[key]['note']}"
        for key, name in (("rc", "rectangle"), ("drc", "double rectangle"))
        if report.get(key, {}).get("holds")
    ]
    return report


def report_to_json(report: dict) -> str:
    return _dumps(report) + "\n"


def validation_lines(passed: bool, entries) -> list[str]:
    """The validation block of a text report: the verdict, then a line per
    (code, detail) entry, its line breaks read as spaces, so a curve id in a
    detail cannot start a line of its own."""
    lines = [f"validation: {'passed' if passed else 'FAILED'}"]
    lines += (" ".join(f"  - [{code}] {detail}".splitlines()) for code, detail in entries)
    return lines


def report_to_text(report: dict) -> str:
    """Human-readable report mirroring the k / l / A_k vocabulary."""
    lines = []
    inp = report["input"]
    lines.append(
        f"diagram: genus {inp['genus']}, n={inp['n']}, n*={inp['n_star']}, "
        f"m={inp['m']}, m*={inp['m_star']}, {inp['crossings']} crossings"
    )
    val = report["validation"]
    lines += validation_lines(val["passed"], ((e["code"], e["detail"]) for e in val["entries"]))
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


def graph_to_dot(adj: dict, label, blocks=None, name: str = "G") -> str:
    """DOT text for a criteria graph given as node -> neighbours, each node
    written as its label `label(node)`; the (minus, plus) `blocks`, if given,
    become clusters.  Nodes and edges are listed in node order, which is
    the order of their labels."""
    text = {v: f'"{_fmt_vertex(label(v))}"' for v in adj}
    lines = [f'graph "{name}" {{']
    if blocks is not None:
        for tag, block in zip(("minus", "plus"), blocks):
            lines += (f"  subgraph cluster_{tag} {{", f'    label="{tag} block";')
            lines += (f"    {text[v]};" for v in sorted(block))
            lines.append("  }")
    else:
        lines += (f"  {text[v]};" for v in sorted(adj))
    lines += (f"  {text[u]} -- {text[v]};" for u in sorted(adj) for v in sorted(adj[u]) if u < v)
    lines.append("}")
    return "\n".join(lines) + "\n"
