"""Typed rectangles and composed rectangles among the faces of a diagram.

A rectangle is a degree-4 face; its type records, for each of the two
strands of either family on its boundary, which side of that curve the
face interior lies on.  A composed rectangle is a pair of rectangles glued
along an edge of an axis curve, crossing it from the minus to the plus
side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError, Face,
)

SidePair = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class RectangleType:
    """Unordered a-side pair and b-side pair of a rectangle face."""

    a_sides: SidePair
    b_sides: SidePair


@dataclass(frozen=True)
class ComposedRectangleType:
    """Type of two rectangles glued across an axis-family edge.

    `end_minus` is the outer axis-family side of the rectangle lying on the
    minus side of the axis curve, `end_plus` the one on the plus side; the
    b-side pair is common to both constituents.  When the axis family is
    the second family, the roles of the families in the type are
    transposed.
    """

    axis: int
    end_minus: tuple[int, int]
    end_plus: tuple[int, int]
    b_sides: SidePair


def _side_types(diagram: Diagram) -> dict[str, list]:
    """Family -> the side pair on that family of every face, in face order,
    None for a face that is not a rectangle (degree 4).

    A face's darts alternate the two families (the ports alternate round
    every crossing, and an edge keeps its family), so darts 0 and 2 of a
    rectangle's orbit lie on one family and darts 1 and 3 on the other.
    Each distinct pair is one tuple, shared by all its faces.
    """
    start, orbit, curve = diagram._face_start, diagram._face_darts, diagram._dart_curve
    a_types, b_types = [None] * (len(start) - 1), [None] * (len(start) - 1)
    by_parity = (a_types, b_types), (b_types, a_types)
    pairs: dict = {}
    for i, (s, e) in enumerate(zip(start, start[1:])):
        if e - s != 4:
            continue
        d0, d1, d2, d3 = orbit[s:e]
        p, q = (curve[d0], 1 - (d0 & 2)), (curve[d2], 1 - (d2 & 2))
        u, v = (curve[d1], 1 - (d1 & 2)), (curve[d3], 1 - (d3 & 2))
        own, other = by_parity[d0 & 1]
        pair = (p, q) if p <= q else (q, p)
        own[i] = pairs.setdefault(pair, pair)
        pair = (u, v) if u <= v else (v, u)
        other[i] = pairs.setdefault(pair, pair)
    return {FAMILY_A: a_types, FAMILY_B: b_types}


def rectangle_faces(diagram: Diagram) -> tuple[tuple[Face, RectangleType], ...]:
    """All degree-4 faces with their types, in face order."""
    types = _side_types(diagram)
    return tuple((diagram.faces[i], RectangleType(a_sides, b_sides))
                 for i, (a_sides, b_sides) in enumerate(zip(types[FAMILY_A], types[FAMILY_B]))
                 if a_sides is not None)


def composed_rectangles(
    diagram: Diagram, axis_family: str = FAMILY_A
) -> tuple[tuple[ComposedRectangleType, Face, Face], ...]:
    """Composed rectangles over every axis-family edge, with their faces.

    For each edge of the axis family whose two adjacent faces are distinct
    rectangles glued along exactly this edge, the face on the minus side of
    the edge contributes the minus end and the plus-side face the plus end.
    The b-side pairs of the two constituents always agree.
    """
    if axis_family not in OTHER_FAMILY:
        raise DiagramError(f"unknown family {axis_family!r}")
    faces = diagram.faces
    return tuple((ComposedRectangleType(*t[:4]), faces[t[4]], faces[t[5]])
                 for t in _composed(diagram, axis_family, _side_types(diagram)))


def _composed(diagram: Diagram, axis_family: str, types: dict[str, list]):
    """`composed_rectangles` read off the diagram's `_side_types`, in the same
    order, yielded as plain tuples (axis, end_minus, end_plus, b_sides,
    face_minus, face_plus) with face indices."""
    out_port = PORTS[axis_family][0]
    words = diagram.a_words if axis_family == FAMILY_A else diagram.b_words
    axis_types, cross_types = types[axis_family], types[OTHER_FAMILY[axis_family]]
    start, fod, alpha = diagram._face_start, diagram._face_of_dart, diagram._alpha
    across = [fod[alpha[e]] for e in diagram._face_darts]  # the face across each orbit arc

    for axis, word in enumerate(words.values(), 1):
        minus, plus = (axis, MINUS), (axis, PLUS)
        # walk the curve by its out darts: the next is its mate's out port, alpha[d] ^ 2
        d = 4 * diagram._cindex[word[0]] + out_port
        for _ in word:
            # the face left of the forward arc is on the plus side of the edge
            f_plus, f_minus = fod[d], fod[alpha[d]]
            d = alpha[d] ^ 2
            sides_minus, sides_plus = axis_types[f_minus], axis_types[f_plus]
            if f_plus == f_minus or sides_minus is None or sides_plus is None:
                continue
            k = start[f_minus]
            if across[k:k + 4].count(f_plus) != 1:  # glued along more than this edge
                continue
            # the outer side of each end: the one that is not its axis side
            (s, t), (u, v) = sides_minus, sides_plus
            end_minus = t if s == minus else s if t == minus else None
            end_plus = v if u == plus else u if v == plus else None
            if end_minus is None or end_plus is None:
                raise DiagramError("rectangle does not lie on the expected side of its axis")
            cross = cross_types[f_minus]
            if cross_types[f_plus] != cross:
                raise DiagramError("composed rectangle with mismatched cross sides")
            yield axis, end_minus, end_plus, cross, f_minus, f_plus
