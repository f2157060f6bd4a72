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


def _pair(p: tuple[int, int], q: tuple[int, int]) -> SidePair:
    return (p, q) if p <= q else (q, p)


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


def _side_types(diagram: Diagram) -> dict[str, dict[int, SidePair]]:
    """Family -> face index -> side pair on that family, for every degree-4
    face in face order."""
    index = {c: i + 1 for ids in (diagram.a_curve_ids(), diagram.b_curve_ids())
             for i, c in enumerate(ids)}
    types: dict[str, dict[int, SidePair]] = {FAMILY_A: {}, FAMILY_B: {}}
    for f in diagram.faces:
        if f.degree != 4:
            continue
        sides: dict[str, list] = {FAMILY_A: [], FAMILY_B: []}
        for s in f.sides:
            sides[s.family].append((index[s.curve], s.side))
        if len(sides[FAMILY_A]) != 2 or len(sides[FAMILY_B]) != 2:
            raise DiagramError(f"face {f.index} does not alternate families")
        for family, pair in sides.items():
            types[family][f.index] = _pair(*pair)
    return types


def rectangle_faces(diagram: Diagram) -> tuple[tuple[Face, RectangleType], ...]:
    """All degree-4 faces with their types, in face order."""
    types = _side_types(diagram)
    return tuple((diagram.faces[i], RectangleType(a_sides, types[FAMILY_B][i]))
                 for i, a_sides in types[FAMILY_A].items())


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


def _composed(diagram: Diagram, axis_family: str, types: dict[str, dict[int, SidePair]]):
    """`composed_rectangles` read off the diagram's `_side_types`, in the same
    order, yielded as plain tuples (axis, end_minus, end_plus, b_sides,
    face_minus, face_plus) with face indices."""
    out_port = PORTS[axis_family][0]
    words = diagram.a_words if axis_family == FAMILY_A else diagram.b_words
    axis_types, cross_types = types[axis_family], types[OTHER_FAMILY[axis_family]]
    faces, fod, alpha, cindex = diagram.faces, diagram._face_of_dart, diagram._alpha, diagram._cindex

    for axis, word in enumerate(words.values(), 1):
        minus, plus = (axis, MINUS), (axis, PLUS)
        for x in word:
            d = 4 * cindex[x] + out_port
            # the face left of the forward arc is on the plus side of the edge
            f_plus, f_minus = fod[d], fod[alpha[d]]
            if f_plus == f_minus or f_plus not in axis_types or f_minus not in axis_types:
                continue
            glued = 0
            for e in faces[f_minus].darts:
                if fod[alpha[e]] == f_plus:
                    glued += 1
            if glued != 1:
                continue
            # the outer side of each end: the one that is not its axis side
            (s, t), (u, v) = axis_types[f_minus], axis_types[f_plus]
            end_minus = t if s == minus else s if t == minus else None
            end_plus = v if u == plus else u if v == plus else None
            if end_minus is None or end_plus is None:
                raise DiagramError("rectangle does not lie on the expected side of its axis")
            cross = cross_types[f_minus]
            if cross_types[f_plus] != cross:
                raise DiagramError("composed rectangle with mismatched cross sides")
            yield axis, end_minus, end_plus, cross, f_minus, f_plus
