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
    return _composed(diagram, axis_family, _side_types(diagram))


def _composed(diagram: Diagram, axis_family: str, types: dict[str, dict[int, SidePair]]):
    """`composed_rectangles` read off the diagram's `_side_types`."""
    out_port = PORTS[axis_family][0]
    axis_ids = diagram.a_curve_ids() if axis_family == FAMILY_A else diagram.b_curve_ids()
    axis_index = {c: i + 1 for i, c in enumerate(axis_ids)}
    axis_types, cross_types = types[axis_family], types[OTHER_FAMILY[axis_family]]
    faces, face_of, mate = diagram.faces, diagram.face_of_dart, diagram.mate

    out = []
    for curve, x, _y in diagram.edges(axis_family):
        d_out = diagram.dart(x, out_port)
        # the face left of the forward arc is on the plus side of the edge
        f_plus, f_minus = face_of(d_out), face_of(mate(d_out))
        if f_plus == f_minus or f_plus not in axis_types or f_minus not in axis_types:
            continue
        if sum(face_of(mate(d)) == f_plus for d in faces[f_minus].darts) != 1:
            continue
        axis = axis_index[curve]
        ends = []
        for f, inner in ((f_minus, (axis, MINUS)), (f_plus, (axis, PLUS))):
            sides = axis_types[f]
            if inner not in sides:
                raise DiagramError("rectangle does not lie on the expected side of its axis")
            ends.append(sides[1 - sides.index(inner)])
        cross = cross_types[f_minus]
        if cross_types[f_plus] != cross:
            raise DiagramError("composed rectangle with mismatched cross sides")
        out.append((ComposedRectangleType(axis, *ends, cross), faces[f_minus], faces[f_plus]))
    return tuple(out)
