"""Typed rectangles and composed rectangles among the faces of a diagram.

A rectangle is a degree-4 face; its type records, for each of the two
strands of either family on its boundary, which side of that curve the
face interior lies on.  A composed rectangle is a pair of rectangles glued
along an edge of an axis curve, crossing it from the minus to the plus
side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import A_OUT, B_OUT, FAMILY_A, FAMILY_B, Diagram, DiagramError, Face

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


def rectangle_faces(diagram: Diagram) -> tuple[tuple[Face, RectangleType], ...]:
    """All degree-4 faces with their types, in face order."""
    a_index = {c: i + 1 for i, c in enumerate(diagram.a_curve_ids())}
    b_index = {c: i + 1 for i, c in enumerate(diagram.b_curve_ids())}
    out = []
    for f in diagram.faces:
        if f.degree != 4:
            continue
        a_sides = [(a_index[s.curve], s.side) for s in f.sides if s.family == FAMILY_A]
        b_sides = [(b_index[s.curve], s.side) for s in f.sides if s.family == FAMILY_B]
        if len(a_sides) != 2 or len(b_sides) != 2:
            raise DiagramError(f"face {f.index} does not alternate families")
        out.append((f, RectangleType(_pair(*a_sides), _pair(*b_sides))))
    return tuple(out)


def _face_shared_edge_count(diagram: Diagram, f1: Face, f2: Face) -> int:
    """Number of edges shared by two distinct faces."""
    edges1 = {frozenset((d, diagram.mate(d))) for d in f1.darts}
    edges2 = {frozenset((d, diagram.mate(d))) for d in f2.darts}
    return len(edges1 & edges2)


def composed_rectangles(
    diagram: Diagram, axis_family: str = FAMILY_A
) -> tuple[tuple[ComposedRectangleType, Face, Face], ...]:
    """Composed rectangles over every axis-family edge, with their faces.

    For each edge of the axis family whose two adjacent faces are distinct
    rectangles glued along exactly this edge, the face on the minus side of
    the edge contributes the minus end and the plus-side face the plus end.
    The b-side pairs of the two constituents always agree.
    """
    if axis_family == FAMILY_A:
        axis_index = {c: i + 1 for i, c in enumerate(diagram.a_curve_ids())}
        other_index = {c: i + 1 for i, c in enumerate(diagram.b_curve_ids())}
        edges = diagram.a_edges()
        out_port = A_OUT
        axis_tag, other_tag = FAMILY_A, FAMILY_B
    elif axis_family == FAMILY_B:
        axis_index = {c: i + 1 for i, c in enumerate(diagram.b_curve_ids())}
        other_index = {c: i + 1 for i, c in enumerate(diagram.a_curve_ids())}
        edges = diagram.b_edges()
        out_port = B_OUT
        axis_tag, other_tag = FAMILY_B, FAMILY_A
    else:
        raise DiagramError(f"unknown family {axis_family!r}")

    out = []
    for curve, x, _y in edges:
        d_out = diagram.dart(x, out_port)
        # the face left of the forward arc is on the plus side of the edge
        f_plus_i = diagram.face_of_dart(d_out)
        f_minus_i = diagram.face_of_dart(diagram.mate(d_out))
        if f_plus_i == f_minus_i:
            continue
        f_plus, f_minus = diagram.faces[f_plus_i], diagram.faces[f_minus_i]
        if f_plus.degree != 4 or f_minus.degree != 4:
            continue
        if _face_shared_edge_count(diagram, f_minus, f_plus) != 1:
            continue
        axis = axis_index[curve]
        end_minus = _outer_axis_side(f_minus, curve, -1, axis_index, axis_tag)
        end_plus = _outer_axis_side(f_plus, curve, 1, axis_index, axis_tag)
        b_minus = _pair(*[(other_index[s.curve], s.side)
                          for s in f_minus.sides if s.family == other_tag])
        b_plus = _pair(*[(other_index[s.curve], s.side)
                         for s in f_plus.sides if s.family == other_tag])
        if b_minus != b_plus:
            raise DiagramError("composed rectangle with mismatched cross sides")
        out.append(
            (
                ComposedRectangleType(axis, end_minus, end_plus, b_minus),
                f_minus,
                f_plus,
            )
        )
    return tuple(out)


def _outer_axis_side(
    face: Face, axis_curve: str, inner_side: int, axis_index: dict, axis_tag: str
) -> tuple[int, int]:
    """The axis-family side of `face` other than (axis_curve, inner_side)."""
    sides = [(axis_index[s.curve], s.side) for s in face.sides if s.family == axis_tag]
    inner = (axis_index[axis_curve], inner_side)
    if inner not in sides:
        raise DiagramError("rectangle does not lie on the expected side of its axis")
    sides.remove(inner)
    return sides[0]
