from collections import Counter

import pytest

from heegaardrect.criteria import CriteriaContext
from heegaardrect.diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError,
)
from heegaardrect.rectangles import (
    ComposedRectangleType,
    SidePair,
    _composed,
    _side_types,
    composed_rectangles,
    rectangle_faces,
)

from conftest import (
    face_oracle_cases, fixture_cases, hexagon_diagram, maximal_subsystems,
    split_components_diagram, torus_one, torus_two,
)
from map_oracles import edges, reverse_curve


def test_torus_rectangle_type():
    (face, rtype), = rectangle_faces(torus_one())
    assert rtype.a_sides == ((1, MINUS), (1, PLUS))
    assert rtype.b_sides == ((1, MINUS), (1, PLUS))


def test_hexagon_fixture_has_no_rectangles():
    assert rectangle_faces(hexagon_diagram()) == ()
    assert composed_rectangles(hexagon_diagram(), FAMILY_A) == ()
    assert composed_rectangles(hexagon_diagram(), FAMILY_B) == ()


@pytest.mark.parametrize("make", [torus_one, torus_two, split_components_diagram])
def test_every_square_listed_once(make):
    d = make()
    listed = [f.index for f, _ in rectangle_faces(d)]
    squares = [f.index for f in d.faces if f.degree == 4]
    assert listed == squares


def test_example_rectangle_types_cover_hexagon_pairs(example_32):
    """Every neighbor pair of the transversal-curve walk bounds rectangles."""
    pairs = Counter(t.a_sides for _, t in rectangle_faces(example_32))
    hexagon = [
        ((1, MINUS), (1, PLUS)), ((1, PLUS), (2, MINUS)), ((2, MINUS), (2, PLUS)),
        ((2, PLUS), (3, MINUS)), ((3, MINUS), (3, PLUS)), ((1, MINUS), (3, PLUS)),
    ]
    for p in hexagon:
        assert pairs[p] > 0


def test_composed_rectangles_share_cross_sides(example_32):
    comps = composed_rectangles(example_32, FAMILY_A)
    assert comps
    for ctype, f_minus, f_plus in comps:
        assert f_minus.index != f_plus.index
        assert isinstance(ctype, ComposedRectangleType)


def test_composed_axis_ends_in_punctured_sets(example_32):
    from heegaardrect.criteria import CriteriaContext

    ctx = CriteriaContext(example_32)
    for ctype, _, _ in composed_rectangles(example_32, FAMILY_A):
        lam_minus = ctx.lambda_of(ctype.axis, MINUS)
        lam_plus = ctx.lambda_of(ctype.axis, PLUS)
        assert ctype.end_minus in lam_minus
        assert ctype.end_plus in lam_plus


@pytest.mark.parametrize(
    "make,family,expected",
    [
        (torus_one, FAMILY_A, []),
        (torus_one, FAMILY_B, []),
        (torus_two, FAMILY_A, []),
        (torus_two, FAMILY_B, []),
        (split_components_diagram, FAMILY_A,
         [(ComposedRectangleType(2, (1, PLUS), (3, PLUS), ((1, PLUS), (2, MINUS))), 2, 1)]),
        (split_components_diagram, FAMILY_B, []),
    ],
)
def test_composed_rectangles_on_small_fixtures(make, family, expected):
    """Fixed types on the fixtures that reach the skips: the one square of
    torus_one meets itself across its axis edges, and the two squares of
    torus_two share more than one edge."""
    got = [(t, f_minus.index, f_plus.index)
           for t, f_minus, f_plus in composed_rectangles(make(), family)]
    assert got == expected


@pytest.mark.parametrize("make", [torus_two, hexagon_diagram,
                                  split_components_diagram])
def test_swap_consistency(make):
    """Composing along the second family = swapped first-family composition."""
    d = make()
    direct = Counter(t for t, _, _ in composed_rectangles(d, FAMILY_B))
    swapped = Counter(t for t, _, _ in composed_rectangles(d.swap_roles(), FAMILY_A))
    assert direct == swapped


def test_swap_consistency_example(example_32):
    direct = Counter(t for t, _, _ in composed_rectangles(example_32, FAMILY_B))
    swapped = Counter(
        t for t, _, _ in composed_rectangles(example_32.swap_roles(), FAMILY_A)
    )
    assert direct == swapped


def test_rectangle_types_equivariant_under_curve_renaming():
    """Renaming curves permutes the indices in every type, nothing else."""
    d = hexagon_diagram()
    renamed = Diagram(  # a1 -> a9 makes the old a2 the new first curve
        {"a9": d.a_words["a1"], "a2": d.a_words["a2"]},
        d.b_words,
        {x: c.sign for x, c in d.crossings.items()},
    )
    swap = {1: 2, 2: 1}
    before = {
        tuple(sorted((swap[i], s) for i, s in t.a_sides))
        for _, t in rectangle_faces(d)
    }
    after = {t.a_sides for _, t in rectangle_faces(renamed)}
    assert before == after


def test_rectangle_types_equivariant_under_reversal(example_22):
    """Reversing a curve flips its side labels in every type, nothing else."""
    d = example_22
    curve = "d1"

    def flip(p):
        return (p[0], -p[1]) if p[0] == 1 else p

    before = Counter(
        (tuple(sorted(map(flip, t.a_sides))), t.b_sides)
        for _, t in rectangle_faces(d)
    )
    after = Counter(
        (t.a_sides, t.b_sides) for _, t in rectangle_faces(reverse_curve(d, curve))
    )
    assert before == after


def _composed_by_edges(diagram: Diagram, axis_family: str, types: dict[str, dict[int, SidePair]]):
    """The per-edge `composed_rectangles`, kept as the oracle of the index
    loops: it walks `Diagram.edges` through the public dart queries and
    counts the glued edges with a generator."""
    out_port = PORTS[axis_family][0]
    axis_ids = diagram.a_curve_ids() if axis_family == FAMILY_A else diagram.b_curve_ids()
    axis_index = {c: i + 1 for i, c in enumerate(axis_ids)}
    axis_types, cross_types = types[axis_family], types[OTHER_FAMILY[axis_family]]
    faces, face_of, mate = diagram.faces, diagram.face_of_dart, diagram.mate

    out = []
    for curve, x, _y in edges(diagram, axis_family):
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


def test_composed_rectangles_match_the_per_edge_oracle(example_32_maximal):
    """The index loops give the per-edge scan's composed rectangles, in its
    order, for both axis families."""
    for d in fixture_cases(example_32_maximal):
        # face index -> side pair, for the rectangles only
        types = {family: {i: t for i, t in enumerate(ts) if t is not None}
                 for family, ts in _side_types(d).items()}
        for family in (FAMILY_A, FAMILY_B):
            assert composed_rectangles(d, family) == _composed_by_edges(d, family, types)


def test_index_invariants_hold_in_both_views(example_32_maximal):
    """What the context's indexes rely on without checking: a rectangle's
    b-sides are labels in A*_l of its face's piece l, and so are the ends of
    every index edge at l; the two faces of a composed rectangle lie in one
    piece, the minus face has the side (axis, -) and the plus face
    (axis, +), and the two have the same cross sides."""
    cases = [*face_oracle_cases(), *fixture_cases(example_32_maximal), *maximal_subsystems(50)]
    for d in cases:
        ctx = CriteriaContext(d)
        for view in (ctx, ctx.swapped):
            first, second, types = view._first, OTHER_FAMILY[view._first], view._types
            piece = {f: comp.index for comp in view.comps_b for f in comp.faces}
            for f, b_sides in enumerate(types[second]):
                if b_sides is not None:
                    assert set(b_sides) <= view.a_star_set(piece[f])
            for axis, _, _, cross, f_minus, f_plus in _composed(d, first, types):
                assert piece[f_minus] == piece[f_plus]
                assert (axis, MINUS) in types[first][f_minus]
                assert (axis, PLUS) in types[first][f_plus]
                assert cross == types[second][f_minus] == types[second][f_plus]
            for index in (view.rect_index, view.composed_index):
                for by_l in index.values():
                    for l, edges in by_l.items():
                        assert {v for edge in edges for v in edge} <= view.a_star_set(l)
