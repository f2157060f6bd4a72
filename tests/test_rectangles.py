from collections import Counter

import pytest

from heegaardrect import criteria
from heegaardrect.criteria import CriteriaContext
from heegaardrect.diagram import (
    FAMILY_A, FAMILY_B, MINUS, OTHER_FAMILY, PLUS, PORTS, Diagram, DiagramError,
)

from conftest import (
    face_oracle_cases, fixture_cases, hexagon_diagram, maximal_subsystems, mixed_gluing_diagram,
    split_components_diagram, torus_one, torus_two,
)
from map_oracles import (
    _composed, _side_types, dart_of, decoded_indexes, edges, face_of_dart, lambda_of, mate_of,
    reverse_curve,
)


def composed(d: Diagram, family: str) -> list:
    """The composed rectangles of `d` along `family`, edge by edge (the oracle)."""
    return list(_composed(d, family, _side_types(d)))


def test_torus_rectangle_type():
    types = _side_types(torus_one())
    i, = (i for i, t in enumerate(types[FAMILY_A]) if t is not None)
    assert types[FAMILY_A][i] == ((1, MINUS), (1, PLUS))
    assert types[FAMILY_B][i] == ((1, MINUS), (1, PLUS))


def test_hexagon_fixture_has_no_rectangles():
    types = _side_types(hexagon_diagram())
    assert set(types[FAMILY_A]) == set(types[FAMILY_B]) == {None}
    assert composed(hexagon_diagram(), FAMILY_A) == []
    assert composed(hexagon_diagram(), FAMILY_B) == []


@pytest.mark.parametrize("make", [torus_one, torus_two, split_components_diagram])
def test_every_square_listed_once(make):
    """Each family's side types are set exactly on the degree-4 faces."""
    d = make()
    squares = [f.index for f in d.faces if f.degree == 4]
    for family_types in _side_types(d).values():
        assert len(family_types) == len(d.faces)
        assert [i for i, t in enumerate(family_types) if t is not None] == squares


def test_example_rectangle_types_cover_hexagon_pairs(example_32):
    """Every neighbor pair of the transversal-curve walk bounds rectangles."""
    pairs = Counter(t for t in _side_types(example_32)[FAMILY_A] if t is not None)
    hexagon = [
        ((1, MINUS), (1, PLUS)), ((1, PLUS), (2, MINUS)), ((2, MINUS), (2, PLUS)),
        ((2, PLUS), (3, MINUS)), ((3, MINUS), (3, PLUS)), ((1, MINUS), (3, PLUS)),
    ]
    for p in hexagon:
        assert pairs[p] > 0


def test_composed_rectangles_share_cross_sides(example_32):
    b_types = _side_types(example_32)[FAMILY_B]
    comps = composed(example_32, FAMILY_A)
    assert comps
    for *_, b_sides, f_minus, f_plus in comps:
        assert f_minus != f_plus
        assert b_sides == b_types[f_minus] == b_types[f_plus]


def test_composed_axis_ends_in_punctured_sets(example_32):
    ctx = CriteriaContext(example_32)
    for axis, end_minus, end_plus, *_ in composed(example_32, FAMILY_A):
        assert end_minus in lambda_of(ctx, axis, MINUS)
        assert end_plus in lambda_of(ctx, axis, PLUS)


@pytest.mark.parametrize(
    "make,family,expected",
    [
        (torus_one, FAMILY_A, []),
        (torus_one, FAMILY_B, []),
        (torus_two, FAMILY_A, []),
        (torus_two, FAMILY_B, []),
        (split_components_diagram, FAMILY_A,
         [(2, (1, PLUS), (3, PLUS), ((1, PLUS), (2, MINUS)), 2, 1)]),
        (split_components_diagram, FAMILY_B, []),
    ],
)
def test_composed_rectangles_on_small_fixtures(make, family, expected):
    """Fixed types on the fixtures that reach the skips: the one square of
    torus_one meets itself across its axis edges, and the two squares of
    torus_two share more than one edge."""
    assert composed(make(), family) == expected


@pytest.mark.parametrize("make", [torus_two, hexagon_diagram,
                                  split_components_diagram])
def test_swap_consistency(make):
    """Composing along the second family = swapped first-family composition."""
    d = make()
    direct = Counter(t[:4] for t in composed(d, FAMILY_B))
    swapped = Counter(t[:4] for t in composed(d.swap_roles(), FAMILY_A))
    assert direct == swapped


def test_swap_consistency_example(example_32):
    direct = Counter(t[:4] for t in composed(example_32, FAMILY_B))
    swapped = Counter(t[:4] for t in composed(example_32.swap_roles(), FAMILY_A))
    assert direct == swapped


def test_rectangle_types_equivariant_under_curve_renaming():
    """Renaming curves permutes the indices in every type, nothing else."""
    d = hexagon_diagram()
    renamed = Diagram(  # a1 -> a9 makes the old a2 the new first curve
        {"a9": d.a_words["a1"], "a2": d.a_words["a2"]},
        d.b_words,
        d.signs,
    )
    swap = {1: 2, 2: 1}
    before = {
        tuple(sorted((swap[i], s) for i, s in t))
        for t in _side_types(d)[FAMILY_A] if t is not None
    }
    after = {t for t in _side_types(renamed)[FAMILY_A] if t is not None}
    assert before == after


def test_rectangle_types_equivariant_under_reversal(example_22):
    """Reversing a curve flips its side labels in every type, nothing else."""
    d = example_22
    curve = "d1"

    def flip(p):
        return (p[0], -p[1]) if p[0] == 1 else p

    def rectangles(d):
        types = _side_types(d)
        return [(a, b) for a, b in zip(types[FAMILY_A], types[FAMILY_B]) if a is not None]

    before = Counter((tuple(sorted(map(flip, a))), b) for a, b in rectangles(d))
    after = Counter(rectangles(reverse_curve(d, curve)))
    assert before == after


def _composed_by_edges(diagram: Diagram, axis_family: str, types: dict[str, dict[int, tuple]]):
    """The composed rectangles edge by edge, kept as the oracle of `_composed`:
    it walks the words' edges through the oracles' dart queries and counts the
    glued edges with a generator.  It gives the same plain tuples (axis,
    end_minus, end_plus, b_sides, face_minus, face_plus)."""
    out_port = PORTS[axis_family][0]
    axis_ids = diagram.a_curve_ids() if axis_family == FAMILY_A else diagram.b_curve_ids()
    axis_index = {c: i + 1 for i, c in enumerate(axis_ids)}
    axis_types, cross_types = types[axis_family], types[OTHER_FAMILY[axis_family]]
    faces = diagram.faces

    def face_of(e):
        return face_of_dart(diagram, e)

    def mate(e):
        return mate_of(diagram, e)

    out = []
    for curve, x, _y in edges(diagram, axis_family):
        d_out = dart_of(diagram, x, out_port)
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
        out.append((axis, *ends, cross, f_minus, f_plus))
    return out


def test_composed_rectangles_match_the_per_edge_oracle(example_32_maximal):
    """The curve walk gives the per-edge scan's composed rectangles, in its
    order, for both axis families."""
    for d in fixture_cases(example_32_maximal):
        # face index -> side pair, for the rectangles only
        types = {family: {i: t for i, t in enumerate(ts) if t is not None}
                 for family, ts in _side_types(d).items()}
        for family in (FAMILY_A, FAMILY_B):
            assert composed(d, family) == _composed_by_edges(d, family, types)


def test_index_invariants_hold_in_both_views(example_32_maximal):
    """What the context's indexes rely on without checking: a rectangle's
    b-sides are labels in A*_l of its face's piece l, and so are the ends of
    every index edge at l; the two faces of a composed rectangle lie in one
    piece, the minus face has the side (axis, -) and the plus face
    (axis, +), and the two have the same cross sides."""
    cases = [*face_oracle_cases(), *fixture_cases(example_32_maximal), *maximal_subsystems(50)]
    for d in cases:
        ctx, types = CriteriaContext(d), _side_types(d)
        for view, first in ((ctx, FAMILY_A), (ctx.swapped, FAMILY_B)):
            second = OTHER_FAMILY[first]
            piece = {f: comp.index for comp in view.comps_b for f in comp.faces}
            for f, b_sides in enumerate(types[second]):
                if b_sides is not None:
                    assert set(b_sides) <= view.a_star_set(piece[f])
            for axis, _, _, cross, f_minus, f_plus in _composed(d, first, types):
                assert piece[f_minus] == piece[f_plus]
                assert (axis, MINUS) in types[first][f_minus]
                assert (axis, PLUS) in types[first][f_plus]
                assert cross == types[second][f_minus] == types[second][f_plus]
            for index in decoded_indexes(view):
                for by_l in index.values():
                    for l, edges in by_l.items():
                        assert {v for edge in edges for v in edge} <= view.a_star_set(l)


def _oracle_indexes(d: Diagram, first: str, comps_b: tuple) -> tuple[dict, dict]:
    """`rect_index` and `composed_index` of the view of `d` whose first family
    is `first`, built face by face and edge by edge from the oracles: no loop
    b-sides, and a composed rectangle filed under the piece of its minus face;
    `comps_b` numbers the pieces."""
    second, types = OTHER_FAMILY[first], _side_types(d)
    piece = {f: comp.index for comp in comps_b for f in comp.faces}
    rect: dict = {}
    for f, (a_sides, b_sides) in enumerate(zip(types[first], types[second])):
        if a_sides is not None and b_sides[0] != b_sides[1]:
            rect.setdefault(a_sides, {}).setdefault(piece[f], set()).add(b_sides)
    composed: dict = {}
    for axis, end_minus, end_plus, b_sides, f_minus, _ in _composed(d, first, types):
        if b_sides[0] != b_sides[1]:
            composed.setdefault((axis, end_minus, end_plus), {}).setdefault(
                piece[f_minus], set()).add(b_sides)
    return rect, composed


def test_indexes_match_the_oracles_in_both_views(example_32_maximal, monkeypatch):
    """Both views' indexes, built from the class table, equal the ones built
    face by face and edge by edge, on corpora that reach every outcome of
    the glued-once rule.  Classes with complementary ends have their first
    edge checked: it is glued once on most; twice on torus_one (whose square
    meets itself), torus_two (whose squares share two edges) and
    split_components_diagram, where no other edge of the classes is glued
    once; and twice on mixed_gluing_diagram, where the scan of the other
    edges finds one glued once."""
    glued_once, outcomes = criteria._glued_once, []

    def recording(surface, family, x):
        outcomes.append((family, result := glued_once(surface, family, x)))
        return result

    def check(cases):
        for d in cases:
            ctx = CriteriaContext(d)
            for view, first in ((ctx, FAMILY_A), (ctx.swapped, FAMILY_B)):
                rect, composed = _oracle_indexes(d, first, view.comps_b)
                rect_index, composed_index = decoded_indexes(view)
                assert rect_index == rect
                assert composed_index == composed

    monkeypatch.setattr(criteria, "_glued_once", recording)
    check([*fixture_cases(example_32_maximal), *face_oracle_cases(), *maximal_subsystems(50)])
    assert {result for _, result in outcomes} == {True, False}
    outcomes.clear()
    check([torus_two()])
    assert {result for _, result in outcomes} == {False}
    outcomes.clear()
    check([mixed_gluing_diagram()])
    assert [result for family, result in outcomes if family == FAMILY_B] == [False, False, True]
