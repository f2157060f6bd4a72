import random

import pytest
from hypothesis import given, settings, strategies as st

from heegaardrect.diagram import Diagram, DiagramError, intersection_number

from conftest import (
    face_oracle_cases,
    fixture_cases,
    hexagon_diagram,
    random_twisted_diagrams,
    reducible_torus,
    split_components_diagram,
    sphere_bigons,
    torus_one,
    torus_two,
)
from map_oracles import canonical_certificate, is_isomorphic, relabel_crossings, traced_faces


def test_single_crossing_torus():
    """One crossing forces V=1, E=2, F=1 and genus 1 by the Euler formula."""
    d = torus_one()
    assert d.num_crossings == 1
    assert d.genus == 1
    assert len(d.faces) == 1
    face = d.faces[0]
    assert face.degree == 4
    sides = {(s.curve, s.side) for s in face.sides}
    assert sides == {("a", 1), ("a", -1), ("b", 1), ("b", -1)}


def test_two_crossing_torus_faces():
    d = torus_two()
    assert d.genus == 1
    assert sorted(f.degree for f in d.faces) == [4, 4]


def test_sphere_bigons_faces():
    d = sphere_bigons()
    assert d.genus == 0
    assert sorted(f.degree for f in d.faces) == [2, 2, 2, 2]


def test_duplicate_crossing_in_family_rejected():
    with pytest.raises(DiagramError, match="twice"):
        Diagram({"a": ["x", "x"]}, {"b": ["x"]}, {"x": 1})


def test_mismatched_occurrences_rejected():
    with pytest.raises(DiagramError, match="match up"):
        Diagram({"a": ["x", "y"]}, {"b": ["x"]}, {"x": 1, "y": 1})


def test_disconnected_rejected():
    with pytest.raises(DiagramError, match="disconnected"):
        Diagram(
            {"a1": ["x"], "a2": ["y"]},
            {"b1": ["x"], "b2": ["y"]},
            {"x": 1, "y": 1},
        )


def _darts_connected(a_words, b_words, signs) -> bool:
    """Whether the darts form one orbit of sigma and alpha, by a DFS over all
    4n darts built from the words and signs alone (ports and rotations as in
    the `diagram` module); the oracle of `Diagram`'s curve-level test."""
    index = {x: i for i, x in enumerate(sorted(x for w in a_words.values() for x in w))}
    sigma = [0] * (4 * len(index))
    for x, i in index.items():
        order = (0, 1, 2, 3) if signs[x] == 1 else (0, 3, 2, 1)
        for j in range(4):
            sigma[4 * i + order[j]] = 4 * i + order[(j + 1) % 4]
    alpha = [0] * len(sigma)
    for words, (out_port, in_port) in ((a_words, (0, 2)), (b_words, (1, 3))):
        for word in words.values():
            for x, y in zip(word, (*word[1:], word[0])):
                alpha[4 * index[x] + out_port] = 4 * index[y] + in_port
                alpha[4 * index[y] + in_port] = 4 * index[x] + out_port
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (sigma[d], alpha[d]):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return len(seen) == len(sigma)


def _parts(d: Diagram, tag: str) -> tuple:
    """The words and signs of `d`, with every curve and crossing id prefixed by `tag`."""
    def rename(words):
        return {tag + c: tuple(tag + x for x in w) for c, w in words.items()}

    return rename(d.a_words), rename(d.b_words), {tag + x: c.sign for x, c in d.crossings.items()}


def test_dart_dfs_accepts_every_diagram_that_builds(example_32_maximal):
    for d in fixture_cases(example_32_maximal):
        assert _darts_connected(*_parts(d, ""))
    assert not _darts_connected({"a1": ["x"], "a2": ["y"]}, {"b1": ["x"], "b2": ["y"]},
                                {"x": 1, "y": 1})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_disjoint_union_of_diagrams_is_disconnected(seed_p, seed_q):
    """Two diagrams side by side, renamed apart, share no dart orbit."""
    parts = [_parts(next(random_twisted_diagrams(1, seed)), tag)
             for seed, tag in ((seed_p, "p."), (seed_q, "q."))]
    for part in parts:
        Diagram(*part)
        assert _darts_connected(*part)
    union = [{**p, **q} for p, q in zip(*parts)]
    assert not _darts_connected(*union)
    with pytest.raises(DiagramError, match="disconnected"):
        Diagram(*union)


def test_unsigned_crossing_rejected():
    with pytest.raises(DiagramError, match="crossing x has no sign"):
        Diagram({"a": ["x"]}, {"b": ["x"]}, {})


@pytest.mark.parametrize("sign", [True, 1.0, 2, None, 0, "+"])
def test_sign_must_be_the_int_plus_or_minus_one(sign):
    """The least crossing id with a bad sign is named, before any map is built."""
    with pytest.raises(DiagramError, match="^crossing x: sign must be"):
        Diagram({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": sign, "y": -1})
    with pytest.raises(DiagramError, match="^crossing x: sign must be"):
        Diagram({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": sign, "y": sign})


def test_relabeling_must_cover_every_crossing():
    with pytest.raises(DiagramError, match="not a bijection"):
        relabel_crossings(hexagon_diagram(), {})
    with pytest.raises(DiagramError, match="not a bijection"):
        relabel_crossings(hexagon_diagram(), {"x0": "y0"})


def test_empty_family_rejected():
    with pytest.raises(DiagramError, match="empty"):
        Diagram({}, {"b": ["x"]}, {"x": 1})
    with pytest.raises(DiagramError, match="empty"):
        Diagram({"a": []}, {"b": []}, {})


@pytest.mark.parametrize("a_words, b_words, aux, message", [
    ({}, {"b": ["x"]}, False, "empty first curve family"),
    ({"a": ["x"]}, {}, False, "empty second curve family"),
    ({"a": ["x", "y"]}, {"b1": ["x"], "b2": ["y"]}, True,
     "a multicurve map has exactly one auxiliary curve"),
    ({"a": ["x"], "c": ["y"]}, {"a": ["x"], "b": ["y"]}, False,
     "curve ids used in both families: ['a']"),
    ({"a": ["x"], "c": []}, {"b": ["x"]}, False, "curve c has an empty word"),
    ({"a": ["x"], "c": ["x"]}, {"b": ["x"]}, False,
     "crossing x occurs twice in the first family"),
    ({"a": ["x"]}, {"b": ["x", "x"]}, False,
     "crossing x occurs twice in the second family"),
    ({"a": ["x", "y", "z"]}, {"b": ["x", "w"]}, False,
     "crossing occurrences do not match up: ['w', 'y', 'z']"),
])
def test_word_check_messages(a_words, b_words, aux, message):
    """Each malformed pair of families is named by its own exact message."""
    signs = dict.fromkeys("wxyz", 1)
    with pytest.raises(DiagramError) as exc:
        Diagram(a_words, b_words, signs, aux=aux)
    assert str(exc.value) == message


ALL_FIXTURES = [
    torus_one,
    torus_two,
    sphere_bigons,
    reducible_torus,
    hexagon_diagram,
    split_components_diagram,
]


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_euler_identity(make):
    """F - V = 2 - 2g on every fixture (E = 2V is implicit)."""
    d = make()
    assert len(d.faces) - d.num_crossings == 2 - 2 * d.genus


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_faces_alternate_families(make):
    d = make()
    for f in d.faces:
        assert f.degree % 2 == 0
        fams = [s.family for s in f.sides]
        for i, fam in enumerate(fams):
            assert fam != fams[(i + 1) % len(fams)]


def test_faces_match_the_traced_oracle():
    """The face tables, read back as `Face` objects, equal a trace through
    the public `mate` and a rotation read off the crossing signs."""
    for d in face_oracle_cases():
        faces, face_of = traced_faces(d)
        assert [(f.index, f.darts, tuple((s.family, s.curve, s.side) for s in f.sides))
                for f in d.faces] == faces
        assert [d.face_of_dart(e) for e in range(4 * d.num_crossings)] == [
            face_of[e] for e in range(4 * d.num_crossings)]


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_face_degree_sum(make):
    d = make()
    assert sum(f.degree for f in d.faces) == 4 * d.num_crossings


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_orientation_reversal_preserves_faces(make):
    """Reversing one curve flips its signs but not the face structure."""
    d = make()
    for curve in d.a_curve_ids() + d.b_curve_ids():
        r = d.reverse_curve(curve)
        assert r.genus == d.genus
        assert sorted(f.degree for f in r.faces) == sorted(f.degree for f in d.faces)
        for x, cr in d.crossings.items():
            flipped = curve in (cr.a_curve, cr.b_curve)
            assert r.crossings[x].sign == (-cr.sign if flipped else cr.sign)


def test_swap_roles_exchanges_families():
    d = torus_one().swap_roles()
    assert d.a_curve_ids() == ("b",)
    assert d.b_curve_ids() == ("a",)
    assert d.genus == 1


@pytest.mark.parametrize("make", [torus_one, torus_two, hexagon_diagram,
                                  split_components_diagram])
def test_swap_roles_involution(make):
    d = make()
    dd = d.swap_roles().swap_roles()
    assert dd.a_words == d.a_words
    assert dd.b_words == d.b_words
    assert {x: c.sign for x, c in dd.crossings.items()} == {
        x: c.sign for x, c in d.crossings.items()
    }


def test_swap_aux_map_rejected():
    from heegaardrect.twist import chain_base

    with pytest.raises(DiagramError, match="multicurve"):
        chain_base(2).swap_roles()


def test_reduce_bigons_removes_and_preserves_genus():
    d = reducible_torus()
    assert not d.is_bigon_free()
    r = d.reduce_bigons()
    assert r.is_bigon_free()
    assert r.genus == d.genus == 1
    assert r.num_crossings == 2


def test_reduce_bigons_idempotent_on_clean_input():
    d = torus_two()
    r = d.reduce_bigons()
    assert r is d


def test_reduce_bigons_curve_elimination():
    """Curves meeting only in bigons are disjoint up to isotopy: an error."""
    with pytest.raises(DiagramError, match="eliminated"):
        sphere_bigons().reduce_bigons()


def test_relabeling_gives_isomorphic_diagram():
    d = hexagon_diagram()
    mapping = {f"x{i}": f"y{9 - i}" for i in range(6)}
    r = relabel_crossings(d, mapping)
    assert is_isomorphic(r, d)
    assert is_isomorphic(d, r)


def test_certificate_distinguishes_sign_change():
    d = torus_two()
    other = Diagram({"a": ["x", "y"]}, {"b": ["x", "y"]}, {"x": 1, "y": -1})
    assert not is_isomorphic(d, other)


def test_certificate_on_random_diagrams():
    """A crossing relabeling keeps the certificate; a sign flip that changes
    the genus or the sorted face degrees, both isomorphism invariants,
    changes it."""
    rng = random.Random(7)
    changed = 0
    for d in random_twisted_diagrams(50):
        ids = list(d.crossings)
        shuffled = rng.sample(ids, len(ids))
        cert = canonical_certificate(d)
        assert canonical_certificate(relabel_crossings(d, dict(zip(ids, shuffled)))) == cert
        signs = {x: cr.sign for x, cr in d.crossings.items()}
        x = rng.choice(ids)
        signs[x] = -signs[x]
        flipped = Diagram(d.a_words, d.b_words, signs)
        if _invariants(flipped) != _invariants(d):
            changed += 1
            assert canonical_certificate(flipped) != cert
    assert changed


def _invariants(d):
    return d.genus, sorted(f.degree for f in d.faces)


@given(st.integers(0, 2), st.integers(0, 2))
def test_word_rotation_gives_same_diagram(i, j):
    """A cyclic word has no distinguished starting point."""
    a1 = ["x0", "x1", "x2"]
    b2 = ["x2", "x4", "x5"]
    d2 = Diagram(
        {"a1": a1[i:] + a1[:i], "a2": ["x3", "x4", "x5"]},
        {"b1": ["x0", "x1", "x3"], "b2": b2[j:] + b2[:j]},
        {"x0": 1, "x1": 1, "x2": 1, "x3": 1, "x4": -1, "x5": -1},
    )
    assert is_isomorphic(hexagon_diagram(), d2)


def test_intersection_number():
    d = torus_one()
    assert intersection_number(d, "a", "b") == 1
    h = hexagon_diagram()
    assert intersection_number(h, "a1", "a2") == 0
    assert intersection_number(h, "a1", "b1") == 2
    assert intersection_number(h, "a1", "b2") == 1
    with pytest.raises(DiagramError, match="unknown curve"):
        intersection_number(d, "a", "nope")
