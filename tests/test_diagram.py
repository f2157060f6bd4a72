import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from heegaardrect.diagram import Diagram, DiagramError, _gather
from heegaardrect.criteria import CriteriaContext
from heegaardrect.diagramio import build_report, parse_diagram, report_to_json, serialize_diagram
from heegaardrect.twist import example_diagram

from conftest import (
    SWEEP,
    distinct_twisted_diagrams,
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
from map_oracles import (
    canonical_certificate,
    component_graph,
    disk_graph,
    face_of_dart,
    input_fault,
    intersection_number,
    is_isomorphic,
    relabel_crossings,
    reverse_curve,
    traced_faces,
)


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


UNORDERED = "curve and crossing ids must be hashable and mutually ordered"


@pytest.mark.parametrize("a_words, b_words, message", [
    ({}, {"b": ["x"]}, "empty first curve family"),
    ({"a": ["x"]}, {}, "empty second curve family"),
    ({"a": ["x"], "c": ["y"]}, {"a": ["x"], "b": ["y"]},
     "curve ids used in both families: ['a']"),
    ({"a": ["x"], "c": []}, {"b": ["x"]}, "curve c has an empty word"),
    ({"a": ["x"], "c": ["x"]}, {"b": ["x"]},
     "crossing x occurs twice in the first family"),
    ({"a": ["x"]}, {"b": ["x", "x"]},
     "crossing x occurs twice in the second family"),
    ({"a": ["x", "y", "z"]}, {"b": ["x", "w"]},
     "crossing occurrences do not match up: ['w', 'y', 'z']"),
    ({"a": ["x", 1]}, {"b": ["x", 1]}, UNORDERED),
    ({"a": ["x"], 1: ["y"]}, {"b": ["x", "y"]}, UNORDERED),
    ({"a": [["x"]]}, {"b": [["x"]]}, UNORDERED),
    # every token in place, one word of the second family empty
    ({"a": ["x"]}, {"b": ["x"], "c": []}, "curve c has an empty word"),
])
def test_word_check_messages(a_words, b_words, message):
    """Each malformed pair of families is named by its own exact message;
    ids that cannot be sorted together or hashed share one."""
    signs = {**dict.fromkeys("wxyz", 1), 1: 1}
    with pytest.raises(DiagramError) as exc:
        Diagram(a_words, b_words, signs)
    assert str(exc.value) == message


@pytest.mark.parametrize("a_words, b_words, signs, message", [
    # the first fault in curve order is named, whatever follows it
    ({"a": (), "b": (["x"],)}, {"c": ("x",)}, {"x": 1}, "curve a has an empty word"),
    ({"a": ("x", ["y"]), "c": ()}, {"b": ("x",)}, {"x": 1}, UNORDERED),
    ({"a": ("x",)}, {"b": (), "c": (["x"],)}, {"x": 1}, "curve b has an empty word"),
    ({"a": ("x",), "c": ("x",), "d": ()}, {"b": ("x",)}, {"x": 1},
     "crossing x occurs twice in the first family"),
    ({"a": ("x", "x")}, {"b": ("x", "y")}, {"x": 1, "y": 1},
     "crossing x occurs twice in the first family"),
    ({"a": ("x", "y")}, {"b": ("y", "z", "z")}, {"x": 1, "y": 1, "z": 1},
     "crossing z occurs twice in the second family"),
    # a missing sign is named before a bad one, and the least bad one
    ({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": 2}, "crossing y has no sign"),
    ({"a": ("x", "y")}, {"b": ("x", "y")}, {"y": 2}, "crossing x has no sign"),
    # a mapping with a default still lacks the crossings it does not hold
    ({"a": ("x", "y")}, {"b": ("x", "y")}, defaultdict(int, x=1), "crossing y has no sign"),
    ({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": 1, "y": True}, "crossing y: sign must be +1 or -1"),
    ({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": 1.0, "y": 1}, "crossing x: sign must be +1 or -1"),
    ({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": -1, "y": 0}, "crossing y: sign must be +1 or -1"),
    ({"a": ("x", "y")}, {"b": ("x", "y")}, {"x": 2, "y": 0}, "crossing x: sign must be +1 or -1"),
    # a repeated token is named before an unhashable one after it, within a
    # curve, across curves, and in the second family
    ({"a": ("x", "x", ["y"])}, {"b": ("x",)}, {"x": 1},
     "crossing x occurs twice in the first family"),
    ({"a": ("x",), "c": ("x", ["y"])}, {"b": ("x",)}, {"x": 1},
     "crossing x occurs twice in the first family"),
    ({"a": ("x", "y")}, {"b": ("x", "x", ["y"])}, {"x": 1, "y": 1},
     "crossing x occurs twice in the second family"),
])
def test_input_check_precedence(a_words, b_words, signs, message):
    """Where an input has several faults, the message names the one met first
    by a scan of the families, curve by curve and token by token, and then
    of the signs in crossing id order."""
    with pytest.raises(DiagramError) as exc:
        Diagram(a_words, b_words, signs)
    assert str(exc.value) == message
    assert input_fault(a_words, b_words, signs) == message


def _input_mutants(count: int, seed: int):
    """`count` seeded copies of the words and signs of sweep members and
    random twisted diagrams, each with one change: most add a fault (a
    dropped token, a token repeated within or across curves, an empty word,
    an unhashable or unorderable token in one family or both, one to three
    deleted signs, or signs of 0, 2, True or 1.0), and some keep it sound (a
    rotated word, or an unused sign).  Some faults keep every token count:
    a word emptied into another curve, a token replaced by a fresh id or by
    another token of its family (one id repeated, one missing), a curve given
    an id of the other family, or a token of the second family replaced by
    an `int`."""
    rng = random.Random(seed)
    corpus = [*(example_diagram(g, l) for g, l in SWEEP), *distinct_twisted_diagrams(40)]
    for _ in range(count):
        d = rng.choice(corpus)
        words = [{c: list(w) for c, w in d.a_words.items()},
                 {c: list(w) for c, w in d.b_words.items()}]
        signs = dict(d.signs)
        which = rng.randrange(2)
        family = words[which]
        curve = rng.choice(sorted(family))
        word = family[curve]
        k = rng.randrange(len(word))
        kind = rng.randrange(13)
        if kind == 0:
            del word[k]
        elif kind in (1, 2):  # within the curve, or into another of its family
            into = word if kind == 1 else family[rng.choice(sorted(set(family) - {curve}))]
            into.insert(rng.randrange(len(into) + 1), word[k])
        elif kind == 3:  # its tokens dropped, or moved to another curve of its family
            others = sorted(set(family) - {curve})
            if others and rng.randrange(2):
                family[rng.choice(others)] += word
            word.clear()
        elif kind == 4:
            token = rng.choice((["x"], {"x"}, 7, None))
            for target in [family] if rng.randrange(2) else words:
                into = target[rng.choice(sorted(target))]
                into.insert(rng.randrange(len(into) + 1), token)
        elif kind == 5:
            for x in rng.sample(sorted(signs), rng.randint(1, 3)):
                del signs[x]
        elif kind == 6:
            for x in rng.sample(sorted(signs), rng.randint(1, 3)):
                signs[x] = rng.choice((0, 2, True, 1.0))
        elif kind == 7:
            family[curve] = word[k:] + word[:k]
        elif kind == 8:
            signs["unused"] = 1
        elif kind == 9:
            word[k] = "fresh"
        elif kind == 10:
            word[k] = rng.choice([x for w in family.values() for x in w if x != word[k]])
        elif kind == 11:
            family[rng.choice(sorted(words[1 - which]))] = family.pop(curve)
        else:
            b_word = rng.choice(list(words[1].values()))
            b_word[rng.randrange(len(b_word))] = 7
        yield (*words, signs)


def test_input_checks_match_the_scan_oracle():
    """On 1,000 seeded mutants of valid inputs, `Diagram` raises exactly the
    message of the per-token scan oracle, or builds where it finds no fault."""
    built = 0
    for a_words, b_words, signs in _input_mutants(1000, 20261019):
        expected = input_fault(a_words, b_words, signs)
        try:
            Diagram(a_words, b_words, signs)
        except DiagramError as exc:
            assert str(exc) == expected, (a_words, b_words, signs)
        else:
            assert expected is None
            built += 1
    assert 0 < built < 1000


def test_sound_words_skip_the_scan(monkeypatch):
    """The size checks pass every sound input without the per-token scan,
    and hand every faulty one to it, which names the fault."""
    def scan(self):
        raise AssertionError("scanned")

    monkeypatch.setattr(Diagram, "_check_words", scan)
    for d in (example_diagram(3, 2), *distinct_twisted_diagrams(20)):
        Diagram(d.a_words, d.b_words, d.signs)
    faulty = [({"a": ("x", "y")}, {"b": ("x", "x")}), ({"a": ("x", "x")}, {"b": ("x", "y")}),
              ({"a": ("x", "y")}, {"b": ("x", "z")}), ({"a": ("x",)}, {"a": ("x",)}),
              ({"a": ("x", "y")}, {"b": ("x", 7)}), ({"a": ("x",), "c": ()}, {"b": ("x",)})]
    for a_words, b_words in faulty:
        with pytest.raises(AssertionError, match="scanned"):
            Diagram(a_words, b_words, {"x": 1, "y": 1, "z": 1})


@pytest.mark.parametrize("size", [0, 1, 2, 5])
def test_gather_gives_a_tuple_of_the_items(size):
    """`_gather` gives the items at the indices as a tuple whatever their
    count, one index included, over a list, a tuple and a dict; a missing
    index or key still raises."""
    items = [f"v{i}" for i in range(8)]
    idx = [7, 0, 3, 3, 5][:size]
    for seq in (items, tuple(items), {i: v for i, v in enumerate(items)}):
        got = _gather(seq, idx)
        assert type(got) is tuple and got == tuple(seq[i] for i in idx)
        with pytest.raises(KeyError if isinstance(seq, dict) else IndexError):
            _gather(seq, idx + [8])


def test_a_check_keeps_only_what_it_reads(monkeypatch):
    """A check of a file keeps on the diagram no id -> dart numbering, face
    offsets or orbit table, and on its contexts one cached swapped view,
    which has no diagram or validation of its own.  Each view keeps one G_k
    adjacency per piece, on that piece's own nodes with no tagged copy, and
    one composed index, grouped by axis, with no regrouped copy."""
    contexts = []
    analyse = CriteriaContext._analyse

    def recording(ctx, *args):
        contexts.append(ctx)
        return analyse(ctx, *args)

    monkeypatch.setattr(CriteriaContext, "_analyse", recording)
    report = build_report(parse_diagram(serialize_diagram(example_diagram(3, 32))))
    assert report["rc"]["holds"] and len(contexts) == 2
    ctx, swapped = contexts
    assert not {"_dart0", "_face_start", "_face_darts"} & vars(ctx.diagram).keys()
    assert ctx.swapped is ctx.swapped is swapped
    assert not hasattr(swapped, "diagram") and not hasattr(swapped, "validation")
    for view in contexts:
        assert view._component_adjs.keys() == set(range(1, view.m + 1))
        for k, adj in view._component_adjs.items():
            assert adj.keys() == view._nodes_a[k - 1]
        assert not hasattr(view, "_composed_at")
        assert all(isinstance(axis, int) and all(len(ends) == 2 for ends in by_ends)
                   for axis, by_ends in view.composed_index.items())


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
    `mate_of` and a rotation read off the crossing signs."""
    for d in face_oracle_cases():
        faces, face_of = traced_faces(d)
        assert [(f.index, f.darts, tuple((s.family, s.curve, s.side) for s in f.sides))
                for f in d.faces] == faces
        assert [face_of_dart(d, e) for e in range(4 * d.num_crossings)] == [
            face_of[e] for e in range(4 * d.num_crossings)]


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_face_degree_sum(make):
    d = make()
    assert sum(f.degree for f in d.faces) == 4 * d.num_crossings


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_orientation_reversal_preserves_faces(make):
    """Reversing one curve flips its signs but not the face structure."""
    d = make()
    for curve in (*d.a_words, *d.b_words):
        r = reverse_curve(d, curve)
        assert r.genus == d.genus
        assert sorted(f.degree for f in r.faces) == sorted(f.degree for f in d.faces)
        for x, cr in d.crossings.items():
            flipped = curve in (cr.a_curve, cr.b_curve)
            assert r.crossings[x].sign == (-cr.sign if flipped else cr.sign)


def test_swap_roles_exchanges_families():
    d = torus_one().swap_roles()
    assert tuple(d.a_words) == ("b",)
    assert tuple(d.b_words) == ("a",)
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
    """A multicurve map is a plain diagram whose second family is gamma alone:
    its families swap like any other's, and both views refuse every graph,
    since gamma is too few curves and cuts the surface to a nonplanar piece."""
    from heegaardrect.criteria import CriteriaContext
    from heegaardrect.twist import GAMMA, chain_base

    swapped = chain_base(2).swap_roles()
    assert tuple(swapped.a_words) == (GAMMA,) and swapped.genus == 2
    ctx = CriteriaContext(chain_base(3))
    for view in (ctx, ctx.swapped):
        for ask in (component_graph, disk_graph):
            with pytest.raises(DiagramError, match="^diagram fails validation: count, nonplanar$"):
                ask(view, 1)


def test_reduce_bigons_removes_and_preserves_genus():
    d = reducible_torus()
    assert d.bigon_faces()
    r = d.reduce_bigons()
    assert not r.bigon_faces()
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
    for d in distinct_twisted_diagrams(50):
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


def _turned(d: Diagram, rng: random.Random) -> Diagram:
    """`d` with each word rotated by a seeded amount, and both curve dicts and
    the signs given in reverse order."""
    turned = [{c: w[k:] + w[:k] for c, w, k in
               ((c, w, rng.randrange(len(w))) for c, w in reversed(words.items()))}
              for words in (d.a_words, d.b_words)]
    return Diagram(*turned, dict(reversed(d.signs.items())))


def _by_id(d: Diagram) -> tuple:
    """The dart codes and the faces, each dart named by its (crossing id, port);
    each face rotated to start at its least dart so named, the faces sorted."""
    ids = d._crossing_ids
    name = [(ids[e >> 2], e & 3) for e in range(4 * len(ids))]
    faces = []
    for f in range(len(d._face_lead)):
        orbit = [name[e] for e in d._orbit(f)]
        k = orbit.index(min(orbit))
        faces.append(tuple(orbit[k:] + orbit[:k]))
    return dict(zip(name, d._dart_code)), sorted(faces)


def test_numbering_follows_first_family_word_order(example_22, example_32, example_32_maximal):
    """Crossing i is the i-th token of the first family's words, read curve by
    curve in sorted curve id order, and owns darts 4i to 4i + 3.  Each word
    rotated and both curve dicts and the signs given in reverse order: the
    numbering follows the rotated words, and by (crossing id, port) the dart
    codes and the faces are unchanged, and so is the report."""
    rng = random.Random(20261019)
    corpus = [example_22, example_32, example_32_maximal,
              *(example_diagram(g, l) for g, l in SWEEP), *distinct_twisted_diagrams(50)]
    for d in corpus:
        r = _turned(d, rng)
        for m in (d, r):
            assert m._crossing_ids == tuple(x for c in sorted(m.a_words) for x in m.a_words[c])
            assert list(m.signs) == sorted(m.signs)
        assert r.signs == d.signs
        assert _by_id(r) == _by_id(d)
        assert report_to_json(build_report(r)) == report_to_json(build_report(d))


def test_bigon_order_ignores_the_numbering(monkeypatch):
    """`reduce_bigons` first takes the bigon whose least (crossing id, port)
    is least, so each word rotated and both curve dicts reversed give the same
    reduced diagram, or the same error: on the random bases and the raw
    splices of `dehn_twist` that `random_twisted_diagrams` reduces, turned
    four ways where there are several bigons to order."""
    raw = []
    reduce = Diagram.reduce_bigons

    def recording(d):
        raw.append(d)
        return reduce(d)

    monkeypatch.setattr(Diagram, "reduce_bigons", recording)
    for _ in random_twisted_diagrams(100):
        pass
    monkeypatch.undo()

    def outcome(d):
        try:
            return serialize_diagram(d.reduce_bigons())
        except DiagramError as exc:
            return str(exc)

    rng = random.Random(20261021)
    assert sum(len(d.bigon_faces()) > 1 for d in raw) >= 50
    for d in raw:
        for _ in range(4 if len(d.bigon_faces()) > 1 else 1):
            assert outcome(_turned(d, rng)) == outcome(d)


def test_face_trace_ends_on_turns_that_are_not_a_permutation():
    """A `_phi` that sends two darts to one ends the face trace in a
    `DiagramError`: no orbit walk goes on past the dart count."""
    d = example_diagram(3, 2)
    phi = d._phi
    message = "^corrupted map: the face turns are not a permutation$"
    for a, b in ((0, 1), (0, 5), (7, 2), (len(phi) - 1, 0)):
        turns = list(phi)
        turns[a] = turns[b]
        d._phi = tuple(turns)
        with pytest.raises(DiagramError, match=message):
            d._trace_faces()


def test_intersection_number():
    d = torus_one()
    assert intersection_number(d, "a", "b") == 1
    h = hexagon_diagram()
    assert intersection_number(h, "a1", "a2") == 0
    assert intersection_number(h, "a1", "b1") == 2
    assert intersection_number(h, "a1", "b2") == 1
    with pytest.raises(DiagramError, match="unknown curve"):
        intersection_number(d, "a", "nope")
