"""Diagram machinery that only the tests use, kept here as oracles.

The input checks as one per-token scan, the dart queries, crossing
relabeling, curve reversal, restriction to sub-families, stabilization, an
isomorphism test by canonical certificate, edges and intersection numbers
read off the words, a face trace through the dart queries, the cut
components by a union of faces, the rectangle and composed rectangle types
face by face and edge by edge, the gluing test and the bigon list by their
definitions, the oracle of the criteria's class table, the criteria's nodes
and rectangle indexes read back as (curve index, side) labels, a context's
punctured label sets and first failing l of a pair, and the criteria graphs
as label graphs: G_k, H_d and the detail graphs read off a context's node
adjacencies, H_d assembled disk by disk, with an adjacency, a
2-connectivity predicate and the pair witness of such a graph.  None of it
is on the check or generate path of the package, which keeps every graph as
a node adjacency only.
"""

from typing import NamedTuple, Optional
from weakref import WeakKeyDictionary

from heegaardrect.criteria import _adjacency, _pair_witness, _two_connected_failure, _vertex
from heegaardrect.diagram import (
    A_IN, A_OUT, B_IN, B_OUT, FAMILY_A, FAMILY_B, OTHER_FAMILY, PORTS, Diagram, DiagramError,
    MINUS, PLUS, side_str,
)
from heegaardrect.systems import CutComponent, _label, _node


# -- input checks ------------------------------------------------------------------


UNORDERED = "curve and crossing ids must be hashable and mutually ordered"


def input_fault(a_words, b_words, signs):
    """The message `Diagram` raises for these words and signs, or None when
    they pass its input checks: the first fault of a scan of the families,
    curve by curve and token by token, then of the signs in crossing id
    order.  Curve and crossing ids that cannot be sorted or hashed share one
    message.
    """
    try:
        families = [({c: tuple(w) for c, w in sorted(words.items())}, which)
                    for words, which in ((a_words, "first"), (b_words, "second"))]
        for words, which in families:
            if not words:
                return f"empty {which} curve family"
        dup = set(families[0][0]) & set(families[1][0])
        if dup:
            return f"curve ids used in both families: {sorted(dup)}"
        ids = []
        for words, which in families:
            seen = set()
            for curve, word in words.items():
                if not word:
                    return f"curve {curve} has an empty word"
                for x in word:
                    if x in seen:
                        return f"crossing {x} occurs twice in the {which} family"
                    seen.add(x)
            ids.append(seen)
        if ids[0] != ids[1]:
            return f"crossing occurrences do not match up: {sorted(ids[0] ^ ids[1])}"
        ids = sorted(ids[0])
    except TypeError:
        return UNORDERED
    for x in ids:
        if x not in signs:
            return f"crossing {x} has no sign"
    for x in ids:
        if type(signs[x]) is not int or signs[x] not in (MINUS, PLUS):
            return f"crossing {x}: sign must be +1 or -1"
    return None


# -- dart queries ------------------------------------------------------------------


def crossing_ids(d: Diagram) -> tuple:
    """The crossing ids in first-family word order, curve by curve in sorted
    curve id order, read off the words: crossing i owns darts 4i to 4i + 3."""
    return tuple(x for curve in sorted(d.a_words) for x in d.a_words[curve])


_NUMBERS: WeakKeyDictionary = WeakKeyDictionary()


def dart_of(d: Diagram, crossing, port: int) -> int:
    """Dart `port` of `crossing`, an id of `d`, at its index in `crossing_ids`."""
    number = _NUMBERS.get(d)
    if number is None:
        number = _NUMBERS[d] = {x: i for i, x in enumerate(crossing_ids(d))}
    return 4 * number[crossing] + port


def mate_of(d: Diagram, e: int) -> int:
    """The other dart of the same edge."""
    return d._alpha[e]


def face_of_dart(d: Diagram, e: int) -> int:
    return d._face_of_dart[e]


# -- relabeling and isomorphism ----------------------------------------------------


def relabel_crossings(d: Diagram, mapping) -> Diagram:
    if d.signs.keys() - mapping.keys() or len(set(mapping.values())) != len(mapping):
        raise DiagramError("crossing relabeling is not a bijection")
    a_words = {c: tuple(mapping[x] for x in w) for c, w in d.a_words.items()}
    b_words = {c: tuple(mapping[x] for x in w) for c, w in d.b_words.items()}
    signs = {mapping[x]: sign for x, sign in d.signs.items()}
    return Diagram(a_words, b_words, signs)


def reverse_curve(d: Diagram, curve: str) -> Diagram:
    """Reverse the orientation of one curve; its crossing signs flip."""
    words = [dict(d.a_words), dict(d.b_words)]
    family = next((w for w in words if curve in w), None)
    if family is None:
        raise DiagramError(f"unknown curve id {curve!r}")
    on_curve = set(family[curve])
    family[curve] = family[curve][::-1]
    signs = {x: -sign if x in on_curve else sign for x, sign in d.signs.items()}
    return Diagram(*words, signs)


def restricted(d: Diagram, keep_a, keep_b) -> Diagram:
    """The diagram of the curves `keep_a` and `keep_b` only: it keeps the
    crossings whose two curves both survive, in their order along each curve."""
    kept = {x for c in keep_a for x in d.a_words[c]} & {x for c in keep_b for x in d.b_words[c]}
    a_words = {c: tuple(x for x in d.a_words[c] if x in kept) for c in keep_a}
    b_words = {c: tuple(x for x in d.b_words[c] if x in kept) for c in keep_b}
    signs = {x: sign for x, sign in d.signs.items() if x in kept}
    return Diagram(a_words, b_words, signs)


def stabilized(d: Diagram, curve: str, position: int, signs, family: str = "b",
               prefix: str = "y") -> Diagram:
    """`d` with one handle added, y2 inserted before index `position` of the
    curve `curve` of `family` ("a" or "b"); `signs` gives the signs of y and y2.

    Into a b-curve: the new a-curve is (y, y2) and the new b-curve (y).  Into
    an a-curve: the new b-curve is (y, y2) and the new a-curve (y).  The new
    b-curve meets the new a-curve once, so the Heegaard splitting is stabilized.
    The new ids y, y2, ya and yb start with `prefix` in place of y, so a
    diagram can be stabilized again under another prefix.
    """
    y, y2, ya, yb = prefix, prefix + "2", prefix + "a", prefix + "b"
    if {y, y2} & d.signs.keys() or ya in d.a_words or yb in d.b_words:
        raise DiagramError("the ids of the new handle are taken")
    a_words, b_words = dict(d.a_words), dict(d.b_words)
    into, other = (a_words, b_words) if family == "a" else (b_words, a_words)
    word = into[curve]
    into[curve] = word[:position] + (y2,) + word[position:]
    into[ya if family == "a" else yb] = (y,)
    other[yb if family == "a" else ya] = (y, y2)
    return Diagram(a_words, b_words, {**d.signs, y: signs[0], y2: signs[1]})


def canonical_certificate(d: Diagram) -> tuple:
    """A relabeling-invariant certificate of the diagram.

    Two diagrams with the same curve ids are isomorphic (equal up to a
    bijection of crossing ids) iff their certificates are equal.  The
    certificate is the lexicographic minimum of a deterministic traversal
    normal form recording signs, curve ids and port structure, over all
    roots in one dart class chosen the same way in any isomorphic diagram:
    the smallest class, least colour first, of colour refinement over the
    rotation `sigma_inv` and the edge involution `alpha`.
    """
    colours = [(port, cr.sign, cr.a_curve, cr.b_curve)
               for cr in d.crossings.values() for port in range(4)]
    best = None
    maps = _rotation(d), d._alpha
    for root in _root_class(maps, colours):
        cert = _rooted_certificate(maps, root, colours)
        if best is None or cert < best:
            best = cert
    return best


def _rotation(d: Diagram) -> list[int]:
    """The next dart clockwise at its crossing of every dart, read off the
    crossing signs and the counterclockwise port order of each sign (`CCW`)."""
    sigma_inv = [0] * (4 * d.num_crossings)
    for x, sign in d.signs.items():
        order = CCW[sign]
        for before, port in zip(order[-1:] + order[:-1], order):
            sigma_inv[dart_of(d, x, port)] = dart_of(d, x, before)
    return sigma_inv


def _root_class(maps: tuple, colours: list) -> list[int]:
    """Refine the dart colours over the maps (sigma_inv, alpha) until a class
    is a singleton or none splits."""
    sigma_inv, alpha = maps
    colour, classes = colours, 0
    while True:
        number = {c: i for i, c in enumerate(sorted(set(colour)))}
        colour = [number[c] for c in colour]
        sizes = [0] * len(number)
        for c in colour:
            sizes[c] += 1
        if len(number) == classes or 1 in sizes:
            break
        classes = len(number)
        colour = [(c, colour[s], colour[a]) for c, s, a in zip(colour, sigma_inv, alpha)]
    chosen = min(range(len(sizes)), key=lambda c: (sizes[c], c))
    return [x for x, c in enumerate(colour) if c == chosen]


def _rooted_certificate(maps: tuple, root: int, colours: list) -> tuple:
    sigma_inv, alpha = maps
    order: list[int] = []
    number: dict[int, int] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        if x in number:
            continue
        number[x] = len(order)
        order.append(x)
        stack.append(alpha[x])
        stack.append(sigma_inv[x])
    sig = tuple(number[sigma_inv[x]] for x in order)
    alp = tuple(number[alpha[x]] for x in order)
    return (sig, alp, tuple(colours[x] for x in order))


def is_isomorphic(d: Diagram, other: Diagram) -> bool:
    if tuple(d.a_words) != tuple(other.a_words):
        return False
    if tuple(d.b_words) != tuple(other.b_words):
        return False
    if d.num_crossings != other.num_crossings:
        return False
    if (
        d.a_words == other.a_words
        and d.b_words == other.b_words
        and d.signs == other.signs
    ):
        return True
    return canonical_certificate(d) == canonical_certificate(other)


# -- words -----------------------------------------------------------------------


def edges(d: Diagram, family: str):
    """Yield (curve, x, y) for every edge of `family`, x -> y."""
    words = d.a_words if family == FAMILY_A else d.b_words
    for curve, word in words.items():
        for x, y in zip(word, word[1:] + word[:1]):
            yield curve, x, y


def intersection_number(d: Diagram, c1: str, c2: str) -> int:
    """Number of crossings shared by two curves, read off their words.

    On a bigon-free diagram this equals the geometric intersection number
    for curves in different families; same-family curves are disjoint.
    """
    words = {**d.a_words, **d.b_words}
    for c in (c1, c2):
        if c not in words:
            raise DiagramError(f"unknown curve id {c!r}")
    return 0 if c1 == c2 else len(set(words[c1]) & set(words[c2]))


# -- faces ------------------------------------------------------------------------


# the counterclockwise port order at a crossing of each sign (the `diagram`
# module's conventions), and the strand of each port: family, out or in
CCW = {PLUS: (A_OUT, B_OUT, A_IN, B_IN), MINUS: (A_OUT, B_IN, A_IN, B_OUT)}
STRAND = {A_OUT: (FAMILY_A, PLUS), B_OUT: (FAMILY_B, PLUS),
          A_IN: (FAMILY_A, MINUS), B_IN: (FAMILY_B, MINUS)}


def traced_faces(d: Diagram) -> tuple[list, dict]:
    """The faces as (index, darts, sides) with sides (family, curve, side),
    numbered by least dart, and the face of every dart.

    Each face is walked from its least dart: along the edge (`mate_of`), then
    one turn clockwise at the crossing reached, read off the crossing's sign.
    The face on the left of an arc is on the plus side of its strand when
    the arc leaves by an out port, on the minus side otherwise.
    """
    ids = crossing_ids(d)

    def port(dart):
        return dart - dart_of(d, ids[dart // 4], A_OUT)

    def clockwise(dart):
        x = ids[dart // 4]
        order = CCW[d.signs[x]]
        return dart_of(d, x, order[order.index(port(dart)) - 1])

    def side(dart):
        cr = d.crossings[ids[dart // 4]]
        family, sign = STRAND[port(dart)]
        return family, cr.a_curve if family == FAMILY_A else cr.b_curve, sign

    faces, face_of = [], {}
    for start in range(4 * d.num_crossings):
        if start in face_of:
            continue
        darts, dart = [], start
        while dart not in face_of:
            face_of[dart] = len(faces)
            darts.append(dart)
            dart = clockwise(mate_of(d, dart))
        faces.append((len(faces), tuple(darts), tuple(side(e) for e in darts)))
    return faces, face_of


# -- cut components -------------------------------------------------------------


def face_union_components(d: Diagram, family: str) -> tuple:
    """`cut_components` by a union of faces: two faces lie in one component
    iff a chain of edges of the other family, which are not cut, joins them.
    A component's boundary circles are the cut family's sides of its faces,
    and the components are numbered from 1 by their least circle.  Faces
    alternate the two families, so a face of degree f accounts for f/2
    split crossings (each corner is shared by two faces), f/4 interior
    edges and f/2 boundary arcs, and a component's Euler characteristic is
    the sum of (4 - f)/4 over its faces.
    """
    return _face_union(d, family)[0]


def face_union_pieces(d: Diagram, family: str) -> list[int]:
    """Face index -> the index of its component in `face_union_components`."""
    return _face_union(d, family)[1]


def _face_union(d: Diagram, family: str) -> tuple:
    """`face_union_components` and `face_union_pieces` of one union."""
    parent = list(range(len(d.faces)))

    def root(f):
        while parent[f] != f:
            f = parent[f]
        return f

    other = 0 if family == FAMILY_B else 1  # the parity of the other family's darts
    for e in range(other, 4 * d.num_crossings, 2):
        parent[root(face_of_dart(d, e))] = root(face_of_dart(d, mate_of(d, e)))
    groups = {}
    for face in d.faces:
        groups.setdefault(root(face.index), []).append(face)
    ids = tuple(d.a_words) if family == FAMILY_A else tuple(d.b_words)
    comps = []
    for faces in groups.values():
        circles = frozenset((ids.index(s.curve) + 1, s.side)
                            for face in faces for s in face.sides if s.family == family)
        euler = sum(4 - face.degree for face in faces) // 4
        comps.append((min(circles), circles, euler, faces))
    comps.sort(key=lambda comp: comp[0])
    piece = [0] * len(d.faces)
    for k, (_, _, _, faces) in enumerate(comps, 1):
        for face in faces:
            piece[face.index] = k
    return tuple(CutComponent(k, circles, euler)
                 for k, (_, circles, euler, _) in enumerate(comps, 1)), piece


# -- rectangle types ------------------------------------------------------------


def _side_types(diagram: Diagram) -> dict[str, list]:
    """Family -> the sorted pair of (curve index, side) sides on that family
    of every face, in face order; None for a face that is not a rectangle
    (degree 4).  A face's darts alternate the two families, so darts 0 and 2
    of a rectangle's orbit lie on one family and darts 1 and 3 on the other.
    Each distinct pair is one tuple, shared by all its faces.
    """
    code, degrees = diagram._dart_code, diagram._face_degree
    a_types, b_types = [None] * len(degrees), [None] * len(degrees)
    by_parity = (a_types, b_types), (b_types, a_types)
    pairs: dict = {}
    for i, degree in enumerate(degrees):
        if degree != 4:
            continue
        d0, d1, d2, d3 = diagram._orbit(i)
        p, q = (code[d0] >> 2, 1 - (d0 & 2)), (code[d2] >> 2, 1 - (d2 & 2))
        u, v = (code[d1] >> 2, 1 - (d1 & 2)), (code[d3] >> 2, 1 - (d3 & 2))
        own, other = by_parity[d0 & 1]
        pair = (p, q) if p <= q else (q, p)
        own[i] = pairs.setdefault(pair, pair)
        pair = (u, v) if u <= v else (v, u)
        other[i] = pairs.setdefault(pair, pair)
    return {FAMILY_A: a_types, FAMILY_B: b_types}


def face_classes(diagram: Diagram) -> list:
    """Each face's class, the index of its first face, face by face: a face is
    keyed on its degree and the (curve index, port) of the first four darts
    of its orbit, a bigon's two darts repeated, each curve index read off the
    words by the dart's crossing and family."""
    ids = crossing_ids(diagram)
    curve_of = [{x: i for i, word in enumerate(words.values(), 1) for x in word}
                for words in (diagram.a_words, diagram.b_words)]
    classes: dict = {}
    numbers = []
    for f, degree in enumerate(diagram._face_degree):
        darts = (diagram._orbit(f) * 2)[:4]
        key = (degree, *((curve_of[d & 1][ids[d // 4]], d & 3) for d in darts))
        numbers.append(classes.setdefault(key, f))
    return numbers


def _composed(diagram: Diagram, axis_family: str, types: dict[str, list]):
    """Each pair of distinct rectangles glued along exactly one edge of an
    `axis_family` curve, as (axis, end_minus, end_plus, b_sides, face_minus,
    face_plus), in curve and edge order, read off `types` (`_side_types`):
    the ends are the outer axis-family sides of the faces on the edge's minus
    and plus sides, and `b_sides` the other family's sides, which they share.
    """
    out_port = PORTS[axis_family][0]
    words = diagram.a_words if axis_family == FAMILY_A else diagram.b_words
    axis_types, cross_types = types[axis_family], types[OTHER_FAMILY[axis_family]]
    fod, alpha = diagram._face_of_dart, diagram._alpha

    for axis, word in enumerate(words.values(), 1):
        minus, plus = (axis, MINUS), (axis, PLUS)
        # walk the curve by its out darts: the next is its mate's out port, alpha[d] ^ 2
        d = dart_of(diagram, word[0], out_port)
        for _ in word:
            # the face left of the forward arc is on the plus side of the edge
            f_plus, f_minus = fod[d], fod[alpha[d]]
            d = alpha[d] ^ 2
            sides_minus, sides_plus = axis_types[f_minus], axis_types[f_plus]
            if f_plus == f_minus or sides_minus is None or sides_plus is None:
                continue
            across = [fod[alpha[e]] for e in diagram._orbit(f_minus)]  # the face across each arc
            if across.count(f_plus) != 1:  # glued along more than this edge
                continue
            # the outer side of each end: the one that is not its axis side (the
            # minus face holds the edge's in dart, the plus face its out dart)
            (s, t), (u, v) = sides_minus, sides_plus
            end_minus = t if s == minus else s
            end_plus = v if u == plus else u
            yield axis, end_minus, end_plus, cross_types[f_minus], f_minus, f_plus


def glued_once(diagram: Diagram, family: str, x: int) -> bool:
    """`criteria._glued_once` by its definition: of the faces across the arcs
    of the minus face of the `family` edge that leaves crossing index x, the
    plus face is exactly one."""
    fod, alpha = diagram._face_of_dart, diagram._alpha
    dart = 4 * x + PORTS[family][0]
    return [fod[alpha[e]] for e in diagram._orbit(fod[alpha[dart]])].count(fod[dart]) == 1


def bigon_faces(diagram: Diagram) -> tuple:
    """`Diagram.bigon_faces` by its definition: the faces of degree two."""
    return tuple(f for f, g in enumerate(diagram._face_degree) if g == 2)


def node_label(node: int, n: int = 0) -> tuple:
    """The label of a node of the criteria: circle (i, side) is the node
    2i + (side is plus); with `n`, the first family's curve count, H_d's
    vertex (kappa, i, side) is that node, plus 2(n + 1) when kappa is plus."""
    if n:
        plus = node >= 2 * n + 2
        return ((PLUS,) + node_label(node - 2 * n - 2)) if plus else (MINUS,) + node_label(node)
    return (node >> 1, PLUS if node & 1 else MINUS)


def decoded_indexes(view) -> tuple[dict, dict]:
    """A context view's `rect_index` and `composed_index` with every node read
    back as its (curve index, side) label (`node_label`), so they compare with
    the oracles' indexes; the composed index, grouped by axis, comes back
    keyed by (axis, end_minus, end_plus)."""
    def by_l(edges_by_l):
        return {l: {(node_label(u), node_label(v)) for u, v in edges}
                for l, edges in edges_by_l.items()}

    rect = {(node_label(p), node_label(q)): by_l(e) for (p, q), e in view.rect_index.items()}
    composed = {(axis, node_label(p), node_label(q)): by_l(e)
                for axis, by_ends in view.composed_index.items()
                for (p, q), e in by_ends.items()}
    return rect, composed


# -- context accessors -------------------------------------------------------------


def lambda_of(ctx, disk: int, side: int) -> frozenset:
    """The punctured label set A_k minus (disk, side), k = `ctx.k_of(disk, side)`."""
    return ctx.a_set(ctx.k_of(disk, side)) - {(disk, side)}


def first_failing_l_detail(ctx, k: int, p: tuple, q: tuple):
    """First l whose detail graph G(k, l, p, q) is not 2-connected, or None."""
    return (ctx._failure(ctx._detail_entry(k, p, q)) or (None,))[0]


def _cross_entry(ctx, disk: int, end_minus: tuple, end_plus: tuple) -> dict:
    """The `composed_index` entry of ends in Lambda_{d,-} and Lambda_{d,+}."""
    ctx._check_valid()
    for end, side in ((end_minus, MINUS), (end_plus, PLUS)):
        if end == (disk, side) or end not in ctx.a_set(ctx.k_of(disk, side)):
            raise DiagramError(f"{end} is not in Lambda_({disk},{side_str(side)})")
    return ctx.composed_index.get(disk, {}).get((_node(end_minus), _node(end_plus)), {})


def cross_detail_graph(ctx, l: int, disk: int, end_minus: tuple, end_plus: tuple) -> "Graph":
    """The detail graph at l of the composed rectangles with these ends and axis `disk`."""
    return _detail(ctx, l, _cross_entry(ctx, disk, end_minus, end_plus))


def first_failing_l_cross(ctx, disk: int, end_minus: tuple, end_plus: tuple):
    """First l whose composed-rectangle detail graph is not 2-connected, or None."""
    return (ctx._failure(_cross_entry(ctx, disk, end_minus, end_plus)) or (None,))[0]


# -- criteria graphs ---------------------------------------------------------------


class Graph(NamedTuple):
    """A finite simple graph on labels, each edge a sorted pair, with its
    (minus, plus) blocks when it has two."""

    vertices: frozenset
    edges: frozenset
    partition: Optional[tuple] = None


def graph_from_edges(edges, vertices=(), partition=None) -> Graph:
    """The graph on `vertices` and the ends of `edges`, loops dropped."""
    vs = set(vertices)
    es = set()
    for u, v in edges:
        if u == v:
            continue
        vs.add(u)
        vs.add(v)
        es.add((u, v) if u <= v else (v, u))
    return Graph(frozenset(vs), frozenset(es), partition)


def _labelled(adj: dict, label, blocks=None) -> Graph:
    """The graph of the node adjacency `adj`, each node read as `label(node)`."""
    partition = None if blocks is None else tuple(frozenset(map(label, b)) for b in blocks)
    return graph_from_edges([(label(u), label(v)) for u in adj for v in adj[u]],
                            map(label, adj), partition)


def component_graph(ctx, k: int) -> Graph:
    """G_k of `ctx`, on the labels A_k."""
    return _labelled(ctx._component_adjacency(k), _label)


def disk_graph(ctx, disk: int) -> Graph:
    """H_d of `ctx`, on tagged labels, blocked by the side of D_d."""
    adj, *blocks = ctx._disk_adjacency(disk)
    return _labelled(adj, lambda v: _vertex(v, ctx._plus), blocks)


def disk_adjacency(ctx, disk: int) -> tuple[dict, frozenset, frozenset]:
    """`CriteriaContext._disk_adjacency` built disk by disk: the plus block
    is relabelled from G_k on the spot, each node tagged by ``ctx._plus``,
    with (d, +) dropped as it is copied."""
    plus, own_minus, own_plus = ctx._plus, 2 * disk, 2 * disk + 1
    lo = ctx._component_adjacency(ctx.k_of(disk, MINUS))
    hi = ctx._component_adjacency(ctx.k_of(disk, PLUS))
    adj = {v: nbrs - {own_minus} for v, nbrs in lo.items() if v != own_minus}
    block_minus = frozenset(adj)
    adj.update((v + plus, {w + plus for w in nbrs if w != own_plus})
               for v, nbrs in hi.items() if v != own_plus)
    block_plus = frozenset(adj).difference(block_minus)
    for (p, q), by_l in ctx.composed_index.get(disk, {}).items():
        q += plus
        if p in block_minus and q in block_plus and ctx._failure(by_l) is None:
            adj[p].add(q)
            adj[q].add(p)
    return adj, block_minus, block_plus


def detail_graph(ctx, k: int, l: int, p: tuple, q: tuple) -> Graph:
    """G(k, l, p, q) of `ctx`: the rectangles of the labels p and q of A_k, at l."""
    return _detail(ctx, l, ctx._detail_entry(k, p, q))


def _detail(ctx, l: int, edges_by_l: dict) -> Graph:
    """The detail graph at l of a pair's index entry (l -> node edges): the
    labels A*_l, range-checked after the pair, with the edges at l."""
    edges = [(_label(u), _label(v)) for u, v in edges_by_l.get(l, ())]
    return graph_from_edges(edges, ctx.a_star_set(l))


def doubly_two_connected_witness(graph: Graph):
    """`criteria._pair_witness`, the search DRC runs on each H_d, of `graph`
    and its blocks."""
    if graph.partition is None:
        raise DiagramError("doubly-2-connected test needs a partition")
    return _pair_witness(neighbors(graph), *graph.partition, {})


def neighbors(graph: Graph) -> dict:
    """The vertex -> neighbours adjacency of `graph`."""
    return _adjacency(graph.vertices, graph.edges)


def is_two_connected(graph: Graph) -> bool:
    """Connected, and still connected after deleting any single vertex.

    Implemented through articulation points (iterative lowlink); graphs on
    at most one vertex are 2-connected under this reading.
    """
    return _two_connected_failure(neighbors(graph)) is None
