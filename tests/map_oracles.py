"""Diagram machinery that only the tests use, kept here as oracles.

Crossing relabeling and an isomorphism test by canonical certificate, a
face trace through the public dart queries, plus two more routes through
the twist splice: one lap at a time, and the multicurve map of the twisted
disks with gamma kept.  None of it is on the check or generate path of the
package.
"""

from heegaardrect import twist
from heegaardrect.diagram import (
    A_IN, A_OUT, B_IN, B_OUT, FAMILY_A, FAMILY_B, Diagram, DiagramError, MINUS, PLUS,
)
from heegaardrect.twist import TwistSpec


# -- relabeling and isomorphism ----------------------------------------------------


def relabel_crossings(d: Diagram, mapping) -> Diagram:
    if d.crossings.keys() - mapping.keys() or len(set(mapping.values())) != len(mapping):
        raise DiagramError("crossing relabeling is not a bijection")
    a_words = {c: tuple(mapping[x] for x in w) for c, w in d.a_words.items()}
    b_words = {c: tuple(mapping[x] for x in w) for c, w in d.b_words.items()}
    signs = {mapping[x]: cr.sign for x, cr in d.crossings.items()}
    return Diagram(a_words, b_words, signs, aux=d.aux)


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
    for root in _root_class(d, colours):
        cert = _rooted_certificate(d, root, colours)
        if best is None or cert < best:
            best = cert
    return best


def _root_class(d: Diagram, colours: list) -> list[int]:
    """Refine the dart colours until a class is a singleton or none splits."""
    sigma_inv, alpha = d._sigma_inv, d._alpha
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


def _rooted_certificate(d: Diagram, root: int, colours: list) -> tuple:
    sigma_inv, alpha = d._sigma_inv, d._alpha
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
    if d.a_curve_ids() != other.a_curve_ids():
        return False
    if d.b_curve_ids() != other.b_curve_ids():
        return False
    if d.num_crossings != other.num_crossings:
        return False
    if (
        d.a_words == other.a_words
        and d.b_words == other.b_words
        and all(d.crossings[x].sign == other.crossings[x].sign for x in d.crossings)
    ):
        return True
    return canonical_certificate(d) == canonical_certificate(other)


# -- faces ------------------------------------------------------------------------


# the counterclockwise port order at a crossing of each sign (the `diagram`
# module's conventions), and the strand of each port: family, out or in
CCW = {PLUS: (A_OUT, B_OUT, A_IN, B_IN), MINUS: (A_OUT, B_IN, A_IN, B_OUT)}
STRAND = {A_OUT: (FAMILY_A, PLUS), B_OUT: (FAMILY_B, PLUS),
          A_IN: (FAMILY_A, MINUS), B_IN: (FAMILY_B, MINUS)}


def traced_faces(d: Diagram) -> tuple[list, dict]:
    """The faces as (index, darts, sides) with sides (family, curve, side),
    numbered by least dart, and the face of every dart.

    Each face is walked from its least dart: along the edge (`mate`), then
    one turn clockwise at the crossing reached, read off the crossing's sign.
    The face on the left of an arc is on the plus side of its strand when
    the arc leaves by an out port, on the minus side otherwise.
    """
    def port(dart):
        return dart - d.dart(d.dart_crossing(dart), A_OUT)

    def clockwise(dart):
        x = d.dart_crossing(dart)
        order = CCW[d.crossings[x].sign]
        return d.dart(x, order[order.index(port(dart)) - 1])

    def side(dart):
        cr = d.crossings[d.dart_crossing(dart)]
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
            dart = clockwise(d.mate(dart))
        faces.append((len(faces), tuple(darts), tuple(side(e) for e in darts)))
    return faces, face_of


# -- other routes through the twist splice -------------------------------------------


def dehn_twist_iterated(base: Diagram, spec: TwistSpec) -> Diagram:
    """Same curves as `dehn_twist`, spliced one lap at a time."""
    twist._check_base(base)
    drift = PLUS if spec.power > 0 else MINUS
    state = twist._lift(base)
    for step in range(abs(spec.power)):
        state = twist._splice(state, 1, drift, f"s{step}")
    return Diagram(*twist._drop_gamma(state)).reduce_bigons()


def twist_multicurve(base: Diagram, spec: TwistSpec) -> Diagram:
    """The multicurve map of the twisted disks, with gamma retained.

    The twisted curves keep the disk names, so no disk name can clash with
    a twisted curve's.
    """
    assert base.aux and base.is_bigon_free()
    drift = PLUS if spec.power > 0 else MINUS
    return _drop_disks(twist._splice(twist._lift(base), abs(spec.power), drift, "t"))


def _drop_disks(state) -> Diagram:
    """Forget the untwisted disks; the twisted family plus gamma remain."""
    disk_words = {}
    for disk in state.a_words:
        word = state.f_words[twist._dual_name(disk)]
        disk_words[disk] = tuple(x for x in word if state.kinds[x] == twist._FG)
    gamma_word = tuple(x for x in state.gamma_word if state.kinds[x] == twist._FG)
    signs = {x: s for x, s in state.signs.items() if state.kinds[x] == twist._FG}
    return twist.multicurve_map(disk_words, gamma_word, signs)
