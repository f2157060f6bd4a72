import random

import pytest

from heegaardrect.diagram import Diagram, DiagramError
from heegaardrect.twist import (
    TwistSpec,
    dehn_twist,
    example_diagram,
    multicurve_map,
)


def torus_one() -> Diagram:
    """One curve of each family crossing once: the standard torus square."""
    return Diagram({"a": ["x"]}, {"b": ["x"]}, {"x": 1})


def torus_two() -> Diagram:
    """Two essential crossings on the torus: two square faces."""
    return Diagram({"a": ["x", "y"]}, {"b": ["x", "y"]}, {"x": 1, "y": 1})


def sphere_bigons() -> Diagram:
    """Two circles on the sphere crossing twice: every face is a bigon."""
    return Diagram({"a": ["x", "y"]}, {"b": ["x", "y"]}, {"x": 1, "y": -1})


def reducible_torus() -> Diagram:
    """Genus-1 diagram with two removable bigons; reduces to two crossings."""
    return Diagram(
        {"a": ["x", "y", "z", "w"]},
        {"b": ["x", "y", "z", "w"]},
        {"x": 1, "y": 1, "z": 1, "w": -1},
    )


def hexagon_diagram() -> Diagram:
    """Valid genus-2 diagram whose four faces are all hexagons."""
    return Diagram(
        {"a1": ["x0", "x1", "x2"], "a2": ["x3", "x4", "x5"]},
        {"b1": ["x0", "x1", "x3"], "b2": ["x2", "x4", "x5"]},
        {"x0": 1, "x1": 1, "x2": 1, "x3": 1, "x4": -1, "x5": -1},
    )


def split_components_diagram() -> Diagram:
    """Genus-3 diagram whose first family cuts off a one-handled piece.

    Cutting along the a-curves gives one component with boundary labels
    {(1,-),(2,+),(3,-),(3,+)} (Euler characteristic -4, so genus one) and
    one annulus between (1,+) and (2,-).  Deliberately not a valid
    disk-system diagram.
    """
    return Diagram(
        {"a1": ["x4", "x7"], "a2": ["x5", "x0"], "a3": ["x2", "x3", "x6", "x1"]},
        {"b1": ["x6", "x7", "x0"], "b2": ["x1", "x3", "x2", "x4", "x5"]},
        {"x0": 1, "x1": -1, "x2": 1, "x3": 1, "x4": 1, "x5": 1, "x6": -1, "x7": 1},
    )


@pytest.fixture(scope="session")
def example_32() -> Diagram:
    return example_diagram(3, 2)


@pytest.fixture(scope="session")
def example_32_maximal() -> Diagram:
    return example_diagram(3, 2, maximal=True)


@pytest.fixture(scope="session")
def example_22() -> Diagram:
    return example_diagram(2, 2)


def valid_fixture_diagrams(example_32, example_32_maximal, example_22):
    """The valid diagrams the invariance suites quantify over."""
    return {
        "example(2,2)": example_22,
        "example(3,2)": example_32,
        "example(3,2,maximal)": example_32_maximal,
        "hexagons": hexagon_diagram(),
    }


SWEEP = [(g, l) for g in (2, 3, 4) for l in (2, 3, -2)]


def fixture_cases(maximal: Diagram):
    """The six small fixtures, the nine sweep members, the maximal example
    `maximal` and 200 random twisted diagrams."""
    yield from (make() for make in (torus_one, torus_two, sphere_bigons, reducible_torus,
                                    hexagon_diagram, split_components_diagram))
    yield from (example_diagram(g, l) for g, l in SWEEP)
    yield maximal
    yield from random_twisted_diagrams(200)


def face_oracle_cases():
    """50 random twisted diagrams, example(13, 2) and the maximal example."""
    yield from random_twisted_diagrams(50)
    yield example_diagram(13, 2)
    yield example_diagram(3, 2, maximal=True)


def random_twisted_diagrams(count: int, seed: int = 20240809):
    """Valid twisted diagrams from random multicurve bases, deterministically.

    Yields at least `count` diagrams built by twisting random disk systems
    along random transversal curves, keeping only results that pass the
    disk-system checks.
    """
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 500 * count:
            raise RuntimeError("random diagram yield collapsed")
        g = rng.choice((2, 2, 3))
        per_disk = [rng.choice((1, 2, 2, 3)) for _ in range(g)]
        names = [f"c{d}_{i}" for d, k in enumerate(per_disk, 1) for i in range(k)]
        gamma = names[:]
        rng.shuffle(gamma)
        words = {}
        for d, k in enumerate(per_disk, start=1):
            xs = [f"c{d}_{i}" for i in range(k)]
            rng.shuffle(xs)
            words[f"d{d}"] = tuple(xs)
        signs = {x: rng.choice((1, -1)) for x in names}
        try:
            base = multicurve_map(words, tuple(gamma), signs).reduce_bigons()
            power = rng.choice((2, -2, 3))
            diagram = dehn_twist(base, TwistSpec(power))
        except DiagramError:
            continue
        from heegaardrect.systems import validate_disk_systems

        if not validate_disk_systems(diagram).passed:
            continue
        produced += 1
        yield diagram
