#!/usr/bin/env python3
"""Search transversal-curve patterns for the built-in example family.

A base configuration is a row of g disks plus one closed curve crossing
them; up to symmetry it is determined by the cyclic visit sequence (runs
of consecutive crossings per visit), the crossing signs, and the cyclic
order of each disk's crossings.  This script enumerates the 4-crossing
patterns, keeps those that embed with the expected genus, twists them, and
reports which satisfy the rectangle and double rectangle conditions.

The shipped `chain_base` pattern is the all-positive member found here:
triple pass + single pass per disk (odd-indexed disks get the triple on
the first tour), identity word orders, with a 2+2 interleaved exceptional
last disk at even genus.  Run:

    python3 scripts/search_patterns.py --genus 3 --power 2
"""

import argparse
import itertools
import warnings

from heegaardrect.criteria import double_rectangle_condition, rectangle_condition
from heegaardrect.diagram import DiagramError
from heegaardrect.systems import validate_disk_systems
from heegaardrect.twist import TwistSpec, dehn_twist, multicurve_map

warnings.filterwarnings("ignore")

RUN_OPTIONS = [(3, 1), (1, 3), (2, 2)]


def build_sequence(genus, runs):
    seq = []
    for t in range(2 * genus):
        d = (t % genus) + 1
        r = runs[d - 1][0] if t < genus else runs[d - 1][1]
        seq += [d] * r
    return seq


def build_base(genus, seq, orders):
    names = [f"c{t}" for t in range(len(seq))]
    per_disk = {}
    for t, d in enumerate(seq):
        per_disk.setdefault(d, []).append(names[t])
    words = {
        f"d{d}": tuple(xs[i] for i in orders[d - 1]) for d, xs in per_disk.items()
    }
    return multicurve_map(words, tuple(names), {x: 1 for x in names})


def search_minimal(genus, power):
    cyclic_orders = [(0,) + p for p in itertools.permutations((1, 2, 3))]
    embeddable = hits = 0
    for runs in itertools.product(RUN_OPTIONS, repeat=genus):
        seq = build_sequence(genus, runs)
        for orders in itertools.product(cyclic_orders, repeat=genus):
            try:
                base = build_base(genus, seq, orders)
            except DiagramError:
                continue
            if base.genus != genus or base.bigon_faces():
                continue
            embeddable += 1
            try:
                d = dehn_twist(base, TwistSpec(power))
            except DiagramError:
                continue
            if not validate_disk_systems(d).passed:
                continue
            rc = rectangle_condition(d).holds
            drc = double_rectangle_condition(d).holds
            if rc and drc:
                hits += 1
                print(f"both conditions hold: runs={runs} orders={orders}")
            elif rc:
                print(f"rectangle condition only: runs={runs} orders={orders}")
    print(f"\n{embeddable} embeddable patterns, {hits} satisfy both conditions")


def search_maximal(power):
    """All separating-disk word orders against the fixed crossing sequence.

    The genus-3 base with the three separating disks admits exactly one
    embedding; this reproduces that uniqueness and its failing verdict.
    """
    from heegaardrect.systems import cut_components
    from heegaardrect.twist import maximal_chain_base

    maximal = maximal_chain_base()
    merid_words = {c: maximal.a_words[c] for c in ("d1", "d2", "d3")}
    (gamma,) = maximal.b_words.values()
    signs = dict(maximal.signs)
    perms = [(0,) + p for p in itertools.permutations((1, 2, 3))]
    embeddable = 0
    for o4 in perms:
        for o5 in perms:
            for o6 in perms:
                words = dict(merid_words)
                for name, order in (("d4", o4), ("d5", o5), ("d6", o6)):
                    xs = [f"q{name[1]}_{i}" for i in range(4)]
                    words[name] = tuple(xs[i] for i in order)
                try:
                    base = multicurve_map(words, gamma, signs)
                except DiagramError:
                    continue
                if base.genus != 3 or base.bigon_faces():
                    continue
                comps = cut_components(base, "A")
                if len(comps) != 4 or not all(c.planar for c in comps):
                    continue
                embeddable += 1
                d = dehn_twist(base, TwistSpec(power))
                if not validate_disk_systems(d).passed:
                    continue
                rc = rectangle_condition(d).holds
                drc = double_rectangle_condition(d).holds
                print(f"embeds: d4={o4} d5={o5} d6={o6}  "
                      f"rectangle={rc} double={drc}")
    print(f"\n{embeddable} embeddable separating-disk orders")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus", type=int, default=3)
    ap.add_argument("--power", type=int, default=2)
    ap.add_argument("--maximal", action="store_true",
                    help="search the separating-disk extension instead")
    args = ap.parse_args()
    if args.maximal:
        search_maximal(args.power)
    else:
        search_minimal(args.genus, args.power)


if __name__ == "__main__":
    main()
