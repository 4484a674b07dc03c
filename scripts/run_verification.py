#!/usr/bin/env python3
"""Run the full verification battery and report per-suite timing.

Covers every preserved condition the library asserts: mutation
involution and coefficient-string legality, Laurent exactness over deep
random walks, block constancy (Hadamard, which implies the column
conditions of the unfolded matrix) and the double-constant shape at
every prefix, the coefficient product formula, the embedding
conditions, the subquotient realization (these three on the bundled
seeds and on random seeds with up to three frozen variables, in both
``total`` and ``lcm`` root mode),
the transport of exchange data through root adjunction, and the
root-extraction/homogeneity form of the exchange polynomials on
adjoined seeds.  Every suite named after a ``gencluster verify`` target
walks its sequences through ``verify``'s walker
(``gencluster.cli_io.walk_verdicts``) and requires each verdict; the
involution and root+homogeneity suites keep loops of their own.
Exits nonzero if any suite fails.
"""

import argparse
from itertools import product
import random
import time

from gencluster.cli_io import walk_verdicts
from gencluster.fixtures import FIXTURE_NAMES, fixture_seed
from gencluster.gca_seed import mutate_seed, mutate_seed_sequence, root_formula_check
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import (
    AdjoinedSeed,
    homogeneity_check,
    tau_tilde,
    transport_check,
)


class CheckFailed(Exception):
    """A condition that a suite checks does not hold."""


def require(condition, *detail):
    """Raise :class:`CheckFailed` with ``detail`` unless ``condition`` holds.

    An explicit check, not ``assert``, so that ``python -O`` runs it too.
    """
    if not condition:
        raise CheckFailed(*detail)


def suite_involution(rng, cases):
    for _ in range(cases):
        seed = random_seed(rng)
        k = rng.randrange(seed.matrix.n)
        back = mutate_seed(mutate_seed(seed, k), k)
        require(back.matrix == seed.matrix)
        require(back.cluster == seed.cluster)
        require(back.strings == seed.strings)
        for i, row in enumerate(back.strings.rows):
            require(row[0].is_one() and row[-1].is_one(), i)


def walk(target, seed, sequences, mode="total"):
    """Require the verdict of ``verify``'s walk of ``target`` on each sequence.

    Each sequence is walked from the root through the states the ones
    before it reached, so every distinct state is checked once.
    """
    cases = [(tuple(sequence), 0) for sequence in sequences]
    for sequence, ok, failures in walk_verdicts(target, seed, cases, mode):
        require(ok, target, mode, sequence, failures)


def suite_laurent(rng, cases, depth):
    for _ in range(cases):
        seed = random_seed(rng)
        walk("laurent", seed, [random_sequence(rng, seed.matrix.n, depth)])


def suite_block_constancy(rng, cases, depth):
    for _ in range(cases):
        seed = random_seed(rng)
        sequence = random_sequence(rng, seed.matrix.n, depth)
        walk("hadamard", seed, [sequence])
        walk("double-constant", seed, [sequence])


def suite_product_formula(rng, cases, depth):
    for name in FIXTURE_NAMES:
        walk("product-formula", fixture_seed(name), [(0,) * depth])
    for _ in range(cases):
        seed = random_seed(rng)
        walk("product-formula", seed, [random_sequence(rng, seed.matrix.n, depth)])


def suite_embedding():
    walk("embedding", fixture_seed("FIX-C"), [(), (0,), (0, 0), (0,) * 6])
    walk("embedding", fixture_seed("FIX-B"), product(range(2), repeat=3))


def suite_subquotient():
    for name in FIXTURE_NAMES:
        walk("subquotient", fixture_seed(name), [()])


def suite_random_theorem(target, rng, cases, depth):
    """``target`` on random seeds, in both root modes."""
    for _ in range(cases):
        seed = random_seed(rng, max_frozen=3)
        sequence = random_sequence(rng, seed.matrix.n, depth)
        for mode in ("total", "lcm"):
            walk(target, seed, [sequence], mode)


def suite_root_homogeneity(rng, cases, depth):
    for name in FIXTURE_NAMES:
        seed = fixture_seed(name)
        for k in range(seed.matrix.n):
            require(root_formula_check(seed, k).ok)
    for _ in range(cases):
        seed = random_seed(rng)
        adjoined = tau_tilde(seed)
        sequence = random_sequence(rng, seed.matrix.n, depth)
        # Each seed is walked once; the check runs on the final pair.
        t = mutate_seed_sequence(seed, sequence)
        t_bar = mutate_seed_sequence(adjoined.seed, sequence)
        report = transport_check(AdjoinedSeed(t, t_bar, adjoined.multiplicity))
        require(report.ok, sequence, report.failures)
        for k in range(seed.matrix.n):
            require(root_formula_check(t_bar, k).ok)
            homogeneity_check(t_bar, k)


def non_negative(word):
    """``word`` as an ``int`` of at least 0, for argparse."""
    value = int(word)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0: {word!r}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=non_negative, default=200)
    parser.add_argument("--depth", type=non_negative, default=6)
    parser.add_argument("--rng-seed", type=int, default=0)
    args = parser.parse_args()

    suites = [
        ("involution", lambda r: suite_involution(r, args.cases)),
        ("laurent", lambda r: suite_laurent(r, args.cases, args.depth)),
        (
            "hadamard+double-constant",
            lambda r: suite_block_constancy(r, args.cases, min(args.depth, 5)),
        ),
        (
            "product-formula",
            lambda r: suite_product_formula(r, args.cases // 4, min(args.depth, 4)),
        ),
        ("embedding", lambda r: suite_embedding()),
        ("subquotient", lambda r: suite_subquotient()),
        (
            "random embedding",
            lambda r: suite_random_theorem(
                "embedding", r, args.cases // 4, min(args.depth, 3)
            ),
        ),
        (
            "random subquotient",
            lambda r: suite_random_theorem("subquotient", r, args.cases // 4, 0),
        ),
        (
            "random product-formula",
            lambda r: suite_random_theorem(
                "product-formula", r, args.cases // 4, min(args.depth, 4)
            ),
        ),
        (
            "root+homogeneity",
            lambda r: suite_root_homogeneity(r, args.cases // 2, min(args.depth, 4)),
        ),
    ]
    failed = False
    for name, run in suites:
        rng = random.Random(args.rng_seed)
        start = time.perf_counter()
        try:
            run(rng)
        except Exception as exc:  # report and keep going
            failed = True
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            continue
        print(f"PASS {name} ({time.perf_counter() - start:.2f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
