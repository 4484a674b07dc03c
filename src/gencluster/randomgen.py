"""Bounded random seeds and mutation sequences for the property suites.

All randomness flows through a caller-supplied :class:`random.Random`,
so every suite is reproducible from its integer seed.  The bounds are
chosen so that full verification runs finish in minutes: small rank and
divisors keep the exchange degrees low, and small matrix entries keep
the Laurent polynomials from exploding over deep mutation sequences.

The principal part is drawn as a skew-symmetric integer core scaled by
the divisor vector on the left.  That construction hits exactly the
admissible inputs: each principal row is divisible by its divisor, and
the inverse divisors skew-symmetrize the matrix.

Principal coupling is additionally capped at the linear-growth
threshold: the exchange products ``|b_ij * b_ji|`` incident to each
mutable vertex must sum to at most 4.  Exchange relations have degree
``|b_kj|`` in the adjacent cluster variable, so a vertex whose incident
products exceed that budget drives exponential degree growth under
alternating mutation, and depth-6 sequences on such seeds are
unboundedly large no matter how the arithmetic is implemented.  The
per-vertex budget keeps every drawn seed in the polynomial-growth
regime, which is what makes whole 200-case suites at depth 6 finish in
minutes.
"""

from math import isqrt

from .gca_seed import CoefficientStrings, initial_seed
from .laurent_kernel import VariableTable
from .matrix_mutation import DivisorVector, ExtendedExchangeMatrix


def random_seed(rng, max_rank=3, max_frozen=2, max_divisor=3, max_entry=4):
    """Draw a valid generalized seed within the documented bounds.

    ``rng`` is a :class:`random.Random`.  Entries of the returned matrix
    are bounded by ``max_entry`` in absolute value; string exponents by 2.
    """
    n = rng.randint(1, max_rank)
    m = rng.randint(0, max_frozen)
    divisors = tuple(rng.randint(1, max_divisor) for _ in range(n))
    rows = [[0] * (n + m) for _ in range(n)]
    # |b_ij * b_ji| = d_i * d_j * core**2; each vertex has a budget of
    # max_entry for the sum of its incident products, which keeps the
    # seed in the (at most) linear-growth mutation class.
    budget = [max_entry] * n
    for i in range(n):
        for j in range(i + 1, n):
            pair = divisors[i] * divisors[j]
            room = min(budget[i], budget[j])
            bound = isqrt(room // pair) if pair <= room else 0
            core = rng.randint(-bound, bound) if bound else 0
            rows[i][j] = divisors[i] * core
            rows[j][i] = -divisors[j] * core
            budget[i] -= pair * core * core
            budget[j] -= pair * core * core
    for i in range(n):
        for l in range(m):
            rows[i][n + l] = rng.randint(-max_entry, max_entry)
    matrix = ExtendedExchangeMatrix.from_rows(
        tuple(tuple(row) for row in rows), m=m
    )
    cluster_names = tuple(f"x{i + 1}" for i in range(n))
    frozen_names = tuple(f"f{l + 1}" for l in range(m))
    strings = None
    if m:
        table = VariableTable.make(cluster=cluster_names, frozen=frozen_names)
        string_rows = []
        for i in range(n):
            row = [table.one()]
            for _ in range(1, divisors[i]):
                exponents = {
                    name: rng.randint(-2, 2) for name in frozen_names
                }
                row.append(table.monomial(exponents))
            row.append(table.one())
            string_rows.append(tuple(row))
        strings = CoefficientStrings(tuple(string_rows))
    return initial_seed(
        matrix,
        DivisorVector(divisors),
        strings=strings,
        cluster_names=cluster_names,
        frozen_names=frozen_names,
    )


def random_sequence(rng, rank, depth):
    """A mutation sequence of exactly ``depth`` directions."""
    return tuple(rng.randrange(rank) for _ in range(depth))
