"""Generalized seeds: higher-degree exchange relations and mutation."""

import random

import pytest

from conftest import cluster_side
from gencluster import gca_seed
from gencluster.errors import (
    IndexOutOfRange,
    InvalidDivisors,
    ValidationError,
)
from gencluster.gca_seed import (
    CoefficientStrings,
    ExchangeContext,
    GeneralizedSeed,
    exchange_polynomial,
    frozen_box,
    initial_seed,
    mutate_seed,
    mutate_seed_sequence,
    q_monomial,
    root_formula_check,
    special_monomial,
)
from gencluster.laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    parse_polynomial,
    poly_add,
    poly_mul,
    poly_mul_monomial,
    poly_pow,
)
from gencluster.matrix_mutation import ExtendedExchangeMatrix, _symmetrizes
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import tau_tilde

# Independently derived canonical exchange polynomials of the bundled
# rank-2 seed with divisors (3, 2) and strings (1, p1x, p2x, 1) and
# (1, p1y, 1).
FIX_B_THETA_X = "y^3*b^2 + y^2*a*b*p2x + y*a^2*p1x + a^4"
FIX_B_THETA_Y = "x^2*b^3 + x*b*p1y + 1"


def q_by_special_monomials(seed, k, r):
    """``q_{k,r}`` as the product of inverse ``d``-fold special monomials."""
    d = seed.divisors[k]
    q = seed.table.one()
    for pos in seed.table.frozen_indices:
        name = seed.table.names[pos]
        q = q.times(special_monomial(seed, d, name, k, r).power(-1))
    return q


def extracted_roots(seed, k):
    """The ``d``-th roots of ``p_{k,r}^d / q_{k,r} * v>^r * v<^(d-r)``."""
    d = seed.divisors[k]
    v_gt, v_lt = frozen_box(seed, k, d)
    roots = []
    for r in range(d + 1):
        target = seed.strings.entry(k, r).power(d)
        target = target.over(q_by_special_monomials(seed, k, r))
        target = target.times(v_gt.power(r)).times(v_lt.power(d - r))
        assert all(e % d == 0 for e in target.exponents), (k, r)
        roots.append(Monomial(seed.table, tuple(e // d for e in target.exponents)))
    return roots


def walked_seeds(rng, count=20, depth=3):
    """Random seeds, plain and root-adjoined, each after a random walk."""
    for _ in range(count):
        seed = random_seed(rng)
        sequence = random_sequence(rng, seed.rank, depth)
        for start in (seed, tau_tilde(seed).seed):
            yield mutate_seed_sequence(start, sequence)


class TestExchangePolynomials:
    def test_fix_b_theta(self, fix_b):
        assert str(exchange_polynomial(fix_b, 0)) == FIX_B_THETA_X
        assert str(exchange_polynomial(fix_b, 1)) == FIX_B_THETA_Y

    def test_fix_c_theta(self, fix_c):
        # scaled row is (0, 2): the frozen column is not divided, so the
        # boxes are f^r and the middle coefficient contributes f^2 * f.
        assert str(exchange_polynomial(fix_c, 0)) == "f^3 + f^2 + 1"

    def test_mutated_cluster_entry(self, fix_b):
        mutated = mutate_seed(fix_b, 0)
        assert mutated.cluster[0] == parse_polynomial(
            "x^-1*y^3*b^2 + x^-1*y^2*a*b*p2x + x^-1*y*a^2*p1x + x^-1*a^4",
            fix_b.table,
        )
        assert mutated.provenance == (0,)

    def test_classical_rule_is_binomial(self, rng):
        for _ in range(30):
            seed = random_seed(rng, max_divisor=1)
            for k in range(seed.matrix.n):
                assert len(exchange_polynomial(seed, k).terms) <= 2

    def test_context_coefficients(self, fix_b):
        ctx = ExchangeContext.build(fix_b, 0)
        assert ctx.degree == 3
        assert ctx.coefficient(0) == ctx.strings[0].times(ctx.v_gt[0]).times(
            ctx.v_lt[3]
        )
        assert ctx.coefficient(3) == ctx.strings[3].times(ctx.v_gt[3]).times(
            ctx.v_lt[0]
        )


class TestMutation:
    def test_involution_on_fixtures(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            for k in range(seed.matrix.n):
                back = mutate_seed(mutate_seed(seed, k), k)
                assert back == seed
                assert back.provenance == (k, k)

    def test_strings_reverse_in_the_mutated_row(self, fix_b):
        mutated = mutate_seed(fix_b, 0)
        assert mutated.strings.rows[0] == fix_b.strings.reversed_row(0)
        assert mutated.strings.rows[1] == fix_b.strings.rows[1]

    def test_string_ends_preserved_on_random(self, rng):
        for _ in range(100):
            seed = random_seed(rng)
            seed = mutate_seed_sequence(
                seed, random_sequence(rng, seed.matrix.n, 3)
            )
            for row in seed.strings.rows:
                assert row[0].is_one() and row[-1].is_one()

    def test_direction_validation(self, fix_c):
        with pytest.raises(IndexOutOfRange):
            mutate_seed(fix_c, 1)
        with pytest.raises(IndexOutOfRange):
            mutate_seed(fix_c, -1)


def assert_seed_valid_as_built(seed):
    """A mutated seed passes the validating constructors unchanged."""
    matrix = seed.matrix
    assert _symmetrizes(matrix._symmetrizer, matrix.rows, matrix.n)
    rebuilt = GeneralizedSeed(
        table=seed.table,
        cluster=seed.cluster,
        matrix=ExtendedExchangeMatrix(matrix.n, matrix.m, matrix.rows),
        divisors=seed.divisors,
        strings=seed.strings,
        provenance=seed.provenance,
    )
    assert type(seed) is GeneralizedSeed
    assert rebuilt == seed


class TestTrustedSeeds:
    def test_fixture_walks(self, fix_a, fix_b, fix_c):
        # FIX-A's cluster grows doubly exponentially: depth 3 alone
        # takes seconds, so it walks to depth 2.
        walks = [
            (fix_a, ((0, 1), (1, 0))),
            (fix_b, ((0, 1, 0, 1), (1, 0, 1, 0))),
            (fix_c, ((0, 0, 0, 0),)),
        ]
        for start, sequences in walks:
            for seed in (start, tau_tilde(start).seed):
                for sequence in sequences:
                    current = seed
                    for k in sequence:
                        current = mutate_seed(current, k)
                        assert_seed_valid_as_built(current)

    def test_random_walks(self):
        rng = random.Random(8)
        for _ in range(30):
            start = random_seed(rng, max_frozen=3)
            for seed in (start, tau_tilde(start).seed):
                current = seed
                sequence = random_sequence(rng, seed.rank, 6)
                for k in sequence:
                    current = mutate_seed(current, k)
                    assert_seed_valid_as_built(current)
                assert current.provenance == seed.provenance + sequence


class TestRootForm:
    def test_root_formula_on_fixtures(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            for k in range(seed.matrix.n):
                assert root_formula_check(seed, k).ok

    def test_q_monomial_consistency_on_fixtures(self, fix_a, fix_b, fix_c, rng):
        # The box ratio and the special-monomial product agree by a floor
        # identity; the root-formula check uses the second route only.
        for seed in (fix_a, fix_b, fix_c, *walked_seeds(rng)):
            for k in range(seed.rank):
                for r in range(seed.divisors[k] + 1):
                    expected = q_by_special_monomials(seed, k, r)
                    assert q_monomial(seed, k, r) == expected

    def test_reassembled_roots_give_theta(self, fix_a, fix_b, fix_c, rng):
        # Oracle for the root-formula check: the extracted roots, put back
        # as coefficients, give theta_k.
        for seed in (fix_a, fix_b, fix_c, *walked_seeds(rng)):
            for k in range(seed.rank):
                d = seed.divisors[k]
                gt, lt = cluster_side(seed, k, 1), cluster_side(seed, k, -1)
                theta = LaurentPolynomial.zero(seed.table)
                for r, root in enumerate(extracted_roots(seed, k)):
                    term = poly_mul(poly_pow(gt, r), poly_pow(lt, d - r))
                    theta = poly_add(theta, poly_mul_monomial(term, root))
                assert theta == exchange_polynomial(seed, k)
                assert root_formula_check(seed, k).ok

    def test_root_formula_fails_on_a_wrong_floor_defect(self, fix_c, monkeypatch):
        # The check reads q from the floor defects, never from the boxes,
        # so a wrong defect cannot cancel against the boxes.
        defect = gca_seed.floor_defect
        monkeypatch.setattr(gca_seed, "floor_defect", lambda *a: defect(*a) + 1)
        assert not root_formula_check(fix_c, 0).ok

    def test_special_monomial_values(self, fix_b):
        assert special_monomial(fix_b, 2, "b", 0, 1) == fix_b.table.monomial(b=-1)
        for r in (0, fix_b.divisors[0]):
            assert special_monomial(fix_b, 5, "b", 0, r).is_one()

    def test_special_monomial_validation(self, fix_b):
        with pytest.raises(ValidationError):
            special_monomial(fix_b, 2, "x", 0, 1)
        with pytest.raises(IndexOutOfRange):
            special_monomial(fix_b, 2, "b", 0, 9)

    def test_frozen_boxes(self, fix_c):
        gt0, lt0 = frozen_box(fix_c, 0, 0)
        gt1, lt1 = frozen_box(fix_c, 0, 1)
        gt2, lt2 = frozen_box(fix_c, 0, 2)
        assert gt0.is_one() and lt0.is_one() and lt1.is_one() and lt2.is_one()
        assert gt1 == fix_c.table.monomial(f=1)  # floor(1*2/2) = 1
        assert gt2 == fix_c.table.monomial(f=2)


class TestValidation:
    def test_strings_must_match_divisors(self, fix_c):
        table = fix_c.table
        bad = CoefficientStrings(((table.one(), table.one()),))
        with pytest.raises(ValidationError):
            initial_seed(fix_c.matrix, fix_c.divisors, strings=bad,
                         cluster_names=("x",), frozen_names=("f",))

    def test_strings_reject_cluster_support(self, fix_c):
        table = fix_c.table
        bad = CoefficientStrings(
            ((table.one(), table.monomial(x=1), table.one()),)
        )
        with pytest.raises(ValidationError):
            initial_seed(fix_c.matrix, fix_c.divisors, strings=bad,
                         cluster_names=("x",), frozen_names=("f",))

    def test_strings_reject_nontrivial_ends(self, fix_c):
        table = fix_c.table
        bad = CoefficientStrings(
            ((table.monomial(f=1), table.one(), table.one()),)
        )
        with pytest.raises(ValidationError):
            initial_seed(fix_c.matrix, fix_c.divisors, strings=bad,
                         cluster_names=("x",), frozen_names=("f",))

    def test_divisors_must_divide_principal_rows(self):
        matrix = ExtendedExchangeMatrix.from_rows(((0, 3), (-3, 0)), m=0)
        with pytest.raises(InvalidDivisors):
            initial_seed(matrix, (2, 3))

    def test_slack_entries_unconstrained_by_divisors(self, fix_a):
        # principal row 1 is (0, 8) with divisor 2; the slack entries
        # (-3, 5) are odd on purpose.
        assert fix_a.matrix.rows[0][2] == -3
        assert fix_a.divisors[0] == 2
