"""Extended exchange matrices: mutation, scaling, and the weighted rule."""

import random

import pytest

from gencluster.errors import (
    IndexOutOfRange,
    InvalidDivisors,
    NotSkewSymmetrizable,
    ParseError,
)
from gencluster.fixtures import FIXTURE_NAMES, fixture_seed
from gencluster.matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    check_compatible,
    diagonalizer,
    modify,
    mutate,
    mutate_modified,
    mutate_sequence,
    parse_matrix,
    write_matrix,
)
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import tau_tilde
from gencluster.unfolding import build, group_mutate

# Independently derived reference values for the bundled rank-2 seed
# with matrix rows (0, 8, -3, 5), (-12, 0, -2, 7) and divisors (2, 3).
FIX_A_MODIFIED = ((0, 4, -3, 5), (-4, 0, -2, 7))
FIX_A_MU1 = ((0, -8, 3, -5), (12, 0, -38, 7))
FIX_A_MU21 = ((0, 8, -301, -5), (-12, 0, 38, -7))
FIX_A_MU1_MODIFIED = ((0, -4, 3, -5), (4, 0, -38, 7))
FIX_A_MU21_MODIFIED = ((0, 4, -301, -5), (-4, 0, 38, -7))


@pytest.fixture
def fix_a_matrix(fix_a):
    return fix_a.matrix, fix_a.divisors


class TestGoldens:
    def test_modify(self, fix_a_matrix):
        matrix, divisors = fix_a_matrix
        assert modify(matrix, divisors).rows == FIX_A_MODIFIED

    def test_first_mutation(self, fix_a_matrix):
        matrix, divisors = fix_a_matrix
        assert mutate(matrix, 0).rows == FIX_A_MU1
        assert (
            mutate_modified(modify(matrix, divisors), divisors, 0).rows
            == FIX_A_MU1_MODIFIED
        )

    def test_second_mutation(self, fix_a_matrix):
        """The composite at directions 1 then 2, derived from the rule.

        Entry (1, 3) is -301: applying the mutation rule to the already
        mutated matrix forces 3 - 8 * 38 = -301, and any larger value
        (such as -304) is inconsistent with the first-step matrix.
        """
        matrix, divisors = fix_a_matrix
        composite = mutate_sequence(matrix, (0, 1))
        assert composite.rows == FIX_A_MU21
        assert composite.rows[0][2] == -301
        modified = mutate_modified(
            mutate_modified(modify(matrix, divisors), divisors, 0), divisors, 1
        )
        assert modified.rows == FIX_A_MU21_MODIFIED

    def test_divisors_differ_from_diagonalizer(self, fix_a_matrix):
        """The scaling vector is data, not derived from the matrix."""
        matrix, divisors = fix_a_matrix
        assert divisors.entries == (2, 3)
        assert diagonalizer(matrix) == (3, 2)


class TestProperties:
    def test_involution_on_random_matrices(self, rng):
        for _ in range(200):
            seed = random_seed(rng)
            k = rng.randrange(seed.matrix.n)
            assert mutate(mutate(seed.matrix, k), k) == seed.matrix
            modified = modify(seed.matrix, seed.divisors)
            assert (
                mutate_modified(
                    mutate_modified(modified, seed.divisors, k), seed.divisors, k
                )
                == modified
            )

    def test_modify_commutes_with_mutation(self, rng):
        for _ in range(200):
            seed = random_seed(rng)
            k = rng.randrange(seed.matrix.n)
            left = modify(mutate(seed.matrix, k), seed.divisors)
            right = mutate_modified(
                modify(seed.matrix, seed.divisors), seed.divisors, k
            )
            assert left == right

    def test_divisibility_persists_along_sequences(self, rng):
        for _ in range(100):
            seed = random_seed(rng)
            sequence = random_sequence(rng, seed.matrix.n, 6)
            current = mutate_sequence(seed.matrix, sequence)
            check_compatible(current, seed.divisors)
            for i in range(current.n):
                d = seed.divisors.entries[i]
                assert all(
                    current.rows[i][j] % d == 0 for j in range(current.n)
                )

    def test_weighted_sequence_matches_stepwise(self, rng):
        for _ in range(50):
            seed = random_seed(rng)
            sequence = random_sequence(rng, seed.matrix.n, 4)
            stepwise = modify(seed.matrix, seed.divisors)
            for k in sequence:
                stepwise = mutate_modified(stepwise, seed.divisors, k)
            assert (
                mutate_sequence(
                    modify(seed.matrix, seed.divisors),
                    sequence,
                    divisors=seed.divisors,
                )
                == stepwise
            )


def assert_like_rebuilt(matrix):
    """``matrix`` behaves as if built afresh from its rows."""
    rebuilt = ExtendedExchangeMatrix(matrix.n, matrix.m, matrix.rows)
    assert matrix == rebuilt
    assert hash(matrix) == hash(rebuilt)
    assert repr(matrix) == repr(rebuilt)
    assert diagonalizer(matrix) == diagonalizer(rebuilt)
    d = matrix._symmetrizer
    assert all(x > 0 for x in d)
    for i in range(matrix.n):
        for j in range(matrix.n):
            assert d[i] * matrix.rows[i][j] == -d[j] * matrix.rows[j][i]


class TestInheritedSymmetrizer:
    def test_mutated_and_modified_matrices_match_fresh_ones(self, rng):
        for _ in range(100):
            seed = random_seed(rng)
            sequence = random_sequence(rng, seed.matrix.n, 6)
            plain = seed.matrix
            modified = modify(seed.matrix, seed.divisors)
            assert_like_rebuilt(modified)
            for k in sequence:
                plain = mutate(plain, k)
                modified = mutate_modified(modified, seed.divisors, k)
                assert_like_rebuilt(plain)
                assert_like_rebuilt(modified)

    def test_group_mutation_results_match_fresh_matrices(self, rng):
        for _ in range(40):
            seed = random_seed(rng)
            fm = build(seed)
            for k in random_sequence(rng, seed.matrix.n, 4):
                fm = group_mutate(fm, k)
                assert_like_rebuilt(fm.matrix)

    def test_root_adjoined_matrices_match_fresh_ones(self):
        rng = random.Random(135)
        seeds = [fixture_seed(name) for name in FIXTURE_NAMES]
        seeds += [random_seed(rng) for _ in range(20)]
        for seed in seeds:
            for mode in ("total", "lcm"):
                assert_like_rebuilt(tau_tilde(seed, mode=mode).seed.matrix)

    def test_wrong_symmetrizer_is_replaced(self):
        matrix = ExtendedExchangeMatrix(
            2, 1, ((0, 2, 5), (-1, 0, 7)), _symmetrizer=(1, 1)
        )
        assert matrix._symmetrizer == (1, 2)
        assert "_symmetrizer" not in repr(matrix)

    def test_wrong_symmetrizer_does_not_hide_a_bad_matrix(self):
        for rows in (((0, 1), (1, 0)), ((1, 0), (0, 0)), ((0, 1), (0, 0))):
            for d in ((1, 1), (2, 1), (0, 0), (-1, -1), (1,)):
                with pytest.raises(NotSkewSymmetrizable):
                    ExtendedExchangeMatrix(2, 0, rows, _symmetrizer=d)


class TestValidation:
    def test_rejects_non_skew_symmetrizable(self):
        with pytest.raises(NotSkewSymmetrizable):
            ExtendedExchangeMatrix.from_rows(((0, 1), (1, 0)), m=0)

    def test_rejects_incompatible_divisors(self, fix_a_matrix):
        matrix, _ = fix_a_matrix
        with pytest.raises(InvalidDivisors):
            check_compatible(matrix, DivisorVector((3, 3)))

    def test_rejects_nonpositive_divisors(self):
        with pytest.raises(InvalidDivisors):
            DivisorVector((1, 0))

    def test_mutation_index_range(self, fix_a_matrix):
        matrix, divisors = fix_a_matrix
        with pytest.raises(IndexOutOfRange):
            mutate(matrix, 2)
        with pytest.raises(IndexOutOfRange):
            mutate_modified(modify(matrix, divisors), divisors, -1)

    def test_frozen_column_not_mutable(self, fix_a_matrix):
        matrix, _ = fix_a_matrix
        with pytest.raises(IndexOutOfRange):
            mutate(matrix, 3)


class TestTextForms:
    def test_roundtrip_on_random(self, rng):
        for _ in range(100):
            matrix = random_seed(rng).matrix
            assert parse_matrix(write_matrix(matrix)) == matrix

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_matrix("")
        with pytest.raises(ParseError):
            parse_matrix("2 1\n0 1 ; 0")
        with pytest.raises(ParseError):
            parse_matrix("x y\n0 ; 0")
