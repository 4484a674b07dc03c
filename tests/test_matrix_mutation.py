"""Extended exchange matrices: mutation, scaling, and the weighted rule."""

import random

import pytest
from hypothesis import given, strategies as st

from gencluster.errors import (
    IndexOutOfRange,
    InvalidDivisors,
    NotSkewSymmetrizable,
    ParseError,
    ValidationError,
)
from gencluster.fixtures import FIXTURE_NAMES, fixture_seed
from gencluster.matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    _principal_diagonalizer,
    check_compatible,
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


def diagonalizer(matrix):
    """Minimal positive diagonal ``d`` with ``d_i B_ij = -d_j B_ji``.

    Minimality is componentwise: on each connected component of the
    nonzero pattern the returned entries have no common factor.
    """
    return _principal_diagonalizer(matrix.rows, matrix.n)


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


def oracle_mutate_rows(rows, k, row_scale):
    """The mutation rule entry by entry; ``row_scale(i, j)`` scales the update."""
    new_rows = []
    for i, row in enumerate(rows):
        new_row = []
        for j, e in enumerate(row):
            if i == k or j == k:
                new_row.append(-e)
                continue
            b_ik = row[k]
            b_kj = rows[k][j]
            bump = (abs(b_ik) * b_kj + b_ik * abs(b_kj)) // 2
            new_row.append(e + row_scale(i, j) * bump)
        new_rows.append(tuple(new_row))
    return tuple(new_rows)


@st.composite
def weighted_walks(draw, max_rank=4, max_frozen=3):
    """A skew-symmetrizable matrix with frozen columns, divisors and a walk.

    The principal part is skew-symmetrized by a random positive vector
    ``s`` (``b_ij = s_j c``, ``b_ji = -s_i c``); the divisors need not
    divide its rows, which the weighted rule does not require.
    """
    n = draw(st.integers(1, max_rank))
    m = draw(st.integers(0, max_frozen))
    s = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = [[0] * (n + m) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = draw(st.integers(-2, 2))
            rows[i][j], rows[j][i] = s[j] * c, -s[i] * c
        for l in range(m):
            rows[i][n + l] = draw(st.integers(-5, 5))
    matrix = ExtendedExchangeMatrix(n, m, tuple(tuple(row) for row in rows))
    divisors = DivisorVector(tuple(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ))
    walk = draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=6))
    return matrix, divisors, walk


def assert_valid_as_built(matrix):
    """A trusted result passes the validating constructor unchanged."""
    assert type(matrix) is ExtendedExchangeMatrix
    assert ExtendedExchangeMatrix(matrix.n, matrix.m, matrix.rows) == matrix


class TestTrustedResults:
    @given(weighted_walks())
    def test_walks_match_the_entrywise_oracle(self, case):
        matrix, divisors, walk = case
        n = matrix.n
        plain = modified = matrix
        for k in walk:
            expected_plain = oracle_mutate_rows(plain.rows, k, lambda i, j: 1)
            expected_modified = oracle_mutate_rows(
                modified.rows,
                k,
                lambda i, j: divisors[k] if j < n else divisors[i],
            )
            plain = mutate(plain, k)
            modified = mutate_modified(modified, divisors, k)
            assert plain.rows == expected_plain
            assert modified.rows == expected_modified
            assert_valid_as_built(plain)
            assert_valid_as_built(modified)

    def test_list_rows_are_stored_as_tuples(self):
        rows = [[0, 1, 0, 2], [-1, 0, 1, 0], [0, -1, 0, 3]]
        listed = ExtendedExchangeMatrix(3, 1, rows)
        assert listed == ExtendedExchangeMatrix(3, 1, tuple(map(tuple, rows)))
        # Row 2 has b_20 = 0, so mutation in direction 0 keeps it as it is.
        divisors = DivisorVector.of(2, 1, 1)
        for result in (mutate(listed, 0), mutate_modified(listed, divisors, 0)):
            assert all(type(row) is tuple for row in result.rows)
            assert hash(result) == hash(ExtendedExchangeMatrix(3, 1, result.rows))


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

    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_from_rows_rejects_non_integers(self, bad):
        with pytest.raises(ValidationError):
            ExtendedExchangeMatrix.from_rows([[0, bad]], m=1)
        assert ExtendedExchangeMatrix.from_rows([[0, 3]], m=1).rows == ((0, 3),)

    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_divisors_of_rejects_non_integers(self, bad):
        with pytest.raises(InvalidDivisors):
            DivisorVector.of(2, bad)
        assert DivisorVector.of(2, 3).entries == (2, 3)

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
