"""Extended exchange matrices: mutation, scaling, and the weighted oracle."""

from itertools import permutations
from math import prod
import random

import pytest
from hypothesis import given, strategies as st

from conftest import dense_mutate
from gencluster.errors import (
    IndexOutOfRange,
    InvalidDivisors,
    NotSkewSymmetrizable,
    ValidationError,
)
from gencluster.fixtures import FIXTURE_NAMES, fixture_seed
from gencluster.matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    check_compatible,
    modify,
    mutate,
    mutate_commuting,
    mutate_sequence,
    write_matrix,
)
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import tau_tilde
from gencluster.unfolding import build, group_mutate
from weighted_quiver import weighted_matrix_mutation

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
        assert modify(mutate(matrix, 0), divisors).rows == FIX_A_MU1_MODIFIED
        assert (
            weighted_matrix_mutation(modify(matrix, divisors), divisors, 0).rows
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
        assert modify(composite, divisors).rows == FIX_A_MU21_MODIFIED
        modified = weighted_matrix_mutation(
            weighted_matrix_mutation(modify(matrix, divisors), divisors, 0),
            divisors,
            1,
        )
        assert modified.rows == FIX_A_MU21_MODIFIED


class TestProperties:
    def test_involution_on_random_matrices(self, rng):
        for _ in range(200):
            seed = random_seed(rng)
            k = rng.randrange(seed.matrix.n)
            assert mutate(mutate(seed.matrix, k), k) == seed.matrix
            modified = modify(seed.matrix, seed.divisors)
            once = weighted_matrix_mutation(modified, seed.divisors, k)
            assert weighted_matrix_mutation(once, seed.divisors, k) == modified

    def test_modify_commutes_with_mutation(self, rng):
        for _ in range(200):
            seed = random_seed(rng)
            k = rng.randrange(seed.matrix.n)
            left = modify(mutate(seed.matrix, k), seed.divisors)
            right = weighted_matrix_mutation(
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

    def test_scaled_sequence_matches_the_weighted_walk(self, rng):
        # The scaled matrix of a mutated seed is modify of its mutated
        # matrix; the weighted rule walks the scaled matrix step by step.
        for _ in range(50):
            seed = random_seed(rng)
            sequence = random_sequence(rng, seed.matrix.n, 4)
            plain = seed.matrix
            weighted = modify(seed.matrix, seed.divisors)
            for k in sequence:
                plain = mutate(plain, k)
                weighted = weighted_matrix_mutation(weighted, seed.divisors, k)
            assert mutate_sequence(seed.matrix, sequence) == plain
            assert modify(plain, seed.divisors) == weighted


def assert_like_rebuilt(matrix):
    """``matrix`` behaves as if built afresh from its rows."""
    rebuilt = ExtendedExchangeMatrix(matrix.n, matrix.m, matrix.rows)
    assert matrix == rebuilt
    assert hash(matrix) == hash(rebuilt)
    assert repr(matrix) == repr(rebuilt)


class TestInheritedSymmetrizer:
    def test_mutated_and_modified_matrices_match_fresh_ones(self, rng):
        for _ in range(100):
            seed = random_seed(rng)
            sequence = random_sequence(rng, seed.matrix.n, 6)
            plain = seed.matrix
            assert_like_rebuilt(modify(plain, seed.divisors))
            for k in sequence:
                plain = mutate(plain, k)
                assert_like_rebuilt(plain)
                assert_like_rebuilt(modify(plain, seed.divisors))

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


@st.composite
def weighted_walks(draw, max_rank=4, max_frozen=3):
    """A skew-symmetrizable matrix with frozen columns, divisors and a walk.

    The principal part is skew-symmetrized by a random positive vector
    ``s`` (``b_ij = s_j c``, ``b_ji = -s_i c``); the divisors need not
    divide its rows, which the weighted oracle does not require.
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
        # With unit divisors the weighted oracle is the standard rule
        # entry by entry.  With others it is conjugate to the standard
        # rule by the principal row scaling, divisible rows or not.
        matrix, divisors, walk = case
        n = matrix.n

        def scale_up(rows):
            return tuple(
                tuple(d * e if j < n else e for j, e in enumerate(row))
                for d, row in zip(divisors, rows)
            )

        plain = weighted = matrix
        for k in walk:
            expected_plain = weighted_matrix_mutation(plain, (1,) * n, k)
            plain = mutate(plain, k)
            assert plain == expected_plain
            assert_valid_as_built(plain)
            scaled = ExtendedExchangeMatrix(n, matrix.m, scale_up(weighted.rows))
            weighted = weighted_matrix_mutation(weighted, divisors, k)
            assert mutate(scaled, k).rows == scale_up(weighted.rows)

    def test_list_rows_are_stored_as_tuples(self):
        rows = [[0, 1, 0, 2], [-1, 0, 1, 0], [0, -1, 0, 3]]
        listed = ExtendedExchangeMatrix(3, 1, rows)
        assert listed == ExtendedExchangeMatrix(3, 1, tuple(map(tuple, rows)))
        # Row 2 has b_20 = 0, so mutation in direction 0 keeps it as it is.
        result = mutate(listed, 0)
        assert all(type(row) is tuple for row in result.rows)
        assert hash(result) == hash(ExtendedExchangeMatrix(3, 1, result.rows))

    def test_integer_like_entries_are_stored_as_ints(self):
        matrix = ExtendedExchangeMatrix.from_rows([[0, True, False]], m=2)
        assert matrix.rows == ((0, 1, 0),)
        assert all(type(e) is int for e in matrix.rows[0])
        divisors = DivisorVector((True, 2))
        assert divisors.entries == (1, 2)
        assert all(type(d) is int for d in divisors.entries)
        for bad in (0.0, "1", None):
            with pytest.raises(ValidationError, match="matrix entries must be integers"):
                ExtendedExchangeMatrix.from_rows([[0, bad]], m=1)
        for bad in (1.0, "1", None, False, 0, -1):
            with pytest.raises(InvalidDivisors, match="divisors must be positive integers"):
                DivisorVector((bad,))


def sign(x):
    return (x > 0) - (x < 0)


def cycle_criterion(rows, n):
    """Whether the principal part of ``rows`` is skew-symmetrizable.

    Fomin-Zelevinsky, Cluster algebras I, Lemma 7.4: the part must be
    sign-skew-symmetric, and every cycle of distinct indices ``i1 ...
    ik`` with ``k >= 3`` must satisfy ``b_{i1 i2} ... b_{ik i1} =
    (-1)^k b_{i2 i1} ... b_{i1 ik}``.  No symmetrizer is built.
    """
    if any(sign(rows[i][j]) != -sign(rows[j][i]) for i in range(n) for j in range(n)):
        return False
    for k in range(3, n + 1):
        for cycle in permutations(range(n), k):
            steps = list(zip(cycle, cycle[1:] + cycle[:1]))
            forward = prod(rows[a][b] for a, b in steps)
            backward = prod(rows[b][a] for a, b in steps)
            if forward != (-1) ** k * backward:
                return False
    return True


def drawn_rows(rng, perturb):
    """``(n, m, rows)`` with a principal part built as :func:`weighted_walks` does.

    With ``perturb``, one principal entry (possibly on the diagonal)
    then moves by a nonzero amount.
    """
    n, m = rng.randint(1, 4), rng.randint(0, 2)
    s = [rng.randint(1, 3) for _ in range(n)]
    rows = [[0] * n + [rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-2, 2)
            rows[i][j], rows[j][i] = s[j] * c, -s[i] * c
    if perturb:
        rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
    return n, m, rows


def zeroed(rows, indices):
    """``rows`` with the rows and principal columns ``indices`` set to zero.

    Taking a vertex out keeps a skew-symmetrizable principal part so.
    """
    for i in indices:
        rows[i] = [0] * len(rows[i])
        for row in rows:
            row[i] = 0
    return rows


class TestOnePass:
    """The one-pass rule against the dense one-direction rule of the tests."""

    def test_mutate_matches_the_dense_rule(self):
        rng = random.Random(4507)
        shared = 0
        for draw in range(400):
            n, m, rows = drawn_rows(rng, perturb=False)
            if draw % 4 == 0:
                m, rows = 0, [row[:n] for row in rows]
            if draw % 3 == 0:
                rows = zeroed(rows, [rng.randrange(n)])
            matrix = ExtendedExchangeMatrix(n, m, rows)
            for k in range(n):
                mutated = mutate(matrix, k)
                assert mutated == dense_mutate(matrix, k)
                assert_valid_as_built(mutated)
                # A row with b_ik = 0 is the input's row object; any other is new.
                for i, row in enumerate(matrix.rows):
                    kept = i != k and row[k] == 0
                    assert (mutated.rows[i] is row) == kept
                    shared += kept
        assert shared > 200

    def test_all_zero_matrices_are_negated_in_the_pivot_row_only(self):
        for n, m in ((1, 0), (2, 0), (3, 2)):
            matrix = ExtendedExchangeMatrix(n, m, ((0,) * (n + m),) * n)
            for k in range(n):
                mutated = mutate(matrix, k)
                assert mutated == matrix == dense_mutate(matrix, k)
                assert all(
                    (new is old) == (i != k)
                    for i, (new, old) in enumerate(zip(mutated.rows, matrix.rows))
                )

    def test_commuting_directions_match_the_dense_rule_composed(self):
        rng = random.Random(4508)
        for _ in range(300):
            n, m, rows = drawn_rows(rng, perturb=False)
            a = rng.randrange(n)
            ks = range(a, rng.randint(a + 1, n))
            # Directions that do not interact: the principal block on ks is zero.
            for i in ks:
                rows[i][a:ks.stop] = [0] * len(ks)
            if rng.randrange(3) == 0:
                rows = zeroed(rows, [rng.randrange(n)])
            matrix = ExtendedExchangeMatrix(n, m, rows)
            result = mutate_commuting(matrix, ks)
            assert_valid_as_built(result)
            for order in permutations(ks):
                composed = matrix
                for k in order:
                    composed = dense_mutate(composed, k)
                assert result == composed
            for i, row in enumerate(matrix.rows):
                assert (result.rows[i] is row) == (i not in ks and not any(row[a:ks.stop]))


class TestValidation:
    def test_constructor_agrees_with_the_cycle_criterion(self):
        rng = random.Random(74)
        built = []
        for draw in range(600):
            n, m, rows = drawn_rows(rng, perturb=draw % 2)
            expected = cycle_criterion(rows, n)
            # The unperturbed half is skew-symmetrizable by construction.
            assert expected or draw % 2, rows
            try:
                ExtendedExchangeMatrix(n, m, rows)
            except NotSkewSymmetrizable:
                built.append(False)
            else:
                built.append(True)
            assert built[-1] == expected, rows
        assert built.count(False) >= 100 and built.count(True) >= 300

    @pytest.mark.parametrize("n, m, rows", [
        (True, 1, ((0, 1),)),
        (1, False, ((0,),)),
        (2.0, 0, ((0, 1), (-1, 0))),
        (2, "0", ((0, 1), (-1, 0))),
        (None, 0, ()),
    ])
    def test_dimensions_must_be_ints(self, n, m, rows):
        # A bool would print as "True 1" in the matrix header.
        with pytest.raises(ValidationError, match="must be ints"):
            ExtendedExchangeMatrix(n, m, rows)
        assert write_matrix(ExtendedExchangeMatrix(1, 1, ((0, 1),))) == "1 1\n0 1\n"

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
        matrix, _ = fix_a_matrix
        with pytest.raises(IndexOutOfRange):
            mutate(matrix, 2)
        with pytest.raises(IndexOutOfRange):
            mutate(matrix, -1)

    def test_frozen_column_not_mutable(self, fix_a_matrix):
        matrix, _ = fix_a_matrix
        with pytest.raises(IndexOutOfRange):
            mutate(matrix, 3)
