"""Unfolding: block layout, group mutation, and preserved block structure."""

from itertools import product
from math import lcm, prod
import random

import pytest

from conftest import group_mutate_sequence, member_by_member
from gencluster.errors import (
    IndexOutOfRange,
    Report,
    StructureViolation,
    ValidationError,
)
from gencluster.gca_seed import initial_seed
from gencluster.matrix_mutation import (
    ExtendedExchangeMatrix,
    mutate,
    mutate_sequence,
    write_matrix,
)
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import root_multiplicity
from gencluster.unfolding import (
    FoldedLayout,
    FoldedMatrix,
    build,
    double_constant_check,
    group_mutate,
    hadamard_check,
)

# The rank-2 fixture with divisors (2, 3) unfolds to a 5 x 17 matrix:
# two F columns, then T/S column pairs for each of the two groups.
FIX_A_UNFOLDED = (
    "5 12\n"
    "0 0 4 4 4 -9 15 1 0 -1 0 0 0 0 0 0 0 ; "
    "0 0 4 4 4 -9 15 0 1 0 -1 0 0 0 0 0 0 ; "
    "-4 -4 0 0 0 -4 14 0 0 0 0 1 0 0 -1 0 0 ; "
    "-4 -4 0 0 0 -4 14 0 0 0 0 0 1 0 0 -1 0 ; "
    "-4 -4 0 0 0 -4 14 0 0 0 0 0 0 1 0 0 -1\n"
)

FIX_A_GROUP0 = (
    "5 12\n"
    "0 0 -4 -4 -4 9 -15 -1 0 1 0 0 0 0 0 0 0 ; "
    "0 0 -4 -4 -4 9 -15 0 -1 0 1 0 0 0 0 0 0 ; "
    "4 4 0 0 0 -76 14 0 0 -4 -4 1 0 0 -1 0 0 ; "
    "4 4 0 0 0 -76 14 0 0 -4 -4 0 1 0 0 -1 0 ; "
    "4 4 0 0 0 -76 14 0 0 -4 -4 0 0 1 0 0 -1\n"
)

# After mutating group 0 and then group 1.  The F entry -903 is forced
# by block constancy: it must equal (D / d_0) times the corresponding
# entry of the twice-mutated reference matrix, 3 * (-301) = -903 (the
# value -912 = 3 * (-304) propagates an entry inconsistent with the
# mutation rule).  The S block entries (-47, -48) are forced by the
# closed block formula: the gain on block (0, S0) is the matrix product
# of two all-(-4) blocks over the three members of group 1, -48 on
# every entry, added to the identity block; a gain of -16 would count a
# single member instead of three.
FIX_A_GROUP01 = (
    "5 12\n"
    "0 0 4 4 4 -903 -15 -1 0 -47 -48 0 0 0 -4 -4 -4 ; "
    "0 0 4 4 4 -903 -15 0 -1 -48 -47 0 0 0 -4 -4 -4 ; "
    "-4 -4 0 0 0 76 -14 0 0 4 4 -1 0 0 1 0 0 ; "
    "-4 -4 0 0 0 76 -14 0 0 4 4 0 -1 0 0 1 0 ; "
    "-4 -4 0 0 0 76 -14 0 0 4 4 0 0 -1 0 0 1\n"
)

FIX_A_MU21 = ((0, 8, -301, -5), (-12, 0, 38, -7))


def column_groups(fm):
    """All column groups of ``fm`` as (kind, index, range) triples."""
    out = [("cluster", j, fm.layout.group_range(j)) for j in range(fm.layout.n_groups)]
    for l, c in enumerate(fm.layout.f_block):
        out.append(("f", l, range(c, c + 1)))
    for j in range(fm.layout.n_groups):
        out.append(("t", j, fm.layout.t_range(j)))
        out.append(("s", j, fm.layout.s_range(j)))
    return out


def unfolding_conditions_check(fm, matrix):
    """Column sums and sign coherence of the cluster blocks (an oracle).

    For each cluster block ``(i, j)`` against the reference entry
    ``B_ij``: every column of the block sums to ``B_ij``, and when
    ``B_ij > 0`` every entry of the block is non-negative.  These are the
    unfolding conditions of Felikson, Shapiro and Tumarkin; block
    constancy implies them, so ``hadamard_check`` fails wherever this
    does.
    """
    failures = []
    groups = fm.layout.groups
    for i, rows_i in enumerate(groups):
        for j, cols in enumerate(groups):
            ref = matrix.rows[i][j]
            block = fm.block(rows_i, cols)
            for col in range(len(block[0])):
                total = sum(block[r][col] for r in range(len(block)))
                if total != ref:
                    failures.append(
                        ("column-sum", i, j, f"column {col} sums to {total}, "
                         f"expected {ref}")
                    )
                    break
            if ref > 0 and any(e < 0 for row in block for e in row):
                failures.append(("sign", i, j, "negative entry under positive reference"))
    return Report(tuple(failures))


def edited(fm, changes):
    """Copy of ``fm`` with ``{(row, col): value}`` entry replacements."""
    rows = [list(row) for row in fm.matrix.rows]
    for (r, c), value in changes.items():
        rows[r][c] = value
    matrix = ExtendedExchangeMatrix(
        fm.matrix.n, fm.matrix.m, tuple(tuple(row) for row in rows)
    )
    return FoldedMatrix(matrix=matrix, layout=fm.layout)


class TestBuild:
    def test_matrix_golden(self, fix_a):
        fm = build(fix_a)
        assert write_matrix(fm.matrix) == FIX_A_UNFOLDED
        assert fm.group_sizes == (2, 3)
        assert fm.m_original == 2

    def test_block_reconstruction(self, fix_a):
        fm = build(fix_a)
        B, d = fix_a.matrix, fix_a.divisors
        D = d.product
        n = B.n
        for i in range(n):
            rows_i = fm.layout.group_range(i)
            for kind, idx, cols in column_groups(fm):
                block = fm.block(rows_i, cols)
                if kind == "cluster":
                    value = B.rows[i][idx] // d[i]
                    assert all(e == value for row in block for e in row)
                elif kind == "f":
                    value = (D // d[i]) * B.rows[i][n + idx]
                    assert all(e == value for row in block for e in row)
                elif kind == "t":
                    expected = 1 if idx == i else 0
                    for r, row in enumerate(block):
                        for c, e in enumerate(row):
                            assert e == (expected if r == c else 0)
                else:
                    expected = -1 if idx == i else 0
                    for r, row in enumerate(block):
                        for c, e in enumerate(row):
                            assert e == (expected if r == c else 0)

    def test_layout_accessors(self, fix_a):
        fm = build(fix_a)
        assert list(fm.layout.group_range(0)) == [0, 1]
        assert list(fm.layout.group_range(1)) == [2, 3, 4]
        assert list(fm.layout.f_block) == [5, 6]
        assert list(fm.layout.t_range(0)) == [7, 8]
        assert list(fm.layout.s_range(0)) == [9, 10]
        assert list(fm.layout.t_range(1)) == [11, 12, 13]
        assert list(fm.layout.s_range(1)) == [14, 15, 16]
        kinds = [(kind, idx) for kind, idx, _ in column_groups(fm)]
        assert kinds == [
            ("cluster", 0),
            ("cluster", 1),
            ("f", 0),
            ("f", 1),
            ("t", 0),
            ("s", 0),
            ("t", 1),
            ("s", 1),
        ]

    @pytest.mark.parametrize("accessor", ["group_range", "t_range", "s_range"])
    def test_group_accessors_refuse_a_missing_group(self, fix_a, accessor):
        # -1 would otherwise read the last group, and n_groups one past it.
        layout = build(fix_a).layout
        for i in (-1, layout.n_groups):
            with pytest.raises(IndexOutOfRange, match=f"no group {i}"):
                getattr(layout, accessor)(i)

    def test_layout_validation(self, fix_a):
        fm = build(fix_a)
        with pytest.raises(ValidationError):
            FoldedMatrix(matrix=fm.matrix, layout=FoldedLayout((2, 2), 2))
        with pytest.raises(ValidationError):
            FoldedMatrix(matrix=fm.matrix, layout=FoldedLayout((2, 3), 1))

    def test_fix_c_shape(self, fix_c):
        fm = build(fix_c)
        assert fm.group_sizes == (2,)
        assert fm.m_original == 1
        assert write_matrix(fm.matrix) == (
            "2 5\n0 0 2 1 0 -1 0 ; 0 0 2 0 1 0 -1\n"
        )


class TestGroupMutation:
    def test_single_group_golden(self, fix_a):
        fm = group_mutate(build(fix_a), 0)
        assert write_matrix(fm.matrix) == FIX_A_GROUP0

    def test_two_group_golden(self, fix_a):
        fm = group_mutate_sequence(build(fix_a), (0, 1))
        assert write_matrix(fm.matrix) == FIX_A_GROUP01
        assert fm.matrix.rows[0][5] == -903
        assert fm.matrix.rows[1][5] == -903
        assert (fm.matrix.rows[0][9], fm.matrix.rows[0][10]) == (-47, -48)
        assert (fm.matrix.rows[1][9], fm.matrix.rows[1][10]) == (-48, -47)

    def test_deep_entries_tied_to_reference_matrix(self, fix_a):
        reference = mutate_sequence(fix_a.matrix, (0, 1))
        assert reference.rows == FIX_A_MU21
        fm = group_mutate_sequence(build(fix_a), (0, 1))
        report = hadamard_check(fm, reference)
        assert report.ok, report.failures
        assert fm.matrix.rows[0][5] == 3 * reference.rows[0][2]

    def test_involution(self, fix_a, fix_c):
        for seed in (fix_a, fix_c):
            fm = build(seed)
            assert group_mutate(group_mutate(fm, 0), 0) == fm

    def test_bad_group_index(self, fix_a):
        with pytest.raises(IndexOutOfRange):
            group_mutate(build(fix_a), 2)

    def test_group_mutation_shares_the_layout(self, fix_a, monkeypatch):
        fm = build(fix_a)

        def recompute(layout):
            raise AssertionError("layout recomputed")

        monkeypatch.setattr(FoldedLayout, "__post_init__", recompute)
        for k in (0, 1, 1, 0):
            mutated = group_mutate(fm, k)
            assert mutated.layout is fm.layout
            fm = mutated

    def test_interacting_members_rejected(self):
        matrix = ExtendedExchangeMatrix.from_rows(
            ((0, 1, 1, 0, -1, 0), (-1, 0, 0, 1, 0, -1)), m=4
        )
        fm = FoldedMatrix(matrix=matrix, layout=FoldedLayout((2,), 0))
        with pytest.raises(StructureViolation) as raised:
            group_mutate(fm, 0)
        assert str(raised.value) == (
            "group 0 members interact at (0,1); group mutation is not well-defined"
        )

    def test_sign_incoherent_block_reported(self, fix_a):
        # Group mutation does not need sign-coherent blocks (members that
        # do not interact commute); the block checks report the corruption
        # before and after it.
        fm = edited(build(fix_a), {(0, 4): -4, (4, 0): 4})
        reference = fix_a.matrix
        for _ in range(2):
            hadamard = hadamard_check(fm, reference)
            conditions = unfolding_conditions_check(fm, reference)
            assert ("cluster", 0, 1) in [f[:3] for f in hadamard.failures]
            assert (0, 1) in [f[1:3] for f in conditions.failures]
            fm = group_mutate(fm, 0)
            reference = mutate_sequence(reference, (0,))


def block_sign(block):
    """Common sign of a block's entries, which must not be mixed."""
    signs = {(e > 0) - (e < 0) for row in block for e in row} - {0}
    assert len(signs) <= 1, f"sign-incoherent block {block}"
    return signs.pop() if signs else 0


def block_formula(fm, k):
    """Closed formula for mutating every member of group ``k``.

    Blocks in row or column group ``k`` are negated; every other block
    ``(Y, Z)`` gains ``(sgn(B[Y,k]) + sgn(B[k,Z])) / 2 * B[Y,k] @ B[k,Z]``,
    which needs both factors to be sign-coherent.
    """
    rows = [list(row) for row in fm.matrix.rows]
    k_cols = fm.layout.group_range(k)
    for i in range(fm.layout.n_groups):
        rows_i = fm.layout.group_range(i)
        left = fm.block(rows_i, k_cols)
        for kind, idx, cols in column_groups(fm):
            block = fm.block(rows_i, cols)
            if i == k or (kind == "cluster" and idx == k):
                new = [[-e for e in row] for row in block]
            else:
                right = fm.block(k_cols, cols)
                scale = (block_sign(left) + block_sign(right)) // 2
                new = [
                    [
                        e + scale * sum(x * y for x, y in zip(left_row, col))
                        for e, col in zip(row, zip(*right))
                    ]
                    for row, left_row in zip(block, left)
                ]
            for r, row in zip(rows_i, new):
                for c, e in zip(cols, row):
                    rows[r][c] = e
    matrix = ExtendedExchangeMatrix(
        fm.matrix.n, fm.matrix.m, tuple(tuple(row) for row in rows)
    )
    return FoldedMatrix(matrix=matrix, layout=fm.layout)


class TestBlockFormula:
    """Member-by-member group mutation against the closed block formula."""

    def test_fixtures_exhaustive(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            states = [build(seed)]
            for _ in range(4):
                following = []
                for fm in states:
                    for k in range(fm.layout.n_groups):
                        mutated = group_mutate(fm, k)
                        assert mutated == block_formula(fm, k)
                        following.append(mutated)
                states = following

    def test_random_seeds(self):
        rng = random.Random(2012)
        for _ in range(80):
            seed = random_seed(rng)
            fm = build(seed)
            for k in random_sequence(rng, seed.matrix.n, 4):
                mutated = group_mutate(fm, k)
                assert mutated == block_formula(fm, k)
                fm = mutated

    def test_oracle_needs_sign_coherent_blocks(self, fix_a):
        fm = edited(build(fix_a), {(0, 4): -4, (4, 0): 4})
        with pytest.raises(AssertionError, match="sign-incoherent"):
            block_formula(fm, 0)


class TestMemberByMember:
    """One-pass group mutation against member-by-member dense mutation."""

    def test_fixture_walks(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            for fm in walk_states(seed, 4):
                for k in range(fm.layout.n_groups):
                    assert group_mutate(fm, k) == member_by_member(fm, k)

    def test_random_seeds(self):
        rng = random.Random(2013)
        for _ in range(80):
            seed = random_seed(rng)
            fm = build(seed)
            for k in random_sequence(rng, seed.matrix.n, 4):
                expected = member_by_member(fm, k)
                fm = group_mutate(fm, k)
                assert fm == expected

    def test_sign_incoherent_blocks(self, fix_a, fix_b):
        # Edited unfoldings on which block_formula refuses group k.
        refused = []
        for seed in (fix_a, fix_b):
            for fm in walk_states(seed, 2):
                for broken in cluster_tamperings(fm):
                    for k in range(broken.layout.n_groups):
                        try:
                            block_formula(broken, k)
                        except AssertionError:
                            assert group_mutate(broken, k) == member_by_member(broken, k)
                            refused.append(k)
        assert len(refused) > 100 and set(refused) == {0, 1}

    def test_groups_of_one(self):
        seeds = [
            initial_seed(ExtendedExchangeMatrix.from_rows([[0, 2, -1, 3], [-2, 0, 4, 0]], m=2), (1, 2)),
            initial_seed(
                ExtendedExchangeMatrix.from_rows([[0, 1, -1, 2], [-1, 0, 1, 0], [1, -1, 0, -3]], m=1),
                (1, 1, 1),
            ),
        ]
        for seed in seeds:
            assert 1 in build(seed).group_sizes
            for fm in walk_states(seed, 4):
                for k in range(fm.layout.n_groups):
                    assert group_mutate(fm, k) == member_by_member(fm, k)

    def test_fix_a_alternating_to_depth_300(self, fix_a):
        fm = build(fix_a)
        for step in range(300):
            expected = member_by_member(fm, step % 2)
            fm = group_mutate(fm, step % 2)
            assert fm == expected
        assert max(abs(e) for row in fm.matrix.rows for e in row).bit_length() > 900


def has_witness(fm):
    """Whether a double-constant witness fits ``fm``, read off the definition.

    Every ``T + S`` block is constant, and every ``T`` block is constant
    once ``alpha Id`` is taken off, for ``alpha = 0`` off the diagonal
    and for some ``alpha`` in ``{+1, -1}`` on it.
    """
    for i, j in product(range(fm.layout.n_groups), repeat=2):
        rows, (t_cols, s_cols) = fm.layout.group_range(i), fm.layout.aux[j]
        t, s = fm.block(rows, t_cols), fm.block(rows, s_cols)
        if len({x + y for tr, sr in zip(t, s) for x, y in zip(tr, sr)}) != 1:
            return False
        if not any(
            len({
                e - (alpha if r == q else 0)
                for r, row in enumerate(t) for q, e in enumerate(row)
            }) == 1
            for alpha in ((1, -1) if i == j else (0,))
        ):
            return False
    return True


def assert_raises_exactly_without_witness(fm):
    if has_witness(fm):
        assert double_constant_check(fm) is None
    else:
        with pytest.raises(StructureViolation):
            double_constant_check(fm)


def walk_states(seed, depth):
    """Every group-mutation state of ``build(seed)`` up to ``depth`` steps."""
    states = layer = [build(seed)]
    for _ in range(depth):
        layer = [group_mutate(fm, k) for fm in layer for k in range(fm.layout.n_groups)]
        states = states + layer
    return states


def ts_corruptions(fm):
    """Edits of the ``T``/``S`` columns of ``fm`` as ``{(row, col): value}``.

    Single entries moved by one; a ``T`` entry and the ``S`` entry beside
    it moved oppositely, which keeps ``T + S``; and a diagonal block's
    identity part shifted by ``-2 .. 2``, again keeping ``T + S``.
    """
    rows = fm.matrix.rows
    for j in range(fm.layout.n_groups):
        for r in range(fm.layout.total):
            for t, s in zip(fm.layout.t_range(j), fm.layout.s_range(j)):
                yield {(r, t): rows[r][t] + 1}
                yield {(r, s): rows[r][s] - 1}
                yield {(r, t): rows[r][t] + 1, (r, s): rows[r][s] - 1}
    for i in range(fm.layout.n_groups):
        layout = fm.layout
        members = list(zip(layout.group_range(i), layout.t_range(i), layout.s_range(i)))
        for delta in (-2, -1, 1, 2):
            changes = {}
            for r, t, s in members:
                changes[(r, t)] = rows[r][t] + delta
                changes[(r, s)] = rows[r][s] - delta
            yield changes


class TestDoubleConstantOracle:
    """``double_constant_check`` raises exactly when no witness fits."""

    def test_verdict_on_fixture_walks(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            for fm in walk_states(seed, 4):
                assert has_witness(fm)
                assert_raises_exactly_without_witness(fm)

    def test_verdict_on_random_walks(self):
        rng = random.Random(4017)
        for _ in range(60):
            seed = random_seed(rng)
            fm = build(seed)
            assert_raises_exactly_without_witness(fm)
            for k in random_sequence(rng, seed.matrix.n, 4):
                fm = group_mutate(fm, k)
                assert_raises_exactly_without_witness(fm)

    def test_raises_exactly_when_no_witness_fits(self, fix_a, fix_b, fix_c):
        rng = random.Random(4018)
        states = [fm for seed in (fix_a, fix_b, fix_c) for fm in walk_states(seed, 2)]
        for _ in range(20):
            seed = random_seed(rng)
            states += walk_states(seed, 1)
        verdicts = set()
        for fm in states:
            for changes in ts_corruptions(fm):
                broken = edited(fm, changes)
                verdicts.add(has_witness(broken))
                assert_raises_exactly_without_witness(broken)
        assert verdicts == {True, False}


class TestBlockConditions:
    def test_hadamard_at_build(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            fm = build(seed)
            report = hadamard_check(fm, seed.matrix)
            assert report.ok, report.failures

    def test_hadamard_along_prefixes(self, fix_a):
        fm = build(fix_a)
        matrix = fix_a.matrix
        for k in (0, 1, 0, 1):
            fm = group_mutate(fm, k)
            matrix = mutate_sequence(matrix, (k,))
            report = hadamard_check(fm, matrix)
            assert report.ok, report.failures

    def test_hadamard_with_root_multiplicity(self):
        # Divisors (2, 2) share a factor: roots adjoined with the lcm 2
        # scale the F columns by 2 / d_k, not by the product 4 / d_k.
        # The layout carries the multiplicity, so the check is not told it.
        matrix = ExtendedExchangeMatrix.from_rows(
            [[0, 2, -1, -2], [-2, 0, 4, 3]], m=2
        )
        seed = initial_seed(matrix, (2, 2))
        fm = build(seed, multiplicity=2)
        assert (fm.layout.multiplicity, fm.layout.f_scales) == (2, (1, 1))
        assert fm.block(fm.layout.group_range(0), range(4, 6)) == ((-1, -2), (-1, -2))
        for k in (0, 1, 0):
            fm = group_mutate(fm, k)
            matrix = mutate_sequence(matrix, (k,))
            report = hadamard_check(fm, matrix)
            assert report.ok, report.failures
        # The same matrix under the default layout (multiplicity 4) is not
        # block-constant against the reference.
        default = FoldedMatrix(matrix=fm.matrix, layout=FoldedLayout((2, 2), 2))
        assert not hadamard_check(default, matrix).ok
        with pytest.raises(ValidationError, match="root multiplicity 3 is not"):
            build(seed, multiplicity=3)

    @pytest.mark.parametrize("n", [0, -6, 4])
    def test_layout_refuses_a_multiplicity_that_is_not_a_common_multiple(self, n):
        with pytest.raises(ValidationError, match=f"root multiplicity {n} is not"):
            FoldedLayout((2, 3), 1, n)

    @pytest.mark.parametrize("sizes, m, n", [((2,), -1, None), ((2, 3), -2, 6)])
    def test_layout_refuses_a_negative_frozen_count(self, sizes, m, n):
        # A negative count would start the t columns inside the cluster
        # block, where a matrix of the shrunken width would pass the shape
        # check and identity_sign would read a cluster column.
        with pytest.raises(ValidationError, match=f"frozen count {m} is negative"):
            FoldedLayout(sizes, m, n)

    def test_layout_stores_its_sizes_as_ints(self):
        # Sizes of another integer type (here ``True``) are stored as the
        # plain ints that the blocks are worked out from.
        layout = FoldedLayout((True, 2), True, 2)
        assert (layout.group_sizes, layout.m_original, layout.multiplicity) == ((1, 2), 1, 2)
        assert all(
            type(v) is int
            for v in (*layout.group_sizes, layout.m_original, layout.multiplicity)
        )
        assert FoldedLayout((2,), True).m_original == 1
        assert type(FoldedLayout((2,), True).m_original) is int
        assert layout.f_block == range(3, 4)

    def test_block_constancy_under_other_multiplicities(self, fix_a, fix_b, fix_c):
        rng = random.Random(2504)
        seeds = [fix_a, fix_b, fix_c]
        seeds += [random_seed(rng, max_frozen=3) for _ in range(40)]
        for seed in seeds:
            divisors = seed.divisors.entries
            for n in (lcm(*divisors), 2 * prod(divisors)):
                fm, matrix = build(seed, n), seed.matrix
                assert fm.layout.multiplicity == n
                assert hadamard_check(fm, matrix).ok
                for k in random_sequence(rng, matrix.n, 5):
                    fm, matrix = group_mutate(fm, k), mutate(matrix, k)
                    report = hadamard_check(fm, matrix)
                    assert report.ok, report.failures

    def test_hadamard_detects_corruption(self, fix_a):
        fm = edited(build(fix_a), {(0, 5): -8})
        report = hadamard_check(fm, fix_a.matrix)
        assert not report.ok
        assert report.failures[0][:3] == ("f", 0, 0)

    @pytest.mark.parametrize("changes, reference_rows, failures", [
        # Skew-symmetric edits of the cluster block: the first offender of
        # each block is named, not its first row.
        ({(1, 3): 3, (3, 1): -3, (1, 4): 5, (4, 1): -5}, None, (
            ("cluster", 0, 1, "entry (1,1) = 3, expected 4"),
            ("cluster", 1, 0, "entry (1,1) = -3, expected -4"),
        )),
        ({(1, 6): 16, (4, 5): -5}, None, (
            ("f", 0, 1, "entry (1,0) = 16, expected 15"),
            ("f", 1, 0, "entry (2,0) = -5, expected -4"),
        )),
        # d_0 = 2 does not divide 7; the block it would fix is not read.
        ({(0, 2): 5, (2, 0): -5}, ((0, 7, -3, 5), (-12, 0, -2, 7)), (
            ("cluster", 0, 1, "reference entry not divisible by d_i"),
            ("cluster", 1, 0, "entry (0,0) = -5, expected -4"),
        )),
    ])
    def test_hadamard_failures_in_full(self, fix_a, changes, reference_rows, failures):
        fm = edited(build(fix_a), changes)
        reference = fix_a.matrix
        if reference_rows is not None:
            reference = ExtendedExchangeMatrix.from_rows(reference_rows, m=2)
        assert hadamard_check(fm, reference).failures == failures

    def test_reference_with_fewer_groups_rejected(self, fix_b):
        # One row that matches group 0 of FIX-B would leave group 1 unchecked.
        fm = build(fix_b)
        reference = ExtendedExchangeMatrix.from_rows([[0, -8, 4, 0, 0, 0]], m=5)
        with pytest.raises(ValidationError, match="1 rows"):
            hadamard_check(fm, reference)

    def test_reference_with_fewer_f_columns_rejected(self, fix_a):
        fm = build(fix_a)
        reference = ExtendedExchangeMatrix.from_rows(
            [row[:3] for row in fix_a.matrix.rows], m=1
        )
        with pytest.raises(ValidationError, match="1 frozen columns"):
            hadamard_check(fm, reference)

    def test_double_constant_at_build(self, fix_a):
        assert double_constant_check(build(fix_a)) is None

    def test_double_constant_after_groups(self, fix_a):
        # The constants a, c and alpha here are pinned by the walkthrough.
        fm = group_mutate_sequence(build(fix_a), (0, 1))
        assert has_witness(fm)
        assert double_constant_check(fm) is None

    def test_double_constant_detects_corruption(self, fix_a):
        fm = edited(build(fix_a), {(0, 10): 5})
        with pytest.raises(StructureViolation):
            double_constant_check(fm)

    @pytest.mark.parametrize("changes, text", [
        ({(0, 11): 2}, "T block (0,1) is not a constant plus 0 Id"),
        ({(0, 10): 5}, "T+S block (0,0) is not constant"),
        ({(2, 9): 1}, "T+S block (1,0) is not constant"),
        # Both blocks of pair (0,0) break, the S block in an earlier row:
        # every T row is checked before the S rows.
        ({(1, 7): 1, (0, 10): 5}, "T block (0,0) is not a constant plus 1 Id"),
        # Pair (0,1) comes before pair (1,0).
        ({(2, 7): 1, (0, 15): 2}, "T+S block (0,1) is not constant"),
    ])
    def test_double_constant_texts(self, fix_a, changes, text):
        with pytest.raises(StructureViolation) as raised:
            double_constant_check(edited(build(fix_a), changes))
        assert str(raised.value) == text

    @pytest.mark.parametrize("value", [2, 0])
    def test_identity_sign_raises_as_the_double_constant_check(self, fix_a, value):
        # Row 0 of FIX-A's unfolding holds its diagonal T block's first
        # row in columns 7 and 8, as (1, 0).
        broken = edited(build(fix_a), {(0, 7): value})
        with pytest.raises(StructureViolation) as read:
            broken.identity_sign(0)
        with pytest.raises(StructureViolation) as checked:
            double_constant_check(broken)
        assert str(read.value) == str(checked.value) == (
            f"diagonal T block (0,0) identity part is {value}, expected +1 or -1"
        )

    def test_identity_sign_of_a_group_of_one_is_plus_one(self):
        # A 1 x 1 block cannot tell its constant from its identity part.
        fm = build(initial_seed(ExtendedExchangeMatrix.from_rows([[0]], m=0), (1,)))
        for value in (1, -1, 3):
            assert edited(fm, {(0, 1): value}).identity_sign(0) == 1
        with pytest.raises(IndexOutOfRange):
            fm.identity_sign(1)

    def test_conditions_at_build(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            report = unfolding_conditions_check(build(seed), seed.matrix)
            assert report.ok, report.failures

    def test_random_walks_preserve_all_conditions(self, rng):
        for _ in range(60):
            seed = random_seed(rng)
            fm = build(seed)
            matrix = seed.matrix
            for k in random_sequence(rng, matrix.n, 4):
                fm = group_mutate(fm, k)
                matrix = mutate_sequence(matrix, (k,))
                assert hadamard_check(fm, matrix).ok
                double_constant_check(fm)
                assert unfolding_conditions_check(fm, matrix).ok


def walk_pairs(fm, reference, depth):
    """Every ``(unfolding, reference)`` pair of the group walks up to ``depth``."""
    pairs = layer = [(fm, reference)]
    for _ in range(depth):
        layer = [
            (group_mutate(f, k), mutate(r, k)) for f, r in layer for k in range(r.n)
        ]
        pairs = pairs + layer
    return pairs


def skew_edited(fm, deltas):
    """``fm`` with each ``{(row, col): delta}`` added there and taken off at ``(col, row)``.

    The cluster block of an unfolding is skew-symmetric, and stays so.
    """
    total = {}
    for (r, c), delta in deltas.items():
        total[(r, c)] = total.get((r, c), 0) + delta
        total[(c, r)] = total.get((c, r), 0) - delta
    rows = fm.matrix.rows
    return edited(fm, {(r, c): rows[r][c] + d for (r, c), d in total.items()})


def cluster_tamperings(fm):
    """Skew-symmetric edits of the cluster block of ``fm``.

    Single entries moved by one or negated, and ``2 x 2`` cycles
    ``+1 -1 / -1 +1`` on two rows and two columns, which keep every
    column sum.
    """
    rows = fm.matrix.rows
    members = fm.layout.cluster_block
    for r in members:
        for c in members:
            if r < c:
                for delta in (1, -1, -2 * rows[r][c]):
                    yield skew_edited(fm, {(r, c): delta})
            if r + 1 in members and c + 1 in members and not {r, r + 1} & {c, c + 1}:
                yield skew_edited(
                    fm, {(r, c): 1, (r + 1, c): -1, (r, c + 1): -1, (r + 1, c + 1): 1}
                )


class TestConditionsOracle:
    """The unfolding conditions hold wherever block constancy does."""

    def test_oracle_and_hadamard_agree(self, fix_a, fix_b, fix_c):
        rng = random.Random(2012)
        pairs = []
        for mode in ("total", "lcm"):
            for seed in (fix_a, fix_b, fix_c):
                root = build(seed, root_multiplicity(seed, mode))
                pairs += walk_pairs(root, seed.matrix, 6)
            for _ in range(60):
                seed = random_seed(rng)
                fm, reference = build(seed, root_multiplicity(seed, mode)), seed.matrix
                pairs.append((fm, reference))
                for k in random_sequence(rng, reference.n, 4):
                    fm, reference = group_mutate(fm, k), mutate(reference, k)
                    pairs.append((fm, reference))
        for fm, reference in pairs:
            assert hadamard_check(fm, reference).ok
            assert unfolding_conditions_check(fm, reference).ok
        verdicts = set()
        for fm, reference in pairs[::7]:
            for broken in cluster_tamperings(fm):
                conditions = unfolding_conditions_check(broken, reference)
                verdicts.add(conditions.ok)
                if not conditions.ok:
                    assert not hadamard_check(broken, reference).ok
        assert verdicts == {True, False}
