"""Generalized seeds: higher-degree exchange relations and mutation."""

import random
import tracemalloc

import pytest

from conftest import (
    FIRST_RUNG_LIMIT,
    cluster_side,
    mono_over,
    mono_power,
    mono_times,
    parse_polynomial,
    poly_mul_monomial,
    poly_sum,
)
from gencluster import gca_seed
from gencluster.errors import (
    IndexOutOfRange,
    InvalidDivisors,
    Report,
    ValidationError,
)
from gencluster.fixtures import fixture_seed
from gencluster.gca_seed import (
    CoefficientStrings,
    ExchangeContext,
    GeneralizedSeed,
    exchange_polynomial,
    initial_seed,
    mutate_seed,
    mutate_seed_sequence,
    root_formula_check,
)
from gencluster.laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    VariableTable,
    poly_add,
    poly_exact_div,
    poly_mul,
    poly_pow,
    poly_shifted_sum,
)
from gencluster.matrix_mutation import ExtendedExchangeMatrix, modify, mutate
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import tau_tilde

# Independently derived canonical exchange polynomials of the bundled
# rank-2 seed with divisors (3, 2) and strings (1, p1x, p2x, 1) and
# (1, p1y, 1).
FIX_B_THETA_X = "y^3*b^2 + y^2*a*b*p2x + y*a^2*p1x + a^4"
FIX_B_THETA_Y = "x^2*b^3 + x*b*p1y + 1"


def frozen_box(seed, k, r):
    """The pair ``(v>[r], v<[r])`` of frozen monomials for direction ``k``."""
    seed.matrix.check_direction(k)
    d_k = seed.divisors[k]
    if not 0 <= r <= d_k:
        raise IndexOutOfRange(f"box index {r} outside 0..{d_k}")
    _, _, _, v_gt, v_lt = monomial_context(seed, k)
    return v_gt[r], v_lt[r]


def special_monomial(seed, n, j, k, r):
    """Correction monomial of ``f_j`` for an ``n``-fold frozen rescaling.

    With ``b = bhat_kj`` (the signed scaled entry) and ``d = d_k``, the
    exponent is :func:`~gencluster.gca_seed.floor_defect` ``(n, r, b, d)``.
    """
    seed.matrix.check_direction(k)
    d_k = seed.divisors[k]
    if not 0 <= r <= d_k:
        raise IndexOutOfRange(f"index {r} outside 0..{d_k}")
    pos = seed.table.index(j)
    if pos < seed.table.n_cluster:
        raise ValidationError(f"{j!r} is not a frozen variable")
    b = seed.scaled_row(k)[pos]
    return seed.table.monomial({j: gca_seed.floor_defect(n, r, b, d_k)})


def q_monomial(seed, k, r):
    """Balancing monomial ``q_{k,r} = v>^r * v<^(d-r) / (v>[r] * v<[d-r])^d``.

    Here ``v> = v>[d]`` and ``v< = v<[d]``: the box route to ``q``.
    """
    d = seed.divisors[k]
    top_gt, top_lt = frozen_box(seed, k, d)
    box_gt, box_lt = frozen_box(seed, k, r)[0], frozen_box(seed, k, d - r)[1]
    top = mono_times(mono_power(top_gt, r), mono_power(top_lt, d - r))
    return mono_over(top, mono_power(mono_times(box_gt, box_lt), d))


def q_by_special_monomials(seed, k, r):
    """``q_{k,r}`` as the product of inverse ``d``-fold special monomials."""
    d = seed.divisors[k]
    q = seed.table.one()
    for pos in seed.table.frozen_indices:
        name = seed.table.names[pos]
        q = mono_times(q, mono_power(special_monomial(seed, d, name, k, r), -1))
    return q


def extracted_roots(seed, k):
    """The ``d``-th roots of ``p_{k,r}^d / q_{k,r} * v>^r * v<^(d-r)``."""
    d = seed.divisors[k]
    v_gt, v_lt = frozen_box(seed, k, d)
    roots = []
    for r in range(d + 1):
        target = mono_power(seed.strings.entry(k, r), d)
        target = mono_over(target, q_by_special_monomials(seed, k, r))
        target = mono_times(target, mono_power(v_gt, r))
        target = mono_times(target, mono_power(v_lt, d - r))
        assert all(e % d == 0 for e in target.exponents), (k, r)
        roots.append(Monomial(seed.table, tuple(e // d for e in target.exponents)))
    return roots


def monomial_context(seed, k):
    """``(bhat_row, u>, u<, boxes>, boxes<)`` of direction ``k`` as monomials.

    Read off the whole scaled matrix, independently of the library's
    :class:`ExchangeContext`: the positive entries of the row feed the
    ``>`` side, the negative ones the ``<`` side, and box ``r`` of a
    frozen entry ``b`` has exponent ``floor(r*|b|/d_k)``.
    """
    seed.matrix.check_direction(k)
    d, n, table = seed.divisors[k], seed.rank, seed.table
    row = modify(seed.matrix, seed.divisors).rows[k]

    def side(sign):
        parts = [max(sign * e, 0) for e in row]
        u = Monomial(table, tuple(e if j < n else 0 for j, e in enumerate(parts)))
        boxes = tuple(
            Monomial(table, tuple(
                (r * e) // d if j >= n else 0 for j, e in enumerate(parts)
            ))
            for r in range(d + 1)
        )
        return u, boxes

    (u_gt, v_gt), (u_lt, v_lt) = side(1), side(-1)
    return row, u_gt, u_lt, v_gt, v_lt


def oracle_coefficient(seed, k, r):
    """The coefficient ``p_{k,r} * v>[r] * v<[d-r]`` as a monomial chain."""
    _, _, _, v_gt, v_lt = monomial_context(seed, k)
    p = seed.strings.entry(k, r)
    return mono_times(mono_times(p, v_gt[r]), v_lt[seed.divisors[k] - r])


def oracle_exchange_polynomial(seed, k):
    """``theta_k`` assembled from monomial coefficients.

    The cluster powers start from 1; each product ``G^r * L^(d-r)`` is
    shifted by its coefficient monomial with ``poly_mul_monomial``, and
    ``poly_sum`` adds the shifted products in ascending ``r``.
    """
    _, u_gt, u_lt, _, _ = monomial_context(seed, k)
    d, one = seed.divisors[k], LaurentPolynomial.one(seed.table)

    def cluster_power(mono):
        out = one
        for i in seed.table.cluster_indices:
            if mono.exponents[i]:
                out = poly_mul(out, poly_pow(seed.cluster[i], mono.exponents[i]))
        return out

    gt_base, lt_base = cluster_power(u_gt), cluster_power(u_lt)
    gt_powers, lt_powers = [one], [one]
    for _ in range(d):
        gt_powers.append(poly_mul(gt_powers[-1], gt_base))
        lt_powers.append(poly_mul(lt_powers[-1], lt_base))
    return poly_sum(seed.table, (
        poly_mul_monomial(
            poly_mul(gt_powers[r], lt_powers[d - r]), oracle_coefficient(seed, k, r)
        )
        for r in range(d + 1)
    ))


def oracle_root_formula_check(seed, k):
    """:func:`root_formula_check` over monomials of the whole scaled matrix."""
    row, _, _, v_gt, v_lt = monomial_context(seed, k)
    d, table = seed.divisors[k], seed.table
    failures = []
    for r in range(d + 1):
        inverse_q = Monomial(table, tuple(
            gca_seed.floor_defect(d, r, b, d) if pos >= seed.rank else 0
            for pos, b in enumerate(row)
        ))
        target = mono_times(mono_power(seed.strings.entry(k, r), d), inverse_q)
        target = mono_times(target, mono_power(v_gt[d], r))
        target = mono_times(target, mono_power(v_lt[d], d - r))
        if any(e % d for e in target.exponents):
            failures.append((k, r, "exponents not divisible by the degree"))
            continue
        root = Monomial(table, tuple(e // d for e in target.exponents))
        coefficient = oracle_coefficient(seed, k, r)
        if root != coefficient:
            failures.append((k, r, f"root {root} differs from {coefficient}"))
    return Report(tuple(failures))


def full_width_root_formula_check(seed, k):
    """:func:`root_formula_check` with its targets worked out over every slot."""
    ctx = ExchangeContext(seed, k)
    d, n = ctx.degree, seed.rank
    failures = []
    for r, string in enumerate(seed.strings.row(k)):
        target = [
            d * p + (
                gca_seed.floor_defect(d, r, b, d) + r * max(b, 0) + (d - r) * max(-b, 0)
                if pos >= n else 0
            )
            for pos, (p, b) in enumerate(zip(string.exponents, ctx.bhat_row))
        ]
        if any(e % d for e in target):
            failures.append((k, r, "exponents not divisible by the degree"))
            continue
        root, coefficient = tuple([e // d for e in target]), ctx.coefficients[r]
        if root != coefficient:
            root, coefficient = (Monomial(seed.table, v) for v in (root, coefficient))
            failures.append((k, r, f"root {root} differs from {coefficient}"))
    return Report(tuple(failures))


def assert_matches_oracles(seed):
    """``theta_k`` terms and root-formula reports equal the oracles'.

    The terms are compared as a dict: a product above the row route's size
    inserts its keys line by line, so the order depends on how it was reached.
    """
    for k in range(seed.rank):
        theta = exchange_polynomial(seed, k)
        oracle = oracle_exchange_polynomial(seed, k)
        assert theta._keys == oracle._keys
        assert theta._amp == oracle._amp
        assert root_formula_check(seed, k) == oracle_root_formula_check(seed, k)


def exhaustive_states(seed, depth):
    """Every seed reached from ``seed`` by a sequence of length at most ``depth``."""
    level = states = [seed]
    for _ in range(depth):
        level = [mutate_seed(s, k) for s in level for k in range(s.rank)]
        states = states + level
    return states


def walked_seeds(rng, count=20, depth=3, mode="total"):
    """Random seeds, plain and root-adjoined, each after a random walk."""
    for _ in range(count):
        seed = random_seed(rng)
        sequence = random_sequence(rng, seed.rank, depth)
        for start in (seed, tau_tilde(seed, mode=mode).seed):
            yield mutate_seed_sequence(start, sequence)


def big_coefficient_seed(string_exponent, carried):
    """A seed whose coefficient ``(0, 1)`` is ``f1^(s + 1)``, ``s`` the argument.

    Scaled row 0 is ``(0, 1, 2)``, so ``u> = x2`` and ``v>[1] = f1``,
    and string entry ``(0, 1)`` is ``f1^s``.  The second cluster entry
    is ``x2 * f1^carried``, so the product ``x2 * f1^carried`` shifted by
    that coefficient is ``x2 * f1^(s + 1 + carried)``.
    """
    matrix = ExtendedExchangeMatrix.from_rows(((0, 2, 2), (-2, 0, 0)), m=1)
    base = initial_seed(matrix, (2, 2))
    table, one = base.table, base.table.one()
    strings = CoefficientStrings((
        (one, table.monomial(f1=string_exponent), one),
        (one, one, one),
    ))
    cluster = (base.cluster[0], LaurentPolynomial(table, {(0, 1, carried): 1}))
    return GeneralizedSeed(table, cluster, matrix, base.divisors, strings)


class TestExchangePolynomials:
    def test_fix_b_theta(self, fix_b):
        assert str(exchange_polynomial(fix_b, 0)) == FIX_B_THETA_X
        assert str(exchange_polynomial(fix_b, 1)) == FIX_B_THETA_Y

    def test_fix_c_theta(self, fix_c):
        # scaled row is (0, 2): the frozen column is not divided, so the
        # boxes are f^r and the middle coefficient contributes f^2 * f.
        assert str(exchange_polynomial(fix_c, 0)) == "f^3 + f^2 + 1"

    def test_cluster_variables_lead_the_table(self):
        # Matrix ``0 2`` with divisor 1: theta is f^2 + 1 only when the
        # table's cluster slot holds x.  A table names its cluster
        # variables first, so the interleaved table ``f, x`` with x in
        # the cluster slot has no representation.
        matrix = ExtendedExchangeMatrix.from_rows([[0, 2]], m=1)
        seed = initial_seed(matrix, (1,), cluster_names=("x",), frozen_names=("f",))
        assert seed.table == VariableTable(("x", "f"), 1)
        assert str(exchange_polynomial(seed, 0)) == "f^2 + 1"
        assert str(mutate_seed(seed, 0).cluster[0]) == "x^-1*f^2 + x^-1"
        with pytest.raises(ValidationError, match="cluster count"):
            VariableTable(("f", "x"), ("frozen", "cluster"))
        interleaved = VariableTable(("f", "x"), 0)
        with pytest.raises(ValidationError, match="cluster count"):
            GeneralizedSeed(
                interleaved,
                (interleaved.variable("x"),),
                matrix,
                seed.divisors,
                CoefficientStrings.trivial(interleaved, seed.divisors),
            )

    def test_mutated_cluster_entry(self, fix_b):
        mutated = mutate_seed(fix_b, 0)
        assert mutated.cluster[0] == parse_polynomial(
            "x^-1*y^3*b^2 + x^-1*y^2*a*b*p2x + x^-1*y*a^2*p1x + x^-1*a^4",
            fix_b.table,
        )

    def test_classical_rule_is_binomial(self, rng):
        for _ in range(30):
            seed = random_seed(rng, max_divisor=1)
            for k in range(seed.matrix.n):
                assert len(exchange_polynomial(seed, k).terms) <= 2

    def test_context_coefficients(self, fix_b):
        ctx = ExchangeContext(fix_b, 0)
        assert ctx.degree == 3
        assert len(ctx.coefficients) == 4
        for r, exps in enumerate(ctx.coefficients):
            assert Monomial(fix_b.table, exps) == oracle_coefficient(fix_b, 0, r)

    def test_fixture_walks_match_the_monomial_oracles(self, fix_a, fix_b, fix_c):
        # FIX-A's theta_k at depth 2 takes tens of seconds, so its walk
        # stops at depth 1; FIX-B and FIX-C are walked to depth 3.
        for seed, depth in ((fix_a, 1), (fix_b, 3), (fix_c, 3)):
            for start in (seed, tau_tilde(seed).seed, tau_tilde(seed, mode="lcm").seed):
                for state in exhaustive_states(start, depth):
                    assert_matches_oracles(state)

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_random_walks_match_the_monomial_oracles(self, mode):
        for seed in walked_seeds(random.Random(12), mode=mode):
            assert_matches_oracles(seed)

    def test_coefficient_across_the_first_rung(self):
        # With x2 / f1 only the coefficient f1^(s + 1) reaches the first
        # rung's limit, with x2 * f1 only the shifted product x2 * f1^(s + 2)
        # does.  At the limit and one step below, both routes agree.
        for carried, at_limit in ((-1, FIRST_RUNG_LIMIT - 1), (1, FIRST_RUNG_LIMIT - 2)):
            for s in (at_limit, at_limit - 1):
                seed = big_coefficient_seed(s, carried)
                theta, oracle = exchange_polynomial(seed, 0), oracle_exchange_polynomial(seed, 0)
                assert dict(theta.terms.items()) == dict(oracle.terms.items())
                assert theta == oracle and theta.hash_key() == oracle.hash_key()
                mutated = mutate_seed(seed, 0)
                assert mutated.cluster[0] == poly_exact_div(oracle, seed.cluster[0])
            assert_matches_oracles(seed)

    def test_mutation_builds_no_monomials(self, monkeypatch):
        # The exchange relation runs on exponent vectors and packed keys;
        # seeds are built before the count starts.
        rng = random.Random(5)
        adjoined = tau_tilde(random_seed(rng)).seed
        seeds = [fixture_seed("FIX-B"), adjoined]
        built = []
        monkeypatch.setattr(Monomial, "__post_init__", lambda self: built.append(self))
        for seed in seeds:
            for k in range(seed.rank):
                mutate_seed(seed, k)
                exchange_polynomial(seed, k)
        assert built == []


    def test_exchange_step_never_multiplies_by_one(self, monkeypatch):
        # An empty cluster power is left out, never multiplied in.  Rows
        # with no entry of one sign, and every rank-1 row, have one.  The
        # shifted sum takes the cluster side of each pair as ``None``
        # then, never as the constant 1, and each coefficient as one
        # exponent vector.
        rng = random.Random(16)
        starts = [fixture_seed(name) for name in ("FIX-A", "FIX-B", "FIX-C")]
        starts += [random_seed(rng, max_rank=1 + i % 3) for i in range(20)]
        assert any(seed.rank == 1 for seed in starts[3:])
        seeds = []
        for seed in starts:
            seeds += [seed, tau_tilde(seed).seed]
        by_one, absent, coefficients = [], [], []

        def recording_mul(a, b):
            if LaurentPolynomial.one(a.table) in (a, b):
                by_one.append((a, b))
            return poly_mul(a, b)

        def recording_sum(table, pairs):
            pairs = list(pairs)
            for coefficient, product in pairs:
                if product is None:
                    absent.append(coefficient)
                elif product == LaurentPolynomial.one(table):
                    by_one.append((product, coefficient))
                coefficients.append((table, coefficient))
            return poly_shifted_sum(table, pairs)

        monkeypatch.setattr(gca_seed, "poly_mul", recording_mul)
        monkeypatch.setattr(gca_seed, "poly_shifted_sum", recording_sum)
        for seed in seeds:
            for k in range(seed.rank):
                exchange_polynomial(seed, k)
                mutated = mutate_seed(seed, k)
                for j in range(seed.rank):
                    exchange_polynomial(mutated, j)
        assert by_one == []
        assert absent
        assert all(
            type(c) is tuple and len(c) == len(table) and all(type(e) is int for e in c)
            for table, c in coefficients
        )


class TestMutation:
    def test_involution_on_fixtures(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            for k in range(seed.matrix.n):
                back = mutate_seed(mutate_seed(seed, k), k)
                assert back == seed

    def test_strings_reverse_in_the_mutated_row(self, fix_b):
        mutated = mutate_seed(fix_b, 0)
        assert mutated.strings.rows[0] == fix_b.strings.rows[0][::-1]
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

    @pytest.mark.parametrize("k", [True, False])
    def test_bool_directions_are_refused(self, fix_a, k):
        # A bool is an int subclass, but no direction, as matrix sizes refuse it.
        for call in (mutate_seed, root_formula_check, lambda s, k: mutate(s.matrix, k)):
            with pytest.raises(IndexOutOfRange, match=f"direction {k!r} is not"):
                call(fix_a, k)


def assert_links_do_not_chain(seeds):
    """No cluster entry of ``seeds`` reaches two polynomials through recorded divisors."""
    for seed in seeds:
        for entry in seed.cluster:
            assert entry._divisor is None or entry._divisor._divisor is None


class TestDivisorLinks:
    """Mutating back divides by the new entry, whose recorded divisor is the old one."""

    def test_mutating_back_returns_the_old_entry(self):
        # A walk that ends in direction k mutates back already on the way
        # there: that entry is returned, and records nothing.
        returned = 0
        for seed in walked_seeds(random.Random(3)):
            for k in range(seed.rank):
                there = mutate_seed(seed, k)
                entry = there.cluster[k]
                fresh = entry._divisor is seed.cluster[k]
                back = mutate_seed(there, k)
                assert back == seed
                same = back.cluster[k] is seed.cluster[k]
                assert same == (fresh and len(entry._keys) > 1)
                returned += same
        assert returned > 20

    def test_a_walk_keeps_no_chain_of_links(self):
        # Immediate repeats and every involution check follow links.
        rng = random.Random(20)
        for _ in range(20):
            seed = random_seed(rng)
            current = tau_tilde(seed).seed
            walk, k = [seed, current], 0
            for _ in range(20):
                k = k if rng.random() < 0.3 else rng.randrange(seed.rank)
                current = mutate_seed(current, k)
                walk.append(current)
                walk += [mutate_seed(mutate_seed(current, j), j) for j in range(seed.rank)]
                assert_links_do_not_chain(walk)


def assert_seed_valid_as_built(seed):
    """A mutated seed passes the validating constructors unchanged."""
    matrix = seed.matrix
    strings = CoefficientStrings(seed.strings.rows)
    strings.validate(seed.table, seed.divisors)
    rebuilt = GeneralizedSeed(
        table=seed.table,
        cluster=seed.cluster,
        matrix=ExtendedExchangeMatrix(matrix.n, matrix.m, matrix.rows),
        divisors=seed.divisors,
        strings=strings,
    )
    assert type(seed) is GeneralizedSeed
    assert type(seed.strings) is CoefficientStrings
    assert seed.strings == strings
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

    def test_frozen_slots_match_the_full_width_formula(self, fix_a, fix_b, fix_c):
        seeds = [fix_a, fix_b, fix_c] + list(walked_seeds(random.Random(8), count=30))
        for seed in seeds:
            for k in range(seed.rank):
                assert root_formula_check(seed, k) == full_width_root_formula_check(seed, k)

    def test_a_string_with_a_cluster_exponent_is_reported(self, fix_a, fix_b):
        # Strings are validated cluster-free, so the rows are swapped in unchecked.
        for seed in (fix_a, fix_b, mutate_seed(fix_b, 0)):
            for k in range(seed.rank):
                row = list(seed.strings.rows[k])
                exps = list(row[1].exponents)
                exps[k] += 1
                row[1] = Monomial(seed.table, tuple(exps))
                rows = seed.strings.rows[:k] + (tuple(row),) + seed.strings.rows[k + 1:]
                bad = seed._trusted_replace(strings=seed.strings._trusted_replace(rows=rows))
                report = root_formula_check(bad, k)
                assert report == full_width_root_formula_check(bad, k)
                ((_, r, text),) = report.failures
                assert r == 1 and text.startswith("root ") and " differs from " in text

    def test_root_formula_fails_on_a_wrong_floor_defect(self, fix_c, monkeypatch):
        # The check reads q from the floor defects, never from the boxes,
        # so a wrong defect cannot cancel against the boxes.
        # A defect off by 1 breaks divisibility; one off by d keeps it
        # and gives a wrong root.  The monomial oracle reports alike.
        defect = gca_seed.floor_defect
        seeds = (fix_c, fixture_seed("FIX-A"), fixture_seed("FIX-B"))
        for wrong in (lambda n, r, b, d: 1, lambda n, r, b, d: d):
            monkeypatch.setattr(
                gca_seed, "floor_defect", lambda *a: defect(*a) + wrong(*a)
            )
            assert not root_formula_check(fix_c, 0).ok
            for seed in seeds:
                for k in range(seed.rank):
                    report = root_formula_check(seed, k)
                    assert report == oracle_root_formula_check(seed, k)

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

    @pytest.mark.parametrize("names", [
        {"cluster_names": "x"}, {"frozen_names": "f"},
    ])
    def test_bare_string_of_names_rejected(self, fix_c, names):
        # One string would be split into one name a letter.
        with pytest.raises(ValidationError, match="not the string"):
            initial_seed(fix_c.matrix, fix_c.divisors, **names)

    def test_list_parts_are_stored_as_tuples(self, fix_b):
        strings = CoefficientStrings([list(row) for row in fix_b.strings.rows])
        assert type(strings.rows) is tuple
        assert all(type(row) is tuple for row in strings.rows)
        assert strings == fix_b.strings and hash(strings) == hash(fix_b.strings)
        seed = GeneralizedSeed(
            fix_b.table, list(fix_b.cluster), fix_b.matrix,
            list(fix_b.divisors.entries), strings,
        )
        assert type(seed.cluster) is tuple
        assert seed.divisors == fix_b.divisors
        assert seed == fix_b
        for k in range(seed.rank):
            assert mutate_seed(seed, k) == mutate_seed(fix_b, k)

    @pytest.mark.parametrize("divisors", [[3, 0], (3, 2.0), [3, "2"]])
    def test_seed_refuses_bad_divisor_sequences(self, fix_b, divisors):
        with pytest.raises(InvalidDivisors, match="positive integers"):
            GeneralizedSeed(
                fix_b.table, fix_b.cluster, fix_b.matrix, divisors, fix_b.strings
            )

    def test_divisors_must_divide_principal_rows(self):
        matrix = ExtendedExchangeMatrix.from_rows(((0, 3), (-3, 0)), m=0)
        with pytest.raises(InvalidDivisors):
            initial_seed(matrix, (2, 3))

    @pytest.mark.parametrize("divisor", [1000003, 9999999999999999999993])
    def test_incompatible_divisors_size_no_string_row(self, fix_a, divisor):
        # Compatibility is checked before the trivial strings are built:
        # a row of d + 1 entries would take megabytes at d = 1000003, and
        # cannot be sized at all at the larger divisor.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDivisors, match=f"divisor {divisor} does not divide"):
                initial_seed(fix_a.matrix, (2, divisor))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_divisors_too_large_for_a_string_row(self):
        # 2**64 divides the zero principal entry, but d + 1 entries are
        # more than an index can count, so no row is attempted.
        matrix = ExtendedExchangeMatrix.from_rows(((0,),), m=0)
        with pytest.raises(ValidationError, match="too large for string rows"):
            initial_seed(matrix, (2**64,))

    def test_slack_entries_unconstrained_by_divisors(self, fix_a):
        # principal row 1 is (0, 8) with divisor 2; the slack entries
        # (-3, 5) are odd on purpose.
        assert fix_a.matrix.rows[0][2] == -3
        assert fix_a.divisors[0] == 2
