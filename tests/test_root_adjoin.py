"""Root adjoining: frozen rescaling, carriers, and homogeneous form."""

import hashlib
import random

import pytest

from conftest import FIRST_RUNG_LIMIT, cluster_side, poly_mul_monomial
from gencluster.errors import HomogeneityFailure, ValidationError
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
    poly_mul,
    poly_pow,
)
from gencluster.matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    modify,
    mutate_sequence,
)
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import (
    AdjoinedSeed,
    homogeneity_check,
    rho,
    tau_tilde,
    tau_variable,
    transport_check,
)

# Independently derived canonical forms for the bundled rank-2 seed
# with divisors (3, 2) after adjoining a 6th root of every frozen
# variable (6 = product of the divisors).
FIX_B_ADJ_THETA_X = "A^24 + y^2*A^6*B^6*P2X^6 + y*A^12*P1X^6 + y^3*B^12"
FIX_B_ADJ_THETA_Y = "x^2*B^18 + x*B^6*P1Y^6 + 1"
FIX_B_TAU_X = "y*A^-8*B^4"
FIX_B_TAU_Y = "x^-1*B^-9"
FIX_B_RHO_X = ("1", "A^-4*B^-4*P1X^6", "A^-2*B^-2*P2X^6", "1")
FIX_B_RHO_Y = ("1", "B^-3*P1Y^6", "1")

# SHA-256 of the table names, matrix rows, cluster entries and string
# entries of ``tau_tilde`` in both modes, over 50 random seeds with up to
# three frozen variables, each mutated along a depth-3 sequence.  The
# bundled fixtures have coprime divisors; 11 of these seeds do not, so
# ``lcm`` and ``total`` adjoin different roots there.
RANDOM_ADJOINED_SHA256 = (
    "8a026d5edf47abbead4fe1bf9d4aff415676bc6c568db0b49e8ec50a9abcebce"
)


def is_floor_free(seed, k):
    """Whether every frozen entry of scaled row ``k`` is divisible by ``d_k``.

    Read off the whole scaled matrix, independently of the exchange
    context the library's homogeneity check reads.
    """
    row = modify(seed.matrix, seed.divisors).rows[k]
    return all(e % seed.divisors[k] == 0 for e in row[seed.rank:])


def stable_monomials(seed, k):
    """``(v>[1], v<[1])`` of direction ``k``, read off the whole scaled matrix."""
    d, n = seed.divisors[k], seed.rank
    frozen = modify(seed.matrix, seed.divisors).rows[k][n:]
    return tuple(
        Monomial(seed.table, (0,) * n + tuple(max(sign * b, 0) // d for b in frozen))
        for sign in (1, -1)
    )


def oracle_rho_row(seed, k):
    """Row ``k`` of the coefficient table, or ``None`` unless both ends are 1.

    ``rho_{k,r} = p_{k,r} * v>[r] * v<[d-r] * v>[1]^(-r) * v<[1]^(r-d)``
    with the boxes read off the whole scaled matrix, independently of
    the exchange context.  A row whose ends are not 1 carries a floor
    defect, which is how the table was once validated.
    """
    d, n = seed.divisors[k], seed.rank
    frozen = modify(seed.matrix, seed.divisors).rows[k][n:]

    def box(r, sign):
        return [0] * n + [(r * sign * b) // d if sign * b > 0 else 0 for b in frozen]

    gt1, lt1 = box(1, 1), box(1, -1)
    row = tuple(
        Monomial(seed.table, tuple(
            p + g + l - r * g1 - (d - r) * l1
            for p, g, l, g1, l1 in zip(
                seed.strings.entry(k, r).exponents,
                box(r, 1), box(d - r, -1), gt1, lt1,
            )
        ))
        for r in range(d + 1)
    )
    ends = row[0].exponents + row[-1].exponents
    return row if not any(ends) else None


def homogeneous_theta(seed, k, rho_row):
    """``theta_k`` rebuilt as ``sum_r rho_{k,r} * (u> * v>[1])^r * (u< * v<[1])^(d-r)``.

    The cluster sides are built with ``poly_pow`` and shifted by the
    stable monomials and the coefficients term by term.
    """
    v_gt, v_lt = stable_monomials(seed, k)
    gt = poly_mul_monomial(cluster_side(seed, k, 1), v_gt)
    lt = poly_mul_monomial(cluster_side(seed, k, -1), v_lt)
    d = seed.divisors[k]
    rebuilt = LaurentPolynomial.zero(seed.table)
    for r, rho_r in enumerate(rho_row):
        term = poly_mul(poly_pow(gt, r), poly_pow(lt, d - r))
        rebuilt = poly_add(rebuilt, poly_mul_monomial(term, rho_r))
    return rebuilt


def assert_adjoined_exactly(seed):
    """The adjoined seed's coefficients and exchange polynomial match the oracles.

    Adjoining also commutes with mutation along ``(0,)`` and ``(0, 0)``.
    """
    adjoined = tau_tilde(seed)
    assert rho(adjoined.seed)[0] == oracle_rho_row(adjoined.seed, 0)
    theta = exchange_polynomial(adjoined.seed, 0)
    assert theta == homogeneous_theta(adjoined.seed, 0, oracle_rho_row(adjoined.seed, 0))
    for sequence in ((), (0,), (0, 0)):
        report = transport_check(mutated_pair(adjoined, sequence))
        assert report.ok, report.failures
    return adjoined.seed


class TestTauTilde:
    def test_fix_b_adjoined_exchange(self, fix_b):
        adjoined = tau_tilde(fix_b)
        assert str(exchange_polynomial(adjoined.seed, 0)) == FIX_B_ADJ_THETA_X
        assert str(exchange_polynomial(adjoined.seed, 1)) == FIX_B_ADJ_THETA_Y

    def test_fix_b_carriers(self, fix_b):
        adjoined = tau_tilde(fix_b)
        assert str(tau_variable(adjoined.seed, 0)) == FIX_B_TAU_X
        assert str(tau_variable(adjoined.seed, 1)) == FIX_B_TAU_Y

    def test_fix_b_coefficient_rows(self, fix_b):
        table = rho(tau_tilde(fix_b).seed)
        assert tuple(str(e) for e in table[0]) == FIX_B_RHO_X
        assert tuple(str(e) for e in table[1]) == FIX_B_RHO_Y

    def test_root_map_powers(self, fix_b, fix_c):
        for seed, power in ((fix_b, 6), (fix_c, 2)):
            adjoined = tau_tilde(seed)
            for original, image in adjoined.root_map().items():
                support = [
                    (adjoined.seed.table.names[i], e)
                    for i, e in enumerate(image.exponents)
                    if e
                ]
                assert len(support) == 1
                name, exponent = support[0]
                assert exponent == power
                assert name.upper() == name

    def test_lcm_mode_differs_when_divisors_share_factors(self):
        matrix = ExtendedExchangeMatrix.from_rows(((0, 2, 1), (-2, 0, 3)), m=1)
        base = initial_seed(matrix, (2, 2))
        total = tau_tilde(base, mode="total")
        lcm = tau_tilde(base, mode="lcm")
        root_total = next(iter(total.root_map().values()))
        root_lcm = next(iter(lcm.root_map().values()))
        assert max(root_total.exponents) == 4
        assert max(root_lcm.exponents) == 2

    def test_random_adjoined_seeds_pinned(self):
        rng = random.Random(14)
        lines = []
        for _ in range(50):
            seed = random_seed(rng, max_frozen=3)
            seed = mutate_seed_sequence(seed, random_sequence(rng, seed.rank, 3))
            for mode in ("total", "lcm"):
                adjoined = tau_tilde(seed, mode).seed
                lines.append(" ".join(adjoined.table.names))
                lines.append(repr(adjoined.matrix.rows))
                lines.extend(str(p) for p in adjoined.cluster)
                lines.extend(
                    " ".join(str(e) for e in row) for row in adjoined.strings.rows
                )
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == RANDOM_ADJOINED_SHA256

    def test_correction_at_the_first_rung_edge(self):
        # 3 * e is one below the first rung's limit and the correction adds
        # -1, which the adjoined row's box takes back: the coefficient of
        # theta is below that limit, whichever frozen column carries the
        # exponent.
        e = -(FIRST_RUNG_LIMIT - 1) // 3
        table = VariableTable.make(cluster=("x",), frozen=("f", "g"))
        matrix = ExtendedExchangeMatrix.from_rows([[0, 1, 1]], m=2)
        for name in ("f", "g"):
            middle = table.monomial({name: e})
            strings = CoefficientStrings(((table.one(), middle, table.one(), table.one()),))
            seed = initial_seed(
                matrix, (3,), strings=strings,
                cluster_names=("x",), frozen_names=("f", "g"),
            )
            adjoined = assert_adjoined_exactly(seed)
            assert min(adjoined.strings.entry(0, 1).exponents) == -FIRST_RUNG_LIMIT
            ctx = ExchangeContext(adjoined, 0)
            assert min(ctx.coefficients[1]) == 1 - FIRST_RUNG_LIMIT

    def test_adjoined_tables_are_shared(self, fix_b):
        # Two adjunctions of equal seeds give one table object, the one
        # VariableTable.make builds from the same names.
        table = tau_tilde(fix_b).seed.table
        assert tau_tilde(initial_seed(
            fix_b.matrix, fix_b.divisors, fix_b.strings, ("x", "y"), fix_b.table.names[2:]
        )).seed.table is table
        assert VariableTable.make(table.names[:2], table.names[2:]) is table
        assert VariableTable(table.names, 2) == table

    def test_adjoining_twice_rejected(self, fix_c):
        adjoined = tau_tilde(fix_c)
        with pytest.raises(ValidationError):
            tau_tilde(adjoined)


class TestFloorStructure:
    def test_fixtures_with_floors(self, fix_a, fix_b):
        assert not is_floor_free(fix_a, 0)
        assert not is_floor_free(fix_b, 0)

    def test_adjoined_seeds_are_floor_free(self, fix_a, fix_b, fix_c, rng):
        for seed in (fix_a, fix_b, fix_c):
            adjoined = tau_tilde(seed)
            current = adjoined.seed
            for k in range(seed.matrix.n):
                assert is_floor_free(current, k)
            for k in random_sequence(rng, seed.matrix.n, 4):
                current = mutate_seed(current, k)
                for j in range(seed.matrix.n):
                    assert is_floor_free(current, j)

    def test_rho_requires_homogeneous_ends(self, fix_b):
        with pytest.raises(HomogeneityFailure):
            rho(fix_b)

    def test_rho_matches_the_ends_at_one_oracle(self, fix_a, fix_b, fix_c):
        rng = random.Random(16)
        starts = [fix_a, fix_b, fix_c]
        starts += [random_seed(rng, max_frozen=3) for _ in range(50)]
        failing = passing = 0
        for start in starts:
            for seed in (
                start,
                tau_tilde(start, "total").seed,
                tau_tilde(start, "lcm").seed,
            ):
                for step in random_sequence(rng, seed.rank, 3) + (None,):
                    rows = [oracle_rho_row(seed, k) for k in range(seed.rank)]
                    for k, row in enumerate(rows):
                        if row is None:
                            with pytest.raises(HomogeneityFailure):
                                homogeneity_check(seed, k)
                        else:
                            assert homogeneity_check(seed, k) == tau_variable(seed, k)
                            assert seed.strings.rows[k] == row
                    if None in rows:
                        failing += 1
                        with pytest.raises(HomogeneityFailure):
                            rho(seed)
                    else:
                        passing += 1
                        table = rho(seed)
                        for k, row in enumerate(rows):
                            assert table[k] == row
                    if step is not None:
                        seed = mutate_seed(seed, step)
        assert failing and passing

    def test_homogeneity_witness(self, fix_b):
        adjoined = tau_tilde(fix_b)
        assert adjoined.seed.divisors[0] == 3
        assert str(homogeneity_check(adjoined.seed, 0)) == FIX_B_TAU_X
        assert str(rho(adjoined.seed)[0][1]) == FIX_B_RHO_X[1]

    def test_homogeneous_reconstruction(self, fix_a, fix_b, fix_c, rng):
        # Oracle for the homogeneity check on floor-free seeds:
        # theta_k = sum_r rho_{k,r} * (u> * v>[1])^r * (u< * v<[1])^(d-r).
        # FIX-A grows doubly exponentially, so it is checked at depth 1.
        starts = [(fix_a, 1), (fix_b, 3), (fix_c, 3)]
        starts += [(random_seed(rng), 3) for _ in range(20)]
        for start, depth in starts:
            current = tau_tilde(start).seed
            for step in random_sequence(rng, start.rank, depth) + (None,):
                table = rho(current)
                for k in range(current.rank):
                    rebuilt = homogeneous_theta(current, k, table[k])
                    assert rebuilt == exchange_polynomial(current, k)
                if step is not None:
                    current = mutate_seed(current, step)

    def test_exchange_checks_scale_the_matrix_once(
        self, fix_a, fix_b, fix_c, rng, monkeypatch
    ):
        # Each check constructs one exchange context, which scales row k
        # once and alone; none builds a whole (scaled) matrix.
        matrices, constructions, row_scalings = [], [], []
        validate = ExtendedExchangeMatrix.__post_init__
        construct = ExchangeContext.__init__
        scaled_row = GeneralizedSeed.scaled_row

        def counted_validate(self):
            matrices.append(1)
            return validate(self)

        def counted_construct(self, seed, k):
            constructions.append(1)
            return construct(self, seed, k)

        def counted_scaled_row(self, k):
            row_scalings.append(1)
            return scaled_row(self, k)

        seeds = [tau_tilde(s).seed for s in (fix_a, fix_b, fix_c)]
        seeds += [tau_tilde(random_seed(rng)).seed for _ in range(10)]
        cases = [(s, k, tau_variable(s, k)) for s in seeds for k in range(s.rank)]
        monkeypatch.setattr(ExtendedExchangeMatrix, "__post_init__", counted_validate)
        monkeypatch.setattr(ExchangeContext, "__init__", counted_construct)
        monkeypatch.setattr(GeneralizedSeed, "scaled_row", counted_scaled_row)
        for seed, k, tau in cases:
            for check in (
                lambda: homogeneity_check(seed, k) == tau,
                lambda: root_formula_check(seed, k).ok,
                lambda: tau_variable(seed, k) == tau,
            ):
                matrices.clear()
                constructions.clear()
                row_scalings.clear()
                assert check()
                assert len(matrices) == 0
                assert len(constructions) == 1
                assert len(row_scalings) == 1

    def test_homogeneity_fails_with_floors(self, fix_b):
        with pytest.raises(HomogeneityFailure):
            homogeneity_check(fix_b, 0)


class TestTrustedAdjunction:
    """``tau_tilde`` skips the seed constructor; its result passes it unchanged."""

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_adjoined_seeds_rebuild_through_the_constructor(self, fix_a, fix_b, fix_c, mode):
        rng = random.Random(21)
        starts = [fix_a, fix_b, fix_c] + [random_seed(rng) for _ in range(50)]
        # Mutated starts carry nontrivial clusters and reversed strings.
        starts += [mutate_seed(s, s.rank - 1) for s in starts[:13]]
        assert any(not s.table.frozen_indices for s in starts)
        for start in starts:
            seed = tau_tilde(start, mode).seed
            table, matrix = seed.table, seed.matrix
            rebuilt = GeneralizedSeed(
                table=VariableTable(table.names, table.n_cluster),
                cluster=seed.cluster,
                matrix=ExtendedExchangeMatrix(matrix.n, matrix.m, matrix.rows),
                divisors=DivisorVector(seed.divisors.entries),
                strings=CoefficientStrings(seed.strings.rows),
            )
            assert type(seed) is GeneralizedSeed
            assert rebuilt == seed
            assert rebuilt.content_key() == seed.content_key()


class TestUncheckedMonomials:
    """Root powers, transported strings and carriers skip the monomial constructor."""

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_they_rebuild_through_the_constructor(self, fix_a, fix_b, fix_c, mode):
        rng = random.Random(34)
        starts = [fix_a, fix_b, fix_c] + [random_seed(rng) for _ in range(100)]
        for start in starts:
            adjoined = tau_tilde(start, mode)
            seed = adjoined.seed
            monomials = [m for row in seed.strings.rows for m in row]
            monomials += adjoined.root_map().values()
            for k in range(seed.rank):
                monomials += [homogeneity_check(seed, k), tau_variable(start, k)]
            for mono in monomials:
                rebuilt = Monomial(mono.table, mono.exponents)
                assert type(mono) is Monomial and type(mono.exponents) is tuple
                assert all(type(e) is int for e in mono.exponents)
                assert rebuilt == mono and hash(rebuilt) == hash(mono)
                assert str(rebuilt) == str(mono)

    @pytest.mark.parametrize("exponent", [
        # A string entry past the first rung's limit as it stands, and one
        # that passes it only once scaled by the multiplicity 3.
        FIRST_RUNG_LIMIT,
        -(FIRST_RUNG_LIMIT // 3 + 1),
    ])
    def test_string_entries_past_the_first_rung(self, exponent):
        table = VariableTable.make(cluster=("x",), frozen=("f",))
        matrix = ExtendedExchangeMatrix.from_rows([[0, 3]], m=1)
        middle = table.monomial(f=exponent)
        strings = CoefficientStrings(((table.one(), middle, table.one(), table.one()),))
        seed = initial_seed(matrix, (3,), strings, cluster_names=("x",), frozen_names=("f",))
        adjoined = assert_adjoined_exactly(seed)
        assert adjoined.strings.entry(0, 1).exponents[1] in (3 * exponent, 3 * exponent - 1)


def mutated_pair(adjoined, sequence):
    """The base and adjoined seeds of ``adjoined``, both mutated along ``sequence``."""
    return AdjoinedSeed(
        mutate_seed_sequence(adjoined.base, sequence),
        mutate_seed_sequence(adjoined.seed, sequence),
        adjoined.multiplicity,
    )


class TestTransport:
    def test_transport_on_fixtures(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            adjoined = tau_tilde(seed)
            for sequence in ((), (0,), (0, 0)):
                report = transport_check(mutated_pair(adjoined, sequence))
                assert report.ok, report.failures

    def test_transport_on_random(self, rng):
        for _ in range(100):
            seed = random_seed(rng)
            adjoined = tau_tilde(seed)
            sequence = random_sequence(rng, seed.matrix.n, 4)
            report = transport_check(mutated_pair(adjoined, sequence))
            assert report.ok, report.failures

    def test_transport_flags_a_pair_mutated_apart(self, fix_b):
        # Only the base moves: the check reads the pair as given.
        adjoined = tau_tilde(fix_b)
        apart = AdjoinedSeed(
            mutate_seed(adjoined.base, 0), adjoined.seed, adjoined.multiplicity
        )
        assert transport_check(apart).failures == (
            ("(i) u>", 0, None), ("(i) u<", 0, None),
            ("(ii)", 0, 0), ("(ii)", 0, 1), ("(ii)", 0, 2), ("(ii)", 0, 3),
            ("(iii)", 0, None),
            ("(i) u>", 1, None), ("(i) u<", 1, None),
            ("(ii)", 1, 0), ("(ii)", 1, 1),
        )

    def test_slack_scaling_commutes(self, fix_a, rng):
        adjoined = tau_tilde(fix_a)
        total = 6  # product of the divisors (2, 3)
        base_m = fix_a.matrix
        adj_m = adjoined.seed.matrix
        for _ in range(10):
            sequence = random_sequence(rng, fix_a.matrix.n, 4)
            b_after = mutate_sequence(base_m, sequence)
            a_after = mutate_sequence(adj_m, sequence)
            n, m = b_after.n, b_after.m
            for i in range(n):
                for l in range(m):
                    assert a_after.rows[i][n + l] == total * b_after.rows[i][n + l]
