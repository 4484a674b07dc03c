"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints one ``ACCEPTANCE <n>:
PASS`` or ``ACCEPTANCE <n>: FAIL`` line, and enforces a wall-clock
budget.  Golden values are duplicated here as literals so this file
stands alone; every one was derived independently from the mutation,
adjunction, and unfolding rules (see the module test files for the
step-by-step derivations).
"""

import contextlib
import itertools
import random
import time

from conftest import failed_cases, group_mutate_sequence, map_variables, parse_polynomial
from gencluster.fixtures import FIXTURE_NAMES, fixture_seed
from gencluster.gca_seed import (
    exchange_polynomial,
    mutate_seed,
    mutate_seed_sequence,
    root_formula_check,
)
from gencluster.matrix_mutation import (
    modify,
    mutate,
    mutate_sequence,
    write_matrix,
)
from gencluster.quotient_embedding import subquotient_check
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import (
    homogeneity_check,
    rho,
    tau_tilde,
    tau_variable,
)
from gencluster.unfolding import (
    build,
    double_constant_check,
    group_mutate,
    hadamard_check,
)
from weighted_quiver import weighted_matrix_mutation


@contextlib.contextmanager
def criterion(number, budget):
    """Print the pass/fail line for one criterion and time-box it."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL")
        raise
    print(f"ACCEPTANCE {number}: PASS")


# --- golden data for the bundled fixtures ---------------------------------
# FIX-A: matrix rows (0, 8, -3, 5), (-12, 0, -2, 7), divisors (2, 3).

FIX_A_MODIFIED = ((0, 4, -3, 5), (-4, 0, -2, 7))
FIX_A_MU1 = ((0, -8, 3, -5), (12, 0, -38, 7))
FIX_A_MU1_MODIFIED = ((0, -4, 3, -5), (4, 0, -38, 7))
FIX_A_MU21 = ((0, 8, -301, -5), (-12, 0, 38, -7))

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
FIX_A_GROUP01 = (
    "5 12\n"
    "0 0 4 4 4 -903 -15 -1 0 -47 -48 0 0 0 -4 -4 -4 ; "
    "0 0 4 4 4 -903 -15 0 -1 -48 -47 0 0 0 -4 -4 -4 ; "
    "-4 -4 0 0 0 76 -14 0 0 4 4 -1 0 0 1 0 0 ; "
    "-4 -4 0 0 0 76 -14 0 0 4 4 0 -1 0 0 1 0 ; "
    "-4 -4 0 0 0 76 -14 0 0 4 4 0 0 -1 0 0 1\n"
)

# FIX-B: matrix rows (0, 3, -4, 2, 0, 0, 0), (-2, 0, 0, -3, 0, 0, 0),
# divisors (3, 2), coefficient strings (1, p1x, p2x, 1) and (1, p1y, 1).

FIX_B_THETA_X = "y^3*b^2 + y^2*a*b*p2x + y*a^2*p1x + a^4"
FIX_B_THETA_Y = "x^2*b^3 + x*b*p1y + 1"
FIX_B_ADJ_THETA_X = "A^24 + y^2*A^6*B^6*P2X^6 + y*A^12*P1X^6 + y^3*B^12"
FIX_B_ADJ_THETA_Y = "x^2*B^18 + x*B^6*P1Y^6 + 1"
FIX_B_TAU_X = "y*A^-8*B^4"
FIX_B_TAU_Y = "x^-1*B^-9"
FIX_B_RHO_X = ("1", "A^-4*B^-4*P1X^6", "A^-2*B^-2*P2X^6", "1")
FIX_B_RHO_Y = ("1", "B^-3*P1Y^6", "1")

# A plausible variant of the two middle generalized coefficients drops
# their B factors; reassembling the exchange polynomial from it yields
# this (wrong) alternative.
FIX_B_ADJ_THETA_X_ALT = (
    "A^24 + y*A^12*B^4*P1X^6 + y^2*A^6*B^8*P2X^6 + y^3*B^12"
)


class TestAcceptance:
    def test_criterion_01_golden_matrices(self):
        with criterion(1, 1.0):
            seed = fixture_seed("FIX-A")
            assert modify(seed.matrix, seed.divisors).rows == FIX_A_MODIFIED
            fm = build(seed)
            assert write_matrix(fm.matrix) == FIX_A_UNFOLDED
            assert mutate(seed.matrix, 0).rows == FIX_A_MU1
            assert (
                modify(mutate(seed.matrix, 0), seed.divisors).rows
                == FIX_A_MU1_MODIFIED
            )
            assert (
                weighted_matrix_mutation(
                    modify(seed.matrix, seed.divisors), seed.divisors, 0
                ).rows
                == FIX_A_MU1_MODIFIED
            )
            assert write_matrix(group_mutate(fm, 0).matrix) == FIX_A_GROUP0

    def test_criterion_02_second_step_adjudication(self):
        """The two-step matrices are forced by the rules.

        Entry (1, 3) of the composite is 3 - 8 * 38 = -301; keeping only
        the correction term -8 * 38 = -304 drops the base entry carried
        from the first step and is inconsistent with the rule.  The
        folded entries follow by block constancy (three members per
        column group) and by the gain rule for the identity-carrying
        blocks, where counting one member instead of three would give
        -16 and entries (-15, -16).
        """
        with criterion(2, 1.0):
            seed = fixture_seed("FIX-A")
            composite = mutate_sequence(seed.matrix, (0, 1))
            assert composite.rows == FIX_A_MU21
            assert composite.rows[0][2] == 3 - 8 * 38 == -301
            assert composite.rows[0][2] != -304
            fm = group_mutate_sequence(build(seed), (0, 1))
            assert write_matrix(fm.matrix) == FIX_A_GROUP01
            assert fm.matrix.rows[0][5] == 3 * composite.rows[0][2] == -903
            assert fm.matrix.rows[0][5] != 3 * -304
            assert (fm.matrix.rows[0][9], fm.matrix.rows[0][10]) == (-47, -48)
            assert (fm.matrix.rows[1][9], fm.matrix.rows[1][10]) == (-48, -47)
            assert fm.matrix.rows[0][10] == -(4 * 4 * 3)
            assert (fm.matrix.rows[0][9], fm.matrix.rows[0][10]) != (-15, -16)
            assert hadamard_check(fm, composite).ok
            double_constant_check(fm)

    def test_criterion_03_exchange_data_reproduction(self):
        """Exchange polynomials before and after root adjunction.

        The generalized coefficients carry B factors that are easy to
        drop; the alternative without them reassembles to a different
        polynomial, while the derived values satisfy the transport
        identity (the adjoined exchange polynomial is the image of the
        base one under the root substitution).
        """
        with criterion(3, 1.0):
            seed = fixture_seed("FIX-B")
            theta_x = exchange_polynomial(seed, 0)
            theta_y = exchange_polynomial(seed, 1)
            assert str(theta_x) == FIX_B_THETA_X
            assert str(theta_y) == FIX_B_THETA_Y
            adjoined = tau_tilde(seed)
            assert adjoined.multiplicity == 6
            theta_bar_x = exchange_polynomial(adjoined.seed, 0)
            theta_bar_y = exchange_polynomial(adjoined.seed, 1)
            assert str(theta_bar_x) == FIX_B_ADJ_THETA_X
            assert str(theta_bar_y) == FIX_B_ADJ_THETA_Y
            assert str(tau_variable(adjoined.seed, 0)) == FIX_B_TAU_X
            assert str(tau_variable(adjoined.seed, 1)) == FIX_B_TAU_Y
            table = rho(adjoined.seed)
            assert tuple(str(m) for m in table[0]) == FIX_B_RHO_X
            assert tuple(str(m) for m in table[1]) == FIX_B_RHO_Y
            alt = parse_polynomial(FIX_B_ADJ_THETA_X_ALT, adjoined.seed.table)
            assert alt != theta_bar_x
            root_map = adjoined.root_map()
            assert map_variables(theta_x, root_map, adjoined.seed.table) == theta_bar_x
            assert map_variables(theta_y, root_map, adjoined.seed.table) == theta_bar_y

    def test_criterion_04_involution_and_string_legality(self):
        with criterion(4, 30.0):
            rng = random.Random(20260819)
            for _ in range(200):
                seed = random_seed(rng)
                k = rng.randrange(seed.rank)
                once = mutate_seed(seed, k)
                assert mutate_seed(once, k) == seed
                for row in once.strings.rows:
                    assert str(row[0]) == "1"
                    assert str(row[-1]) == "1"

    def test_criterion_05_laurent_phenomenon(self):
        with criterion(5, 300.0):
            rng = random.Random(5)
            for _ in range(200):
                seed = random_seed(rng)
                sequence = random_sequence(rng, seed.rank, 6)
                final = mutate_seed_sequence(seed, sequence)
                assert all(p.terms for p in final.cluster)

    def test_criterion_06_block_conditions_along_group_walks(self):
        with criterion(6, 300.0):
            rng = random.Random(6)
            for _ in range(200):
                seed = random_seed(rng)
                fm = build(seed)
                matrix = seed.matrix
                for k in random_sequence(rng, seed.rank, 5):
                    fm = group_mutate(fm, k)
                    matrix = mutate(matrix, k)
                    assert hadamard_check(fm, matrix).ok
                    double_constant_check(fm)

    def test_criterion_07_product_formula(self):
        with criterion(7, 600.0):
            for name in FIXTURE_NAMES:
                seed = fixture_seed(name)
                sequences = itertools.product(range(seed.rank), repeat=4)
                assert not failed_cases("product-formula", seed, sequences)
            rng = random.Random(7)
            for _ in range(50):
                seed = random_seed(rng)
                sequence = random_sequence(rng, seed.rank, 4)
                assert not failed_cases("product-formula", seed, [sequence])

    def test_criterion_08_embedding(self):
        with criterion(8, 600.0):
            assert not failed_cases("embedding", fixture_seed("FIX-C"), [(0,) * 6])
            sequences = itertools.product((0, 1), repeat=3)
            assert not failed_cases("embedding", fixture_seed("FIX-B"), sequences)

    def test_criterion_09_subquotient(self):
        with criterion(9, 1.0):
            for name in FIXTURE_NAMES:
                report = subquotient_check(fixture_seed(name))
                assert report.ok, report.failures

    def test_criterion_10_root_formula_and_homogeneity(self):
        """Both per-direction checks hold on mutated adjoined seeds.

        Fixture walk depths are capped at the deepest states whose
        expanded cluster entries stay desk-scale: the wide-entry
        fixture FIX-A sits in the doubly-exponential growth class, so
        its entries explode past depth one, while FIX-B admits depth
        three and FIX-C is exhausted to depth four.  Breadth comes from
        the hundred random seeds, each walked to depth four.
        """
        with criterion(10, 120.0):
            walks = {
                "FIX-A": [(0,), (1,)],
                "FIX-B": [(0, 1, 0), (1, 0, 1)],
                "FIX-C": [(0,) * n for n in range(5)],
            }
            for name, sequences in walks.items():
                adjoined = tau_tilde(fixture_seed(name))
                for sequence in sequences:
                    current = mutate_seed_sequence(adjoined.seed, sequence)
                    for k in range(current.rank):
                        report = root_formula_check(current, k)
                        assert report.ok, report.failures
                        homogeneity_check(current, k)
            rng = random.Random(10)
            for _ in range(100):
                seed = random_seed(rng)
                adjoined = tau_tilde(seed)
                sequence = random_sequence(rng, seed.rank, 4)
                current = mutate_seed_sequence(adjoined.seed, sequence)
                for k in range(current.rank):
                    report = root_formula_check(current, k)
                    assert report.ok, report.failures
                    homogeneity_check(current, k)
