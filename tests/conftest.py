"""Shared fixtures and hypothesis strategies for the test suite."""

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from gencluster.fixtures import fixture_seed
from gencluster.laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    VariableTable,
    _require_same_table,
    poly_mul,
    poly_pow,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def fix_a():
    return fixture_seed("FIX-A")


@pytest.fixture
def fix_b():
    return fixture_seed("FIX-B")


@pytest.fixture
def fix_c():
    return fixture_seed("FIX-C")


@pytest.fixture
def rng():
    return random.Random(0)


SMALL_TABLE = VariableTable.make(cluster=("x", "y"), frozen=("f",))


def small_polynomials(table=SMALL_TABLE, max_terms=4, max_exp=3, max_coeff=5):
    """Strategy for small Laurent polynomials over ``table``."""
    width = len(table)
    exponent = st.integers(min_value=-max_exp, max_value=max_exp)
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff)
    term = st.tuples(st.tuples(*([exponent] * width)), coeff)
    def build(pairs):
        terms = {}
        for exps, c in pairs:
            terms[exps] = terms.get(exps, 0) + c
        return LaurentPolynomial(table, {e: c for e, c in terms.items() if c})
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def cluster_side(seed, k, sign):
    """``u>`` (``sign=1``) or ``u<`` (``sign=-1``) of direction ``k``.

    The product of the current cluster entries raised to the positive
    parts of ``sign`` times the scaled row, built with ``poly_pow``
    independently of the library's exchange context.
    """
    row = seed.scaled_matrix().rows[k]
    out = LaurentPolynomial.one(seed.table)
    for i in range(seed.rank):
        if sign * row[i] > 0:
            out = poly_mul(out, poly_pow(seed.cluster[i], sign * row[i]))
    return out


def mono_times(a, b):
    """Product of two monomials over one table (exponent addition)."""
    _require_same_table(a, b)
    return Monomial(a.table, tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def mono_over(a, b):
    """Exact quotient of two monomials over one table (exponent subtraction)."""
    _require_same_table(a, b)
    return Monomial(a.table, tuple(x - y for x, y in zip(a.exponents, b.exponents)))


def mono_power(m, k):
    """Integer power of a monomial (exponent scaling)."""
    return Monomial(m.table, tuple(x * int(k) for x in m.exponents))
