"""Shared fixtures and hypothesis strategies for the test suite."""

from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add
import random
import re
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from gencluster import laurent_kernel
from gencluster.cli_io import walk_verdicts
from gencluster.errors import ParseError, TableMismatch
from gencluster.fixtures import fixture_seed
from gencluster.matrix_mutation import ExtendedExchangeMatrix, modify, sides
from gencluster.randomgen import random_seed
from gencluster.unfolding import FoldedMatrix, group_mutate
from gencluster.laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    PackedMonomial,
    Substitution,
    VariableTable,
    _drop_zeros,
    _require_same_table,
    _same_table,
    _trusted,
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

#: The field size and the limit of the first rung of key fields, where
#: every table starts: a polynomial with an exponent bound of this
#: magnitude or more sits on a wider rung.
FIRST_RUNG_BITS = SMALL_TABLE._layout.bits
FIRST_RUNG_LIMIT = SMALL_TABLE._layout.limit
#: The limit of the second rung, of twice the first rung's field size.
SECOND_RUNG_LIMIT = SMALL_TABLE._layout.fit(FIRST_RUNG_LIMIT).limit


def sorted_terms(p):
    """``(exponent tuple, coefficient)`` pairs of ``p``, in graded-lex descending order."""
    unpack = p._layout.unpack
    return [(unpack(k), c) for k, c in sorted(p._keys.items(), reverse=True)]


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
    row = modify(seed.matrix, seed.divisors).rows[k]
    out = LaurentPolynomial.one(seed.table)
    for i in range(seed.rank):
        if sign * row[i] > 0:
            out = poly_mul(out, poly_pow(seed.cluster[i], sign * row[i]))
    return out


def dense_mutate(matrix, k):
    """Mutation in direction ``k`` by the dense one-direction rule.

    Every row with ``b_ik != 0`` is rebuilt over every column: entry
    ``(i, j)`` gains ``|b_ik|`` times the part of ``b_kj`` with the sign
    of ``b_ik``, read off the pivot's dense exchange sides.  Row ``k``
    and column ``k`` are negated.  The result passes the validating
    constructor.
    """
    matrix.check_direction(k)
    gt, lt = sides(matrix.rows[k])
    rows = []
    for i, row in enumerate(matrix.rows):
        b_ik = row[k]
        if i == k:
            rows.append(tuple([-e for e in row]))
        elif not b_ik:
            rows.append(row)
        else:
            new_row = [e + b_ik * p for e, p in zip(row, gt if b_ik > 0 else lt)]
            new_row[k] = -b_ik
            rows.append(tuple(new_row))
    return ExtendedExchangeMatrix(matrix.n, matrix.m, tuple(rows))


def member_by_member(fm, k):
    """Group mutation of ``fm`` at ``k`` composed of :func:`dense_mutate` steps."""
    matrix = fm.matrix
    for c in fm.layout.group_range(k):
        matrix = dense_mutate(matrix, c)
    return FoldedMatrix(matrix, fm.layout)


def group_mutate_sequence(fm, sequence):
    """Group-mutate the unfolded matrix ``fm`` along ``sequence``."""
    for k in sequence:
        fm = group_mutate(fm, k)
    return fm


def failed_cases(target, seed, sequences, mode="total"):
    """The failing ``(sequence, ok, failures)`` verdicts of ``verify``'s walk.

    Each of ``sequences`` is one case of the walk of ``target`` on
    ``seed`` in root mode ``mode``, walked from the root.
    """
    cases = [(tuple(sequence), 0) for sequence in sequences]
    return [v for v in walk_verdicts(target, seed, cases, mode) if not v[1]]


def shared_factor_seeds():
    """Random seeds whose divisors share a factor and that have frozen columns.

    In ``lcm`` mode their roots have multiplicity ``lcm(d) < prod(d)``,
    so the unfolding paired with them must scale its ``F`` columns by
    ``lcm(d) / d_k`` rather than ``prod(d) / d_k``.
    """
    rng = random.Random(11)
    seeds = [random_seed(rng) for _ in range(300)]
    return [
        seed for seed in seeds
        if seed.matrix.m and lcm(*seed.divisors.entries) < seed.divisors.product
    ]


@contextmanager
def extremes_reads():
    """Record every polynomial whose exponent extremes the kernel reads.

    The heap route of ``poly_exact_div`` reads both operands' extremes
    before it starts, and ``hash_key`` and equality across rungs read
    those of a polynomial above the first rung; nothing else reads them.
    """
    reads = []
    original = laurent_kernel._extremes

    def spy(p):
        reads.append(p)
        return original(p)

    with mock.patch.object(laurent_kernel, "_extremes", spy):
        yield reads


def sum_with_bound(table, terms, amp):
    """The polynomial of ``{exponent tuple: coefficient}`` over ``table``, bounded by ``amp``.

    Zero coefficients are dropped; the keys sit on the rung ``amp`` fits,
    as a kernel result's do.
    """
    layout = table._layout.fit(amp)
    return _trusted(table, _drop_zeros({
        layout.pack_bounded(exps)[0]: coeff for exps, coeff in terms.items()
    }), amp)


def packed_vector(v):
    """The exponent vector ``v``, or a ``PackedMonomial``'s, decoded from its key."""
    return v._rung.unpack(v._key) if isinstance(v, PackedMonomial) else tuple(v)


def poly_sum(table, polys):
    """Sum of any number of polynomials over ``table``, term by term, in one pass."""
    terms = {}
    amp = 0
    for p in polys:
        if not _same_table(p.table, table):
            raise TableMismatch("operands live over different variable tables")
        for exps, coeff in p.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        amp = max(amp, p._amp)
    return sum_with_bound(table, terms, amp)


def map_variables(p, mapping, target):
    """``p`` under the :class:`Substitution` of ``mapping`` from its table to ``target``, built for it alone."""
    return Substitution(mapping, p.table, target)(p)


def oracle_unit_elimination(table, sizes):
    """The unit elimination over a folded ``table``, found by name.

    ``sizes`` are the group sizes.  Group ``k``'s members are numbered on
    from the sizes of the groups before it, and member ``c`` names the
    auxiliaries ``t<c>`` and ``s<c>``; the last member's ``t`` (``s``)
    goes to the inverse product of the group's other ``t`` (``s``)
    variables.
    """
    images, start = {}, 0
    for size in sizes:
        members = range(start + 1, start + size + 1)
        for prefix in "ts":
            names = [f"{prefix}{c}" for c in members]
            images[names[-1]] = table.monomial({n: -1 for n in names[:-1]})
        start += size
    return images


@lru_cache(maxsize=None)
def oracle_units(table, sizes):
    """:func:`oracle_unit_elimination` as a kernel ``Substitution`` of ``table`` into itself."""
    return Substitution(oracle_unit_elimination(table, sizes), table, table)


@lru_cache(maxsize=None)
def oracle_sigma(table, sizes, k, r):
    """``E(sigma_{k,r})`` over a folded ``table``: group ``k``'s balanced sum, found by name.

    The pairs ``(t<c>, s<c>)`` of the group's members (numbered as in
    :func:`oracle_unit_elimination`) are summed subset by subset
    (:func:`oracle_balanced_sum`) and eliminated by :func:`eliminated`.
    ``sizes`` is a tuple, as the sum is kept per argument.
    """
    start = sum(sizes[:k])
    pairs = [
        (table.monomial({f"t{c}": 1}).exponents, table.monomial({f"s{c}": 1}).exponents)
        for c in range(start + 1, start + sizes[k] + 1)
    ]
    return eliminated(oracle_balanced_sum(table, pairs, r), sizes)


def eliminated(p, sizes):
    """``E(p)``: ``p``, over a folded table with group sizes ``sizes``, by :func:`oracle_units`."""
    return oracle_units(p.table, tuple(sizes))(p)


def oracle_poly_mul(a, b):
    """``{exponent tuple: coefficient}`` of ``a * b``, term by term: the schoolbook product."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exps = tuple(map(add, ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return {exps: c for exps, c in out.items() if c}


def oracle_sum_of_products(pairs):
    """``sum_i a_i * b_i`` of :func:`oracle_poly_mul` products."""
    out = {}
    for a, b in pairs:
        for exps, c in oracle_poly_mul(a, b).items():
            out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def oracle_balanced_sum(table, pairs, r):
    """Sum over the ``r``-subsets ``J`` of ``pairs`` of exponent vectors, subset by subset.

    Each summand is the monomial whose exponents add the first vector of
    every pair in ``J`` and the second of every pair outside it.
    """
    summands = {}
    for subset in combinations(range(len(pairs)), r):
        chosen = [inside if i in subset else outside for i, (inside, outside) in enumerate(pairs)]
        exps = tuple(map(sum, zip(*chosen))) if chosen else (0,) * len(table)
        summands[exps] = summands.get(exps, 0) + 1
    return LaurentPolynomial(table, summands)


def mono_times(a, b):
    """Product of two monomials over one table (exponent addition)."""
    _require_same_table(a, b)
    return Monomial(a.table, tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def mono_over(a, b):
    """Exact quotient of two monomials over one table (exponent subtraction)."""
    _require_same_table(a, b)
    return Monomial(a.table, tuple(x - y for x, y in zip(a.exponents, b.exponents)))


def mono_poly(m):
    """The one-term polynomial of a monomial."""
    return m.table.term(m.exponents)


def mono_power(m, k):
    """Integer power of a monomial (exponent scaling)."""
    return Monomial(m.table, tuple(x * int(k) for x in m.exponents))


def poly_mul_monomial(a, m, c=1):
    """Product with a single term ``c * m``, shifting every exponent vector by the monomial's.

    It is bounded as a product is: ``a``'s bound plus the monomial's.
    """
    _require_same_table(a, m)
    c = int(c)
    if c == 0 or not a._keys:
        return LaurentPolynomial.zero(a.table)
    amp = a._amp + max(map(abs, m.exponents), default=0)
    return sum_with_bound(a.table, {
        tuple(map(add, exps, m.exponents)): coeff * c for exps, coeff in a.terms.items()
    }, amp)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*+-]))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character at position {pos} in {text!r}")
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def parse_polynomial(text, table):
    """Parse the canonical text form back into a polynomial.

    Grammar (whitespace-insensitive)::

        poly   := ['-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := INT | NAME ['^' INT]

    Unknown variable names raise
    :class:`~gencluster.errors.UnknownSymbol`; structural problems raise
    :class:`~gencluster.errors.ParseError`.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    terms = {}
    i = 0
    sign = 1
    if tokens[0] == ("op", "-"):
        sign = -1
        i = 1
    elif tokens[0] == ("op", "+"):
        i = 1
    while i < len(tokens):
        coeff = sign
        exps = [0] * len(table)
        expect_factor = True
        while True:
            if i >= len(tokens):
                if expect_factor:
                    raise ParseError("dangling operator at end of input")
                break
            kind, value = tokens[i]
            if expect_factor:
                if kind == "int":
                    coeff *= value
                    i += 1
                elif kind == "name":
                    idx = table.index(value)
                    power = 1
                    i += 1
                    if i + 1 < len(tokens) and tokens[i] == ("op", "^"):
                        k, v = tokens[i + 1]
                        if k != "int":
                            raise ParseError("exponent must be an integer")
                        power = v
                        i += 2
                    elif i < len(tokens) and tokens[i] == ("op", "^"):
                        raise ParseError("dangling '^'")
                    exps[idx] += power
                else:
                    raise ParseError(f"expected a factor, got {value!r}")
                expect_factor = False
            else:
                if (kind, value) == ("op", "*"):
                    i += 1
                    expect_factor = True
                elif (kind, value) in (("op", "+"), ("op", "-")):
                    break
                else:
                    raise ParseError(f"expected an operator, got {value!r}")
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + coeff
        if i < len(tokens):
            sign = 1 if tokens[i] == ("op", "+") else -1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling operator at end of input")
    return LaurentPolynomial(table, {e: c for e, c in terms.items() if c})
