"""Differential tests of the Laurent kernel against sympy.

Random Laurent polynomials with negative exponents, over tables of 1 to
24 variables, go through the kernel and through sympy's expression
arithmetic; the two results must have the same terms.  sympy is an
optional test dependency, so the module is skipped without it.
"""

from collections import Counter
from contextlib import contextmanager
from functools import reduce
from math import comb, gcd
from operator import sub
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIRST_RUNG_BITS,
    FIRST_RUNG_LIMIT,
    SECOND_RUNG_LIMIT,
    extremes_reads,
    mono_poly,
    oracle_balanced_sum,
    oracle_poly_mul,
    oracle_sum_of_products,
    parse_polynomial,
    poly_sum,
)

from gencluster import laurent_kernel

from gencluster.errors import (
    InexactDivision,
    TableMismatch,
    UnknownSymbol,
    ValidationError,
)
from gencluster.laurent_kernel import (
    _ROW_MIN_PRODUCTS,
    ColumnMap,
    LaurentPolynomial,
    Monomial,
    Substitution,
    VariableTable,
    monomial_combination,
    poly_add,
    poly_binomial_levels,
    poly_binomial_product,
    poly_exact_div,
    poly_mul,
    poly_neg,
    poly_pow,
    poly_shifted_sum,
    poly_sum_of_products,
)

sympy = pytest.importorskip("sympy")

MAX_WIDTH = 24

#: Exponents on both sides of the limits of the first two rungs.
RUNG_EDGES = [FIRST_RUNG_LIMIT - 1, FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT - 1, SECOND_RUNG_LIMIT]


def rung_limit(top):
    """The rung limit that ``top``, one of :data:`RUNG_EDGES`, sits next to."""
    return FIRST_RUNG_LIMIT if top <= FIRST_RUNG_LIMIT else SECOND_RUNG_LIMIT


def table_of(prefix, width):
    return VariableTable.make(cluster=[f"{prefix}{i}" for i in range(width)])


@st.composite
def tables(draw, prefix="x", max_width=MAX_WIDTH):
    return table_of(prefix, draw(st.integers(1, max_width)))


@st.composite
def polynomials(draw, table, max_terms=5, max_exp=4, min_terms=0):
    exponent = st.integers(-max_exp, max_exp)
    coeff = st.integers(-9, 9).filter(bool)
    pairs = draw(st.lists(
        st.tuples(st.tuples(*[exponent] * len(table)), coeff),
        min_size=min_terms, max_size=max_terms, unique_by=lambda pair: pair[0],
    ))
    return LaurentPolynomial(table, dict(pairs))


@st.composite
def monomials(draw, table, max_exp=3):
    return table.monomial({
        name: draw(st.integers(-max_exp, max_exp)) for name in table.names
    })


def symbols(table):
    return [sympy.Symbol(name) for name in table.names]


def to_sympy(p):
    xs = symbols(p.table)
    return sympy.Add(*(
        coeff * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
        for exps, coeff in p.terms.items()
    ))


def sympy_terms(expr, table):
    """``{exponent tuple: coefficient}`` of an expanded sympy expression."""
    xs = symbols(table)
    out = {}
    for mono, coeff in sympy.expand(expr).as_coefficients_dict().items():
        if coeff == 0:
            continue
        powers = mono.as_powers_dict()
        assert set(powers) <= set(xs) | {sympy.S.One}, mono
        exps = tuple(int(powers.get(x, 0)) for x in xs)
        out[exps] = out.get(exps, 0) + int(coeff)
    return {e: c for e, c in out.items() if c}


def assert_matches(p, expr):
    assert dict(p.terms.items()) == sympy_terms(expr, p.table)
    assert len(p.terms) == len(sympy_terms(expr, p.table))


class TestRingOperations:
    @given(st.data())
    def test_add_mul_pow(self, data):
        table = data.draw(tables())
        a = data.draw(polynomials(table))
        b = data.draw(polynomials(table))
        k = data.draw(st.integers(0, 3))
        big_a, big_b = to_sympy(a), to_sympy(b)
        assert_matches(poly_add(a, b), big_a + big_b)
        assert_matches(poly_mul(a, b), big_a * big_b)
        assert_matches(poly_pow(a, k), big_a**k)


def composed_sum(table, pairs):
    """``sum_i a_i * b_i`` as ``poly_sum`` of ``poly_mul`` products (``None`` is 1)."""
    one = LaurentPolynomial.one(table)
    return poly_sum(table, [
        poly_mul(one if a is None else a, one if b is None else b) for a, b in pairs
    ])


def assert_sum_matches(table, pairs):
    fused = poly_sum_of_products(table, iter(pairs))
    assert fused == composed_sum(table, pairs)
    assert fused._layout is table._layout.fit(fused._amp)
    assert all(fused._keys.values())
    big = sympy.Add(*(
        (1 if a is None else to_sympy(a)) * (1 if b is None else to_sympy(b))
        for a, b in pairs
    ))
    assert_matches(fused, big)


class TestSumOfProducts:
    """``poly_sum_of_products`` against the sum of ``poly_mul`` products."""

    @given(st.data())
    def test_random_operands(self, data):
        table = data.draw(tables())
        pairs = data.draw(st.lists(
            st.tuples(polynomials(table), polynomials(table)), max_size=4
        ))
        assert_sum_matches(table, pairs)

    @given(st.data())
    def test_cancelling_pairs(self, data):
        table = data.draw(tables())
        a = data.draw(polynomials(table, min_terms=1))
        b = data.draw(polynomials(table, min_terms=1))
        pairs = [(a, b), (poly_neg(b), a)]
        assert_sum_matches(table, pairs)
        assert poly_sum_of_products(table, pairs) == LaurentPolynomial.zero(table)
        assert poly_sum_of_products(table, []) == LaurentPolynomial.zero(table)

    @given(st.data())
    def test_absent_sides(self, data):
        table = data.draw(tables())
        a = data.draw(polynomials(table))
        b = data.draw(polynomials(table))
        assert_sum_matches(table, [(a, None), (None, b), (None, None)])
        assert poly_sum_of_products(table, [(None, None)]) == LaurentPolynomial.one(table)
        assert poly_sum_of_products(table, [(a, None)]) == a

    @given(st.data())
    def test_one_term_operands(self, data):
        table = data.draw(tables())
        a = monomial_times(table, data.draw)
        b = data.draw(polynomials(table))
        c = monomial_times(table, data.draw)
        assert_sum_matches(table, [(a, b), (b, c), (a, c), (None, c)])

    def test_operands_over_other_tables(self):
        table, other = table_of("x", 2), table_of("u", 2)
        x = table.variable("x0")
        u = other.variable("u0")
        for pairs in ([(x, u)], [(u, x)], [(x, None), (None, u)], [(u, None)]):
            with pytest.raises(TableMismatch):
                poly_sum_of_products(table, pairs)
        with pytest.raises(TableMismatch):
            composed_sum(table, [(x, u)])

    @pytest.mark.parametrize("top", RUNG_EDGES)
    def test_exponents_across_a_rung(self, top):
        # The bound of ``a * b`` reaches the limit of ``b * b``'s rung either
        # way, so the terms of ``b * b`` move up when ``a * b`` is added; the
        # x0 exponent of ``a * b`` is ``top``.  No exact extremes are read.
        table = table_of("x", 2)
        a = parse_polynomial(f"x0^{top - 1} + x1^-1", table)
        b = parse_polynomial("x0 + x1^-2", table)
        pairs = [(b, b), (a, b), (None, b)]
        with extremes_reads() as reads:
            fused = poly_sum_of_products(table, pairs)
        assert reads == []
        assert fused._amp == a._amp + b._amp >= rung_limit(top)
        one = LaurentPolynomial.one(table)
        expected = oracle_sum_of_products([(b, b), (a, b), (one, b)])
        assert dict(fused.terms.items()) == expected
        assert (top, 0) in expected
        assert_sum_matches(table, pairs)


def line_count_pick(keys, layout):
    """The row route's direction pick, made by building each candidate's lines to count them."""
    ordered = sorted(keys)
    counts = Counter(map(sub, ordered[1:], ordered[:-1]))
    counts.update(map(sub, ordered[2:], ordered[:-2]))
    best, tried = None, set()
    for delta, count in counts.most_common():
        if count < 2 or len(tried) == 3:
            break
        exps = layout.unpack(delta + layout.offset)
        step = gcd(*exps)
        for shift, e in zip(layout.shifts, exps):
            if e == step or e == -step:
                delta = delta // e
                if delta not in tried:
                    tried.add(delta)
                    lines = laurent_kernel._lines(keys, delta, shift, layout)
                    if best is None or len(lines) < len(best[2]):
                        best = delta, shift, lines
                break
    return best


@contextmanager
def row_routes():
    """Record what each call of the row route returned: True when it added the product.

    Each direction the route picks is checked against :func:`line_count_pick`.
    """
    taken = []
    original, pick = laurent_kernel._add_row_product, laurent_kernel._row_direction

    def spy(*args):
        taken.append(original(*args))
        return taken[-1]

    def checked_pick(keys, layout):
        found = pick(keys, layout)
        assert found == line_count_pick(keys, layout)
        return found

    with mock.patch.object(laurent_kernel, "_add_row_product", spy), mock.patch.object(
        laurent_kernel, "_row_direction", checked_pick
    ):
        yield taken


def line_polynomial(table, direction, starts, coeffs):
    """``sum coeffs[i][t] * x^(starts[i] + t*direction)``: terms on lattice lines."""
    terms = {}
    for start, line in zip(starts, coeffs):
        for t, c in enumerate(line):
            if c:
                terms[tuple(s + t * d for s, d in zip(start, direction))] = c
    return LaurentPolynomial(table, terms)


@st.composite
def lattice_polynomials(draw, table, direction, min_terms=64):
    """Polynomials of ``min_terms`` or more terms on a few lines along ``direction``.

    Each line starts at first exponent 0 and ``direction``'s is 1, so no
    two lines share a term.  A line has nonzero coefficients and up to
    three gaps.
    """
    width = len(table)
    starts = draw(st.lists(
        st.tuples(st.just(0), *[st.integers(-4, 4)] * (width - 1)),
        min_size=1, max_size=6, unique=True,
    ))
    length = -(-min_terms // len(starts))
    coeffs = []
    for _ in starts:
        line = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=length, max_size=length + 8))
        for gap in draw(st.lists(st.integers(1, len(line) - 1), max_size=3)):
            line.insert(gap, 0)
        coeffs.append(line)
    return line_polynomial(table, direction, starts, coeffs)


@st.composite
def directions(draw, width):
    """A lattice direction of first exponent 1 over ``width`` variables."""
    return (1,) + draw(st.tuples(*[st.integers(-2, 2)] * (width - 1)))


class TestRowProducts:
    """Products of at least ``_ROW_MIN_PRODUCTS`` term products against the schoolbook oracle."""

    @settings(max_examples=40)
    @given(st.data())
    def test_the_pick_is_the_line_count_pick(self, data):
        # Counting line bases picks the direction, and so the lines, that
        # building and counting each candidate's lines picks, ties
        # included: on lattice operands, with stray terms added, and on
        # operands with no repeated direction.
        table = data.draw(tables(max_width=8).filter(lambda t: len(t) >= 2))
        a = data.draw(lattice_polynomials(table, data.draw(directions(len(table)))))
        b = data.draw(lattice_polynomials(table, data.draw(directions(len(table))), min_terms=8))
        stray = data.draw(polynomials(table))
        for p in (a, poly_add(a, b), poly_add(a, stray), stray):
            picked = laurent_kernel._row_direction(p._keys, p._layout)
            assert picked == line_count_pick(p._keys, p._layout)

    @settings(max_examples=20)
    @given(st.data())
    def test_lattice_operands(self, data):
        # Negative coefficients and zero gaps inside the lines.
        table = data.draw(tables(max_width=8).filter(lambda t: len(t) >= 2))
        direction = data.draw(directions(len(table)))
        a = data.draw(lattice_polynomials(table, direction))
        b = data.draw(lattice_polynomials(table, direction))
        assert len(a.terms) * len(b.terms) >= _ROW_MIN_PRODUCTS
        with row_routes() as taken:
            product = poly_mul(a, b)
        assert len(taken) == 1
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)
        assert product._amp == a._amp + b._amp

    @settings(max_examples=20)
    @given(st.data())
    def test_squares(self, data):
        # ``a is b`` multiplies each pair of lines once.
        table = data.draw(tables(max_width=8).filter(lambda t: len(t) >= 2))
        a = data.draw(lattice_polynomials(table, data.draw(directions(len(table)))))
        with row_routes() as taken:
            square = poly_mul(a, a)
        assert len(taken) == 1
        assert dict(square.terms.items()) == oracle_poly_mul(a, a)
        assert poly_pow(a, 2) == square

    @pytest.mark.parametrize("top", [2**40 - 1, 2**40, 3**30])
    @pytest.mark.parametrize("signs", ["same", "alternating"])
    def test_coefficients_at_the_slot_edge(self, top, signs):
        # One line each, every coefficient of magnitude ``top``: the middle
        # coefficient of the product is ``64 * top**2``, the largest that
        # the slot width is sized for.
        table = table_of("x", 3)
        sign = (lambda t: 1) if signs == "same" else (lambda t: (-1) ** t)
        line = [[top * sign(t) for t in range(64)]]
        a = line_polynomial(table, (1, -1, 0), [(0, 0, 2)], line)
        b = line_polynomial(table, (1, -1, 0), [(0, 3, -1)], line)
        with row_routes() as taken:
            product = poly_mul(a, b)
            square = poly_mul(a, a)
        assert taken == [True, True]
        expected = oracle_poly_mul(a, b)
        assert dict(product.terms.items()) == expected
        assert max(map(abs, expected.values())) == 64 * top**2
        assert dict(square.terms.items()) == oracle_poly_mul(a, a)

    def test_single_line_times_many_lines(self):
        # ``a`` is one line with a gap; ``b`` has 25 lines of three terms.
        table = table_of("x", 4)
        direction = (1, 0, -1, 2)
        a = line_polynomial(table, direction, [(0, 1, 1, 1)], [list(range(-32, 33))])
        starts = [(0, i, -i, i % 3) for i in range(25)]
        b = line_polynomial(table, direction, starts, [[i + 1, 0, -i - 2, 3] for i in range(25)])
        with row_routes() as taken:
            product = poly_mul(a, b)
            other = poly_mul(b, a)
        assert taken == [True, True]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)
        assert other == product

    def test_steps_of_two_along_a_unit_direction(self):
        # Every difference is a multiple of (2, -2); divided by its gcd it
        # is (1, -1), and every other slot of a line is empty.
        table = table_of("x", 2)
        starts = [(0, i) for i in range(8)]
        a = line_polynomial(table, (2, -2), starts, [[1, -2, 3, 0, 5, -1, 2, 7, 1]] * 8)
        with row_routes() as taken:
            product = poly_mul(a, a)
        assert taken == [True]
        assert dict(product.terms.items()) == oracle_poly_mul(a, a)

    def test_singleton_lines_fall_back(self):
        # ``a`` has 32 lines along (1, 0, 0), its one direction with a unit
        # exponent, half of them of two terms and half of one, and each term
        # of ``b`` is alone on its line, so the line pairs are more than
        # half the term products.
        table = table_of("x", 3)
        starts = [(0, 5 * i * i, 7 * i * i) for i in range(32)]
        a = line_polynomial(table, (1, 0, 0), starts, [[1, -1]] * 16 + [[1]] * 16)
        b = LaurentPolynomial(table, {(j, j * j, j ** 3): j + 1 for j in range(128)})
        with row_routes() as taken:
            product = poly_mul(a, b)
        assert taken == [False]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)

    def test_sparse_lines_fall_back(self):
        # Along x1, ``a`` is two lines of 32 terms spread over 962 slots.
        table = table_of("x", 2)
        a = line_polynomial(table, (1, 0), [(0, i * i) for i in range(32)], [[1, -1]] * 32)
        b = LaurentPolynomial(table, {(j, j ** 3): j + 1 for j in range(128)})
        with row_routes() as taken:
            product = poly_mul(a, b)
        assert taken == [False]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)

    @given(st.data())
    def test_reading_a_line_back(self, data):
        # Lines longer than 64 slots are read by halves; coefficients
        # reach the largest magnitude a slot holds, of either sign.
        bits = data.draw(st.integers(2, 40))
        top = (1 << (bits - 1)) - 1
        slots = data.draw(st.integers(0, 300))
        coeffs = data.draw(st.lists(
            st.one_of(st.sampled_from([0, top, -top]), st.integers(-top, top)),
            min_size=slots, max_size=slots,
        ))
        terms = {}
        laurent_kernel._read_line(
            terms, 5, 3, sum(c << (bits * t) for t, c in enumerate(coeffs)), bits, len(coeffs)
        )
        assert terms == {5 + 3 * t: c for t, c in enumerate(coeffs) if c}

    @pytest.mark.parametrize("gap", [64, 2**31, 2**44])
    def test_products_far_apart_on_one_line_fall_back(self, gap):
        # ``a`` is a clump at x0^0 and one at x0^gap * x1, ``b`` the same
        # with x1 moved to the first clump: the product of the first
        # clumps and that of the last both land on the line of x1, about
        # ``2 * gap`` apart.  Next to each other they are taken; far apart
        # the line would span more slots than there are term products.
        table = table_of("x", 2)
        coeffs = [[t - 40 for t in range(64)], [3 - t for t in range(64)]]
        a = line_polynomial(table, (1, 0), [(0, 0), (gap, 1)], coeffs)
        b = line_polynomial(table, (1, 0), [(0, 1), (gap, 0)], coeffs[::-1])
        with row_routes() as taken:
            product = poly_mul(a, b)
        assert taken == [gap == 64]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)

    @pytest.mark.parametrize("direction", [(2, 3), (3, -2, 5)])
    def test_no_unit_direction_falls_back(self, direction):
        # Every key difference is a multiple of ``direction``, which has no
        # exponent of magnitude 1 after dividing out its gcd.
        table = table_of("x", len(direction))
        a = line_polynomial(table, direction, [(0,) * len(direction)], [list(range(1, 65))])
        b = line_polynomial(table, direction, [(1,) * len(direction)], [list(range(-64, 0))])
        with row_routes() as taken:
            product = poly_mul(a, b)
        assert taken == [False]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)

    def test_no_repeated_difference_falls_back(self):
        table = table_of("x", 2)
        a = LaurentPolynomial(table, {(i, i * i): 1 for i in range(64)})
        b = LaurentPolynomial(table, {(i * i, -i): -2 for i in range(64)})
        with row_routes() as taken:
            product = poly_mul(a, b)
        assert taken == [False]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)

    def test_products_below_the_threshold_take_the_schoolbook_loop(self):
        table = table_of("x", 2)
        a = line_polynomial(table, (1, 0), [(0, 0)], [[1] * 63])
        b = line_polynomial(table, (1, 0), [(0, 1)], [[1] * 65])
        assert len(a.terms) * len(b.terms) < _ROW_MIN_PRODUCTS
        with row_routes() as taken:
            poly_mul(a, b)
        assert taken == []

    @settings(max_examples=20)
    @given(st.data())
    def test_cancelling_sums(self, data):
        # Pairs on both routes whose products cancel, in part or in full.
        table = data.draw(tables(max_width=6).filter(lambda t: len(t) >= 2))
        direction = data.draw(directions(len(table)))
        a = data.draw(lattice_polynomials(table, direction))
        b = data.draw(lattice_polynomials(table, direction))
        c = data.draw(polynomials(table))
        pairs = [(a, b), (c, a), (poly_neg(b), a), (a, poly_neg(c)), (b, b)]
        with row_routes() as taken:
            total = poly_sum_of_products(table, pairs)
            zero = poly_sum_of_products(table, pairs[:4])
        assert len(taken) == 5
        assert dict(total.terms.items()) == oracle_sum_of_products(pairs[4:])
        assert zero == LaurentPolynomial.zero(table)

    @pytest.mark.parametrize("top", RUNG_EDGES)
    def test_exponents_across_a_rung(self, top):
        # Lines along x1 with x0 at ``top - 40`` and 40: the product's x0
        # exponent is ``top``.  The sum of the bounds reaches the limit of
        # ``a``'s rung either way, so the row route works on the next rung.
        table = table_of("x", 3)
        line = [[1, -3, 7, 2, 5, 1, 1, -1, 4]] * 8
        a = line_polynomial(table, (0, 1, 0), [(top - 40, 0, i) for i in range(8)], line)
        b = line_polynomial(table, (0, 1, 0), [(40, 0, -7 * i) for i in range(8)], line)
        with row_routes() as taken, extremes_reads() as reads:
            product = poly_mul(a, b)
        assert reads == [] and taken == [True]
        assert dict(product.terms.items()) == oracle_poly_mul(a, b)
        assert product._amp == a._amp + b._amp >= rung_limit(top)
        assert product._layout.bits == 2 * a._layout.bits


def composed_shifted_sum(table, pairs):
    """``sum_i x^(v_i) * p_i`` as ``poly_sum`` of ``poly_mul(table.term(v_i), p_i)``."""
    return poly_sum(table, [
        table.term(v) if p is None else poly_mul(table.term(v), p) for v, p in pairs
    ])


def assert_shifted_sum_matches(table, pairs):
    fused = poly_shifted_sum(table, iter(pairs))
    composed = composed_shifted_sum(table, pairs)
    assert fused == composed
    assert fused._amp == composed._amp
    assert fused._layout is table._layout.fit(fused._amp)
    assert all(fused._keys.values())
    xs = symbols(table)
    big = sympy.Add(*(
        sympy.Mul(*(x**e for x, e in zip(xs, v))) * (1 if p is None else to_sympy(p))
        for v, p in pairs
    ))
    assert_matches(fused, big)


@st.composite
def vectors(draw, table, max_exp=4):
    return draw(st.tuples(*[st.integers(-max_exp, max_exp)] * len(table)))


class TestShiftedSum:
    """``poly_shifted_sum`` against sums of ``poly_mul(table.term(v), p)`` and sympy."""

    @given(st.data())
    def test_random_pairs(self, data):
        table = data.draw(tables())
        pairs = data.draw(st.lists(
            st.tuples(vectors(table), st.none() | polynomials(table)), max_size=5
        ))
        assert_shifted_sum_matches(table, pairs)

    @given(st.data())
    def test_cancelling_pairs(self, data):
        # Equal vectors cancel a polynomial against its negative; a
        # vector and its shift by x0 cancel x0 * p against -p shifted once more.
        table = data.draw(tables())
        v = data.draw(vectors(table))
        p = data.draw(polynomials(table, min_terms=1))
        x0 = table.term(tuple(int(i == 0) for i in range(len(table))))
        moved = tuple(e + (i == 0) for i, e in enumerate(v))
        for pairs in (
            [(v, p), (v, poly_neg(p))],
            [(v, poly_mul(x0, p)), (moved, poly_neg(p))],
            [(v, None), (v, poly_neg(LaurentPolynomial.one(table)))],
        ):
            assert_shifted_sum_matches(table, pairs)
            assert poly_shifted_sum(table, pairs) == LaurentPolynomial.zero(table)
        assert poly_shifted_sum(table, []) == LaurentPolynomial.zero(table)

    @given(st.data())
    def test_absent_and_zero_sides(self, data):
        table = data.draw(tables())
        v, w = data.draw(vectors(table)), data.draw(vectors(table))
        p = data.draw(polynomials(table))
        zero = LaurentPolynomial.zero(table)
        assert_shifted_sum_matches(table, [(v, None), (w, zero), (w, p), (v, None)])
        assert poly_shifted_sum(table, [(v, None)]) == table.term(v)
        assert poly_shifted_sum(table, [(v, zero)]) == zero
        origin = (0,) * len(table)
        assert poly_shifted_sum(table, [(origin, p)]) == p

    def test_both_signs(self):
        table = table_of("x", 3)
        p = parse_polynomial("x0^2*x1^-3 - 5*x2 + 7", table)
        pairs = [((-4, 0, 3), p), ((2, -1, -2), poly_neg(p)), ((0, 0, -1), None)]
        assert_shifted_sum_matches(table, pairs)

    def test_other_tables_and_lengths(self):
        table, other = table_of("x", 2), table_of("u", 2)
        u = other.variable("u0")
        for pairs in ([((1, 0), u)], [((0, 0), None), ((1, 0), u)]):
            with pytest.raises(TableMismatch):
                poly_shifted_sum(table, pairs)
            with pytest.raises(TableMismatch):
                composed_shifted_sum(table, pairs)
        for v in ((1,), (1, 0, 0)):
            for p in (None, table.variable("x0"), u):
                with pytest.raises(ValidationError) as fused:
                    poly_shifted_sum(table, [(v, p)])
                with pytest.raises(ValidationError) as composed:
                    table.term(v)
                assert str(fused.value) == str(composed.value)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("top", RUNG_EDGES)
    def test_exponents_across_a_rung(self, sign, top):
        # Three routes to an exponent of magnitude ``top``: the vector
        # alone, the vector times a polynomial whose bound reaches the
        # rung's limit one step early, after a pair below it,
        # and a polynomial at the rung's edge shifted by a small vector,
        # whose bound is exact.  No exact extremes are read.
        table = table_of("x", 2)
        p = parse_polynomial(f"x0^{sign} + x1^-2", table)
        edge = parse_polynomial(f"x0^{sign * (top - 2)} + x1", table)
        cases = [
            [((sign * top, 0), None)],
            [((0, 1), p), ((sign * (top - 1), 0), p)],
            [((sign * 2, 0), edge), ((0, 0), None)],
        ]
        for pairs in cases:
            with extremes_reads() as reads:
                fused = poly_shifted_sum(table, pairs)
            assert reads == []
            assert (sign * top, 0) in fused.terms
            assert_shifted_sum_matches(table, pairs)


#: Exponents at the edge of the first rung, and past it on the rungs
#: above: both sides of the second rung's edge, and further up.
EDGE = (FIRST_RUNG_LIMIT - 1, 1 - FIRST_RUNG_LIMIT)
WIDE = (
    FIRST_RUNG_LIMIT, -FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT - 1, 1 - SECOND_RUNG_LIMIT,
    SECOND_RUNG_LIMIT, -SECOND_RUNG_LIMIT, 2**47, -(2**94), 2**200,
)


@st.composite
def edge_vectors(draw, table, edges=EDGE):
    """Vectors of small exponents of both signs, some drawn from ``edges``; zero vectors too."""
    entry = st.integers(-4, 4) | st.sampled_from(edges)
    return draw(st.just((0,) * len(table)) | st.tuples(*[entry] * len(table)))


def two_pass_key(layout, v):
    """The key of ``v`` summed on its own: the key of 1 plus each exponent times its unit."""
    return layout.offset + sum(e * unit for e, unit in zip(v, layout.units))


def one_pass_routes(table, v):
    """The one-term polynomial of ``v`` as ``term``, ``poly_shifted_sum`` and a mapped variable."""
    source = table_of("u", 1)
    image = Substitution({"u0": Monomial(table, v)}, source, table)(source.variable("u0"))
    return table.term(v), poly_shifted_sum(table, [(v, None)]), image


class TestOnePassPack:
    """Each vector is packed and bounded in one pass, on the narrowest rung that holds it."""

    @given(st.data())
    def test_key_and_magnitude_match_two_passes(self, data):
        table = data.draw(tables())
        v = data.draw(edge_vectors(table, EDGE + WIDE))
        amp = max(map(abs, v), default=0)
        layout = table._layout.fit(amp)
        key = two_pass_key(layout, v)
        assert table._layout.pack_bounded(v) == layout.pack_bounded(v) == (key, amp)
        for p in one_pass_routes(table, v):
            assert p._keys == {key: 1}
            assert p._amp == amp and p._layout is layout
            assert p.terms == {v: 1}

    @given(st.data())
    def test_a_vector_past_the_first_rung_widens(self, data):
        table = data.draw(tables())
        v = list(data.draw(edge_vectors(table)))
        v[data.draw(st.integers(0, len(v) - 1))] = data.draw(st.sampled_from(WIDE))
        v = tuple(v)
        amp = max(map(abs, v))
        for p in one_pass_routes(table, v):
            layout = p._layout
            # The narrowest rung: the limit of the one below is reached.
            assert layout.limit > amp >= 1 << (layout.bits // 2 - 2)
            assert p == LaurentPolynomial(table, {v: 1})

    @pytest.mark.parametrize("amp, rung", [
        (0, 0), (FIRST_RUNG_LIMIT - 1, 0), (FIRST_RUNG_LIMIT, 1), (SECOND_RUNG_LIMIT - 1, 1),
        (SECOND_RUNG_LIMIT, 2), (2**47, 2), (2**94 - 1, 2), (2**94, 3), (2**200, 4),
    ])
    def test_fit_climbs_the_ladder(self, amp, rung):
        # ``rung`` counts the doublings from the first rung.
        base = table_of("x", 3)._layout
        assert base.bits == FIRST_RUNG_BITS and base.limit == FIRST_RUNG_LIMIT
        bits = FIRST_RUNG_BITS << rung
        layout = base.fit(amp)
        assert layout.bits == bits and layout.limit == 1 << (bits - 2)
        assert layout is table_of("y", 3)._layout.fit(amp)

    @pytest.mark.parametrize("v", [(FIRST_RUNG_LIMIT,), (0, 0, -FIRST_RUNG_LIMIT), ()])
    def test_the_width_is_checked_for_wide_vectors(self, v):
        table = table_of("x", 2)
        for build in (table.term, lambda v: poly_shifted_sum(table, [(v, None)])):
            with pytest.raises(ValidationError, match="does not match table size"):
                build(v)


def composed_binomial_product(table, pairs):
    """``prod_i (x^(a_i) + x^(b_i))`` as ``poly_mul`` of one-binomial shifted sums."""
    return reduce(poly_mul, (
        poly_shifted_sum(table, ((a, None), (b, None))) for a, b in pairs
    ), LaurentPolynomial.one(table))


def assert_binomials_match(table, pairs):
    """Both entry points against the subset-by-subset sums and the composed product."""
    levels = poly_binomial_levels(table, iter(pairs))
    assert len(levels) == len(pairs) + 1
    for r, level in enumerate(levels):
        oracle = oracle_balanced_sum(table, pairs, r)
        assert level == oracle and str(level) == str(oracle)
        assert level._layout is table._layout.fit(level._amp)
    fused = poly_binomial_product(table, iter(pairs))
    composed = composed_binomial_product(table, pairs)
    assert fused == composed and str(fused) == str(composed)
    assert fused._amp == composed._amp
    assert fused == poly_sum(table, levels)
    return levels, fused


@st.composite
def binomial_pairs(draw, table, max_pairs=4, edges=()):
    entry = (st.integers(-4, 4) | st.sampled_from(edges)) if edges else st.integers(-4, 4)
    vector = st.tuples(*[entry] * len(table))
    return draw(st.lists(st.tuples(vector, vector), max_size=max_pairs))


class TestBinomialExpansion:
    """``poly_binomial_levels`` and ``poly_binomial_product`` against subset sums and products."""

    @given(st.data())
    def test_random_pairs(self, data):
        table = data.draw(tables(max_width=6))
        assert_binomials_match(table, data.draw(binomial_pairs(table)))

    @given(st.data())
    def test_duplicate_pairs_add_coefficients(self, data):
        table = data.draw(tables(max_width=6))
        (pair,) = data.draw(binomial_pairs(table, max_pairs=1).filter(len))
        count = data.draw(st.integers(2, 4))
        levels, fused = assert_binomials_match(table, [pair] * count)
        assert [max(level.terms.values()) for level in levels] == [
            comb(count, r) for r in range(count + 1)
        ]
        assert sum(fused.terms.values()) == 2**count

    def test_negative_exponents_and_shared_summands(self):
        table = table_of("x", 3)
        pairs = [((1, -2, 0), (0, 1, 3)), ((1, -2, 0), (0, 1, 3)), ((2, 0, -1), (0, 0, 0))]
        levels, fused = assert_binomials_match(table, pairs)
        assert [str(level) for level in levels] == [
            "x1^2*x2^6",
            "x0^2*x1^2*x2^5 + 2*x0*x1^-1*x2^3",
            "2*x0^3*x1^-1*x2^2 + x0^2*x1^-4",
            "x0^4*x1^-4*x2^-1",
        ]
        assert fused == poly_sum(table, levels)

    @given(st.data())
    def test_vectors_past_the_first_rung_widen(self, data):
        table = data.draw(tables(max_width=4))
        pairs = data.draw(binomial_pairs(table, max_pairs=3, edges=EDGE + WIDE))
        _, fused = assert_binomials_match(table, pairs)
        if any(max(map(abs, a + b), default=0) >= FIRST_RUNG_LIMIT for a, b in pairs):
            assert fused._layout.bits > FIRST_RUNG_BITS

    def test_bounds_reaching_the_first_rung_together(self):
        # Each pair stays below the first rung's limit; their sum does not.
        table = table_of("x", 2)
        half = FIRST_RUNG_LIMIT // 2
        pairs = [((half, 0), (0, 1)), ((half, -1), (0, 0))]
        _, fused = assert_binomials_match(table, pairs)
        assert (FIRST_RUNG_LIMIT, -1) in fused.terms
        assert fused._amp == FIRST_RUNG_LIMIT and fused._layout.bits == 2 * FIRST_RUNG_BITS

    def test_no_pairs_give_one(self):
        table = table_of("x", 3)
        one = LaurentPolynomial.one(table)
        assert poly_binomial_levels(table, []) == [one]
        assert poly_binomial_product(table, iter(())) == one
        assert str(poly_binomial_product(table, [])) == "1"

    @pytest.mark.parametrize("v", [(1,), (1, 0, 0), (FIRST_RUNG_LIMIT,), ()])
    def test_wrong_lengths_raise_as_term_does(self, v):
        table = table_of("x", 2)
        with pytest.raises(ValidationError) as composed:
            table.term(v)
        for pairs in ([(v, (0, 0))], [((1, 1), (0, 0)), ((0, 0), v)]):
            for expand in (poly_binomial_levels, poly_binomial_product):
                with pytest.raises(ValidationError) as fused:
                    expand(table, pairs)
                assert str(fused.value) == str(composed.value)


def unit(width, c):
    return (0,) * c + (1,) + (0,) * (width - 1 - c)


def vector_sides(images, row, cols):
    """The oracle of ``ColumnMap.sides``: each entry times its column's image, added as vectors.

    A column absent from ``images`` is fixed.
    """
    width = len(row)
    gt, lt = [0] * width, [0] * width
    for c in cols:
        e = row[c]
        side, e = (gt, e) if e > 0 else (lt, -e)
        for q, g in enumerate(images.get(c, unit(width, c))):
            side[q] += e * g
    return tuple(gt), tuple(lt)


def assert_packed_is(table, packed, vector):
    """A packed monomial against its vector: as a term (``==``, ``str``, ``hash_key``), bound and rung."""
    got, expected = table.term(packed), table.term(vector)
    assert got == expected and str(got) == str(expected)
    assert got.hash_key() == expected.hash_key()
    assert packed._bound >= max(map(abs, vector), default=0)
    assert packed._rung is table._layout.fit(packed._bound)


def assert_sides_match(table, images, row, cols=None):
    """``ColumnMap.sides`` against :func:`vector_sides`, alone and through the kernel functions."""
    columns = ColumnMap(table, images)
    packed = columns.sides(row) if cols is None else columns.sides(row, cols)
    vectors = vector_sides(images, row, range(len(row)) if cols is None else cols)
    for side, vector in zip(packed, vectors):
        assert_packed_is(table, side, vector)
    x0 = table.variable(table.names[0])
    for expand, pairs, oracle in (
        (poly_binomial_levels, [packed, vectors[::-1]], [vectors, vectors[::-1]]),
        (poly_binomial_product, [packed, vectors[::-1]], [vectors, vectors[::-1]]),
        (poly_shifted_sum, [(packed[0], None), (packed[1], x0)], [(vectors[0], None), (vectors[1], x0)]),
    ):
        got, expected = expand(table, pairs), expand(table, oracle)
        assert got == expected and str(got) == str(expected)
    return packed, vectors


def eliminations(sizes):
    """Images of a unit elimination over groups of ``sizes`` columns, one group after another.

    Each group's last column moves onto the others as its inverse: its
    image is ``-1`` on the group's other columns, zero for a group of one.
    """
    width, images, start = sum(sizes), {}, 0
    for size in sizes:
        last = start + size - 1
        images[last] = tuple(-int(start <= q < last) for q in range(width))
        start += size
    return images


@st.composite
def column_images(draw, width, entries=st.integers(-2, 2)):
    """Images of some columns: zero vectors, random vectors of both signs; the rest fixed."""
    image = st.none() | st.just((0,) * width) | st.tuples(*[entries] * width)
    drawn = draw(st.lists(image, min_size=width, max_size=width))
    return {c: v for c, v in enumerate(drawn) if v is not None}


@st.composite
def column_ranges(draw, width):
    start = draw(st.integers(0, width))
    return range(start, draw(st.integers(start, width)))


#: Entries and bound sums at both sides of the limits of the 24- and 48-bit rungs.
LIMIT_EDGES = [
    limit + delta for limit in (FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT) for delta in (-1, 0, 1)
]


class TestColumnMap:
    """``ColumnMap.sides`` and ``monomial_combination`` against the vector route they replace."""

    @given(st.data())
    def test_random_rows_and_images(self, data):
        table = data.draw(tables(max_width=8))
        width = len(table)
        images = data.draw(column_images(width))
        row = data.draw(edge_vectors(table))
        assert_sides_match(table, images, row)
        assert_sides_match(table, images, row, data.draw(column_ranges(width)))

    @given(st.data())
    def test_eliminations_with_single_member_groups(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        table = table_of("x", sum(sizes))
        row = data.draw(edge_vectors(table))
        images = eliminations(sizes)
        # Each group's last column moves; a group of one has a zero image.
        assert [any(images[c]) for c in sorted(images)] == [size > 1 for size in sizes]
        assert_sides_match(table, images, row)
        assert_sides_match(table, images, row, data.draw(column_ranges(len(table))))

    def test_zero_rows_and_zero_columns(self):
        table = table_of("x", 4)
        images = {1: (0, 0, 0, 0), 3: (-1, 2, 0, 0)}
        for row in ((0, 0, 0, 0), (0, 5, 0, 0), (2, 0, -3, 0), (0, 0, 0, -2)):
            for cols in (None, range(0), range(1, 3), range(2, 4)):
                packed, vectors = assert_sides_match(table, images, row, cols)
                for side, vector in zip(packed, vectors):
                    if not any(vector):
                        assert table.term(side) == LaurentPolynomial.one(table)

    @pytest.mark.parametrize("entry", LIMIT_EDGES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_entries_at_the_rung_limits(self, entry, sign):
        # A fixed column, a column sent to its neighbour's inverse, and a
        # column sent to zero, each holding one entry at a rung's edge.
        table = table_of("x", 3)
        images = {1: (-1, 0, 0), 2: (0, 0, 0)}
        for c in range(3):
            row = tuple(sign * entry * (q == c) for q in range(3))
            (gt, lt), _ = assert_sides_match(table, images, row)
            side = gt if sign > 0 else lt
            assert side._bound == (0 if c == 2 else entry)

    @pytest.mark.parametrize("total", LIMIT_EDGES)
    def test_bound_sums_at_the_rung_limits(self, total):
        # Two entries of one sign add their bounds: onto one variable, where
        # the exponents add as well, and onto two whose images cancel.  A
        # sum that reaches the first rung's limit gives way to the exact
        # largest magnitude.
        table = table_of("x", 3)
        half = total // 2
        for images in ({1: (1, 0, 0)}, {1: (-1, 0, 0)}):
            for sign in (1, -1):
                row = (sign * half, sign * (total - half), 0)
                (gt, lt), vectors = assert_sides_match(table, images, row)
                side, vector = (gt, vectors[0]) if sign > 0 else (lt, vectors[1])
                exact = max(map(abs, vector))
                assert side._bound == (total if total < FIRST_RUNG_LIMIT else exact)
                assert side._rung is table._layout.fit(side._bound)

    @given(st.data())
    def test_combinations(self, data):
        table = data.draw(tables(max_width=6))
        images = data.draw(column_images(len(table)))
        columns = ColumnMap(table, images)
        rows = [data.draw(edge_vectors(table)) for _ in range(2)]
        (a, _), (_, b) = (columns.sides(row) for row in rows)
        (va, _), (_, vb) = (vector_sides(images, row, range(len(table))) for row in rows)
        factors = st.integers(-3, 3) | st.sampled_from(LIMIT_EDGES)
        m, n = data.draw(factors), data.draw(factors)
        combined = monomial_combination(m, a, n, b)
        assert_packed_is(table, combined, tuple(m * x + n * y for x, y in zip(va, vb)))
        assert combined._bound == abs(m) * a._bound + abs(n) * b._bound

    def test_combinations_leave_a_wide_rung_for_a_narrow_bound(self):
        table = table_of("x", 2)
        columns = ColumnMap(table, {})
        wide, _ = columns.sides((SECOND_RUNG_LIMIT, 0))
        small, _ = columns.sides((0, 3))
        for m, n, vector in ((0, 1, (0, 3)), (0, 0, (0, 0)), (1, 0, (SECOND_RUNG_LIMIT, 0))):
            assert_packed_is(table, monomial_combination(m, wide, n, small), vector)
        # Two operands on one wide rung, both with factor zero.
        assert_packed_is(table, monomial_combination(0, wide, 0, wide), (0, 0))

    def test_wrong_lengths_and_widths_raise_as_term_does(self):
        table = table_of("x", 2)
        with pytest.raises(ValidationError) as composed:
            table.term((1,))
        columns = ColumnMap(table, {0: (0, 1)})
        for row in ((1,), (1, 0, 0), ()):
            with pytest.raises(ValidationError) as fused:
                columns.sides(row)
            assert str(fused.value) == str(composed.value)
        others = [ColumnMap(table_of("u", 3), {}).sides((e, 0, 0))[0] for e in (1, SECOND_RUNG_LIMIT)]
        for other in others:
            for build in (table.term, lambda v: poly_shifted_sum(table, [(v, None)])):
                with pytest.raises(ValidationError) as fused:
                    build(other)
                assert str(fused.value) == str(composed.value)
        other = others[0]
        (mono, _) = columns.sides((1, 0))
        with pytest.raises(ValidationError) as fused:
            monomial_combination(1, mono, 1, other)
        assert str(fused.value) == str(composed.value)
        with pytest.raises(ValidationError, match="factors must be integers"):
            monomial_combination(0.5, mono, 1, mono)

    def test_images_are_checked_when_built(self):
        table = table_of("x", 2)
        for images in ({0: (1,)}, {2: (0, 0)}, {-1: (0, 0)}, {"x0": (0, 0)}, {0: (0.5, 0)}):
            with pytest.raises(ValidationError):
                ColumnMap(table, images)


class TestDivision:
    @given(st.data())
    def test_division_of_products_is_exact(self, data):
        table = data.draw(tables())
        a = data.draw(polynomials(table))
        b = data.draw(polynomials(table, min_terms=1))
        product = poly_mul(a, b)
        assert_matches(product, to_sympy(a) * to_sympy(b))
        quotient = poly_exact_div(product, b)
        assert quotient == a
        assert sympy.expand(to_sympy(quotient) * to_sympy(b) - to_sympy(product)) == 0

    @given(st.data())
    def test_perturbed_products_are_inexact(self, data):
        table = data.draw(tables())
        a = data.draw(polynomials(table))
        b = data.draw(polynomials(table, min_terms=2))
        extra = data.draw(polynomials(table, min_terms=1, max_terms=1))
        numer = poly_add(poly_mul(a, b), extra)
        # A product of two nonzero polynomials keeps its two extreme terms,
        # so a divisor with two or more terms divides no monomial, and
        # ``numer`` is not a multiple of ``b``.
        with pytest.raises(InexactDivision):
            poly_exact_div(numer, b)


def unlinked(p):
    """``p`` built afresh, with no recorded divisor, as the routes before the link see it."""
    return LaurentPolynomial(p.table, dict(p.terms.items()))


def outcome(numer, denom):
    """The keys of ``numer / denom``, or the type and text of the error it raises."""
    try:
        return poly_exact_div(numer, denom)._keys
    except InexactDivision as error:
        return type(error), str(error)


def linked(b, q):
    """``q`` as the quotient ``(q * b) / b``, which records ``b`` as its divisor."""
    quotient = poly_exact_div(poly_mul(q, b), b)
    assert quotient == q and quotient._divisor is b
    return quotient


class TestDivisorLink:
    """Dividing by a quotient of two or more terms first tries its recorded divisor."""

    @given(st.data())
    def test_dividing_back_returns_the_divisor_itself(self, data):
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=1))
        q = linked(b, data.draw(polynomials(table, min_terms=2)))
        numer = poly_mul(b, q)
        with extremes_reads() as reads:
            assert poly_exact_div(numer, q) is b
        assert reads == []
        # The link moves onto the returned divisor, and never chains.
        assert b._divisor is q and q._divisor is None

    @given(st.data())
    def test_divide_divide_back_divide_again(self, data):
        # Each division after the first is answered by the moved link,
        # with no division route run.
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=2))
        q = linked(b, data.draw(polynomials(table, min_terms=2)))
        numer = poly_mul(b, q)
        with extremes_reads() as reads:
            assert poly_exact_div(numer, q) is b
            assert b._divisor is q and q._divisor is None
            assert poly_exact_div(numer, b) is q
            assert q._divisor is b and b._divisor is None
        assert reads == []

    @given(st.data())
    def test_a_shared_divisor_chains_two_links(self, data):
        # ``r`` and ``q`` are both quotients by ``b``.  Dividing back by
        # ``q`` moves its link onto ``b``, so ``r`` reaches ``b`` and then
        # ``q``: a chain, which only a divisor of two quotients makes.
        # Dividing back by ``r`` moves ``b``'s link to ``r`` and ends it.
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=2))
        r = linked(b, data.draw(polynomials(table, min_terms=2)))
        q = linked(b, data.draw(polynomials(table, min_terms=2)))
        assert poly_exact_div(poly_mul(b, q), q) is b
        assert r._divisor is b and b._divisor is q and q._divisor is None
        assert poly_exact_div(poly_mul(b, r), r) is b
        assert b._divisor is r and r._divisor is None and q._divisor is None

    @given(st.data())
    def test_other_numerators_give_the_routes_result(self, data):
        # Another multiple, and a perturbed one, which no divisor of two
        # or more terms divides.
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=1))
        q = data.draw(polynomials(table, min_terms=2))
        c = data.draw(polynomials(table, min_terms=1).filter(lambda c: c != b))
        extra = data.draw(polynomials(table, min_terms=1, max_terms=1))
        for numer in (poly_mul(c, q), poly_add(poly_mul(b, q), extra)):
            expected = outcome(numer, unlinked(q))
            assert outcome(numer, linked(b, q)) == expected
        assert expected[0] is InexactDivision

    @pytest.mark.parametrize("top", [
        FIRST_RUNG_LIMIT // 2, FIRST_RUNG_LIMIT - 2, SECOND_RUNG_LIMIT // 2, SECOND_RUNG_LIMIT - 2,
    ])
    def test_products_on_a_wider_rung_are_answered(self, top):
        # b * q stays below the limit of its factors' rung, but the sum of
        # the two bounds does not, so the product sits on a wider rung than
        # its factors.  The link compares numerators, not a product, so it
        # answers there too; a perturbed numerator takes the routes.
        table = table_of("x", 2)
        b = parse_polynomial(f"x0^{top} + x1", table)
        q = linked(b, parse_polynomial(f"x0^-{top} + 1", table))
        assert poly_mul(b, q)._layout is not q._layout is b._layout
        numer, denom = poly_mul(b, q), linked(b, q)
        with extremes_reads() as reads:
            assert poly_exact_div(numer, denom) is b
        assert reads == []
        numer = poly_add(poly_mul(b, q), table.variable("x1"))
        expected, denom = outcome(numer, unlinked(q)), linked(b, q)
        with extremes_reads() as reads:
            assert outcome(numer, denom) == expected
        assert reads == [numer, denom]

    @given(st.data())
    def test_an_equal_numerator_is_answered(self, data):
        # A numerator built apart, as another object and on its tightest
        # rung, equals the recorded one: the recorded divisor is returned,
        # and the link moves onto it with the new numerator.
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=1))
        q = linked(b, data.draw(polynomials(table, min_terms=2)))
        numer = unlinked(poly_mul(b, q))
        assert numer is not q._numer and numer == q._numer
        assert poly_exact_div(numer, q) is b
        assert b._divisor is q and b._numer is numer
        assert q._divisor is None and q._numer is None

    @pytest.mark.parametrize("extra, text", [
        (None, None),
        ("x1^5", "leading coefficient does not divide"),
        ("2*x0", "quotient support leaves the feasible box"),
    ])
    def test_an_unequal_numerator_misses(self, extra, text):
        # Another multiple of q gives the heap route's quotient, a perturbed
        # one its error text, as with no link.  After a quotient q keeps
        # neither divisor nor numerator; a division that raises moves no link.
        table = table_of("x", 2)
        b = parse_polynomial("x0 + x1 - 1", table)
        q = linked(b, parse_polynomial("2*x0^2 + x1", table))
        c = parse_polynomial("x0 - 3*x1^2", table)
        numer = poly_mul(c, q)
        if extra is not None:
            numer = poly_add(numer, parse_polynomial(extra, table))
        expected = outcome(numer, unlinked(q))
        with extremes_reads() as reads:
            assert outcome(numer, q) == expected
        assert reads == [numer, q]
        assert expected == (c._keys if text is None else (InexactDivision, text))
        if text is None:
            assert q._divisor is None and q._numer is None
        else:
            assert poly_exact_div(poly_mul(b, q), q) is b


def monomial_times(table, draw):
    """``c * m`` for a drawn monomial ``m`` and nonzero coefficient ``c``."""
    exps = draw(monomials(table)).exponents
    return LaurentPolynomial(table, {exps: draw(st.integers(-9, 9).filter(bool))})


class TestMonomialQuotient:
    """Operands of equal length, which the heap route divides like any other.

    A one-term quotient comes out of its exponent box, which is the
    quotient itself; anything else gives the quotient or raises.
    """

    @given(st.data())
    def test_monomial_quotients_are_read_off(self, data):
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=2))
        q = monomial_times(table, data.draw)
        product = poly_mul(b, q)
        assert len(product._keys) == len(b._keys)
        quotient = poly_exact_div(product, b)
        assert quotient == q
        assert quotient._amp == max(map(abs, next(iter(q.terms))))
        assert sympy.expand(to_sympy(quotient) * to_sympy(b) - to_sympy(product)) == 0

    @pytest.mark.parametrize("numer, denom", [
        ("(1 + x0)*(1 - x0)", "1 + x0"),
        ("x0^3 - x1^3", "x0 - x1"),
        ("x0^4 - 1", "x0^2 + 1"),
        ("x0^-2 - 4*x1^2", "x0^-1 + 2*x1"),
    ])
    def test_equal_length_non_monomial_quotients_take_the_heap_route(self, numer, denom):
        table = table_of("x", 2)
        xs = symbols(table)
        big_n = sympy.expand(sympy.sympify(numer, locals=dict(zip(table.names, xs))))
        big_d = sympy.sympify(denom, locals=dict(zip(table.names, xs)))
        numer = LaurentPolynomial(table, sympy_terms(big_n, table))
        denom = LaurentPolynomial(table, sympy_terms(big_d, table))
        assert len(numer._keys) == len(denom._keys)
        with extremes_reads() as reads:
            quotient = poly_exact_div(numer, denom)
        assert reads == [numer, denom]
        assert_matches(quotient, sympy.cancel(big_n / big_d))

    @given(st.data())
    def test_equal_length_inexact_pairs(self, data):
        # One coefficient of a monomial multiple moves: the length stays,
        # and a divisor of two or more terms divides no monomial.
        table = data.draw(tables())
        b = data.draw(polynomials(table, min_terms=2))
        product = poly_mul(b, monomial_times(table, data.draw))
        key = data.draw(st.sampled_from(sorted(product._keys)))
        coeff = product._keys[key]
        moved = data.draw(st.integers(-9, 9).filter(lambda c: c and c != -coeff))
        terms = dict(product.terms.items())
        terms[table._layout.unpack(key)] = coeff + moved
        numer = LaurentPolynomial(table, terms)
        assert len(numer._keys) == len(b._keys)
        with pytest.raises(InexactDivision):
            poly_exact_div(numer, b)

    @pytest.mark.parametrize("numer, denom", [
        ("3*x + 3", "2*x + 2"),
        ("3*x + 2", "2*x + 1"),
        ("2*x + 3", "2*x + 2"),
        ("x + 2", "x + 1"),
        ("x + y", "x + 1"),
    ])
    def test_inexact_pairs_raise_as_the_heap_route_does(self, numer, denom):
        # The first two leading coefficients do not divide; in the others
        # the leading quotient is no quotient of the whole.
        table = VariableTable.make(cluster=("x", "y"))
        numer, denom = parse_polynomial(numer, table), parse_polynomial(denom, table)
        with extremes_reads() as reads:
            with pytest.raises(InexactDivision) as failure:
                poly_exact_div(numer, denom)
        assert reads == [numer, denom]
        if numer._keys[max(numer._keys)] % denom._keys[max(denom._keys)]:
            assert str(failure.value) == "leading coefficient does not divide"


def assert_vector_form(sub, p):
    """Each term's exponents under ``sub.vector`` are those of the term's one-term image."""
    for exps in p.terms:
        image = sub(p.table.term(exps))
        assert dict(image.terms.items()) == {sub.vector(exps): 1}


class TestSubstitution:
    @given(st.data())
    def test_map_across_tables(self, data):
        source = data.draw(tables("x"))
        target = data.draw(tables("u"))
        p = data.draw(polynomials(source))
        mapping = {
            name: data.draw(monomials(target)) for name in source.names
        }
        sub = Substitution(mapping, source, target)
        expected = to_sympy(p).xreplace(
            {sympy.Symbol(n): to_sympy(mono_poly(m)) for n, m in mapping.items()}
        )
        assert_matches(sub(p), expected)
        assert_vector_form(sub, p)

    @given(st.data())
    def test_map_within_a_table(self, data):
        table = data.draw(tables())
        p = data.draw(polynomials(table))
        moved = data.draw(st.lists(st.sampled_from(table.names), unique=True))
        mapping = {name: data.draw(monomials(table)) for name in moved}
        sub = Substitution(mapping, table, table)
        expected = to_sympy(p).xreplace(
            {sympy.Symbol(n): to_sympy(mono_poly(m)) for n, m in mapping.items()}
        )
        assert_matches(sub(p), expected)
        assert_vector_form(sub, p)

    def test_mapping_errors_are_raised_when_built(self):
        source = VariableTable.make(cluster=("x", "y"), frozen=("f",))
        target = VariableTable.make(cluster=("u",), frozen=("f",))
        for mapping, error, text in (
            ({"nope": target.one()}, UnknownSymbol, "mapping source 'nope' is not in the table"),
            ({"x": (1, 0)}, ValidationError, "image of 'x' is not a Monomial: (1, 0)"),
            ({"x": target.variable("u")}, ValidationError, "image of 'x' is not a Monomial: "),
            ({"x": source.one()}, TableMismatch, "image of 'x' is not over the target table"),
        ):
            with pytest.raises(error) as failure:
                Substitution(mapping, source, target)
            assert str(failure.value).startswith(text)

    def test_a_name_the_target_lacks_raises_only_when_used(self):
        source = VariableTable.make(cluster=("x", "y"), frozen=("f",))
        target = VariableTable.make(cluster=("u",), frozen=("f",))
        sub = Substitution({"x": target.monomial(u=2)}, source, target)
        p = parse_polynomial("x^3*f - x + 2", source)
        assert sub(p) == parse_polynomial("u^6*f - u^2 + 2", target)
        assert sub.vector((3, 0, 1)) == (6, 1)
        for used in (parse_polynomial("x + y", source), source.variable("y")):
            with pytest.raises(UnknownSymbol, match="symbol 'y' is not in the table"):
                sub(used)
        with pytest.raises(UnknownSymbol, match="symbol 'y' is not in the table"):
            sub.vector((0, -1, 0))

    def test_operands_are_checked(self):
        source = VariableTable.make(cluster=("x", "y"))
        sub = Substitution({"x": source.monomial(y=1)}, source, source)
        with pytest.raises(TableMismatch):
            sub(table_of("x", 2).variable("x0"))
        for exps in ((1, 0, 0), (1,), (1.5, 0), ("a", 0), (None, 0)):
            with pytest.raises(ValidationError):
                sub.vector(exps)
        assert sub.vector((2, -1)) == (0, 1)

    def test_images_are_a_read_only_view(self):
        table = VariableTable.make(cluster=("x", "y"))
        mapping = {"x": table.monomial(y=-1)}
        sub = Substitution(mapping, table, table)
        mapping["y"] = table.one()
        assert dict(sub.images) == {"x": table.monomial(y=-1)}
        with pytest.raises(TypeError):
            sub.images["y"] = table.one()


def canonical_text(terms, table):
    """The printed form, built from sorted exponent tuples."""
    pieces = []
    for exps, coeff in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(table.names, exps) if e
        )
        mag = abs(coeff)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        sign = ("" if coeff > 0 else "-") if not pieces else ("+ " if coeff > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


@st.composite
def unit_heavy_polynomials(draw, table):
    """Polynomials whose coefficients are mostly ``±1``, often with a constant term."""
    exponent = st.integers(-3, 3) | st.just(0)
    coeff = st.sampled_from([1, -1]) | st.integers(-12, 12).filter(bool)
    vector = st.just((0,) * len(table)) | st.tuples(*[exponent] * len(table))
    return LaurentPolynomial(table, dict(draw(st.lists(
        st.tuples(vector, coeff), max_size=6, unique_by=lambda pair: pair[0],
    ))))


class TestText:
    @given(st.data())
    def test_keys_print_as_their_terms(self, data):
        table = data.draw(tables())
        p = data.draw(unit_heavy_polynomials(table))
        assert str(p) == canonical_text(dict(p.terms.items()), table)

    @given(st.data())
    def test_print_parse_roundtrip_in_canonical_order(self, data):
        table = data.draw(tables())
        p = data.draw(polynomials(table))
        text = str(p)
        assert text == canonical_text(sympy_terms(to_sympy(p), table), table)
        assert parse_polynomial(text, table) == p


#: Exponent magnitudes at the edges of the first two rungs and past them, up the ladder.
MAGNITUDES = [
    FIRST_RUNG_LIMIT - 1, FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT - 1, SECOND_RUNG_LIMIT,
    2**47, 2**94, 2**200,
]


def oracle_map(p, mapping, target):
    """``{exponent tuple: coefficient}`` of ``p`` under ``mapping``, term by term."""
    out = {}
    for exps, coeff in p.terms.items():
        image = [0] * len(target)
        for name, e in zip(p.table.names, exps):
            if name in mapping:
                for j, g in enumerate(mapping[name].exponents):
                    image[j] += e * g
            else:
                image[target.index(name)] += e
        image = tuple(image)
        out[image] = out.get(image, 0) + coeff
    return {exps: c for exps, c in out.items() if c}


def assert_on_its_rung(p, terms):
    """``p`` has exactly ``terms``, on the rung its bound fits, and prints them."""
    assert dict(p.terms.items()) == terms
    assert p._layout is p.table._layout.fit(p._amp)
    assert str(p) == canonical_text(terms, p.table)


@st.composite
def wide_polynomials(draw, table, max_terms=4):
    """Polynomials whose exponents are small or drawn from :data:`MAGNITUDES`, of both signs."""
    exponent = st.integers(-3, 3) | st.sampled_from(MAGNITUDES).map(
        lambda m: m * draw(st.sampled_from([1, -1]))
    )
    coeff = st.integers(-9, 9).filter(bool)
    return LaurentPolynomial(table, dict(draw(st.lists(
        st.tuples(st.tuples(*[exponent] * len(table)), coeff),
        max_size=max_terms, unique_by=lambda pair: pair[0],
    ))))


class TestWideKeys:
    """Exponents past the first rung against tuple-keyed oracles: results widen, never wrap."""

    @settings(max_examples=100)
    @given(st.data())
    def test_random_wide_operands(self, data):
        table = data.draw(tables(max_width=5))
        a = data.draw(wide_polynomials(table))
        b = data.draw(wide_polynomials(table))
        c = data.draw(wide_polynomials(table))
        one = LaurentPolynomial.one(table)
        assert_on_its_rung(poly_mul(a, b), oracle_poly_mul(a, b))
        assert_on_its_rung(poly_add(a, b), oracle_sum_of_products([(a, one), (b, one)]))
        pairs = [(a, b), (c, None), (b, c)]
        expected = oracle_sum_of_products([(a, b), (c, one), (b, c)])
        assert_on_its_rung(poly_sum_of_products(table, pairs), expected)
        if b._keys:
            assert poly_exact_div(poly_mul(a, b), unlinked(b)) == a
        mapping = {name: data.draw(monomials(table)) for name in table.names[::2]}
        sub = Substitution(mapping, table, table)
        assert_on_its_rung(sub(a), oracle_map(a, mapping, table))
        assert_vector_form(sub, a)

    @pytest.mark.parametrize("m", MAGNITUDES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_schoolbook_products(self, m, sign):
        table = table_of("x", 3)
        e = sign * m
        a = parse_polynomial(f"x0^{e}*x1 - 3*x2^-2 + 5", table)
        b = parse_polynomial(f"x0^{-e}*x2 + 2*x1^{e} - 7", table)
        with row_routes() as taken:
            product = poly_mul(a, b)
            square = poly_mul(b, b)
        assert taken == []
        assert_on_its_rung(product, oracle_poly_mul(a, b))
        assert_on_its_rung(square, oracle_poly_mul(b, b))

    @pytest.mark.parametrize("m", MAGNITUDES)
    def test_row_products(self, m):
        table = table_of("x", 3)
        line = [[1, -3, 7, 2, 5, 1, 1, -1, 4]] * 8
        a = line_polynomial(table, (0, 1, 0), [(m, 0, i) for i in range(8)], line)
        b = line_polynomial(table, (0, 1, 0), [(3, -m, -7 * i) for i in range(8)], line)
        with row_routes() as taken:
            product = poly_mul(a, b)
            square = poly_mul(a, a)
        assert taken == [True, True]
        assert_on_its_rung(product, oracle_poly_mul(a, b))
        assert_on_its_rung(square, oracle_poly_mul(a, a))

    @pytest.mark.parametrize("m", MAGNITUDES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_division_routes(self, m, sign):
        table = table_of("x", 3)
        e = sign * m
        a = parse_polynomial(f"x0^{e}*x1 - 3*x2^-2 + 5", table)
        b = parse_polynomial(f"x0^{-e}*x2 + 2*x1^{e} - 7", table)
        term = LaurentPolynomial(table, {(e, -1, 0): 3})
        assert_on_its_rung(poly_exact_div(poly_mul(a, term), term), dict(a.terms.items()))
        numer, denom = poly_mul(a, b), unlinked(b)
        with extremes_reads() as reads:
            quotient = poly_exact_div(numer, denom)
        assert reads == [numer, denom]
        assert_on_its_rung(quotient, dict(a.terms.items()))
        with pytest.raises(InexactDivision):
            poly_exact_div(poly_add(numer, table.term((e, 0, 1))), unlinked(b))

    @pytest.mark.parametrize("m", MAGNITUDES)
    def test_divisor_link(self, m):
        # The link answers whether or not the product shares its factors'
        # rung: it compares the numerator with the recorded one.
        table = table_of("x", 2)
        b = parse_polynomial(f"x0^{m} + x1", table)
        q = linked(b, parse_polynomial(f"x0^-{m}*x1 + 1", table))
        with extremes_reads() as reads:
            assert poly_exact_div(poly_mul(b, q), q) is b
        assert reads == []

    @pytest.mark.parametrize("m", MAGNITUDES)
    def test_maps(self, m):
        source = VariableTable.make(cluster=("x0", "x1"), frozen=("f",))
        p = parse_polynomial(f"x0^{m}*f - 2*x1^-3*f^{m} + 1", source)
        same = {"x0": source.monomial(x0=2, x1=-1)}
        other = VariableTable.make(cluster=("u0", "u1"), frozen=("f",))
        across = {"x0": other.monomial(u0=3, f=-1), "x1": other.monomial(u1=-2)}
        narrow = VariableTable.make(cluster=("u0",), frozen=("f",))
        down = {"x1": narrow.one(), "x0": narrow.monomial(u0=-5)}
        # Every image 1: a zero bound, so the result sits below ``p``'s rung.
        flat = {name: narrow.one() for name in source.names}
        for mapping, target in ((same, source), (across, other), (down, narrow), (flat, narrow)):
            sub = Substitution(mapping, source, target)
            assert_on_its_rung(sub(p), oracle_map(p, mapping, target))
            assert_vector_form(sub, p)

    @settings(max_examples=60)
    @given(st.data())
    def test_one_substitution_across_rungs(self, data):
        # One substitution maps polynomials on several rungs, in any order,
        # within one table and across tables: each rung pair packs its
        # own move list, read on the rung of the keys it moves.
        source = data.draw(tables("x", max_width=4))
        across = data.draw(st.booleans())
        target = data.draw(tables("u", max_width=4)) if across else source
        names = source.names if across else data.draw(
            st.lists(st.sampled_from(source.names), unique=True)
        )
        mapping = {name: data.draw(monomials(target)) for name in names}
        sub = Substitution(mapping, source, target)
        for _ in range(data.draw(st.integers(2, 5))):
            p = data.draw(wide_polynomials(source))
            assert_on_its_rung(sub(p), oracle_map(p, mapping, target))
            assert_vector_form(sub, p)

    @pytest.mark.parametrize("m", MAGNITUDES)
    def test_a_later_pair_widens_the_earlier_terms(self, m):
        table = table_of("x", 2)
        a = parse_polynomial("x0^2 - x1 + 3", table)
        b = parse_polynomial("x0*x1^-1 + 1", table)
        wide = parse_polynomial(f"x0^{m} - x1", table)
        one = LaurentPolynomial.one(table)
        fused = poly_sum_of_products(table, [(a, b), (b, b), (wide, b), (None, a)])
        expected = oracle_sum_of_products([(a, b), (b, b), (wide, b), (one, a)])
        assert_on_its_rung(fused, expected)
        shifted = poly_shifted_sum(table, [((1, 0), a), ((0, -1), None), ((-m, 1), b)])
        expected = oracle_sum_of_products([
            (table.term((1, 0)), a), (table.term((0, -1)), one), (table.term((-m, 1)), b),
        ])
        assert_on_its_rung(shifted, expected)

    @pytest.mark.parametrize("m", MAGNITUDES + [2**93])
    def test_tight_and_loose_bounds_compare_and_hash_equal(self, m):
        table = table_of("x", 2)
        loose = poly_mul(parse_polynomial(f"x0^{m}*x1 + x1", table), table.term((-m, 0)))
        tight = LaurentPolynomial(table, dict(loose.terms.items()))
        assert tight._amp == m and loose._amp == 2 * m
        assert loose == tight and tight == loose
        assert loose.hash_key() == tight.hash_key()
        assert len({loose.hash_key(), tight.hash_key()}) == 1
        other = poly_add(tight, table.variable("x0"))
        assert other != loose and loose != other
        assert other.hash_key() != loose.hash_key()

    @pytest.mark.parametrize("m", MAGNITUDES)
    def test_a_lookup_past_the_fields_raises(self, m):
        table = table_of("x", 3)
        p = parse_polynomial(f"x0^{m} - x1 + x0*x2^-{m}", table)
        for exps in p.terms:
            assert p.terms[exps] == p._keys[p._layout.pack_bounded(exps)[0]]
        past = p._layout.limit
        for exps in ((past, 0, 0), (0, -past, 0), (1, 0, past + m), (2**400, 0, 0)):
            assert exps not in p.terms
            with pytest.raises(KeyError):
                p.terms[exps]
