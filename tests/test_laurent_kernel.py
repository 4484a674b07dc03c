"""Exact Laurent arithmetic: ring axioms, division, substitution, text."""

from fractions import Fraction
import random

import pytest
from hypothesis import given

from conftest import (
    FIRST_RUNG_LIMIT,
    SECOND_RUNG_LIMIT,
    SMALL_TABLE,
    extremes_reads,
    mono_over,
    mono_poly,
    mono_power,
    mono_times,
    oracle_poly_mul,
    parse_polynomial,
    poly_mul_monomial,
    small_polynomials,
    sorted_terms,
)
from gencluster.errors import (
    GenClusterError,
    InexactDivision,
    TableMismatch,
    UnknownSymbol,
    ValidationError,
)
from gencluster.laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    Substitution,
    VariableTable,
    poly_add,
    poly_exact_div,
    poly_mul,
    poly_neg,
    poly_pow,
    poly_shifted_sum,
    poly_sub,
)


def poly_substitute(p, v, m):
    """Substitute the monomial ``m`` for the variable named ``v`` in ``p``.

    ``m`` may live over a different table; the result lives over ``m``'s
    table, with every other variable of ``p`` carried across by name.
    """
    if v not in p.table:
        raise UnknownSymbol(f"symbol {v!r} is not in the table")
    return Substitution({v: m}, p.table, m.table)(p)


class NonFrozenSupport(GenClusterError):
    """A tropical operation met a monomial supported on a cluster variable."""


def _require_stable_support(m):
    for i, e in enumerate(m.exponents):
        if e and i < m.table.n_cluster:
            raise NonFrozenSupport(
                f"monomial has cluster-variable support at {m.table.names[i]!r}"
            )


def tropical_add(m1, m2):
    """Tropical sum: componentwise minimum of frozen-supported exponents."""
    if m1.table != m2.table:
        raise TableMismatch("operands live over different variable tables")
    _require_stable_support(m1)
    _require_stable_support(m2)
    return Monomial(m1.table, tuple(min(a, b) for a, b in zip(m1.exponents, m2.exponents)))


def tropical_mul(m1, m2):
    """Tropical product: ordinary product of frozen-supported monomials."""
    _require_stable_support(m1)
    _require_stable_support(m2)
    return mono_times(m1, m2)


def random_poly(rng, table, max_terms=3, max_exp=4, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in range(len(table)))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return LaurentPolynomial(table, {e: c for e, c in terms.items() if c})


class TestRingAxioms:
    def test_thousand_random_triples(self):
        table = VariableTable.make(cluster=("x", "y", "z"), frozen=("f", "g"))
        rng = random.Random(12345)
        for _ in range(1000):
            a, b, c = (random_poly(rng, table) for _ in range(3))
            assert poly_add(a, b) == poly_add(b, a)
            assert poly_mul(a, b) == poly_mul(b, a)
            assert poly_add(poly_add(a, b), c) == poly_add(a, poly_add(b, c))
            assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
            assert poly_mul(a, poly_add(b, c)) == poly_add(
                poly_mul(a, b), poly_mul(a, c)
            )

    @given(small_polynomials(), small_polynomials(), small_polynomials())
    def test_distributivity(self, a, b, c):
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))

    @given(small_polynomials())
    def test_additive_inverse_and_units(self, a):
        zero = LaurentPolynomial.zero(a.table)
        one = LaurentPolynomial.one(a.table)
        assert poly_add(a, poly_neg(a)) == zero
        assert poly_mul(a, one) == a
        assert poly_sub(a, a) == zero

    @given(small_polynomials())
    def test_power_matches_iterated_product(self, a):
        expected = LaurentPolynomial.one(a.table)
        for k in range(4):
            assert poly_pow(a, k) == expected
            expected = poly_mul(expected, a)
        with pytest.raises(ValidationError):
            poly_pow(a, -1)


class TestExactDivision:
    @given(small_polynomials(), small_polynomials())
    def test_product_roundtrip(self, a, b):
        if not b.terms:
            with pytest.raises(InexactDivision):
                poly_exact_div(poly_mul(a, b), b)
        else:
            assert poly_exact_div(poly_mul(a, b), b) == a

    def test_thousand_random_roundtrips(self):
        table = VariableTable.make(cluster=("x", "y"), frozen=("f",))
        rng = random.Random(777)
        done = 0
        while done < 1000:
            a = random_poly(rng, table)
            b = random_poly(rng, table)
            if not b.terms:
                continue
            assert poly_exact_div(poly_mul(a, b), b) == a
            done += 1

    def test_inexact_remainder_raises(self):
        x = SMALL_TABLE.variable("x")
        y = SMALL_TABLE.variable("y")
        with pytest.raises(InexactDivision):
            poly_exact_div(poly_add(x, y), poly_add(x, poly_neg(y)))

    def test_inexact_coefficient_raises(self):
        table = SMALL_TABLE
        x_plus_one = poly_add(table.variable("x"), LaurentPolynomial.one(table))
        three = LaurentPolynomial(table, {(0,) * len(table): 3})
        with pytest.raises(InexactDivision):
            poly_exact_div(x_plus_one, three)

    #: ``(numer, denom, field, face)``: the first quotient term of the heap
    #: route leaves the quotient's box by one on ``face`` of ``field``.
    #: Past that term the next leading coefficient is +/-1, which 3 does
    #: not divide, so only the first term's box test gives the box error.
    BOX_EXITS = [
        ("3*x0^3*x1^5 + 1", "3*x1^2 + x0", 0, "high"),
        ("x0^2 + 3*x1^3", "3*x0*x1 + x1", 0, "low"),
        ("3*x0^5*x1^3 + 1", "3*x0^2 + x1", 1, "high"),
        ("3*x0^3 + x1^2", "3*x0*x1 + x0", 1, "low"),
    ]

    @pytest.mark.parametrize("numer, denom, field, face", BOX_EXITS)
    @pytest.mark.parametrize("numer_shift, denom_shift", [
        (0, 0), (1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1),
    ])
    @pytest.mark.parametrize("limit", [FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT], ids=["first", "second"])
    def test_first_quotient_term_leaves_the_box_by_one(
        self, numer, denom, field, face, numer_shift, denom_shift, limit
    ):
        # Shifts of +/-(limit - 8) in every field move the keys, and with
        # unequal shifts the box and the quotient, next to the limit of
        # the first or the second rung.
        table = VariableTable.make(cluster=("x0", "x1"))
        far = limit - 8

        def shifted(text, sign):
            return poly_mul(parse_polynomial(text, table), table.term((sign * far,) * 2))

        numer, denom = shifted(numer, numer_shift), shifted(denom, denom_shift)
        # The box and the first quotient term, read off exponent tuples.
        n_exps, d_exps = list(numer.terms), list(denom.terms)
        lo = [min(e[i] for e in n_exps) - min(e[i] for e in d_exps) for i in range(2)]
        hi = [max(e[i] for e in n_exps) - max(e[i] for e in d_exps) for i in range(2)]
        assert max(map(abs, lo + hi)) < limit
        lead = [a - b for a, b in zip(sorted_terms(numer)[0][0], sorted_terms(denom)[0][0])]
        for i in range(2):
            if i != field:
                assert lo[i] <= lead[i] <= hi[i]
        assert lead[field] == (hi[field] + 1 if face == "high" else lo[field] - 1)
        with pytest.raises(InexactDivision) as failure:
            poly_exact_div(numer, denom)
        assert str(failure.value) == "quotient support leaves the feasible box"
        # A quotient whose terms lie on every face of its box divides out
        # of its product with the same divisor, at the same distance from
        # the limit.
        quotient = shifted("x0^2*x1 - 3*x1^-1 + x0^-1", numer_shift - denom_shift)
        assert poly_exact_div(poly_mul(quotient, denom), denom) == quotient

    def test_monomial_division_crosses_zero(self):
        x = SMALL_TABLE.variable("x")
        y = SMALL_TABLE.variable("y")
        quotient = poly_exact_div(x, y)
        assert quotient == poly_mul(
            x, mono_poly(SMALL_TABLE.monomial(y=-1))
        )


class TestSubstitution:
    @given(small_polynomials(), small_polynomials())
    def test_homomorphism(self, p, q):
        target = VariableTable.make(cluster=("u", "y"), frozen=("f",))
        image = target.monomial(u=2, f=-1)
        def sub(poly):
            return poly_substitute(poly, "x", image)
        assert sub(poly_add(p, q)) == poly_add(sub(p), sub(q))
        assert sub(poly_mul(p, q)) == poly_mul(sub(p), sub(q))

    def test_unknown_symbol(self):
        p = SMALL_TABLE.variable("x")
        with pytest.raises(UnknownSymbol):
            poly_substitute(p, "nope", SMALL_TABLE.one())

    def test_map_variables_rejects_foreign_images(self):
        other = VariableTable.make(cluster=("u",))
        with pytest.raises(TableMismatch, match="image of 'x' is not over the target table"):
            Substitution({"x": SMALL_TABLE.one()}, SMALL_TABLE, other)

    @pytest.mark.parametrize("image", [(1, 0, 0), None, SMALL_TABLE.variable("y")])
    def test_map_variables_rejects_images_that_are_not_monomials(self, image):
        with pytest.raises(ValidationError, match="image of 'x' is not a Monomial"):
            Substitution({"x": image}, SMALL_TABLE, SMALL_TABLE)

    def test_map_variables_carries_names(self):
        # ``x`` has no image and no namesake in the target: only a
        # polynomial or a vector that uses it fails.
        target = VariableTable.make(cluster=("y", "w"), frozen=("f",))
        sub = Substitution({}, SMALL_TABLE, target)
        p = poly_mul(SMALL_TABLE.variable("y"), SMALL_TABLE.variable("f"))
        assert sub(p) == poly_mul(target.variable("y"), target.variable("f"))
        assert sub.vector((0, 2, -1)) == (2, 0, -1)
        with pytest.raises(UnknownSymbol, match="symbol 'x' is not in the table"):
            sub(poly_add(p, SMALL_TABLE.variable("x")))
        with pytest.raises(UnknownSymbol, match="symbol 'x' is not in the table"):
            sub.vector((1, 0, 0))


class TestTextForms:
    @given(small_polynomials())
    def test_print_parse_roundtrip(self, p):
        assert parse_polynomial(str(p), p.table) == p

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(UnknownSymbol):
            parse_polynomial("x + q", SMALL_TABLE)

    def test_canonical_ordering_is_stable(self):
        p = parse_polynomial("1 + x + x^2*y^-1 + f", SMALL_TABLE)
        assert str(p) == str(parse_polynomial(str(p), SMALL_TABLE))


class TestTropical:
    def test_add_is_componentwise_min(self):
        m1 = SMALL_TABLE.monomial(f=3)
        m2 = SMALL_TABLE.monomial(f=-2)
        assert tropical_add(m1, m2) == SMALL_TABLE.monomial(f=-2)

    def test_mul_is_ordinary_product(self):
        m1 = SMALL_TABLE.monomial(f=3)
        m2 = SMALL_TABLE.monomial(f=-2)
        assert tropical_mul(m1, m2) == SMALL_TABLE.monomial(f=1)

    def test_cluster_support_rejected(self):
        with pytest.raises(NonFrozenSupport):
            tropical_add(SMALL_TABLE.monomial(x=1), SMALL_TABLE.one())


class TestTables:
    def test_cluster_count_and_indices(self):
        assert SMALL_TABLE == VariableTable(("x", "y", "f"), 2)
        assert SMALL_TABLE.n_cluster == 2
        assert SMALL_TABLE.cluster_indices == (0, 1)
        assert SMALL_TABLE.frozen_indices == (2,)

    def test_extended_appends_frozen_variables(self):
        bigger = SMALL_TABLE.extended(("g",))
        assert bigger.names == ("x", "y", "f", "g")
        assert bigger.n_cluster == 2
        assert bigger.frozen_indices == (2, 3)

    @pytest.mark.parametrize("count", [-1, 4, True, False, 1.0, "1", None])
    def test_bad_cluster_count_rejected(self, count):
        with pytest.raises(ValidationError, match="cluster count"):
            VariableTable(("x", "y", "f"), count)

    def test_cluster_count_bounds_accepted(self):
        assert VariableTable(("x", "y", "f"), 0).frozen_indices == (0, 1, 2)
        assert VariableTable(("x", "y", "f"), 3).cluster_indices == (0, 1, 2)
        assert VariableTable((), 0).cluster_indices == ()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            VariableTable.make(cluster=("x", "x"))

    def test_names_are_stored_as_a_tuple(self):
        table = VariableTable(["x", "y", "f"], 2)
        assert table.names == ("x", "y", "f")
        assert table == SMALL_TABLE and hash(table) == hash(SMALL_TABLE)
        assert table.extended(("g",)) == SMALL_TABLE.extended(("g",))

    def test_bare_string_of_names_rejected(self):
        with pytest.raises(ValidationError, match="not the string 'xf'"):
            VariableTable("xf", 1)

    @pytest.mark.parametrize("cluster, frozen, shown", [
        ("xy", ("f",), "'xy'"), (("x", "y"), "f", "'f'"),
    ])
    def test_make_rejects_a_bare_string_of_names(self, cluster, frozen, shown):
        # Either part as one string would be split into one name a letter.
        with pytest.raises(ValidationError, match=f"not the string {shown}"):
            VariableTable.make(cluster=cluster, frozen=frozen)

    def test_make_accepts_iterators(self):
        table = VariableTable.make(cluster=(n for n in "xy"), frozen=("f",))
        assert table == SMALL_TABLE
        assert table.cluster_indices == (0, 1)

    def test_monomial_ops(self):
        m = SMALL_TABLE.monomial(x=2, f=-1)
        assert mono_times(m, m).exponents == SMALL_TABLE.monomial(x=4, f=-2).exponents
        assert mono_over(m, m).is_one()
        assert mono_power(m, 3) == SMALL_TABLE.monomial(x=6, f=-3)
        assert m.exponents == (2, 0, -1)

    def test_term(self):
        # A one-term polynomial straight from an exponent vector.
        assert SMALL_TABLE.term((2, 0, -1)) == LaurentPolynomial(SMALL_TABLE, {(2, 0, -1): 1})
        assert SMALL_TABLE.term([0, 0, 0]) == LaurentPolynomial.one(SMALL_TABLE)
        for bad in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValidationError):
                SMALL_TABLE.term(bad)

    def test_equal_tables_are_interchangeable(self):
        twin = VariableTable.make(cluster=("x", "y"), frozen=("f",))
        assert poly_add(
            SMALL_TABLE.variable("x"), twin.variable("x")
        ) == poly_mul(LaurentPolynomial(twin, {(0,) * len(twin): 2}), twin.variable("x"))

    def test_equal_content_gives_one_table_object(self):
        # make and extended share a table per content; a table built
        # directly is another object, equal and hashing alike.
        made = VariableTable.make(cluster=("x", "y"), frozen=("f", "g"))
        assert VariableTable.make(cluster=["x", "y"], frozen=("f",)).extended(["g"]) is made
        assert VariableTable.make(cluster=("x", "y", "f"), frozen=("g",)) is not made
        direct = VariableTable(("x", "y", "f", "g"), 2)
        assert direct is not made and direct == made and hash(direct) == hash(made)
        with pytest.raises(ValidationError, match="bad variable name"):
            VariableTable.make(cluster=(["x"],))

    def test_cross_table_ops_rejected(self):
        other = VariableTable.make(cluster=("x", "z"), frozen=("f",))
        with pytest.raises(TableMismatch):
            poly_add(SMALL_TABLE.variable("x"), other.variable("x"))


class Index:
    """An integer only by ``__index__``: adding it gives another ``Index``, not an ``int``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __add__(self, other):
        return Index(self.value + other.__index__())

    __radd__ = __add__


class TestIntegerArguments:
    """Helpers reject a non-integer instead of truncating it."""

    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_monomial_exponents(self, bad):
        with pytest.raises(ValidationError):
            SMALL_TABLE.monomial(x=bad)
        assert SMALL_TABLE.monomial(x=3).exponents == (3, 0, 0)

    @pytest.mark.parametrize("bad", [1.5, "a"])
    def test_monomial_constructor_exponents(self, bad):
        with pytest.raises(ValidationError, match="exponents must be integers"):
            Monomial(SMALL_TABLE, (bad, 0, 0))
        mono = Monomial(SMALL_TABLE, [True, 0, -2])
        assert mono.exponents == (1, 0, -2)
        assert str(mono) == "x*f^-2"

    @pytest.mark.parametrize("bad", [
        1.5, 2.0, Fraction(1, 2), "a", [1], (1,), 0.0, Fraction(0), None, "",
    ])
    def test_term_and_shift_exponents(self, bad):
        # Both pack the vector as given: a non-integer key is refused.  A
        # string, list or tuple is refused before it is multiplied: times
        # a unit of this three-variable table it would be a repetition
        # count too large for an index (OverflowError).  A falsy entry is
        # a zero only if it is an integer, in the zero vector as well as
        # beside a nonzero entry, as the constructor has it.
        x = SMALL_TABLE.variable("x")
        for build in (
            SMALL_TABLE.term,
            lambda v: poly_shifted_sum(SMALL_TABLE, [(v, None)]),
            lambda v: poly_shifted_sum(SMALL_TABLE, [((0, 1, 0), x), (v, x)]),
        ):
            for vector in ((bad, 0, 0), (bad, 1, 0)):
                with pytest.raises(ValidationError, match="exponents must be integers"):
                    build(vector)
        assert str(SMALL_TABLE.term((2, 0, -1))) == "x^2*f^-1"
        assert str(SMALL_TABLE.term((0, False, 0))) == "1"
        assert str(SMALL_TABLE.term((False, 1, 0))) == "y"

    def test_index_integer_exponents(self):
        # An entry that is an integer only by ``__index__``, as
        # ``numpy.int64`` is, is taken as that int wherever an exponent
        # vector enters, also past the first rung.
        vector, wide = (Index(2), 0, Index(-1)), (Index(2 * FIRST_RUNG_LIMIT), 0, 0)
        expected = SMALL_TABLE.term((2, 0, -1))
        x = SMALL_TABLE.variable("x")
        assert SMALL_TABLE.term(vector) == expected
        assert SMALL_TABLE.term(wide) == SMALL_TABLE.term((2 * FIRST_RUNG_LIMIT, 0, 0))
        assert poly_shifted_sum(SMALL_TABLE, [(vector, x)]) == poly_mul(expected, x)
        assert LaurentPolynomial(SMALL_TABLE, {vector: 1}) == expected
        assert mono_poly(Monomial(SMALL_TABLE, vector)) == expected
        assert mono_poly(SMALL_TABLE.monomial(x=Index(2), f=Index(-1))) == expected
        sub = Substitution({"x": SMALL_TABLE.monomial(y=3)}, SMALL_TABLE, SMALL_TABLE)
        assert sub.vector(vector) == (0, 6, -1)
        assert all(type(e) is int for e in sub.vector(vector))

    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_power(self, bad):
        x = SMALL_TABLE.variable("x")
        with pytest.raises(ValidationError):
            poly_pow(x, bad)
        assert poly_pow(x, 3) == x_power(3)

    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_coefficients(self, bad):
        with pytest.raises(ValidationError):
            LaurentPolynomial(SMALL_TABLE, {(1, 0, 0): bad})
        assert str(LaurentPolynomial(SMALL_TABLE, {(1, 0, 0): 3})) == "3*x"


def x_power(e, table=SMALL_TABLE):
    return LaurentPolynomial(table, {(e, 0, 0): 1})


def assert_wide(p, terms, limit):
    """``p`` has exactly ``terms`` and sits on the rung its bound fits, past the rung of ``limit``."""
    assert dict(p.terms.items()) == terms
    assert p._layout is p.table._layout.fit(p._amp)
    assert p._amp >= limit and p._layout.limit > limit


class TestWideExponents:
    """Exponents past a rung's limit are exact: the keys widen, never wrap."""

    @pytest.fixture(params=[FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT], ids=["first", "second"])
    def limit(self, request):
        """The limit of the rung that the tests cross: the first, then the second."""
        return request.param

    def test_constructor(self, limit):
        for e in (limit - 1, -(limit - 1)):
            p = x_power(e)
            assert dict(p.terms.items()) == {(e, 0, 0): 1}
            assert str(p) == f"x^{e}"
            assert p._layout is SMALL_TABLE._layout.fit(p._amp) and p._layout.limit == limit
        for e in (limit, -limit):
            p = x_power(e)
            assert_wide(p, {(e, 0, 0): 1}, limit)
            assert str(p) == f"x^{e}"

    def test_term(self, limit):
        edge = (limit - 1, 0, 1 - limit)
        assert SMALL_TABLE.term(edge) == LaurentPolynomial(SMALL_TABLE, {edge: 1})
        for e in (limit, -limit):
            p = SMALL_TABLE.term((0, e, 0))
            assert_wide(p, {(0, e, 0): 1}, limit)
            assert p == LaurentPolynomial(SMALL_TABLE, {(0, e, 0): 1})

    def test_parse(self, limit):
        assert parse_polynomial(f"x^{limit - 1} + y^{1 - limit}", SMALL_TABLE) == poly_add(
            x_power(limit - 1), LaurentPolynomial(SMALL_TABLE, {(0, 1 - limit, 0): 1})
        )
        for text, e in ((f"x^{limit}", limit), (f"x^-{limit}", -limit), (f"x^{limit - 1}*x", limit)):
            assert_wide(parse_polynomial(text, SMALL_TABLE), {(e, 0, 0): 1}, limit)

    def test_mul(self, limit):
        x = SMALL_TABLE.variable("x")
        y_plus_1 = parse_polynomial("y + 1", SMALL_TABLE)
        assert poly_mul(x_power(limit - 2), x) == x_power(limit - 1)
        assert poly_mul(x_power(limit - 1), x_power(-1)) == x_power(limit - 2)
        edge = poly_mul(poly_add(x_power(limit - 1), y_plus_1), y_plus_1)
        assert (limit - 1, 1, 0) in edge.terms
        for a, b in (
            (x_power(limit - 1), x),
            (x_power(1 - limit), x_power(-1)),
            (poly_add(x_power(limit - 1), y_plus_1), poly_add(x, y_plus_1)),
        ):
            assert_wide(poly_mul(a, b), oracle_poly_mul(a, b), limit)

    def test_mul_monomial(self, limit):
        p = poly_add(x_power(limit - 1), SMALL_TABLE.variable("y"))
        shifted = poly_mul_monomial(p, SMALL_TABLE.monomial(y=5))
        assert (limit - 1, 5, 0) in shifted.terms
        for a, m in (
            (p, SMALL_TABLE.monomial(x=1)),
            (x_power(-1), SMALL_TABLE.monomial(x=-limit)),
        ):
            product = poly_mul_monomial(a, m)
            assert_wide(product, oracle_poly_mul(a, mono_poly(m)), limit)
            assert product == poly_mul(a, mono_poly(m))

    def test_pow_of_monomial(self, limit):
        x = SMALL_TABLE.variable("x")
        assert poly_pow(x, limit - 1) == x_power(limit - 1)
        assert poly_pow(x_power(-2), limit // 2 - 1) == x_power(2 - limit)
        for base, k, e in ((x, limit, limit), (x_power(-1), limit, -limit), (x_power(limit // 2), 2, limit)):
            assert_wide(poly_pow(base, k), {(e, 0, 0): 1}, limit)

    def test_exact_div(self, limit):
        y_plus_1 = parse_polynomial("y + 1", SMALL_TABLE)
        numer = poly_mul(x_power(limit - 1), y_plus_1)
        assert poly_exact_div(numer, y_plus_1) == x_power(limit - 1)
        assert poly_exact_div(x_power(limit - 1), x_power(1)) == x_power(limit - 2)
        assert_wide(poly_exact_div(x_power(limit - 1), x_power(-1)), {(limit, 0, 0): 1}, limit)
        quotient = poly_exact_div(numer, poly_mul(x_power(-1), y_plus_1))
        assert dict(quotient.terms.items()) == {(limit, 0, 0): 1}
        assert quotient == x_power(limit)

    def test_exact_div_monomial_quotient(self, limit):
        # Equal lengths and a one-term quotient: the heap route's box is
        # the quotient itself, so its bound is exact on either rung.
        y_plus_1 = parse_polynomial("y + 1", SMALL_TABLE)
        for sign in (1, -1):
            denom = poly_mul(x_power(-sign), y_plus_1)
            below = poly_mul(x_power(sign * (limit - 2)), y_plus_1)
            quotient = poly_exact_div(below, denom)
            assert quotient == x_power(sign * (limit - 1))
            assert quotient._amp == limit - 1
            at = poly_mul(x_power(sign * (limit - 1)), y_plus_1)
            with extremes_reads() as reads:
                quotient = poly_exact_div(at, denom)
            assert reads == [at, denom]
            assert_wide(quotient, {(sign * limit, 0, 0): 1}, limit)
            assert quotient._amp == limit

    def test_map_variables(self, limit):
        target = VariableTable.make(cluster=("u",), frozen=("f",))
        p = poly_add(x_power(limit // 4), SMALL_TABLE.variable("f"))
        image = Substitution({"x": target.monomial(u=3)}, SMALL_TABLE, target)(p)
        assert image == parse_polynomial(f"u^{3 * (limit // 4)} + f", target)
        wide = Substitution({"x": target.monomial(u=4)}, SMALL_TABLE, target)
        assert_wide(wide(p), {(limit, 0): 1, (0, 1): 1}, limit)
        # The same crossing inside one table.
        inside = Substitution({"x": SMALL_TABLE.monomial(x=2, y=-4)}, SMALL_TABLE, SMALL_TABLE)
        assert_wide(inside(p), {(limit // 2, -limit, 0): 1, (0, 0, 1): 1}, limit)
        # Each substitution, kept, maps a polynomial below the crossing
        # after one past it, and its vector form agrees.
        small = poly_add(x_power(3), SMALL_TABLE.variable("f"))
        assert wide(small) == parse_polynomial("u^12 + f", target)
        assert inside(small) == parse_polynomial("x^6*y^-12 + f", SMALL_TABLE)
        assert wide.vector((limit // 4, 0, 1)) == (limit, 1)
        assert inside.vector((limit // 4, 0, 1)) == (limit // 2, -limit, 1)

    def test_terms_view_never_aliases(self, limit):
        p = x_power(limit - 1)
        assert len(p.terms) == 1
        assert (limit - 1, 0, 0) in p.terms
        for exps in ((limit, 0, 0), (limit - 1, 0), ("x", 0, 0)):
            assert exps not in p.terms
        with pytest.raises(TypeError):
            p.terms[(0, 0, 0)] = 1
        wide = poly_add(x_power(limit), SMALL_TABLE.variable("y"))
        assert (limit, 0, 0) in wide.terms and (0, 1, 0) in wide.terms
        for exps in ((2**94, 0, 0), (0, 1 - 2**94, 0), (limit + 1, 0, 0)):
            assert exps not in wide.terms
