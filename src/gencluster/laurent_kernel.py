"""Exact sparse Laurent-polynomial arithmetic over named variable tables.

This is the computational substrate for everything else in the package:
seeds hold Laurent polynomials for cluster variables, exchange relations
are built and divided here, and the verification harness compares
canonical forms produced by this module.

Design notes
------------
* Coefficients are Python integers, so all arithmetic is exact and
  unbounded.  Exponents are integers of either sign (Laurent).
* A :class:`VariableTable` fixes the ambient ring: an ordered list of
  named variables, each with a role (``cluster``, ``frozen``, ``t-aux``
  or ``s-aux``) and an optional group index.  Elements over different
  tables never silently mix; combining them raises
  :class:`~gencluster.errors.TableMismatch`.
* Terms are kept in a dict keyed by exponent vectors.  The canonical
  linear order on terms is graded lexicographic: higher total degree
  first, ties broken lexicographically on the exponent vector in table
  order.  Printing and parsing round-trip through this order.
"""

from dataclasses import dataclass, field
import re

from .errors import (
    InexactDivision,
    NonFrozenSupport,
    ParseError,
    TableMismatch,
    UnknownSymbol,
    ValidationError,
)

ROLE_CLUSTER = "cluster"
ROLE_FROZEN = "frozen"
ROLE_T = "t-aux"
ROLE_S = "s-aux"

_ROLES = (ROLE_CLUSTER, ROLE_FROZEN, ROLE_T, ROLE_S)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class VariableTable:
    """Ordered table of named variables with roles and group indices.

    Parameters
    ----------
    names : tuple of str
        Distinct variable names (identifier-shaped).
    roles : tuple of str
        One role per name, each from ``{"cluster", "frozen", "t-aux",
        "s-aux"}``.
    groups : tuple of (int or None)
        Optional group index per name; ``None`` when the variable does
        not belong to a mutation group.
    """

    names: tuple
    roles: tuple
    groups: tuple

    def __post_init__(self):
        if not (len(self.names) == len(self.roles) == len(self.groups)):
            raise ValidationError("names, roles and groups must have equal length")
        seen = set()
        for name in self.names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValidationError(f"bad variable name: {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate variable name: {name!r}")
            seen.add(name)
        for role in self.roles:
            if role not in _ROLES:
                raise ValidationError(f"bad role: {role!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    @staticmethod
    def make(cluster=(), frozen=()):
        """Build a plain table of cluster names followed by frozen names."""
        cluster, frozen = tuple(cluster), tuple(frozen)
        names = cluster + frozen
        roles = (ROLE_CLUSTER,) * len(cluster) + (ROLE_FROZEN,) * len(frozen)
        return VariableTable(names, roles, (None,) * len(names))

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self._index

    def index(self, name):
        """Position of ``name`` in the table; raises UnknownSymbol."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbol(f"symbol {name!r} is not in the table") from None

    def role(self, name):
        return self.roles[self.index(name)]

    def indices_of_role(self, role):
        return tuple(i for i, r in enumerate(self.roles) if r == role)

    @property
    def cluster_indices(self):
        return self.indices_of_role(ROLE_CLUSTER)

    @property
    def frozen_indices(self):
        return self.indices_of_role(ROLE_FROZEN)

    def monomial(self, exponents=None, **by_name):
        """Monomial with the given ``{name: exponent}`` support."""
        exps = [0] * len(self.names)
        merged = dict(exponents or {})
        merged.update(by_name)
        for name, e in merged.items():
            exps[self.index(name)] = int(e)
        return Monomial(self, tuple(exps))

    def one(self):
        return Monomial(self, (0,) * len(self.names))

    def variable(self, name):
        """The single variable ``name`` as a Laurent polynomial."""
        return LaurentPolynomial(self, {self.monomial({name: 1}).exponents: 1})

    def extended(self, names, roles, groups=None):
        """New table with extra variables appended on the right."""
        names = tuple(names)
        roles = tuple(roles)
        groups = tuple(groups) if groups is not None else (None,) * len(names)
        return VariableTable(self.names + names, self.roles + roles, self.groups + groups)

    def renamed(self, old, new):
        """New table with variable ``old`` renamed to ``new`` in place."""
        i = self.index(old)
        names = list(self.names)
        names[i] = new
        return VariableTable(tuple(names), self.roles, self.groups)


def _require_same_table(a, b):
    if a.table != b.table:
        raise TableMismatch("operands live over different variable tables")


@dataclass(frozen=True)
class Monomial:
    """A Laurent monomial: one exponent per table variable."""

    table: VariableTable
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.table):
            raise ValidationError("exponent vector does not match table size")

    def times(self, other):
        _require_same_table(self, other)
        return Monomial(self.table, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def over(self, other):
        """Exact monomial quotient (exponent subtraction)."""
        _require_same_table(self, other)
        return Monomial(self.table, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def power(self, k):
        k = int(k)
        return Monomial(self.table, tuple(a * k for a in self.exponents))

    def exponent(self, name):
        return self.exponents[self.table.index(name)]

    def is_one(self):
        return all(e == 0 for e in self.exponents)

    def as_polynomial(self):
        return LaurentPolynomial(self.table, {self.exponents: 1})

    def __str__(self):
        return _format_exponents(self.table, self.exponents) or "1"

    def __repr__(self):
        return f"Monomial({self})"


def _format_exponents(table, exps):
    parts = []
    for name, e in zip(table.names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _term_key(exps):
    return (sum(exps), exps)


@dataclass(frozen=True, eq=False)
class LaurentPolynomial:
    """Sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent vectors (tuples, one entry per table
    variable) to nonzero integer coefficients.  Instances are treated as
    immutable; all operations return new objects.
    """

    table: VariableTable
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        for exps, coeff in self.terms.items():
            if len(exps) != len(self.table):
                raise ValidationError("term exponent vector does not match table size")
            if coeff == 0:
                raise ValidationError("zero coefficient stored in term dict")

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    __hash__ = None

    @staticmethod
    def zero(table):
        return LaurentPolynomial(table, {})

    @staticmethod
    def one(table):
        return LaurentPolynomial(table, {(0,) * len(table): 1})

    @staticmethod
    def constant(table, c):
        c = int(c)
        return LaurentPolynomial(table, {} if c == 0 else {(0,) * len(table): c})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * len(self.table): 1}

    def is_monomial(self):
        return len(self.terms) == 1 and next(iter(self.terms.values())) == 1

    def as_monomial(self):
        """The unique exponent vector of a coefficient-one single term."""
        if not self.is_monomial():
            raise ValidationError("polynomial is not a coefficient-one monomial")
        return Monomial(self.table, next(iter(self.terms)))

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = _format_exponents(self.table, exps)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"LaurentPolynomial({self})"


def poly_add(a, b):
    """Sum of two Laurent polynomials over the same table."""
    _require_same_table(a, b)
    terms = dict(a.terms)
    for exps, coeff in b.terms.items():
        new = terms.get(exps, 0) + coeff
        if new:
            terms[exps] = new
        else:
            terms.pop(exps, None)
    return LaurentPolynomial(a.table, terms)


def poly_neg(a):
    return LaurentPolynomial(a.table, {e: -c for e, c in a.terms.items()})


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    """Product of two Laurent polynomials over the same table."""
    _require_same_table(a, b)
    if len(a.terms) > len(b.terms):
        a, b = b, a
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            new = terms.get(exps, 0) + ca * cb
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
    return LaurentPolynomial(a.table, terms)


def poly_scale(a, c):
    c = int(c)
    if c == 0:
        return LaurentPolynomial.zero(a.table)
    return LaurentPolynomial(a.table, {e: k * c for e, k in a.terms.items()})


def poly_mul_monomial(a, m, c=1):
    """Product with a single term ``c * m`` (fast path)."""
    _require_same_table(a, m)
    c = int(c)
    if c == 0:
        return LaurentPolynomial.zero(a.table)
    me = m.exponents
    return LaurentPolynomial(
        a.table,
        {tuple(x + y for x, y in zip(e, me)): k * c for e, k in a.terms.items()},
    )


def poly_pow(a, k):
    """Non-negative integer power by binary exponentiation."""
    k = int(k)
    if k < 0:
        raise ValidationError("poly_pow needs a non-negative exponent")
    result = LaurentPolynomial.one(a.table)
    base = a
    while k:
        if k & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def poly_exact_div(numer, denom):
    """Exact quotient ``numer / denom`` in the Laurent ring.

    Raises :class:`~gencluster.errors.InexactDivision` when the quotient
    does not exist (nonzero remainder, coefficient non-divisibility, or
    division by zero).  Uses greedy leading-term elimination in the
    canonical graded-lex order; correctness of the stopping rule rests
    on exponent extremes being additive under polynomial products.
    """
    _require_same_table(numer, denom)
    if denom.is_zero():
        raise InexactDivision("division by the zero polynomial")
    if numer.is_zero():
        return LaurentPolynomial.zero(numer.table)

    width = len(numer.table)
    n_exps = list(numer.terms)
    d_exps = list(denom.terms)
    # Componentwise exponent box that must contain every quotient term:
    # coordinate extremes add under multiplication, so the quotient's
    # extremes are the differences of the operands' extremes.
    lo = tuple(
        min(e[i] for e in n_exps) - min(e[i] for e in d_exps) for i in range(width)
    )
    hi = tuple(
        max(e[i] for e in n_exps) - max(e[i] for e in d_exps) for i in range(width)
    )

    lead_d = max(denom.terms, key=_term_key)
    lc_d = denom.terms[lead_d]
    remainder = dict(numer.terms)
    quotient = {}
    while remainder:
        lead_n = max(remainder, key=_term_key)
        lc_n = remainder[lead_n]
        if lc_n % lc_d:
            raise InexactDivision("leading coefficient does not divide")
        q_exp = tuple(a - b for a, b in zip(lead_n, lead_d))
        if any(q < l or q > h for q, l, h in zip(q_exp, lo, hi)):
            raise InexactDivision("quotient support leaves the feasible box")
        q_c = lc_n // lc_d
        quotient[q_exp] = quotient.get(q_exp, 0) + q_c
        for e, c in denom.terms.items():
            key = tuple(a + b for a, b in zip(q_exp, e))
            new = remainder.get(key, 0) - q_c * c
            if new:
                remainder[key] = new
            else:
                remainder.pop(key, None)
    return LaurentPolynomial(numer.table, {e: c for e, c in quotient.items() if c})


def poly_map_variables(p, mapping, target):
    """Transport ``p`` to ``target`` by substituting monomials for variables.

    ``mapping`` sends variable names of ``p``'s table to
    :class:`Monomial` objects over ``target``.  Names absent from the
    mapping are carried across by name; a name that is needed but exists
    in neither the mapping nor the target raises
    :class:`~gencluster.errors.UnknownSymbol`.
    """
    for name, mono in mapping.items():
        if name not in p.table:
            raise UnknownSymbol(f"mapping source {name!r} is not in the table")
        if mono.table != target:
            raise TableMismatch(f"image of {name!r} is not over the target table")
    width = len(p.table)
    used = [False] * width
    for exps in p.terms:
        for i, e in enumerate(exps):
            if e:
                used[i] = True
    images = [None] * width
    for i, name in enumerate(p.table.names):
        if not used[i]:
            continue
        if name in mapping:
            images[i] = mapping[name].exponents
        else:
            images[i] = target.monomial({name: 1}).exponents
    zero = (0,) * len(target)
    terms = {}
    for exps, coeff in p.terms.items():
        acc = list(zero)
        for i, e in enumerate(exps):
            if not e:
                continue
            img = images[i]
            for j, g in enumerate(img):
                if g:
                    acc[j] += e * g
        key = tuple(acc)
        new = terms.get(key, 0) + coeff
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)
    return LaurentPolynomial(target, terms)


def poly_substitute(p, v, m):
    """Substitute the monomial ``m`` for the variable named ``v`` in ``p``.

    ``m`` may live over a different table; the result lives over ``m``'s
    table, with every other variable of ``p`` carried across by name.
    """
    if v not in p.table:
        raise UnknownSymbol(f"symbol {v!r} is not in the table")
    return poly_map_variables(p, {v: m}, m.table)


def _require_stable_support(m):
    for i, e in enumerate(m.exponents):
        if e and m.table.roles[i] == ROLE_CLUSTER:
            raise NonFrozenSupport(
                f"monomial has cluster-variable support at {m.table.names[i]!r}"
            )


def tropical_add(m1, m2):
    """Tropical sum: componentwise minimum of frozen-supported exponents."""
    _require_same_table(m1, m2)
    _require_stable_support(m1)
    _require_stable_support(m2)
    return Monomial(m1.table, tuple(min(a, b) for a, b in zip(m1.exponents, m2.exponents)))


def tropical_mul(m1, m2):
    """Tropical product: ordinary product of frozen-supported monomials."""
    _require_same_table(m1, m2)
    _require_stable_support(m1)
    _require_stable_support(m2)
    return m1.times(m2)


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
    result = LaurentPolynomial.zero(table)
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
        term = LaurentPolynomial(table, {tuple(exps): coeff} if coeff else {})
        result = poly_add(result, term)
        if i < len(tokens):
            sign = 1 if tokens[i] == ("op", "+") else -1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling operator at end of input")
    return result
