"""Exact sparse Laurent-polynomial arithmetic over named variable tables.

This is the computational substrate for everything else in the package:
seeds hold Laurent polynomials for cluster variables, exchange relations
are built and divided here, and the verification harness compares
canonical forms produced by this module.

Design notes
------------
* Coefficients and exponents are Python integers, so all arithmetic is
  exact and unbounded.  Exponents are integers of either sign (Laurent).
* A :class:`VariableTable` fixes the ambient ring: an ordered list of
  named variables and a cluster count; the first ``n_cluster`` names
  are cluster variables and the rest are frozen, and
  :meth:`VariableTable.extended` appends frozen variables.  Elements
  over different tables never silently mix; combining them raises
  :class:`~gencluster.errors.TableMismatch`.
* Terms are kept in a dict keyed by one packed integer per monomial:
  the total degree in the top field, then one ``bits``-bit field per
  variable, variable 0 most significant, each exponent biased by
  ``2**(bits - 1)``.  Integer order on keys is therefore the
  canonical graded-lexicographic order (higher total degree first, ties
  broken lexicographically on the exponent vector in table order): a
  leading term is ``max(keys)``, and printing sorts the keys.  Packing
  is linear in the exponent vector, so a monomial product is
  ``ka + kb - offset`` (``offset`` is the key of 1) and a monomial
  substitution adds one packed image per variable it moves.  The format
  is private to this module: other modules build polynomials from
  exponent vectors (:meth:`VariableTable.term`, the constructor) and
  add sums of monomials times polynomials with :func:`poly_shifted_sum`,
  which shifts each polynomial's keys by one packed vector and builds
  no one-term polynomial.  :func:`poly_sum_of_products` adds sums of
  general products; it serves only its one- and two-pair cases,
  :func:`poly_mul` and :func:`poly_add`.  A product of binomials
  ``prod_i (x^(a_i) + x^(b_i))`` is expanded from its vectors in one
  loop, whole (:func:`poly_binomial_product`) or by the number of first
  sides taken (:func:`poly_binomial_levels`).
* Field sizes.  The fields of one polynomial all have one size, a rung
  of the ladder 24, 48, 96, ... bits; a rung's ``limit`` is
  ``2**(bits - 2)`` (``2**22``, ``2**46``, ...), and a field holds any
  sum of two exponents below it without carrying into its neighbour.
  Every polynomial carries an upper bound on its largest exponent
  magnitude and sits on the narrowest rung whose limit exceeds it.
  Each operation bounds its result from its operands' bounds before it
  combines keys, works on the result's rung, and first moves a narrower
  operand's keys up to it; a sum whose bound grows past its rung moves
  the terms added so far.  Equality and
  :meth:`LaurentPolynomial.hash_key` do not depend on the rung, so a
  polynomial built with a loose bound equals one built with a tight
  bound.  Each exponent vector that enters the kernel (a term, a shift)
  is packed and bounded in one pass.
* ``LaurentPolynomial(table, {exponent tuple: coefficient})`` validates
  its terms; kernel results skip that check.  ``terms`` is a read-only
  view that decodes keys back to exponent tuples on demand.
* Products.  Every product of two polynomials runs
  :func:`poly_sum_of_products`.  Below ``_ROW_MIN_PRODUCTS`` term
  products it takes the schoolbook loop, one key addition per term
  product.  Above it, it cuts both sides into lattice lines along one
  direction and packs each line into one int with signed slots, so
  each pair of lines is one big-integer product: Kronecker
  substitution along one lattice direction (Schönhage 1982; Harvey,
  J. Symb. Comput. 44, 2009), the sparse case of Roche's survey (ISSAC
  2018).  It falls back to the schoolbook loop when no direction repeats
  among nearby keys, when the lines are too short or too sparse to pay,
  or when the output lines would span more slots than there are term
  products.
  Both routes give the same terms and bounds; only the order in which keys
  enter the dict differs, and nothing reads that order.
* Exact division.  A quotient records its divisor and its numerator,
  which the division proved their product.  Dividing an equal numerator
  by the quotient (mutating back) returns the recorded divisor, and the
  link moves onto it with the new numerator, so that dividing back
  again is answered too.  Recording or moving a link clears the other
  side's, so a lookup follows one link, and each polynomial holds at
  most one.  Links can chain: when a divisor has two quotients and
  dividing back by one moves its link onto the divisor, the other
  reaches the divisor and then the first quotient.  A chain keeps alive
  only polynomials that were each other's divisor, quotient and
  numerator, one of each per division.
  Otherwise a one-term divisor shifts keys and any other divisor runs the
  heap elimination of :func:`poly_exact_div`, whose exponent box is the
  quotient itself when the quotient is one term.
* Substitutions.  A :class:`Substitution` is a monomial ring map, built
  once from ``(mapping, source table, target table)``: it checks the
  mapping when it is built, and stores a variable's image as its nonzero
  exponents when a polynomial or a vector first uses the variable.  It
  maps a polynomial in one loop over its keys, with one move list per
  pair of rungs packed from the stored images and kept, and an exponent
  vector (:meth:`Substitution.vector`) from the same images.  A monomial
  ring map sends ``sum c_v x^v`` to ``sum c_v x^(E v)``, so a caller that
  builds a polynomial from exponent vectors can map the vectors first and
  run no pass over the polynomial.
* Packed monomials go wherever exponent vectors do.  Packing is linear,
  so :class:`ColumnMap` sums a row's entries times packed column images.
"""

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd
from operator import index, mul, sub
import re
from types import MappingProxyType

from .errors import (
    FrozenValue,
    InexactDivision,
    TableMismatch,
    UnknownSymbol,
    ValidationError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _Layout:
    """Packing constants for tables of one width, on one rung of field sizes."""

    __slots__ = ("width", "bits", "mask", "bias", "limit", "shifts", "degree_shift", "offset", "units")

    def __init__(self, width, bits):
        self.width, self.bits = width, bits
        self.mask, self.bias = (1 << bits) - 1, 1 << (bits - 1)
        #: Every exponent stored on this rung has magnitude below this bound.
        self.limit = 1 << (bits - 2)
        self.shifts = tuple((width - 1 - i) * bits for i in range(width))
        self.degree_shift = width * bits
        #: The key of the monomial 1.
        self.offset = sum(self.bias << s for s in self.shifts)
        #: ``units[i]`` is what one more power of variable ``i`` adds to a key.
        self.units = tuple((1 << self.degree_shift) + (1 << s) for s in self.shifts)

    def fit(self, amp):
        """The narrowest rung, from this one up, whose limit exceeds ``amp``."""
        layout = self
        while amp >= layout.limit:
            layout = _layout(self.width, 2 * layout.bits)
        return layout

    def pack_bounded(self, exps):
        """``(key, largest exponent magnitude)`` of an exponent vector, in one loop.

        The key is on the rung ``self.fit(amp)``: a vector past this
        rung's limit is packed again on the narrowest rung that holds it.
        ValidationError for another width or a non-integer.  A
        :class:`PackedMonomial` is read off its key, or unpacked to move up.
        """
        if type(exps) is PackedMonomial:
            rung = exps._rung
            # Its rung is the narrowest that holds its bound.
            if rung is self or rung.width == self.width and exps._bound >= self.limit:
                return exps._key, exps._bound
            exps = rung.unpack(exps._key)
        units = self.units
        if len(exps) != len(units):
            raise ValidationError("exponent vector does not match table size")
        # An int sum shows every entry is an int, else they are converted:
        # the loop below skips ``0.0``, ``None`` and ``""`` as zeros, and a
        # string or a list times a unit is a repetition, not a TypeError.
        try:
            total = sum(exps)
        except TypeError:
            total = None
        if type(total) is not int:
            exps = _int_vector(exps)
        key, amp = self.offset, 0
        # Most shifts of an exchange polynomial are the zero vector.
        if not any(exps):
            return key, amp
        for e, unit in zip(exps, units):
            if e:
                size = -e if e < 0 else e
                if size > amp:
                    amp = size
                key += e * unit
        if amp >= self.limit:
            return self.fit(amp).pack_bounded(exps)
        return key, amp

    def unpack(self, key):
        mask, bias = self.mask, self.bias
        return tuple(((key >> s) & mask) - bias for s in self.shifts)


#: One layout per table width and rung, so that layouts compare by ``is``.
_layout = lru_cache(maxsize=None)(_Layout)


def _repack(keys, old, new):
    """The key dict ``keys`` moved from rung ``old`` to rung ``new`` of one width.

    Every exponent must lie below both rungs' limits; ``keys`` itself
    when the rungs are one.
    """
    if old is new:
        return keys
    offset, units, unpack = new.offset, new.units, old.unpack
    return {offset + sum(map(mul, unpack(k), units)): c for k, c in keys.items()}


def _int_vector(exps):
    """``exps`` as ``int``s by ``__index__`` (``numpy.int64``); ValidationError for a non-integer."""
    try:
        return tuple(map(index, exps))
    except TypeError:
        raise ValidationError(f"exponents must be integers: {tuple(exps)!r}") from None


def _integer(value, what):
    """``value`` as an ``int``; ValidationError if it is not an integer."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} must be integers: {value!r}") from None


def _name_tuple(names):
    """``names`` as a tuple of distinct identifier-shaped strings, else ValidationError."""
    if isinstance(names, str):
        raise ValidationError(f"names must be a sequence, not the string {names!r}")
    try:
        names = tuple(names)
    except TypeError:
        raise ValidationError(f"names must be a sequence, not {names!r}") from None
    seen = set()
    for name in names:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(f"bad variable name: {name!r}")
        if name in seen:
            raise ValidationError(f"duplicate variable name: {name!r}")
        seen.add(name)
    return names


class VariableTable(FrozenValue):
    """Ordered table of named variables: cluster variables, then frozen ones.

    Parameters
    ----------
    names : sequence of str
        Distinct variable names (identifier-shaped), stored as a tuple; a
        bare ``str`` is refused.
    n_cluster : int
        How many of the names, from the left, are cluster variables; the
        rest are frozen.
    """

    names: tuple
    n_cluster: int

    def __post_init__(self):
        object.__setattr__(self, "names", _name_tuple(self.names))
        count, width = self.n_cluster, len(self.names)
        if type(count) is not int or not 0 <= count <= width:
            raise ValidationError(f"cluster count {count!r} is not an int in 0..{width}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        object.__setattr__(self, "cluster_indices", tuple(range(count)))
        object.__setattr__(self, "frozen_indices", tuple(range(count, width)))
        # Every table starts on the 24-bit rung; a polynomial moves up from it.
        object.__setattr__(self, "_layout", _layout(width, 24))

    @staticmethod
    def make(cluster=(), frozen=()):
        """The shared table of cluster names followed by frozen names.

        Each part is a sequence of names; a bare ``str`` is refused.
        """
        cluster = _name_tuple(cluster)
        return _table_cache(cluster + _name_tuple(frozen), len(cluster))

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

    def monomial(self, exponents=None, **by_name):
        """Monomial with the given ``{name: exponent}`` support."""
        exps = [0] * len(self.names)
        merged = dict(exponents or {})
        merged.update(by_name)
        for name, e in merged.items():
            exps[self.index(name)] = _integer(e, "exponents")
        return Monomial(self, tuple(exps))

    def one(self):
        return Monomial(self, (0,) * len(self.names))

    def variable(self, name):
        """The single variable ``name`` as a Laurent polynomial."""
        layout = self._layout
        return _trusted(self, {layout.offset + layout.units[self.index(name)]: 1}, 1)

    def term(self, exponents):
        """The one-term polynomial with the given exponent vector.

        ``exponents`` holds one integer per variable, in table order
        (ValidationError otherwise), of any size.
        """
        key, amp = self._layout.pack_bounded(exponents)
        return _trusted(self, {key: 1}, amp)

    def extended(self, names):
        """The table with frozen ``names`` appended, shared as by :meth:`make`."""
        return _table_cache(self.names + _name_tuple(names), self.n_cluster)


#: One table per content (``_name_tuple`` checks the names, so they hash),
#: so that tables built apart compare by ``is``.  Bounded: eviction only
#: makes a later equal table another object, which compares by value.
_table_cache = lru_cache(maxsize=64)(VariableTable)


def _same_table(a, b):
    return a is b or a == b


def _require_same_table(a, b):
    if not _same_table(a.table, b.table):
        raise TableMismatch("operands live over different variable tables")


class Monomial(FrozenValue):
    """A Laurent monomial: one exponent per table variable.

    Monomials are plain exponent tuples of any size.  Each exponent must
    be an integer (ValidationError otherwise) and is stored as an ``int``.
    """

    table: VariableTable
    exponents: tuple

    def __post_init__(self):
        try:
            exps = tuple([_integer(e, "exponents") for e in self.exponents])
        except TypeError:
            raise ValidationError(f"exponents must be a sequence, not {self.exponents!r}") from None
        if len(exps) != len(self.table):
            raise ValidationError("exponent vector does not match table size")
        object.__setattr__(self, "exponents", exps)

    def is_one(self):
        return all(e == 0 for e in self.exponents)

    def __str__(self):
        return _format_powers(zip(self.table.names, self.exponents)) or "1"

    def __repr__(self):
        return f"Monomial({self})"


def _trusted_monomial(table, exponents):
    """A :class:`Monomial` of a tuple of ``int`` its caller built, unchecked."""
    mono = object.__new__(Monomial)
    mono.__dict__.update(table=table, exponents=exponents)
    return mono


def _format_powers(powers):
    """``x*y^2``-style text of ``(name, exponent)`` pairs, zero exponents left out."""
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in powers if e])


class _Terms(Mapping):
    """Read-only ``{exponent tuple: coefficient}`` view of a polynomial."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __len__(self):
        return len(self._poly._keys)

    def __iter__(self):
        return map(self._poly._layout.unpack, self._poly._keys)

    def __getitem__(self, exps):
        layout = self._poly._layout
        try:
            key, amp = layout.pack_bounded(tuple(map(index, exps)))
            # A vector past the fields is packed on a wider rung: no term's.
            if amp >= layout.limit:
                raise KeyError(exps)
            return self._poly._keys[key]
        except (TypeError, ValidationError, KeyError):
            raise KeyError(exps) from None

    def values(self):
        return self._poly._keys.values()


class LaurentPolynomial:
    """Sparse Laurent polynomial with integer coefficients.

    Built from ``{exponent tuple: nonzero coefficient}`` (one integer
    exponent per table variable, of any size); ``terms`` reads the same
    mapping back.  Instances are immutable; all operations return new
    objects.  The keys sit on the narrowest rung that holds the terms.
    """

    __slots__ = ("table", "_keys", "_amp", "_layout", "_divisor", "_numer")

    def __init__(self, table, terms=None):
        width = len(table)
        vectors = {}
        amp = 0
        for exps, coeff in (terms or {}).items():
            if len(exps) != width:
                raise ValidationError("term exponent vector does not match table size")
            coeff = _integer(coeff, "coefficients")
            if coeff == 0:
                raise ValidationError("zero coefficient stored in term dict")
            exps = _int_vector(exps)
            amp = max(amp, max(map(abs, exps), default=0))
            vectors[exps] = coeff
        layout = table._layout.fit(amp)
        self.table = table
        self._keys = {layout.pack_bounded(exps)[0]: c for exps, c in vectors.items()}
        self._amp = amp
        self._layout = layout
        self._divisor = self._numer = None

    @property
    def terms(self):
        return _Terms(self)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self._layout is other._layout:
            return self._keys == other._keys and _same_table(self.table, other.table)
        return _same_table(self.table, other.table) and self.hash_key() == other.hash_key()

    __hash__ = None

    def hash_key(self):
        """Hashable key, equal exactly for equal polynomials over one table, whatever their rungs."""
        # The keys on the narrowest rung that holds the exact extremes.
        keys, layout, base = self._keys, self._layout, self.table._layout
        if layout is not base and keys:
            lo, hi = _extremes(self)
            keys = _repack(keys, layout, base.fit(max(map(abs, lo + hi))))
        return frozenset(keys.items())

    @staticmethod
    def zero(table):
        return _trusted(table, {}, 0)

    @staticmethod
    def one(table):
        return _trusted(table, {table._layout.offset: 1}, 0)

    def __str__(self):
        if not self._keys:
            return "0"
        names, unpack = self.table.names, self._layout.unpack
        pieces = []
        for key, coeff in sorted(self._keys.items(), reverse=True):
            mono = _format_powers(zip(names, unpack(key)))
            mag = abs(coeff)
            body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
            pieces.append(("+ " if coeff > 0 else "- ") + body)
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"LaurentPolynomial({self})"


def _trusted(table, keys, amp):
    """A kernel result: ``amp`` bounds it, and ``keys`` are nonzero, on the rung ``amp`` fits."""
    p = object.__new__(LaurentPolynomial)
    layout = table._layout
    p.table = table
    p._keys = keys
    p._amp = amp
    p._layout = layout if amp < layout.limit else layout.fit(amp)
    p._divisor = p._numer = None
    return p


def _drop_zeros(terms):
    if 0 in terms.values():
        for key in [k for k, c in terms.items() if not c]:
            del terms[key]
    return terms


def _extremes(p):
    """Exact per-variable ``(minima, maxima)`` of a nonzero polynomial."""
    layout = p._layout
    mask, bias = layout.mask, layout.bias
    lo, hi = [], []
    for shift in layout.shifts:
        fields = [(k >> shift) & mask for k in p._keys]
        lo.append(min(fields) - bias)
        hi.append(max(fields) - bias)
    return tuple(lo), tuple(hi)


def poly_add(a, b):
    """Sum of two Laurent polynomials over the same table: a sum of two products with 1."""
    return poly_sum_of_products(a.table, ((a, None), (b, None)))


def poly_neg(a):
    return _trusted(a.table, {k: -c for k, c in a._keys.items()}, a._amp)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def _add_product(terms, keys_a, keys_b, offset):
    """Add the terms of ``a * b`` into the key dict ``terms``, looping over ``a``'s keys."""
    get = terms.get
    items = keys_b.items()
    for ka, ca in keys_a.items():
        ka -= offset
        for kb, cb in items:
            key = ka + kb
            terms[key] = get(key, 0) + ca * cb


#: Products of fewer term products than this take :func:`_add_product`.
#: Around and below it, the row route's direction pick and line
#: bookkeeping cost as much as the key additions they save, and a try
#: that falls back pays them for nothing.
_ROW_MIN_PRODUCTS = 4096


def _lines(keys, delta, shift, layout):
    """``{base: [(t, coeff), ...]}``: ``keys`` cut into the lattice lines ``base + t*delta``.

    ``delta`` is 1 in the field at ``shift``, so ``t`` is a key's
    exponent there and every base has exponent 0 there.
    """
    mask, bias = layout.mask, layout.bias
    lines = {}
    for key, coeff in keys.items():
        t = ((key >> shift) & mask) - bias
        lines.setdefault(key - t * delta, []).append((t, coeff))
    return lines


def _row_direction(keys, layout):
    """``(delta, shift, lines of keys)`` for the row route, or ``None``.

    The candidates are the differences of sorted keys one and two apart
    that occur at least twice, most common first, each divided by the
    gcd of its exponents.  Of the first three with an exponent of ``±1``
    (``shift`` is its field's, and ``delta`` is signed to make it 1), the
    one with the fewest line bases ``key - field * delta`` wins.
    """
    ordered = sorted(keys)
    counts = Counter(map(sub, ordered[1:], ordered[:-1]))
    counts.update(map(sub, ordered[2:], ordered[:-2]))
    best, fewest, tried, mask = None, 0, set(), layout.mask
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
                    bases = len({k - ((k >> shift) & mask) * delta for k in keys})
                    if best is None or bases < fewest:
                        best, fewest = (delta, shift), bases
                break
    return None if best is None else (*best, _lines(keys, *best, layout))


def _slots(lines):
    """How many slots the packed lines take: each line's span of ``t``."""
    return sum([max(line)[0] - min(line)[0] + 1 for line in lines.values()])


def _pack_lines(lines, bits):
    """``[(base, t0, t1, packed)]``: each line in signed ``bits``-bit slots, ``t0`` to ``t1``."""
    packed = []
    for base, line in lines.items():
        t0 = min(line)[0]
        value = 0
        for t, coeff in line:
            value += coeff << (bits * (t - t0))
        packed.append((base, t0, max(line)[0], value))
    return packed


def _read_line(terms, key, delta, value, bits, slots):
    """Add the ``slots`` signed ``bits``-bit slots of ``value`` into ``terms`` at ``key + t*delta``.

    Each slot holds a coefficient of magnitude below ``2**(bits - 1)``, so
    each half of a line is a signed int of its own width.  A long line is
    split into halves first, so that each slot is shifted out of a short
    int and reading a line takes time near linear in it.
    """
    if slots > 64:
        low_slots = slots >> 1
        width = bits * low_slots
        low = value & ((1 << width) - 1)
        if low >> (width - 1):
            low -= 1 << width
        _read_line(terms, key, delta, low, bits, low_slots)
        high = (value - low) >> width
        _read_line(terms, key + low_slots * delta, delta, high, bits, slots - low_slots)
        return
    half = 1 << (bits - 1)
    full = half << 1
    mask = full - 1
    get = terms.get
    while value:
        coeff = value & mask
        if coeff >= half:
            coeff -= full
        if coeff:
            terms[key] = get(key, 0) + coeff
            value -= coeff
        value >>= bits
        key += delta


def _add_row_product(terms, keys_a, keys_b, layout):
    """Add the terms of ``a * b`` into ``terms`` line by line; False if the route does not pay.

    ``keys_a``, the keys of ``a`` on ``layout``, is the shorter side, and
    ``keys_a is keys_b`` for a square.  Both sides are cut into lattice lines
    along one direction ``delta`` (:func:`_row_direction`), and each
    line is packed into one int with signed ``bits``-bit slots, wide
    enough for any coefficient of the product.  A product of two packed
    lines is one int product, added into the output line through the sum
    of their bases; a square multiplies each pair of lines once.  Then
    every output line's slots are read back into keys.  False, with
    ``terms`` untouched, when there is no direction, when the line pairs
    are more than half the term products, when the lines are so
    sparse that their slots far outnumber the terms, or when the output
    lines would span more slots than there are term products (products
    far apart on one output line, which would otherwise fill the gap).
    """
    found = _row_direction(keys_a, layout)
    if found is None:
        return False
    delta, shift, lines_a = found
    square = keys_a is keys_b
    lines_b = lines_a if square else _lines(keys_b, delta, shift, layout)
    # A square multiplies each pair of lines once.
    pairs = len(lines_a) * (len(lines_a) + 1) // 2 if square else len(lines_a) * len(lines_b)
    if 2 * pairs > len(keys_a) * len(keys_b) or (
        _slots(lines_a) + _slots(lines_b) > 4 * (len(keys_a) + len(keys_b))
    ):
        return False
    top_a = max(map(abs, keys_a.values()))
    top_b = top_a if square else max(map(abs, keys_b.values()))
    bits = top_a.bit_length() + top_b.bit_length() + len(keys_a).bit_length() + 2
    packed_a = _pack_lines(lines_a, bits)
    packed_b = packed_a if square else _pack_lines(lines_b, bits)
    offset = layout.offset
    if square:
        # Each pair of distinct lines once, doubled; the diagonal alone.
        rows = chain(
            ((base, lo, hi, v, packed_a[i:i + 1])
             for i, (base, lo, hi, v) in enumerate(packed_a)),
            ((base, lo, hi, v + v, packed_a[i + 1:])
             for i, (base, lo, hi, v) in enumerate(packed_a)),
        )
    else:
        rows = ((base, lo, hi, v, packed_b) for base, lo, hi, v in packed_a)
    # The output lines may span no more slots than there are term
    # products: reading a slot back costs about a key addition, and two
    # products far apart on one base would otherwise fill the gap.
    room = len(keys_a) * len(keys_b)
    out = {}
    get = out.get
    for base_a, lo_a, hi_a, v_a, columns in rows:
        base_a -= offset
        for base_b, lo_b, hi_b, v_b in columns:
            base = base_a + base_b
            lo = lo_a + lo_b
            hi = hi_a + hi_b
            line = get(base)
            if line is None:
                room -= hi - lo + 1
                if room < 0:
                    return False
                out[base] = [lo, hi, v_a * v_b]
                continue
            t0, t1 = line[0], line[1]
            if lo < t0 or hi > t1:
                low = lo if lo < t0 else t0
                high = hi if hi > t1 else t1
                room -= high - low - t1 + t0
                if room < 0:
                    return False
                line[2] <<= bits * (t0 - low)
                line[0] = t0 = low
                line[1] = high
            line[2] += v_a * v_b << (bits * (lo - t0))
    for base, (t0, t1, value) in out.items():
        _read_line(terms, base + t0 * delta, delta, value, bits, t1 - t0 + 1)
    return True


def poly_mul(a, b):
    """Product of two Laurent polynomials over the same table: a sum of one product."""
    return poly_sum_of_products(a.table, ((a, b),))


def poly_sum_of_products(table, pairs):
    """``sum_i a_i * b_i`` over ``table``, added into one dict.

    ``pairs`` yields the ``(a_i, b_i)``, each side a polynomial over
    ``table`` (TableMismatch otherwise) or ``None``, which stands for 1.
    The pairs are read one at a time: each product is bounded from its
    sides' bounds before its terms are added, on the rung of the sum's
    bound so far; when the bound outgrows the rung, the terms added so far
    move up.  Below ``_ROW_MIN_PRODUCTS`` term products, the schoolbook loop
    :func:`_add_product` adds them looping over the shorter side, so a
    one-term side shifts the other's keys; above it, the row route
    :func:`_add_row_product` multiplies packed lattice lines, and falls
    back to the schoolbook loop where it would not pay.  Terms whose sum
    cancels are dropped.  :func:`poly_mul` and :func:`poly_add` are its
    one- and two-pair cases.
    """
    layout = table._layout
    one = None
    terms = {}
    amp = 0
    for a, b in pairs:
        if a is None or b is None:
            # Built once, and only for a side that stands for 1.
            one = one or _trusted(table, {table._layout.offset: 1}, 0)
            a = one if a is None else a
            b = one if b is None else b
        if not (_same_table(a.table, table) and _same_table(b.table, table)):
            raise TableMismatch("operands live over different variable tables")
        if len(a._keys) > len(b._keys):
            a, b = b, a
        if a._keys:
            amp = max(amp, a._amp + b._amp)
            if amp >= layout.limit:
                wide = layout.fit(amp)
                terms, layout = _repack(terms, layout, wide), wide
            keys_a, keys_b = a._keys, b._keys
            if a._layout is not layout or b._layout is not layout:
                keys_a = _repack(keys_a, a._layout, layout)
                keys_b = keys_a if b is a else _repack(keys_b, b._layout, layout)
            if len(keys_a) * len(keys_b) < _ROW_MIN_PRODUCTS or not _add_row_product(
                terms, keys_a, keys_b, layout
            ):
                _add_product(terms, keys_a, keys_b, layout.offset)
    return _trusted(table, _drop_zeros(terms), amp)


def poly_shifted_sum(table, pairs):
    """``sum_i x^(v_i) * p_i`` over ``table``, added into one dict.

    ``pairs`` yields the ``(v_i, p_i)``: ``v_i`` holds one integer per
    variable, in table order (ValidationError for another length, as
    :meth:`VariableTable.term`), and ``p_i`` is a polynomial over
    ``table`` (TableMismatch otherwise) or ``None``, which stands for 1.
    Each vector is packed and bounded once, each product is bounded and
    its rung kept as in :func:`poly_sum_of_products`, and ``p_i``'s keys
    are shifted by the packed vector, so no one-term polynomial is
    built.  Terms whose sum cancels are dropped.
    """
    layout = table._layout
    terms = {}
    get = terms.get
    amp = 0
    for exps, p in pairs:
        shift, bound = layout.pack_bounded(exps)
        if p is not None:
            if not _same_table(p.table, table):
                raise TableMismatch("operands live over different variable tables")
            if not p._keys:
                continue
            bound += p._amp
        if bound >= layout.limit:
            wide = layout.fit(bound)
            terms, layout = _repack(terms, layout, wide), wide
            get = terms.get
            shift = layout.pack_bounded(exps)[0]
        amp = max(amp, bound)
        if p is None:
            terms[shift] = get(shift, 0) + 1
            continue
        shift -= layout.offset
        for key, coeff in _repack(p._keys, p._layout, layout).items():
            key += shift
            terms[key] = get(key, 0) + coeff
    return _trusted(table, _drop_zeros(terms), amp)


def poly_binomial_product(table, pairs):
    """``prod_i (x^(a_i) + x^(b_i))`` over ``table``: :func:`poly_binomial_levels` in one level."""
    return _binomial_levels(table, pairs, 0)[0]


def poly_binomial_levels(table, pairs):
    """``[e_0, ..., e_d]``: ``e_r`` sums ``x^(sum_(i in J) a_i + sum_(i not in J) b_i)``, ``|J| = r``."""
    return _binomial_levels(table, pairs, 1)


def _binomial_levels(table, pairs, step):
    """``prod_i (x^(a_i) + x^(b_i))`` by levels, each first side ``step`` levels up.

    ``pairs`` yields exponent vectors ``(a_i, b_i)`` over ``table``, each
    packed once (ValidationError for another length, as
    :meth:`VariableTable.term`) on the rung of the bound every level takes,
    ``sum_i max(|a_i|, |b_i|)``; each pair in turn shifts every key so far
    by both its keys.  No term cancels.
    """
    layout, vectors = table._layout, [(a, b) for a, b in pairs]
    packed = [(layout.pack_bounded(a), layout.pack_bounded(b)) for a, b in vectors]
    amp = sum([pa[1] if pa[1] > pb[1] else pb[1] for pa, pb in packed])
    if amp >= layout.limit:
        layout = layout.fit(amp)
        packed = [(layout.pack_bounded(a), layout.pack_bounded(b)) for a, b in vectors]
    offset = layout.offset
    levels = [{offset: 1}]
    for (ka, _), (kb, _) in packed:
        ka, kb = ka - offset, kb - offset
        out = [{key + kb: coeff for key, coeff in level.items()} for level in levels] + [{}] * step
        for terms, level in zip(out[step:], levels):
            get = terms.get
            for key, coeff in level.items():
                key += ka
                terms[key] = get(key, 0) + coeff
        levels = out
    return [_trusted(table, level, amp) for level in levels]


def poly_pow(a, k):
    """Non-negative integer power by binary exponentiation."""
    k = _integer(k, "powers")
    if k < 0:
        raise ValidationError("poly_pow needs a non-negative exponent")
    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else poly_mul(result, base)
        base = poly_mul(base, base) if k > 1 else base
        k >>= 1
    return LaurentPolynomial.one(a.table) if result is None else result


def poly_exact_div(numer, denom):
    """Exact quotient ``numer / denom`` in the Laurent ring.

    Raises :class:`~gencluster.errors.InexactDivision` when the quotient
    does not exist (nonzero remainder, coefficient non-divisibility, or
    division by zero).  A divisor of two or more terms first compares
    ``numer`` with its recorded numerator (see the design notes); then
    one of two routes:

    * a one-term divisor shifts every numerator key: the quotient is the
      product with the inverse term, and bounded as products are;
    * any other divisor takes greedy leading-term elimination in the
      canonical graded-lex order.  The remainder is a dict of packed keys,
      and a max-heap holds every key added to it; the leading term is the
      largest key popped that has not cancelled since it was pushed.  Each
      quotient term updates the remainder with the divisor's other terms at
      once, so the heap holds remainder keys, not the pending products of
      Monagan and Pearce's quotient heap (ISSAC 2009).  Every quotient term
      must lie in the exponent box of the quotient, which is exact because
      exponent extremes add under polynomial products; the first one outside
      it stops the division.
    """
    _require_same_table(numer, denom)
    if not denom._keys:
        raise InexactDivision("division by the zero polynomial")
    if not numer._keys:
        return LaurentPolynomial.zero(numer.table)
    quotient = denom._divisor
    if quotient is None or len(denom._keys) == 1 or numer != denom._numer:
        quotient = _divide(numer, denom)
    # ``numer = denom * quotient``; a link answered moves onto the divisor
    # it returns, so dividing back again is answered by the link too.
    quotient._divisor, quotient._numer = denom, numer
    denom._divisor = denom._numer = None
    return quotient


def _divide(numer, denom):
    """:func:`poly_exact_div` of nonzero operands over one table, by its two routes."""
    table = numer.table
    if len(denom._keys) == 1:
        amp = numer._amp + denom._amp
        layout = table._layout.fit(amp)
        ((lead_d, lc_d),) = _repack(denom._keys, denom._layout, layout).items()
        keys = _repack(numer._keys, numer._layout, layout)
        shift = layout.offset - lead_d
        if lc_d == 1 or lc_d == -1:
            return _trusted(table, {k + shift: c * lc_d for k, c in keys.items()}, amp)
        quotient = {}
        for key, coeff in keys.items():
            q_c, rem = divmod(coeff, lc_d)
            if rem:
                raise InexactDivision("leading coefficient does not divide")
            quotient[key + shift] = q_c
        return _trusted(table, quotient, amp)

    # Componentwise exponent box that must contain every quotient term:
    # coordinate extremes add under multiplication, so the quotient's
    # extremes are the differences of the operands' extremes.
    (n_lo, n_hi), (d_lo, d_hi) = _extremes(numer), _extremes(denom)
    lo = tuple(map(sub, n_lo, d_lo))
    hi = tuple(map(sub, n_hi, d_hi))
    if any(l > h for l, h in zip(lo, hi)):
        raise InexactDivision("quotient support leaves the feasible box")
    amp = max(map(abs, lo + hi), default=0)
    # The rung that holds both operands and the box; the quotient moves
    # down to its own rung at the end.
    layout = table._layout.fit(max(amp, numer._amp, denom._amp))
    offset = layout.offset
    denom_keys = _repack(denom._keys, denom._layout, layout)

    lead_d = max(denom_keys)
    lc_d = denom_keys[lead_d]
    # The leading product cancels by construction; the others update the
    # remainder.  Every remainder key stays inside the numerator's box.
    others = [(k - offset, -c) for k, c in denom_keys.items() if k != lead_d]
    shift = offset - lead_d
    # A quotient key ``lead + shift`` lies in the box exactly when the
    # remainder key ``lead`` lies in the box shifted by ``lead_d``, which
    # lies inside the numerator's box.  So a field of ``lead`` and the
    # same field of a corner differ by less than the bias ``2**(bits - 1)``
    # in magnitude, and with the bias added per field (``offset`` has
    # exactly those bits) the differences borrow nothing from each other:
    # the bias bit of a field is set exactly when its difference is
    # non-negative.  A borrow out of the fields reaches only the degree
    # field, which is not tested.
    fields = (1 << layout.degree_shift) - 1
    upper = ((layout.pack_bounded(hi)[0] - shift) & fields) + offset
    lower = ((layout.pack_bounded(lo)[0] - shift) & fields) - offset
    remainder = dict(_repack(numer._keys, numer._layout, layout))
    get = remainder.get
    heap = [-k for k in remainder]
    heapify(heap)
    quotient = {}
    while heap:
        lead = -heappop(heap)
        lc = remainder.pop(lead, 0)
        if not lc:
            continue  # a key that cancelled after it was queued
        q_c, rem = divmod(lc, lc_d)
        if rem:
            raise InexactDivision("leading coefficient does not divide")
        if (upper - lead) & (lead - lower) & offset != offset:
            raise InexactDivision("quotient support leaves the feasible box")
        q_key = lead + shift
        quotient[q_key] = q_c
        for kd, cd in others:
            key = q_key + kd
            old = get(key)
            if old is None:
                remainder[key] = q_c * cd
                heappush(heap, -key)
            else:
                new = old + q_c * cd
                if new:
                    remainder[key] = new
                else:
                    del remainder[key]
    return _trusted(table, _repack(quotient, layout, table._layout.fit(amp)), amp)


class Substitution:
    """The monomial ring map from ``source`` to ``target`` that ``mapping`` defines.

    ``mapping`` sends variable names of ``source`` to :class:`Monomial`
    images over ``target``.  It is checked here, once: UnknownSymbol for
    a name outside ``source``, ValidationError for an image that is not a
    :class:`Monomial`, TableMismatch for one over another table.  A name
    absent from the mapping is fixed when the tables are one, and is
    otherwise carried across by name; a name the target lacks raises
    UnknownSymbol only when a polynomial or a vector uses it.  ``images``
    is a read-only view of the mapping.

    ``sub(p)`` maps a polynomial over ``source``, and ``sub.vector(exps)``
    maps an exponent vector: the exponents of the image of ``x^exps``.
    Both read one stored column per source variable, worked out when a
    polynomial or a vector first uses the variable: the nonzero ``(target
    position, exponent)`` entries of its image and the image's largest
    exponent magnitude.  The polynomial form packs a column's move from
    it, into one move list per pair of rungs, and keeps it.
    """

    __slots__ = ("source", "target", "images", "_same", "_positions", "_columns", "_moves")

    def __init__(self, mapping, source, target):
        for name, mono in mapping.items():
            if name not in source:
                raise UnknownSymbol(f"mapping source {name!r} is not in the table")
            if not isinstance(mono, Monomial):
                raise ValidationError(f"image of {name!r} is not a Monomial: {mono!r}")
            if not _same_table(mono.table, target):
                raise TableMismatch(f"image of {name!r} is not over the target table")
        self.source, self.target = source, target
        self.images = MappingProxyType(dict(mapping))
        self._same = same = _same_table(source, target)
        # The variables that can move: over one table, the mapped ones.
        self._positions = sorted(map(source.index, mapping)) if same else range(len(source))
        self._columns = [None] * len(source)
        self._moves = {}

    def _column(self, i):
        """``(entries, bound)`` of source variable ``i``, stored on first use."""
        name = self.source.names[i]
        image = self.images.get(name)
        if image is None:
            column = ((self.target.index(name), 1),), 1
        else:
            exps = image.exponents
            column = [(j, g) for j, g in enumerate(exps) if g], max(map(abs, exps), default=0)
        self._columns[i] = column
        return column

    def __call__(self, p):
        """The image of the polynomial ``p`` over ``source`` (TableMismatch otherwise).

        The result is bounded by ``p``'s bound times the sum of the used
        variables' image bounds (plus one over one table, for the
        variables that stay).  Keys are linear in exponent vectors, so
        each used variable adds its exponent times its packed image to a
        key rebuilt from the target's 1.  On one rung of one width a term
        keeps its key, and each variable that moves adds its exponent
        times (image - itself); over one table ``p``'s keys first move up
        to the result's rung, so only mapped variables move.
        """
        if not _same_table(p.table, self.source):
            raise TableMismatch("polynomial is not over the substitution's source table")
        s_layout, same, columns = p._layout, self._same, self._columns
        used = 0
        for key in p._keys:
            used |= key ^ s_layout.offset
        shifts, mask = s_layout.shifts, s_layout.mask
        picked, bound = [], int(same)
        for i in self._positions:
            if (used >> shifts[i]) & mask:
                picked.append(i)
                bound += (columns[i] or self._column(i))[1]
        amp = p._amp * bound
        target = self.target
        layout = target._layout.fit(amp)
        keys, r_layout = (_repack(p._keys, s_layout, layout), layout) if same else (p._keys, s_layout)
        in_place = r_layout is layout
        packed = self._moves.get((r_layout, layout))
        if packed is None:
            packed = self._moves[r_layout, layout] = [None] * len(columns)
        moves = []
        for i in picked:
            move = packed[i]
            if move is None:
                units = layout.units
                delta = -units[i] if in_place else 0
                for j, g in columns[i][0]:
                    delta += g * units[j]
                move = packed[i] = (r_layout.shifts[i], delta)
            if move[1]:
                moves.append(move)
        if same and not moves:
            return p
        base = layout.offset
        mask, bias = r_layout.mask, r_layout.bias
        terms = {}
        get = terms.get
        for key, coeff in keys.items():
            acc = key if in_place else base
            for shift, delta in moves:
                e = ((key >> shift) & mask) - bias
                if e:
                    acc += e * delta
            terms[acc] = get(acc, 0) + coeff
        return _trusted(target, _drop_zeros(terms), amp)

    def vector(self, exps):
        """The exponent vector, over ``target``, of the image of ``x^exps``.

        ``exps`` holds one integer per ``source`` variable, in table
        order (ValidationError otherwise), of any size.
        """
        if len(exps) != len(self.source.names):
            raise ValidationError("exponent vector does not match table size")
        # As in ``_Layout.pack_bounded``: the sum is an int when every entry is one.
        try:
            total = sum(exps)
        except TypeError:
            total = None
        if type(total) is not int:
            exps = _int_vector(exps)
        same, columns = self._same, self._columns
        out = list(exps) if same else [0] * len(self.target.names)
        for i in self._positions:
            e = exps[i]
            if e:
                if same:
                    out[i] -= e
                for j, g in (columns[i] or self._column(i))[0]:
                    out[j] += e * g
        return tuple(out)


class PackedMonomial:
    """A key, a bound on its largest exponent magnitude, and the narrowest rung holding the bound."""

    __slots__ = ("_key", "_bound", "_rung")

    def __init__(self, key, bound, rung):
        self._key, self._bound, self._rung = key, bound, rung


def monomial_combination(m, a, n, b):
    """``m a + n b`` of two :class:`PackedMonomial` (ValidationError for two widths)."""
    m, n = _integer(m, "factors"), _integer(n, "factors")
    bound = abs(m) * a._bound + abs(n) * b._bound
    rung = _layout(a._rung.width, 24).fit(bound)
    a_key, b_key, offset = rung.pack_bounded(a)[0], rung.pack_bounded(b)[0], rung.offset
    return PackedMonomial(offset + m * (a_key - offset) + n * (b_key - offset), bound, rung)


class ColumnMap:
    """The monomial map of ``table`` sending column ``c`` to ``images[c]`` and fixing the rest.

    ValidationError for an image of another position or length.
    """

    __slots__ = ("table", "_images", "_bounds", "_rungs")

    def __init__(self, table, images):
        width = len(table)
        self.table, self._images, self._bounds, self._rungs = table, {}, [1] * width, {}
        for c, v in images.items():
            v = _int_vector(v)
            if type(c) is not int or not 0 <= c < width or len(v) != width:
                raise ValidationError(f"image of column {c!r} does not match table size")
            self._images[c], self._bounds[c] = v, max(map(abs, v), default=0)

    def sides(self, row, cols=None):
        """The images of ``row``'s sides over the ``range`` ``cols``, as :class:`PackedMonomial`.

        ``(gt, lt)`` map the positive entries and the negative entries'
        magnitudes.  A side's bound sums each entry times its image's
        largest magnitude, or is exact once that sum passes the first rung.
        """
        if len(row) != len(self._bounds):
            raise ValidationError("exponent vector does not match table size")
        cols = range(len(row)) if cols is None else cols
        base = self.table._layout
        gt, lt, gt_bound, lt_bound = self._row_keys(row, cols, base)
        if gt_bound < base.limit > lt_bound:
            return (PackedMonomial(base.offset + gt, gt_bound, base),
                    PackedMonomial(base.offset + lt, lt_bound, base))
        wide, out = base.fit(max(gt_bound, lt_bound)), []
        for key in self._row_keys(row, cols, wide)[:2]:
            key, amp = base.pack_bounded(wide.unpack(wide.offset + key))
            out.append(PackedMonomial(key, amp, base.fit(amp)))
        return tuple(out)

    def _row_keys(self, row, cols, layout):
        """The two keys of ``row`` over ``cols``, less ``layout.offset``, and their bounds."""
        packed = self._rungs.get(layout)
        if packed is None:
            packed = self._rungs[layout] = list(layout.units)
            for c, v in self._images.items():
                packed[c] = sum(map(mul, v, layout.units))
        bounds = self._bounds
        gt = lt = gt_bound = lt_bound = 0
        for c in cols:
            e = row[c]
            if e > 0:
                gt += e * packed[c]
                gt_bound += e * bounds[c]
            elif e < 0:
                lt -= e * packed[c]
                lt_bound -= e * bounds[c]
        return gt, lt, gt_bound, lt_bound
