"""Generalized seeds: higher-order exchange relations and seed mutation.

A generalized seed holds a cluster of Laurent polynomials, an extended
exchange matrix ``B`` with a compatible divisor vector ``d`` (each
``d_i`` divides the principal entries of row ``i``), and coefficient
strings: for every mutable direction ``i`` a list of ``d_i + 1`` frozen
Laurent monomials ``p_{i,0}, ..., p_{i,d_i}`` with both ends equal to 1.

The exchange polynomial in direction ``k`` has degree ``d_k``::

    theta_k = sum_{r=0}^{d_k} p_{k,r} * u>^r * v>[r] * u<^(d_k - r) * v<[d_k - r]

where the cluster monomials ``u>``, ``u<`` and the frozen boxes
``v>[r]``, ``v<[r]`` are read off the divisor-scaled matrix row
``bhat_k`` (positive entries feed the ``>`` side, negative entries the
``<`` side, zero entries appear on neither side)::

    u>    = prod_{bhat_ki > 0} x_i^bhat_ki        (cluster columns)
    u<    = prod_{bhat_ki < 0} x_i^(-bhat_ki)
    v>[r] = prod_{bhat_kj > 0} f_j^floor(r*bhat_kj / d_k)   (frozen columns)
    v<[r] = prod_{bhat_kj < 0} f_j^floor(r*|bhat_kj| / d_k)

:class:`ExchangeContext` reads the row once and keeps ``u>``, ``u<``
and the ``d_k + 1`` frozen coefficients ``p_{k,r} * v>[r] * v<[d_k - r]``
of ``theta_k`` as exponent vectors; no box is kept.  ``theta_k`` is one
kernel shifted sum: each product ``u>^r * u<^(d_k - r)`` of cluster
powers is shifted by its coefficient's exponent vector, so the mutation
path builds neither a one-term polynomial per coefficient nor a
:class:`~gencluster.laurent_kernel.Monomial`.

Mutation in direction ``k`` mutates the matrix by the standard rule and
reverses string row ``k`` (:func:`mutate_exchange_data`, the one step of
the exchange data), and replaces the cluster entry by the exact quotient
``theta_k / x_k``, evaluated at the current cluster (:func:`mutate_seed`).

The module also provides the degree-``d_k``-root apparatus: the floor
defect and a check of the perfect-power form of each coefficient of
``theta_k``.  The monomial route to ``theta_k`` and to the check,
reassembling ``theta_k`` from the roots, and the special and balancing
``q`` monomials are test oracles in ``tests/test_gca_seed.py``.
"""

from .errors import FrozenValue, Report, ValidationError
from .laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    VariableTable,
    _same_table,
    poly_exact_div,
    poly_mul,
    poly_pow,
    poly_shifted_sum,
)
from .matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    check_compatible,
    mutate,
    sides,
)


class CoefficientStrings(FrozenValue):
    """Per-direction tuples of frozen monomials, ends pinned to 1.

    The constructor stores the rows, and each row, as tuples;
    :func:`mutate_exchange_data` reverses a row unchecked (see :class:`GeneralizedSeed`).
    """

    rows: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        except TypeError:
            raise ValidationError(f"string rows must be sequences, not {self.rows!r}") from None

    def row(self, k):
        return self.rows[k]

    def entry(self, k, r):
        return self.rows[k][r]

    def validate(self, table, divisors):
        if len(self.rows) != len(divisors):
            raise ValidationError("string row count does not match divisors")
        for i, row in enumerate(self.rows):
            if len(row) != divisors[i] + 1:
                raise ValidationError(f"string row {i} must have {divisors[i] + 1} entries")
            for r, mono in enumerate(row):
                if not isinstance(mono, Monomial) or not _same_table(mono.table, table):
                    raise ValidationError(f"string entry ({i},{r}) is not a monomial of the table")
                if any(mono.exponents[: table.n_cluster]):
                    raise ValidationError(f"string entry ({i},{r}) touches a cluster variable")
            if not row[0].is_one() or not row[-1].is_one():
                raise ValidationError(f"string row {i} must start and end at 1")

    @staticmethod
    def trivial(table, divisors):
        one = table.one()
        try:
            return CoefficientStrings(tuple((one,) * (d + 1) for d in divisors.entries))
        except OverflowError:
            message = f"divisors too large for string rows: {divisors.entries}"
            raise ValidationError(message) from None


class GeneralizedSeed(FrozenValue):
    """Cluster, exchange matrix, divisors, and coefficient strings.

    The constructor stores the cluster as a tuple and the divisors as a
    :class:`~gencluster.matrix_mutation.DivisorVector` (a sequence of
    integers is converted), then checks that the parts fit together:
    types, sizes, tables, divisor compatibility and the coefficient strings.
    Mutation results and their strings skip those checks (see
    :meth:`~gencluster.errors.FrozenValue._trusted_replace`), because
    :func:`mutate_exchange_data` preserves each of them: the table and divisors
    are unchanged; each matrix update is 0 or ``+/- b_ik * b_kj``, so
    ``d_i`` still divides row ``i`` (and skew-symmetrizers carry over,
    Fomin-Zelevinsky, Cluster algebras I, Prop. 4.5); and string row
    ``k`` is only reversed.
    """

    table: VariableTable
    cluster: tuple
    matrix: ExtendedExchangeMatrix
    divisors: DivisorVector
    strings: CoefficientStrings

    def __post_init__(self):
        types = VariableTable, ExtendedExchangeMatrix, CoefficientStrings
        if not all(map(isinstance, (self.table, self.matrix, self.strings), types)):
            raise ValidationError("seed table, matrix or strings of the wrong type")
        try:
            object.__setattr__(self, "cluster", tuple(self.cluster))
            if not isinstance(self.divisors, DivisorVector):
                object.__setattr__(self, "divisors", DivisorVector(tuple(self.divisors)))
        except TypeError:
            raise ValidationError("seed cluster and divisors must be sequences") from None
        n, m = self.matrix.n, self.matrix.m
        if self.table.n_cluster != n:
            raise ValidationError("table cluster count does not match the matrix")
        if len(self.table) - n != m:
            raise ValidationError("table frozen count does not match the matrix")
        if len(self.cluster) != n:
            raise ValidationError("cluster size does not match the matrix")
        for entry in self.cluster:
            if not isinstance(entry, LaurentPolynomial) or not _same_table(entry.table, self.table):
                raise ValidationError("cluster entry is not a polynomial over the seed's table")
        if len(self.divisors) != n:
            raise ValidationError("divisor count does not match the matrix")
        check_compatible(self.matrix, self.divisors)
        self.strings.validate(self.table, self.divisors)

    @property
    def rank(self):
        return self.matrix.n

    def scaled_row(self, k):
        """Row ``k`` of the divisor-scaled matrix ``bhat``, scaled alone.

        ``bhat`` is :func:`~gencluster.matrix_mutation.modify` of the
        matrix and the divisors.
        """
        d_k, n = self.divisors.entries[k], self.matrix.n
        row = self.matrix.rows[k]
        return tuple([e // d_k for e in row[:n]]) + row[n:]

    def content_key(self):
        """Hashable key, equal for equal seeds over one table and divisors.

        It holds the matrix rows, the string exponents and the
        :meth:`~gencluster.laurent_kernel.LaurentPolynomial.hash_key` of
        every cluster entry.
        """
        return (
            self.matrix.rows,
            tuple(tuple(e.exponents for e in row) for row in self.strings.rows),
            tuple(p.hash_key() for p in self.cluster),
        )


def initial_seed(matrix, divisors, strings=None, cluster_names=None, frozen_names=None):
    """Seed at depth zero: the cluster is the table's own variables.

    The names default to ``x1..xN`` and ``f1..fM``; given names are
    sequences, and a bare ``str`` is refused as by
    :meth:`~gencluster.laurent_kernel.VariableTable.make`.
    """
    n, m = matrix.n, matrix.m
    if cluster_names is None:
        cluster_names = tuple(f"x{i + 1}" for i in range(n))
    if frozen_names is None:
        frozen_names = tuple(f"f{j + 1}" for j in range(m))
    table = VariableTable.make(cluster=cluster_names, frozen=frozen_names)
    if strings is None:
        # Checked before the strings are built: an incompatible divisor sizes no row.
        divisors = DivisorVector(tuple(divisors))
        check_compatible(matrix, divisors)
        strings = CoefficientStrings.trivial(table, divisors)
    cluster = tuple(table.variable(name) for name in table.names[: table.n_cluster])
    return GeneralizedSeed(table, cluster, matrix, divisors, strings)


class ExchangeContext:
    """The exchange relation of direction ``k``, as exponent vectors.

    The constructor reads the divisor-scaled row ``bhat_row`` once;
    raises IndexOutOfRange for a bad direction.  ``u_gt``/``u_lt`` are
    exponent tuples over the seed's table whose cluster slots refer to
    the *current* cluster entries (slot ``i`` means ``seed.cluster[i]``),
    not to the table symbols; ``coefficients[r]`` is the frozen
    coefficient ``p_{k,r} * v>[r] * v<[d-r]`` of ``theta_k``; ``v_gt``/
    ``v_lt``, the stable monomials ``v>[1]``/``v<[1]``, are worked out
    when read.  No :class:`Monomial` is built: callers that need one
    (reports, failure text) wrap a vector.  A seed with no frozen column
    has no frozen work: its coefficients and ``v`` vectors are all zero.
    """

    __slots__ = ("seed", "degree", "bhat_row", "u_gt", "u_lt", "coefficients")

    def __init__(self, seed, k):
        seed.matrix.check_direction(k)
        self.seed = seed
        self.degree = d = seed.divisors.entries[k]
        self.bhat_row = bhat_row = seed.scaled_row(k)
        n = seed.matrix.n
        frozen, pad = bhat_row[n:], (0,) * n
        self.u_gt, self.u_lt = sides(bhat_row, range(n))
        if not frozen:
            self.coefficients = (pad,) * (d + 1)
            return
        # Frozen exponent b adds floor(r*b/d) (b > 0) or floor((d-r)*|b|/d)
        # (b < 0) to p_{k,r}; strings have no cluster exponent.
        self.coefficients = tuple([
            pad + tuple([
                p + (r * e if e > 0 else (r - d) * e) // d
                for p, e in zip(string.exponents[n:], frozen)
            ])
            for r, string in enumerate(seed.strings.rows[k])
        ])

    @property
    def v_gt(self):
        n, d = self.seed.matrix.n, self.degree
        return (0,) * n + tuple([e // d if e > 0 else 0 for e in self.bhat_row[n:]])

    @property
    def v_lt(self):
        n, d = self.seed.matrix.n, self.degree
        return (0,) * n + tuple([-e // d if e < 0 else 0 for e in self.bhat_row[n:]])


def _cluster_power(seed, exponents):
    """Product of current cluster entries raised to table-slot exponents.

    ``None`` when no cluster exponent is nonzero: the power is 1, and
    callers leave an absent factor out instead of multiplying by it.
    """
    out = None
    for i in seed.table.cluster_indices:
        e = exponents[i]
        if e:
            factor = poly_pow(seed.cluster[i], e)
            out = factor if out is None else poly_mul(out, factor)
    return out


def _ladder(base, d):
    """``[None, base, base^2, ..., base^d]``, all ``None`` when ``base`` is."""
    powers = [None, base]
    for _ in range(1, d):
        powers.append(None if base is None else poly_mul(powers[-1], base))
    return powers


def exchange_polynomial(seed, k):
    """The exchange polynomial ``theta_k`` evaluated at the current cluster.

    With ``G``/``L`` the cluster powers of ``u>``/``u<``, the products
    ``G^r * L^(d-r)``, each shifted by the exponent vector of
    coefficient ``r``, in ascending ``r``, are one
    :func:`~gencluster.laurent_kernel.poly_shifted_sum`, which reads
    each product as it is made.  Nothing is multiplied by 1: an empty
    cluster power is absent and so are its powers, and a product with
    an absent side is the other side, or absent.
    """
    ctx = ExchangeContext(seed, k)
    d = ctx.degree
    # Index r holds G^r (L^r), absent at r = 0 and for an absent base.
    gt_powers = _ladder(_cluster_power(seed, ctx.u_gt), d)
    lt_powers = _ladder(_cluster_power(seed, ctx.u_lt), d)

    def summands():
        for r, coefficient in enumerate(ctx.coefficients):
            gt, lt = gt_powers[r], lt_powers[d - r]
            if gt is None:
                product = lt
            elif lt is None:
                product = gt
            else:
                product = poly_mul(gt, lt)
            yield coefficient, product

    return poly_shifted_sum(seed.table, summands())


def mutate_exchange_data(seed, k, cluster=None):
    """Mutate the matrix in direction ``k`` and reverse string row ``k``.

    The cluster stays as it is unless ``cluster`` replaces it, so the
    exchange-data walks keep the table's symbols.  ``mutate`` checks ``k``.
    """
    matrix = mutate(seed.matrix, k)
    rows = list(seed.strings.rows)
    rows[k] = rows[k][::-1]
    return seed._trusted_replace(
        cluster=seed.cluster if cluster is None else cluster,
        matrix=matrix,
        strings=seed.strings._trusted_replace(rows=tuple(rows)),
    )


def mutate_seed(seed, k):
    """:func:`mutate_exchange_data` with entry ``k`` replaced by ``theta_k / x_k``."""
    cluster = list(seed.cluster)
    cluster[k] = poly_exact_div(exchange_polynomial(seed, k), seed.cluster[k])
    return mutate_exchange_data(seed, k, tuple(cluster))


def mutate_seed_sequence(seed, sequence):
    out = seed
    for k in sequence:
        out = mutate_seed(out, k)
    return out


def floor_defect(n, r, b, d):
    """``n*floor(r*b/d) - floor(n*r*b/d)``; zero when ``d`` divides ``r*b``."""
    return n * ((r * b) // d) - (n * r * b) // d


def root_formula_check(seed, k):
    """Check the perfect-power (degree-``d_k`` root) form of ``theta_k``.

    For each ``r``, with ``q_{k,r}`` taken from the ``d``-fold special
    monomials of the scaled row (frozen exponents :func:`floor_defect`
    ``(d, r, bhat_kj, d)`` of ``1/q``, so the test does not read the
    coefficient it is compared with) and ``v> = v>[d]``, ``v< = v<[d]``
    the frozen sign parts of the scaled row, the monomial ``p_{k,r}^d /
    q_{k,r} * v>^r * v<^(d-r)`` must have every exponent divisible by
    ``d``, and its ``d``-th root must be the coefficient ``p_{k,r} *
    v>[r] * v<[d-r]`` of ``theta_k``.  The monomials are exponent vectors
    over the frozen slots; those of ``p_{k,r}`` on cluster slots must be 0.
    Returns a report listing failing ``(k, r)`` pairs.  Reassembling
    ``theta_k`` from the roots is a test oracle.
    """
    ctx = ExchangeContext(seed, k)
    d, n = ctx.degree, seed.rank
    frozen, pad = ctx.bhat_row[n:], (0,) * n
    failures = []
    for r, string in enumerate(seed.strings.row(k)):
        exps = string.exponents
        # A cluster slot's target d * p is divisible; its root p must be 0.
        target = [
            d * p + floor_defect(d, r, b, d) + (r * b if b > 0 else (r - d) * b)
            for p, b in zip(exps[n:], frozen)
        ]
        if any(e % d for e in target):
            failures.append((k, r, "exponents not divisible by the degree"))
            continue
        root, coefficient = tuple([e // d for e in target]), ctx.coefficients[r]
        if exps[:n] != pad or root != coefficient[n:]:
            root, coefficient = (Monomial(seed.table, v) for v in (exps[:n] + root, coefficient))
            failures.append((k, r, f"root {root} differs from {coefficient}"))
    return Report(tuple(failures))
