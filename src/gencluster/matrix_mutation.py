"""Exchange matrices, divisor vectors, and matrix mutation.

An extended exchange matrix has ``n`` mutable rows and ``n + m``
columns: the left ``n`` columns form the principal part (required to be
skew-symmetrizable), the right ``m`` columns are slack (frozen)
directions.

There is one mutation rule, :func:`mutate_commuting`, the standard
matrix mutation in a range of directions that do not interact, made in
one pass; :func:`mutate` is its one-direction case.  The divisor-scaled
matrix of a mutated seed is :func:`modify` of its mutated matrix; the
divisor-weighted rule that mutates the scaled matrix directly is a test
oracle, and the test-suite asserts that the two agree.

The public constructor :class:`ExtendedExchangeMatrix` (and with it
:meth:`ExtendedExchangeMatrix.from_rows` and :func:`modify`) validates
its input.  Mutation results skip that validation: the shape and the
integer entries carry over from the input, and mutation preserves
skew-symmetrizers (Fomin-Zelevinsky, Cluster algebras I, Prop. 4.5), so
:func:`mutate_commuting` replaces the rows of its input with
:meth:`~gencluster.errors.FrozenValue._trusted_replace`.  The
test-suite rebuilds those results through the validating constructor
and compares.

:func:`write_matrix` prints the plain-text matrix format: a header line
``"n m"`` followed by one line of ``;``-separated rows, each row ``n +
m`` integers::

    2 2
    0 8 -3 5 ; -12 0 -2 7
"""

from operator import index

from .errors import (
    FrozenValue,
    IndexOutOfRange,
    InvalidDivisors,
    NotSkewSymmetrizable,
    ValidationError,
)


def _check_skew_symmetrizable(rows, n):
    """Raise NotSkewSymmetrizable unless a positive diagonal skew-symmetrizes.

    Checks the principal part's signs, then propagates the exact ratios
    ``d_j / d_start`` over the graph whose edges are its nonzero entries,
    each as an integer pair ``(numerator, denominator)``; every edge is
    checked, by cross-multiplication, when its row is popped.
    """
    for i in range(n):
        if rows[i][i] != 0:
            raise NotSkewSymmetrizable(f"nonzero diagonal entry at ({i}, {i})")
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if (a == 0) != (b == 0):
                raise NotSkewSymmetrizable(
                    f"entries ({i},{j}) and ({j},{i}) must vanish together"
                )
            if a * b > 0:
                raise NotSkewSymmetrizable(
                    f"entries ({i},{j}) and ({j},{i}) must have opposite signs"
                )
    values = [None] * n
    for start in range(n):
        if values[start] is not None:
            continue
        values[start] = (1, 1)
        queue = [start]
        while queue:
            i = queue.pop()
            num, den = values[i]
            for j in range(n):
                if rows[i][j] == 0:
                    continue
                # d_i * b_ij = -d_j * b_ji fixes the ratio d_j / d_i.
                ratio = (-num * rows[i][j], den * rows[j][i])
                if values[j] is None:
                    values[j] = ratio
                    queue.append(j)
                elif values[j][0] * ratio[1] != ratio[0] * values[j][1]:
                    raise NotSkewSymmetrizable(
                        f"inconsistent ratio constraints on direction {j}"
                    )


class ExtendedExchangeMatrix(FrozenValue):
    """Integer matrix with ``n`` mutable rows and ``n + m`` columns.

    The principal (left ``n`` x ``n``) part must be skew-symmetrizable;
    the constructor checks the dimensions (each an ``int``, not a
    ``bool``), the shape, the entries and that property, and stores the
    rows as tuples.

    Mutation results do not pass through the constructor: mutation
    keeps the shape and integrality and preserves skew-symmetrizers
    (Fomin-Zelevinsky, Cluster algebras I, Prop. 4.5), so
    :func:`mutate_commuting` builds them with
    :meth:`~gencluster.errors.FrozenValue._trusted_replace`: the new
    rows are a tuple of integer tuples of the input's shape.
    """

    n: int
    m: int
    rows: tuple

    def __post_init__(self):
        if type(self.n) is not int or type(self.m) is not int:
            raise ValidationError(f"matrix dimensions {self.n!r} and {self.m!r} must be ints")
        if self.n < 0 or self.m < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        try:
            rows = tuple(map(tuple, self.rows))
        except TypeError:
            raise ValidationError(f"matrix rows must be sequences, not {self.rows!r}") from None
        if len(rows) != self.n:
            raise ValidationError("row count does not match n")
        if any(len(row) != self.n + self.m for row in rows):
            raise ValidationError("row width does not match n + m")
        # Rows are stored as tuples of plain ints, so the matrix is
        # hashable, prints as it parses, and mutation may share unchanged
        # rows with its input.
        try:
            rows = tuple([tuple([index(e) for e in row]) for row in rows])
        except TypeError:
            raise ValidationError("matrix entries must be integers") from None
        object.__setattr__(self, "rows", rows)
        _check_skew_symmetrizable(rows, self.n)

    @staticmethod
    def from_rows(rows, m=None):
        rows = tuple(map(tuple, rows))
        n = len(rows)
        width = len(rows[0]) if rows else 0
        if m is None:
            m = width - n
        return ExtendedExchangeMatrix(n, m, rows)

    def check_direction(self, k):
        if type(k) is not int or not 0 <= k < self.n:
            raise IndexOutOfRange(
                f"direction {k!r} is not a mutable index (0..{self.n - 1})"
            )

    def __str__(self):
        return write_matrix(self)


class DivisorVector(FrozenValue):
    """Positive integer weights, one per mutable direction."""

    entries: tuple

    def __post_init__(self):
        try:
            entries = tuple([index(d) for d in self.entries])
        except TypeError:
            entries = None
        if entries is None or not all(d >= 1 for d in entries):
            raise InvalidDivisors("divisors must be positive integers")
        # Stored as plain ints, so the divisors print as they parse.
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def of(*entries):
        return DivisorVector(entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def product(self):
        out = 1
        for d in self.entries:
            out *= d
        return out


def check_compatible(matrix, divisors):
    """Require ``d_i`` to divide every principal entry of row ``i``."""
    if len(divisors) != matrix.n:
        raise InvalidDivisors("divisor count does not match the matrix")
    for i in range(matrix.n):
        for j in range(matrix.n):
            if matrix.rows[i][j] % divisors[i]:
                raise InvalidDivisors(
                    f"divisor {divisors[i]} does not divide principal entry "
                    f"({i},{j}) = {matrix.rows[i][j]}"
                )


def modify(matrix, divisors):
    """Divisor-scaled companion matrix: principal rows divided by ``d_i``.

    Slack columns are kept as they are.  The divisor compatibility
    requirement makes the scaled principal part integral.
    """
    if not isinstance(divisors, DivisorVector):
        divisors = DivisorVector(tuple(divisors))
    check_compatible(matrix, divisors)
    rows = tuple(
        tuple(
            e // divisors[i] if j < matrix.n else e
            for j, e in enumerate(row)
        )
        for i, row in enumerate(matrix.rows)
    )
    return ExtendedExchangeMatrix(matrix.n, matrix.m, rows)


def sides(row, cols=None):
    """Exchange sides ``(gt, lt)`` of a matrix row as exponent vectors.

    ``gt`` holds the positive entries and ``lt`` the magnitudes of the
    negative ones, of the columns ``cols`` only, a step-1 ``range`` (all
    by default); both are zero in the other columns.
    """
    block = row if cols is None else row[cols.start:cols.stop]
    gt = tuple([v if v > 0 else 0 for v in block])
    lt = tuple([-v if v < 0 else 0 for v in block])
    if cols is None:
        return gt, lt
    before, after = (0,) * cols.start, (0,) * (len(row) - cols.stop)
    return before + gt + after, before + lt + after


def mutate(matrix, k):
    """Standard mutation in direction ``k``: :func:`mutate_commuting` of ``k`` alone."""
    matrix.check_direction(k)
    return mutate_commuting(matrix, range(k, k + 1))


def mutate_commuting(matrix, ks):
    """Mutate once in each direction of the ``range`` ``ks``, in one pass.

    The caller checks that the directions are mutable and do not
    interact (``b_kl = 0`` within ``ks``), so their mutations commute.
    Entry ``(i, j)`` gains, for each ``k``, ``|b_ik|`` times the part of
    ``b_kj`` with the sign of ``b_ik``; rows and columns ``ks`` are
    negated.  Each pivot is read once, as its nonzero entries of either
    sign, and a row with every ``b_ik = 0`` is shared with the input.
    """
    rows = matrix.rows
    pivots = []
    for k in ks:
        gt, lt = [], []
        for j, v in enumerate(rows[k]):
            if v:
                (gt if v > 0 else lt).append((j, v if v > 0 else -v))
        pivots.append((k, gt, lt))
    # b_kl = 0 within ks, so only the sign flips touch columns ks.  Rows come
    # from lists: tuples grown from generators raised long walks' peak memory.
    new_rows = []
    for row in rows:
        new_row = row
        for k, gt, lt in pivots:
            b_ik = row[k]
            if b_ik:
                if new_row is row:
                    new_row = list(row)
                for j, v in gt if b_ik > 0 else lt:
                    new_row[j] += b_ik * v
                new_row[k] = -b_ik
        new_rows.append(row if new_row is row else tuple(new_row))
    for k in ks:
        new_rows[k] = tuple([-e for e in rows[k]])
    return matrix._trusted_replace(rows=tuple(new_rows))


def mutate_sequence(matrix, sequence):
    """Apply mutations left to right."""
    for k in sequence:
        matrix = mutate(matrix, k)
    return matrix


def write_matrix(matrix):
    """Canonical text form (header line, then ``;``-separated rows)."""
    rows = " ; ".join(" ".join(str(e) for e in row) for row in matrix.rows)
    return f"{matrix.n} {matrix.m}\n{rows}\n"

