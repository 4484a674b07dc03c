"""Block-constant unfolding of a divisor-weighted exchange matrix.

A rank-``N`` seed with divisors ``d`` and ``M`` slack columns unfolds to
an ordinary (all-divisors-one) exchange matrix with ``T = d_1 + ... +
d_N`` mutable directions and ``M + 2T`` frozen columns, laid out as::

    [ cluster groups | F | T^1 S^1 | T^2 S^2 | ... | T^N S^N ]

* cluster block ``(i, j)``: the constant ``B_ij / d_i`` repeated on a
  ``d_i x d_j`` block (zero on the diagonal blocks);
* ``F`` column ``l``: the constant ``(n / d_i) * B_{i, N+l}`` down group
  ``i``'s rows, where ``n`` is the multiplicity of the adjoined frozen
  roots: the product ``D`` of the divisors unless given (root adjunction
  in ``lcm`` mode uses their least common multiple);
* ``T^i`` / ``S^i``: identity and minus-identity blocks on the diagonal
  group, zero elsewhere.

:class:`FoldedLayout` works these positions and the ``F`` scales
``n / d_i`` out once per unfolding; every other module reads them from
it.  It holds positions only: the quotient's relations on the ``T``/``S``
variables (``E`` and ``sigma``) have one owner,
:func:`~gencluster.quotient_embedding.quotient_relations`.

Mutating a whole group (each member once, in any order — the diagonal
cluster blocks vanish, so members do not interact) preserves the
structural facts that the two checkers in this module verify:

* :func:`hadamard_check` — cluster and ``F`` blocks stay constant,
  with constants read off the correspondingly mutated weighted matrix;
* :func:`double_constant_check` — each ``T``/``S`` block pair sums to a
  constant block, with the diagonal pair constant-plus-(+/-)identity
  (it returns nothing, or raises at the first pair that fails);
  :meth:`FoldedMatrix.identity_sign` reads the sign of that identity,
  which flips exactly when the group mutates (mutation negates the
  group's rows).

Block constancy implies the unfolding conditions (each column of a
cluster block sums to ``B_ij``, and a positive ``B_ij`` forces a
non-negative block), so those are checked by the test suite as an
oracle, not at run time.

:func:`group_mutate` mutates all members in one pass; member-by-member
mutation and the closed block-product formula for a whole-group mutation
are test oracles, not recomputed at run time.
"""

from math import prod
from operator import index

from .errors import FrozenValue, IndexOutOfRange, Report, StructureViolation, ValidationError
from .matrix_mutation import ExtendedExchangeMatrix, mutate_commuting


class FoldedLayout(FrozenValue):
    """Column positions of an unfolding, worked out once per :func:`build`.

    From the divisors ``group_sizes``, the frozen count ``m_original``
    of the weighted seed and the root ``multiplicity`` ``n`` (the
    product of the divisors unless given), the constructor stores
    ``f_scales[i]`` (``n / d_i``, the factor of group ``i``'s ``F``
    entries), ``n_groups``, ``total`` (the member count), ``groups[i]``
    (group ``i``'s rows and cluster columns), ``aux[i]`` (its
    ``t`` and ``s`` column ranges) and the blocks ``cluster_block``,
    ``f_block``, ``exchange_block`` (cluster and ``F`` columns),
    ``frozen_block`` (all columns after the cluster block) and
    ``aux_block`` (the ``T``/``S`` columns).  Non-integer sizes,
    a negative frozen count or a multiplicity that is not a positive multiple
    of every divisor raise ValidationError; the group accessors raise
    IndexOutOfRange for a missing group.  Group mutations share the layout.
    """

    group_sizes: tuple
    m_original: int
    multiplicity: int = None

    def __post_init__(self):
        try:
            sizes, m = tuple(map(index, self.group_sizes)), index(self.m_original)
            n = prod(sizes) if self.multiplicity is None else index(self.multiplicity)
        except TypeError:
            raise ValidationError("layout sizes must be integers") from None
        if m < 0:
            raise ValidationError(f"frozen count {m} is negative")
        if n < 1 or any(d < 1 or n % d for d in sizes):
            raise ValidationError(
                f"root multiplicity {n} is not a positive multiple of every divisor"
            )
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "m_original", m)
        object.__setattr__(self, "multiplicity", n)
        object.__setattr__(self, "f_scales", tuple(n // d for d in sizes))
        total = sum(sizes)
        groups, aux, start, t = [], [], 0, total + m
        for d in self.group_sizes:
            groups.append(range(start, start + d))
            aux.append((range(t, t + d), range(t + d, t + 2 * d)))
            start, t = start + d, t + 2 * d
        object.__setattr__(self, "n_groups", len(groups))
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "aux", tuple(aux))
        object.__setattr__(self, "cluster_block", range(total))
        object.__setattr__(self, "f_block", range(total, total + m))
        object.__setattr__(self, "exchange_block", range(total + m))
        object.__setattr__(self, "frozen_block", range(total, t))
        object.__setattr__(self, "aux_block", range(total + m, t))

    def _group(self, i):
        """``i``, or IndexOutOfRange unless it numbers a group."""
        if not 0 <= i < self.n_groups:
            raise IndexOutOfRange(f"no group {i}")
        return i

    def group_range(self, i):
        """Row (and cluster-column) index range of group ``i``."""
        return self.groups[self._group(i)]

    def t_range(self, i):
        return self.aux[self._group(i)][0]

    def cluster_names(self):
        """``y1 .. yT``, one cluster variable per member, group by group."""
        return tuple(f"y{c + 1}" for c in self.cluster_block)

    def frozen_names(self, roots):
        """``roots`` (one per ``F`` column), then each group's ``t`` and ``s`` names."""
        aux = (f"{v}{c + 1}" for members in self.groups for v in "ts" for c in members)
        return tuple(roots) + tuple(aux)


class FoldedMatrix(FrozenValue):
    """An unfolded exchange matrix and its :class:`FoldedLayout`.

    ``matrix`` has one mutable column per group member and the frozen
    columns the layout places.  :meth:`block` reads a sub-matrix over
    index ranges of the layout, so no data is copied.  ``group_sizes``
    and ``m_original`` are the layout's (a benchmark tracing key).
    """

    matrix: ExtendedExchangeMatrix
    layout: FoldedLayout

    def __post_init__(self):
        if not (isinstance(self.matrix, ExtendedExchangeMatrix)
                and isinstance(self.layout, FoldedLayout)):
            raise ValidationError("folded matrix or layout of the wrong type")
        if self.matrix.n != self.layout.total:
            raise ValidationError("matrix rank does not match the group sizes")
        if self.matrix.m != len(self.layout.frozen_block):
            raise ValidationError("matrix width does not match the group layout")

    @property
    def group_sizes(self):
        return self.layout.group_sizes

    @property
    def m_original(self):
        return self.layout.m_original

    def block(self, rows, cols):
        """The sub-matrix over the given rows and a contiguous column ``range``.

        ``cols`` is a step-1 ``range``, as the layout's ranges are; each
        row is read as one slice.
        """
        start, stop = cols.start, cols.stop
        return tuple(self.matrix.rows[r][start:stop] for r in rows)

    def identity_sign(self, i):
        """``alpha_i``: the identity part of group ``i``'s diagonal ``T`` block.

        It is ``T[0][0] - T[0][1]``, or +1 for a 1 x 1 block, and must be
        +1 or -1 (StructureViolation otherwise).  Each mutation of group
        ``i`` negates the sign, and no other group's changes it, so a
        group of two or more members has sign -1 exactly when it has
        mutated an odd number of times.
        """
        row = self.matrix.rows[self.layout.group_range(i)[0]]
        t = self.layout.t_range(i)
        sign = row[t[0]] - row[t[1]] if len(t) > 1 else 1
        if sign not in (1, -1):
            raise StructureViolation(
                f"diagonal T block ({i},{i}) identity part is {sign}, expected +1 or -1"
            )
        return sign


def build(seed, multiplicity=None):
    """Unfold a seed, whose divisors divide its principal rows.

    ``multiplicity`` is the root multiplicity ``n`` that scales the ``F``
    columns; it defaults to the product of the divisors.
    """
    matrix, divisors = seed.matrix, seed.divisors
    n, m = matrix.n, matrix.m
    layout = FoldedLayout(divisors.entries, m, multiplicity)
    rows = []
    for i in range(n):
        base = []
        for j in range(n):
            value = matrix.rows[i][j] // divisors[i]
            base.extend([value] * divisors[j])
        for l in range(m):
            base.append(layout.f_scales[i] * matrix.rows[i][n + l])
        base.extend([0] * (2 * layout.total))
        for t, s in zip(*layout.aux[i]):
            row = list(base)
            row[t] = 1
            row[s] = -1
            rows.append(tuple(row))
    frozen = len(layout.frozen_block)
    return FoldedMatrix(ExtendedExchangeMatrix(layout.total, frozen, tuple(rows)), layout)


def _independent_members(matrix, layout, k):
    """The members of group ``k``; StructureViolation if two interact in ``matrix``."""
    members = layout.group_range(k)
    for a in members:
        for b in members:
            if matrix.rows[a][b] != 0:
                raise StructureViolation(
                    f"group {k} members interact at ({a},{b}); group mutation "
                    "is not well-defined"
                )
    return members


def group_mutate(fm, k):
    """Mutate every member of group ``k`` once (the order is immaterial).

    Members that do not interact commute, so one pass mutates them all;
    the test suite checks it against member-by-member mutation.
    """
    members = _independent_members(fm.matrix, fm.layout, k)
    return FoldedMatrix(mutate_commuting(fm.matrix, members), fm.layout)


def hadamard_check(fm, reference):
    """Check block-constancy against a weighted reference matrix.

    Cluster block ``(i, j)`` must be the constant ``B_ij / d_i``; the
    ``F`` block ``(i, l)`` must be the constant ``(n / d_i) * B_{i,N+l}``,
    with ``d_i`` and ``n / d_i`` read off ``fm.layout``.
    ``reference`` is the weighted matrix at the same mutation depth
    (group mutations of the unfolding mirror plain mutations of the
    reference).  Returns a report whose failures name the first
    offending block and entry.  The reference needs one row per group
    and one frozen column per ``F`` column, since a smaller one would
    leave the rest of the unfolding unchecked: any other shape raises
    ValidationError.
    """
    layout = fm.layout
    if (reference.n, reference.m) != (layout.n_groups, layout.m_original):
        raise ValidationError(
            f"reference has {reference.n} rows and {reference.m} frozen columns; the "
            f"unfolding has {layout.n_groups} groups and {layout.m_original} F columns"
        )
    failures = []
    n, rows = reference.n, fm.matrix.rows
    for i, (rows_i, d, scale) in enumerate(zip(layout.groups, layout.group_sizes, layout.f_scales)):
        for j, cols in enumerate(layout.groups):
            value, rem = divmod(reference.rows[i][j], d)
            if rem:
                failures.append(("cluster", i, j, "reference entry not divisible by d_i"))
            elif not _rows_match(rows, rows_i, cols, (value,) * len(cols)):
                failures.append(("cluster", i, j, _first_nonconstant(fm, rows_i, cols, value)))
        values = tuple([scale * e for e in reference.rows[i][n:]])
        if not _rows_match(rows, rows_i, layout.f_block, values):
            for l, c in enumerate(layout.f_block):
                bad = _first_nonconstant(fm, rows_i, range(c, c + 1), values[l])
                if bad is not None:
                    failures.append(("f", i, l, bad))
    return Report(tuple(failures))


def _first_nonconstant(fm, members, cols, value):
    """Failure text naming the first entry of a block that is not ``value``, or None."""
    for r, row in enumerate(fm.block(members, cols)):
        for c, e in enumerate(row):
            if e != value:
                return f"entry ({r},{c}) = {e}, expected {value}"


def _rows_match(rows, members, cols, expected, shift=0):
    """Whether each row ``members[r]`` is ``expected`` over ``cols``, plus ``shift`` at ``r``."""
    start, stop = cols.start, cols.stop
    for r, row in enumerate(members):
        want = expected[:r] + (expected[r] + shift,) + expected[r + 1:] if shift else expected
        if rows[row][start:stop] != want:
            return False
    return True


def double_constant_check(fm):
    """Return None if every ``T``/``S`` block pair is double-constant.

    One rule holds for every group pair ``(i, j)``: with ``alpha`` equal
    to ``alpha[i]`` when ``i == j`` and to 0 otherwise, ``T`` must be
    ``c J + alpha Id`` and ``S`` must be ``(a - c) J - alpha Id``, with
    ``a`` and ``c`` read off the first entries.  ``alpha[i]`` is
    :meth:`FoldedMatrix.identity_sign`, which raises unless it is +1 or
    -1.  The first pair that breaks the rule raises StructureViolation.
    """
    rows = fm.matrix.rows
    for i, rows_i in enumerate(fm.layout.groups):
        first = rows[rows_i[0]]
        for j, (t_cols, s_cols) in enumerate(fm.layout.aux):
            shift = fm.identity_sign(i) if i == j else 0
            t, s = first[t_cols.start] - shift, first[s_cols.start] + shift
            if not _rows_match(rows, rows_i, t_cols, (t,) * len(t_cols), shift):
                raise StructureViolation(f"T block ({i},{j}) is not a constant plus {shift} Id")
            if not _rows_match(rows, rows_i, s_cols, (s,) * len(s_cols), -shift):
                raise StructureViolation(f"T+S block ({i},{j}) is not constant")
