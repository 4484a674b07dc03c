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

Mutating a whole group (each member once, in any order — the diagonal
cluster blocks vanish, so members do not interact) preserves three
structural facts that the checkers in this module verify:

* :func:`hadamard_check` — cluster and ``F`` blocks stay constant,
  with constants read off the correspondingly mutated weighted matrix;
* :func:`double_constant_check` — each ``T``/``S`` block pair sums to a
  constant block, with the diagonal pair constant-plus-(+/-)identity;
* :func:`unfolding_conditions_check` — column sums of cluster blocks
  reproduce the weighted matrix, and positive entries force
  non-negative blocks.

:func:`group_mutate` mutates the members one by one; the closed
block-product formula for a whole-group mutation is checked against it
by the test suite, not recomputed at run time.
"""

from dataclasses import dataclass, replace

from .errors import IndexOutOfRange, Report, StructureViolation, ValidationError
from .matrix_mutation import DivisorVector, ExtendedExchangeMatrix, mutate


@dataclass(frozen=True)
class FoldedMatrix:
    """An exchange matrix with group-block metadata.

    ``matrix`` has ``total = sum(group_sizes)`` mutable columns followed
    by ``m_original`` F-columns and then interleaved ``T^i``/``S^i``
    column groups.  Block accessors return index ranges into the matrix,
    so no data is copied.
    """

    matrix: ExtendedExchangeMatrix
    group_sizes: tuple
    m_original: int

    def __post_init__(self):
        total = sum(self.group_sizes)
        if self.matrix.n != total:
            raise ValidationError("matrix rank does not match the group sizes")
        if self.matrix.m != self.m_original + 2 * total:
            raise ValidationError("matrix width does not match the group layout")

    @property
    def n_groups(self):
        return len(self.group_sizes)

    @property
    def total(self):
        return sum(self.group_sizes)

    def group_range(self, i):
        """Row (and cluster-column) index range of group ``i``."""
        if not 0 <= i < self.n_groups:
            raise IndexOutOfRange(f"no group {i}")
        start = sum(self.group_sizes[:i])
        return range(start, start + self.group_sizes[i])

    def f_column(self, l):
        if not 0 <= l < self.m_original:
            raise IndexOutOfRange(f"no F column {l}")
        return self.total + l

    def t_range(self, i):
        start = self.total + self.m_original + 2 * sum(self.group_sizes[:i])
        return range(start, start + self.group_sizes[i])

    def s_range(self, i):
        t = self.t_range(i)
        return range(t.stop, t.stop + len(t))

    def block(self, rows, cols):
        """The sub-matrix over the given rows and a contiguous column ``range``.

        ``cols`` is a step-1 ``range``, as every accessor here returns;
        each row is read as one slice.
        """
        start, stop = cols.start, cols.stop
        return tuple(self.matrix.rows[r][start:stop] for r in rows)


def _f_scales(divisors, multiplicity):
    """``n / d_i`` per row: the factor of row ``i``'s ``F`` entries."""
    n = divisors.product if multiplicity is None else multiplicity
    if n < 1 or any(n % d for d in divisors.entries):
        raise ValidationError(
            f"root multiplicity {n} is not a positive multiple of every divisor"
        )
    return tuple(n // d for d in divisors.entries)


def build(seed, multiplicity=None):
    """Unfold a seed, whose divisors divide its principal rows.

    ``multiplicity`` is the root multiplicity ``n`` that scales the ``F``
    columns; it defaults to the product of the divisors.
    """
    matrix, divisors = seed.matrix, seed.divisors
    n, m = matrix.n, matrix.m
    sizes = tuple(divisors.entries)
    total = sum(sizes)
    scales = _f_scales(divisors, multiplicity)
    width = 3 * total + m
    rows = []
    for i in range(n):
        base = []
        for j in range(n):
            value = matrix.rows[i][j] // divisors[i]
            base.extend([value] * sizes[j])
        for l in range(m):
            base.append(scales[i] * matrix.rows[i][n + l])
        for _ in range(2 * total):
            base.append(0)
        for c in range(sizes[i]):
            row = list(base)
            t_start = total + m + 2 * sum(sizes[:i])
            row[t_start + c] = 1
            row[t_start + sizes[i] + c] = -1
            rows.append(tuple(row))
    folded = FoldedMatrix(
        matrix=ExtendedExchangeMatrix(total, width - total, tuple(rows)),
        group_sizes=sizes,
        m_original=m,
    )
    return folded


def _independent_members(fm, k):
    """The members of group ``k``; StructureViolation if two interact."""
    members = fm.group_range(k)
    for a in members:
        for b in members:
            if fm.matrix.rows[a][b] != 0:
                raise StructureViolation(
                    f"group {k} members interact at ({a},{b}); group mutation "
                    "is not well-defined"
                )
    return members


def group_mutate(fm, k):
    """Mutate every member of group ``k`` once (the order is immaterial).

    Members that do not interact commute.  The test suite checks the
    result against the closed block formula for whole-group mutation.
    """
    out = fm.matrix
    for c in _independent_members(fm, k):
        out = mutate(out, c)
    return replace(fm, matrix=out)


def hadamard_check(fm, matrix, divisors, multiplicity=None):
    """Check block-constancy against a weighted reference matrix.

    Cluster block ``(i, j)`` must be the constant ``B_ij / d_i``; the
    ``F`` block ``(i, l)`` must be the constant ``(n / d_i) * B_{i,N+l}``,
    with ``n`` the root multiplicity the unfolding was built with (the
    product of the divisors by default).
    ``matrix`` is the reference at the same mutation depth (group
    mutations of the unfolding mirror plain mutations of the reference).
    Returns a report whose failures name the first offending block and
    entry.  A reference or divisor vector whose shape does not match the
    unfolding raises ValidationError.
    """
    if not isinstance(divisors, DivisorVector):
        divisors = DivisorVector(tuple(divisors))
    _check_reference(fm, matrix)
    if len(divisors) != fm.n_groups:
        raise ValidationError(
            f"{len(divisors)} divisors for an unfolding of {fm.n_groups} groups"
        )
    failures = []
    n = matrix.n
    scales = _f_scales(divisors, multiplicity)
    for i in range(n):
        rows_i = fm.group_range(i)
        for j in range(n):
            value, rem = divmod(matrix.rows[i][j], divisors[i])
            if rem:
                failures.append(
                    ("cluster", i, j, "reference entry not divisible by d_i")
                )
                continue
            block = fm.block(rows_i, fm.group_range(j))
            bad = _first_nonconstant(block, value)
            if bad is not None:
                failures.append(("cluster", i, j, bad))
        for l in range(matrix.m):
            value = scales[i] * matrix.rows[i][n + l]
            c = fm.f_column(l)
            block = fm.block(rows_i, range(c, c + 1))
            bad = _first_nonconstant(block, value)
            if bad is not None:
                failures.append(("f", i, l, bad))
    return Report(tuple(failures))


def _check_reference(fm, matrix):
    """ValidationError unless the reference ``matrix`` fits the unfolding.

    It needs one row per group and one frozen column per ``F`` column:
    a smaller reference would leave the rest of the unfolding unchecked.
    """
    if (matrix.n, matrix.m) != (fm.n_groups, fm.m_original):
        raise ValidationError(
            f"reference has {matrix.n} rows and {matrix.m} frozen columns; the "
            f"unfolding has {fm.n_groups} groups and {fm.m_original} F columns"
        )


def _first_nonconstant(block, value):
    for r, row in enumerate(block):
        for c, e in enumerate(row):
            if e != value:
                return f"entry ({r},{c}) = {e}, expected {value}"
    return None


@dataclass(frozen=True)
class DoubleConstantWitness:
    """Constants extracted from the ``T``/``S`` block pairs.

    For each group pair ``(i, j)``: ``T^{ij} + S^{ij} = a[i,j] * ones``;
    off the diagonal ``T^{ij} = c[i,j] * ones``; on the diagonal
    ``T^{ii} = c[i,i] * ones + alpha[i] * Id`` with ``alpha[i]`` in
    ``{+1, -1}``.
    """

    a: dict
    c: dict
    alpha: dict


def _plus_identity(value, shift, height, width):
    """``value J + shift Id`` as row tuples, like :meth:`FoldedMatrix.block`."""
    row = (value,) * width
    if not shift:
        return (row,) * height
    return tuple(row[:r] + (value + shift,) + row[r + 1:] for r in range(height))


def double_constant_check(fm):
    """Extract the double-constant witness, or raise StructureViolation.

    One rule holds for every group pair ``(i, j)``: with ``alpha`` equal
    to ``alpha[i]`` when ``i == j`` and to 0 otherwise, ``T`` must be
    ``c J + alpha Id`` and ``S`` must be ``(a - c) J - alpha Id``, with
    ``a`` and ``c`` read off the first entries.  ``alpha[i]`` is ``T[0][0]
    - T[0][1]`` of the diagonal block, or +1 for a 1 x 1 block, and must
    be +1 or -1.
    """
    a, c, alpha = {}, {}, {}
    for i in range(fm.n_groups):
        rows_i = fm.group_range(i)
        for j in range(fm.n_groups):
            t_block = fm.block(rows_i, fm.t_range(j))
            s_block = fm.block(rows_i, fm.s_range(j))
            shift = 0
            if i == j:
                row = t_block[0]
                shift = alpha[i] = row[0] - row[1] if len(row) > 1 else 1
                if shift not in (1, -1):
                    raise StructureViolation(
                        f"diagonal T block ({i},{i}) identity part is "
                        f"{shift}, expected +1 or -1"
                    )
            a[(i, j)] = a_ij = t_block[0][0] + s_block[0][0]
            c[(i, j)] = c_ij = t_block[0][0] - shift
            shape = len(rows_i), fm.group_sizes[j]
            if t_block != _plus_identity(c_ij, shift, *shape):
                raise StructureViolation(
                    f"T block ({i},{j}) is not a constant plus {shift} Id"
                )
            if s_block != _plus_identity(a_ij - c_ij, -shift, *shape):
                raise StructureViolation(f"T+S block ({i},{j}) is not constant")
    return DoubleConstantWitness(a=a, c=c, alpha=alpha)


def unfolding_conditions_check(fm, matrix):
    """Column sums and sign coherence of the cluster blocks.

    For each cluster block ``(i, j)`` against the reference entry
    ``B_ij``: every column of the block sums to ``B_ij``, and when
    ``B_ij > 0`` every entry of the block is non-negative.  A reference
    whose shape does not match the unfolding raises ValidationError.
    """
    _check_reference(fm, matrix)
    failures = []
    n = matrix.n
    for i in range(n):
        rows_i = fm.group_range(i)
        for j in range(n):
            ref = matrix.rows[i][j]
            block = fm.block(rows_i, fm.group_range(j))
            for col in range(len(block[0])):
                total = sum(block[r][col] for r in range(len(block)))
                if total != ref:
                    failures.append(
                        ("column-sum", i, j, f"column {col} sums to {total}, "
                         f"expected {ref}")
                    )
                    break
            if ref > 0 and any(e < 0 for row in block for e in row):
                failures.append(("sign", i, j, "negative entry under positive reference"))
    return Report(tuple(failures))
