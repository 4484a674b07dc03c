"""Node-weighted quivers, weighted mutation, and folding checks.

This is the weighted-quiver oracle of the test suite: an independent
route for matrix mutation and group mutation, checked against
:mod:`gencluster.matrix_mutation` and :mod:`gencluster.unfolding` in
``tests/test_quiver.py``.  It also holds the divisor-weighted matrix
rule :func:`weighted_matrix_mutation`, the oracle for the scaled matrix
of a mutated seed.  No command uses it.

A quiver here is a finite set of named vertices, each mutable (with a
positive integer weight) or frozen, together with a signed arrow-count
matrix: entry ``(i, j)`` is the number of arrows ``i -> j`` minus the
number of arrows ``j -> i``, so the matrix is antisymmetric and free of
2-cycles by construction.  Arrows between frozen vertices are not
allowed.

Quivers with skew-symmetric exchange data correspond to divisor-scaled
exchange matrices: positive entry ``(i, j)`` means that many arrows
``i -> j``.  :func:`from_matrix` and :func:`to_matrix` implement the
bijection, and :func:`weighted_mutation` implements mutation directly on
arrows:

1. reverse every arrow at the mutated vertex ``k``;
2. for every path ``i -> k -> j``, add arrows ``i -> j``: ``w_k`` per
   path when ``i`` and ``j`` are both mutable, and the weight of the
   single mutable endpoint when the other one is frozen;
3. cancel opposite arrow pairs (automatic in the signed-count encoding).

Foldings: a partition of the vertices is a valid folding when (1) no
arrow joins two vertices of the same class, and (2) after every single
group mutation (mutating each vertex of one mutable class in turn),
condition (1) still holds.
"""

from dataclasses import dataclass

from gencluster.errors import GenClusterError, ParseError, ValidationError
from gencluster.matrix_mutation import DivisorVector, ExtendedExchangeMatrix


class NotSkewSymmetric(GenClusterError):
    """A quiver construction needs a skew-symmetric principal part."""


class FrozenVertexMutation(GenClusterError):
    """A mutation was requested at a frozen vertex."""


class FoldingViolation(GenClusterError):
    """A partition fails the folding conditions.

    Attributes
    ----------
    class_index : int
        Index of the offending class.
    edge : tuple or None
        Pair of vertex indices carrying an intra-class arrow, when that
        is what failed.
    """

    def __init__(self, message, class_index=None, edge=None):
        super().__init__(message)
        self.class_index = class_index
        self.edge = edge


@dataclass(frozen=True)
class NodeWeightedQuiver:
    """Vertices with mutability flags and weights, plus signed arrow counts."""

    names: tuple
    mutable: tuple
    weights: tuple
    arrows: tuple

    def __post_init__(self):
        v = len(self.names)
        if len(set(self.names)) != v:
            raise ValidationError("duplicate vertex names")
        if len(self.mutable) != v or len(self.weights) != v or len(self.arrows) != v:
            raise ValidationError("field lengths disagree")
        for flag, w in zip(self.mutable, self.weights):
            if flag and not (isinstance(w, int) and w >= 1):
                raise ValidationError("mutable vertices need a positive weight")
            if not flag and w is not None:
                raise ValidationError("frozen vertices carry no weight")
        for i in range(v):
            if len(self.arrows[i]) != v:
                raise ValidationError("arrow matrix is not square")
            for j in range(v):
                if self.arrows[i][j] != -self.arrows[j][i]:
                    raise ValidationError("arrow counts must be antisymmetric")
                if (
                    self.arrows[i][j]
                    and not self.mutable[i]
                    and not self.mutable[j]
                ):
                    raise ValidationError("arrows between frozen vertices")

    def vertex(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"no vertex named {name!r}") from None

    def arrow_count(self, i, j):
        """Signed arrow count from ``i`` to ``j`` (positive = i to j)."""
        return self.arrows[i][j]


@dataclass(frozen=True)
class FoldingPartition:
    """Disjoint classes of vertex indices covering the whole quiver."""

    classes: tuple

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            if not cls:
                raise ValidationError("empty partition class")
            for i in cls:
                if i in seen:
                    raise ValidationError(f"vertex {i} appears in two classes")
                seen.add(i)

    def check_covers(self, quiver):
        covered = {i for cls in self.classes for i in cls}
        if covered != set(range(len(quiver.names))):
            raise ValidationError("partition does not cover the vertex set")
        for idx, cls in enumerate(self.classes):
            flags = {quiver.mutable[i] for i in cls}
            if len(flags) != 1:
                raise ValidationError(
                    f"class {idx} mixes mutable and frozen vertices"
                )


@dataclass(frozen=True)
class FoldingWitness:
    """Successful folding check: which group mutations were exercised."""

    class_count: int
    mutated_classes: tuple


def from_matrix(matrix, weights, names=None, frozen_names=None):
    """Quiver of a skew-symmetric divisor-scaled exchange matrix.

    The principal part must be skew-symmetric (arrows cannot encode a
    merely skew-symmetrizable matrix); ``weights`` become the node
    weights of the mutable vertices.
    """
    if not isinstance(weights, DivisorVector):
        weights = DivisorVector(tuple(weights))
    n, m = matrix.n, matrix.m
    if len(weights) != n:
        raise ValidationError("weight count does not match the matrix")
    for i in range(n):
        for j in range(n):
            if matrix.rows[i][j] != -matrix.rows[j][i]:
                raise NotSkewSymmetric(
                    f"principal entries ({i},{j})/({j},{i}) are not opposite"
                )
    names = tuple(names) if names is not None else tuple(f"v{i + 1}" for i in range(n))
    frozen_names = (
        tuple(frozen_names)
        if frozen_names is not None
        else tuple(f"f{j + 1}" for j in range(m))
    )
    if len(names) != n or len(frozen_names) != m:
        raise ValidationError("name counts do not match the matrix")
    total = n + m
    arrows = [[0] * total for _ in range(total)]
    for i in range(n):
        for j in range(total):
            arrows[i][j] = matrix.rows[i][j]
            arrows[j][i] = -matrix.rows[i][j]
    for i in range(n):
        arrows[i][i] = 0
    return NodeWeightedQuiver(
        names + frozen_names,
        (True,) * n + (False,) * m,
        tuple(weights.entries) + (None,) * m,
        tuple(tuple(row) for row in arrows),
    )


def to_matrix(quiver):
    """Inverse of :func:`from_matrix`: (matrix, weights) of a quiver.

    Rows are the mutable vertices in order; columns are the mutable
    vertices in order followed by the frozen ones in order.
    """
    mutable_idx = [i for i, f in enumerate(quiver.mutable) if f]
    frozen_idx = [i for i, f in enumerate(quiver.mutable) if not f]
    order = mutable_idx + frozen_idx
    rows = tuple(
        tuple(quiver.arrows[i][j] for j in order) for i in mutable_idx
    )
    matrix = ExtendedExchangeMatrix(len(mutable_idx), len(frozen_idx), rows)
    weights = DivisorVector(tuple(quiver.weights[i] for i in mutable_idx))
    return matrix, weights


def weighted_matrix_mutation(matrix, divisors, k):
    """Divisor-weighted mutation of an exchange matrix in direction ``k``.

    Entry by entry: the update ``(|b_ik| b_kj + b_ik |b_kj|) / 2`` of
    entry ``(i, j)`` off row and column ``k`` is scaled by ``d_k`` when
    the column is mutable and by ``d_i`` (the row divisor) when it is
    slack.  The rule commutes with scaling: ``modify(mutate(B, k), d) ==
    weighted_matrix_mutation(modify(B, d), d, k)``.  No row-divisibility
    is required of the input: with ``C`` the input with principal row
    ``i`` times ``d_i`` (slack columns kept), the result is ``mutate(C,
    k)`` with principal row ``i`` divided by ``d_i``.  It is
    skew-symmetrizable again and is built through the validating
    constructor.
    """
    matrix.check_direction(k)
    if not isinstance(divisors, DivisorVector):
        divisors = DivisorVector(tuple(divisors))
    if len(divisors) != matrix.n:
        raise ValidationError("divisor count does not match the matrix")
    pivot = matrix.rows[k]
    rows = []
    for i, row in enumerate(matrix.rows):
        new_row = []
        for j, e in enumerate(row):
            if i == k or j == k:
                new_row.append(-e)
                continue
            bump = (abs(row[k]) * pivot[j] + row[k] * abs(pivot[j])) // 2
            scale = divisors[k] if j < matrix.n else divisors[i]
            new_row.append(e + scale * bump)
        rows.append(tuple(new_row))
    return ExtendedExchangeMatrix(matrix.n, matrix.m, tuple(rows))


def weighted_mutation(quiver, k):
    """Weighted quiver mutation at vertex index ``k``."""
    if isinstance(k, str):
        k = quiver.vertex(k)
    if not 0 <= k < len(quiver.names):
        raise ValidationError(f"no vertex index {k}")
    if not quiver.mutable[k]:
        raise FrozenVertexMutation(f"vertex {quiver.names[k]!r} is frozen")
    v = len(quiver.names)
    arrows = [list(row) for row in quiver.arrows]
    new = [row[:] for row in arrows]
    for i in range(v):
        if i == k:
            continue
        for j in range(v):
            if j == k or (not quiver.mutable[i] and not quiver.mutable[j]):
                continue
            a_ik = arrows[i][k]
            a_kj = arrows[k][j]
            bump = (abs(a_ik) * a_kj + a_ik * abs(a_kj)) // 2
            if not bump:
                continue
            if quiver.mutable[i] and quiver.mutable[j]:
                scale = quiver.weights[k]
            elif quiver.mutable[i]:
                scale = quiver.weights[i]
            else:
                scale = quiver.weights[j]
            new[i][j] += scale * bump
    for i in range(v):
        new[i][k] = -new[i][k]
        new[k][i] = -new[k][i]
    return NodeWeightedQuiver(
        quiver.names,
        quiver.mutable,
        quiver.weights,
        tuple(tuple(row) for row in new),
    )


def _intra_class_arrow(quiver, cls):
    for i in cls:
        for j in cls:
            if quiver.arrows[i][j]:
                return (i, j)
    return None


def group_mutation_quiver(quiver, partition, class_index):
    """Mutate every vertex of one partition class, in sequence.

    The class must be mutable and arrow-free inside (so the order does
    not matter, which the tests assert separately).
    """
    partition.check_covers(quiver)
    cls = partition.classes[class_index]
    for i in cls:
        if not quiver.mutable[i]:
            raise FrozenVertexMutation(
                f"class {class_index} contains frozen vertex {quiver.names[i]!r}"
            )
    edge = _intra_class_arrow(quiver, cls)
    if edge is not None:
        raise FoldingViolation(
            f"class {class_index} has an internal arrow {edge}",
            class_index=class_index,
            edge=edge,
        )
    out = quiver
    for i in cls:
        out = weighted_mutation(out, i)
    return out


def check_folding(quiver, partition):
    """Check the two folding conditions for ``partition`` on ``quiver``.

    Condition (1): no arrows inside any class.  Condition (2): after
    each single group mutation at a mutable class, condition (1) still
    holds.  Returns a :class:`FoldingWitness` on success and raises
    :class:`~gencluster.errors.FoldingViolation` (carrying the violating
    class index and edge) otherwise.
    """
    partition.check_covers(quiver)
    for idx, cls in enumerate(partition.classes):
        edge = _intra_class_arrow(quiver, cls)
        if edge is not None:
            raise FoldingViolation(
                f"class {idx} has an internal arrow {edge}",
                class_index=idx,
                edge=edge,
            )
    mutated = []
    for idx, cls in enumerate(partition.classes):
        if not quiver.mutable[cls[0]]:
            continue
        image = group_mutation_quiver(quiver, partition, idx)
        mutated.append(idx)
        for jdx, other in enumerate(partition.classes):
            edge = _intra_class_arrow(image, other)
            if edge is not None:
                raise FoldingViolation(
                    f"group mutation at class {idx} creates an internal "
                    f"arrow {edge} in class {jdx}",
                    class_index=jdx,
                    edge=edge,
                )
    return FoldingWitness(len(partition.classes), tuple(mutated))


def write_quiver(quiver):
    """Canonical text form: vertex lines, then arrow lines."""
    lines = ["quiver v1"]
    for name, flag, w in zip(quiver.names, quiver.mutable, quiver.weights):
        if flag:
            lines.append(f"vertex {name} mutable weight {w}")
        else:
            lines.append(f"vertex {name} frozen")
    for i, name in enumerate(quiver.names):
        for j, other in enumerate(quiver.names):
            count = quiver.arrows[i][j]
            if count > 0:
                lines.append(f"arrow {name} -> {other} : {count}")
    return "\n".join(lines) + "\n"


def parse_quiver(text):
    """Parse the canonical text form produced by :func:`write_quiver`."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "quiver v1":
        raise ParseError("missing 'quiver v1' header")
    names, mutable, weights = [], [], []
    arrow_specs = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "vertex":
            if len(parts) == 5 and parts[2] == "mutable" and parts[3] == "weight":
                try:
                    w = int(parts[4])
                except ValueError as exc:
                    raise ParseError(f"bad weight in {ln!r}") from exc
                names.append(parts[1])
                mutable.append(True)
                weights.append(w)
            elif len(parts) == 3 and parts[2] == "frozen":
                names.append(parts[1])
                mutable.append(False)
                weights.append(None)
            else:
                raise ParseError(f"bad vertex line {ln!r}")
        elif parts[0] == "arrow":
            if len(parts) != 6 or parts[2] != "->" or parts[4] != ":":
                raise ParseError(f"bad arrow line {ln!r}")
            try:
                count = int(parts[5])
            except ValueError as exc:
                raise ParseError(f"bad arrow count in {ln!r}") from exc
            if count <= 0:
                raise ParseError("arrow counts must be positive")
            arrow_specs.append((parts[1], parts[3], count))
        else:
            raise ParseError(f"unrecognized line {ln!r}")
    index = {n: i for i, n in enumerate(names)}
    v = len(names)
    arrows = [[0] * v for _ in range(v)]
    for src, dst, count in arrow_specs:
        if src not in index or dst not in index:
            raise ParseError(f"arrow references unknown vertex: {src} -> {dst}")
        i, j = index[src], index[dst]
        arrows[i][j] += count
        arrows[j][i] -= count
    return NodeWeightedQuiver(
        tuple(names),
        tuple(mutable),
        tuple(weights),
        tuple(tuple(row) for row in arrows),
    )
