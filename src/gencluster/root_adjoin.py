"""Adjoining roots of frozen variables to remove floors from exchange data.

``tau_tilde(seed, mode)`` adjoins an ``n``-th root of every frozen
variable, with one common multiplicity ``n`` (the product of the
divisors by default, their least common multiple optionally): each
``f_j`` is renamed to a fresh symbol ``g_j`` (:func:`root_names`) with
``f_j = g_j^n``, every frozen column is multiplied by ``n``, cluster
entries are transported by the substitution ``f_j -> g_j^n``, and every
string entry picks up a correction power of each ``g_j`` — the defect
``n*floor(r*b/d_k) - floor(n*r*b/d_k)`` (with ``b`` the pre-adjunction
scaled entry of column ``j`` in row ``k``) that makes the transported
exchange relations match term by term.  The :func:`transport_check`
verifier asserts exactly that on a base seed and its adjoined seed,
mutated along any one sequence.

The result is *floor-free*: every scaled entry of a frozen column is
divisible by the row divisor, so each exchange polynomial becomes
homogeneous in the sense checked by :func:`homogeneity_check`: it
collapses to a polynomial in a single carrier monomial (the
tau-variable) with monomial coefficients — the generalized coefficient
table returned by :func:`rho`.
"""

from math import lcm
from operator import add, sub

from .errors import FrozenValue, HomogeneityFailure, Report, ValidationError
from .gca_seed import (
    CoefficientStrings,
    ExchangeContext,
    GeneralizedSeed,
    _cluster_power,
    floor_defect,
)
from .laurent_kernel import (
    LaurentPolynomial,
    Substitution,
    VariableTable,
    _trusted_monomial,
)


class AdjoinedSeed(FrozenValue):
    """A seed with a root of every frozen variable adjoined.

    ``base`` is the original seed, ``seed`` the adjoined one, and
    ``multiplicity`` the common multiplicity ``n`` of every root:
    each base frozen variable ``f_j`` is ``g_j^n``.  Both seeds mutated
    along one sequence form a pair too (see :func:`transport_check`).
    """

    base: GeneralizedSeed
    seed: GeneralizedSeed
    multiplicity: int

    def root_map(self):
        """``{base_frozen_name: g^n}``, each root power over the current table.

        Roots are named in place, so a frozen variable's root sits at
        its position.
        """
        return _root_powers(self.base.table, self.seed.table, self.multiplicity)


def _root_powers(base, table, n):
    """``{name: g^n}`` over ``table`` for each frozen name of ``base``.

    ``g`` is the variable of ``table`` at the name's position.
    """
    width = len(table)
    images = {}
    for pos in base.frozen_indices:
        exps = [0] * width
        exps[pos] = n
        images[base.names[pos]] = _trusted_monomial(table, tuple(exps))
    return images


def root_names(table):
    """Names of the roots of the frozen variables of ``table``, in table order.

    A root takes its variable's name in upper case, extended by ``_R``
    while it equals that name or a name in use; each variable's name
    frees up once its root is named.  Root adjunction and the folded
    table both name their roots here, so the embedding map is the
    identity on them.
    """
    taken = set(table.names)
    names = []
    for pos in table.frozen_indices:
        original = table.names[pos]
        names.append(fresh_name(original.upper(), taken))
        taken.discard(original)
    return tuple(names)


def fresh_name(name, taken):
    """``name`` extended by ``_R`` while it is in ``taken``; the result joins ``taken``."""
    while name in taken:
        name += "_R"
    taken.add(name)
    return name


def root_multiplicity(seed, mode):
    """The common multiplicity :func:`tau_tilde` adjoins in ``mode``.

    ``mode="total"`` is the product of the divisors, ``mode="lcm"``
    their least common multiple (the smallest multiplicity that removes
    every floor).
    """
    if mode == "total":
        return seed.divisors.product
    if mode == "lcm":
        return lcm(*seed.divisors.entries)
    raise ValidationError(f"unknown mode {mode!r} (use 'total' or 'lcm')")


def tau_tilde(seed, mode="total"):
    """Adjoin an ``n``-th root of every frozen variable, as the module describes.

    ``n`` is :func:`root_multiplicity` of ``mode``.  Each column's floor
    defect reads only its own entry, so one pass equals adjoining the
    roots one column at a time, in any order.

    The seed and its matrix skip their constructors' checks (see
    :meth:`~gencluster.errors.FrozenValue._trusted_replace`), and so do
    the root powers and string entries, built from ints unchecked; the
    table is validated and shared (:meth:`~gencluster.laurent_kernel.VariableTable.make`).
    The input passed those checks, and adjoining keeps each of them:
    only frozen columns are scaled, so the principal part and the
    divisors' compatibility are the input's; the cluster entries and
    strings are mapped to the new table of the same cluster count; a
    string entry gains frozen exponents only, so it stays cluster-free;
    and both ends of a row stay 1, since ``floor_defect(n, 0, b, d) =
    floor_defect(n, d, b, d) = 0``.
    """
    if isinstance(seed, AdjoinedSeed):
        raise ValidationError("tau_tilde starts from an unadjoined seed")
    n = root_multiplicity(seed, mode)
    table = seed.table
    frozen = table.frozen_indices
    names = list(table.names)
    for pos, name in zip(frozen, root_names(table)):
        names[pos] = name
    new_table = VariableTable.make(names[: table.n_cluster], names[table.n_cluster:])

    scaled = set(frozen)
    new_rows = tuple(
        tuple(e * n if col in scaled else e for col, e in enumerate(row))
        for row in seed.matrix.rows
    )
    # Only frozen columns are scaled: the principal part is the input's.
    new_matrix = seed.matrix._trusted_replace(rows=new_rows)

    phi = Substitution(_root_powers(table, new_table, n), table, new_table)
    new_cluster = tuple(map(phi, seed.cluster))

    new_string_rows = []
    for k in range(seed.rank):
        d_k = seed.divisors[k]
        row_k = seed.scaled_row(k)
        row = []
        for r, p in enumerate(seed.strings.row(k)):
            # The image of ``p`` under ``f_j -> g_j^n``, times the corrections ``g_j^defect``.
            image = list(p.exponents)
            for pos in frozen:
                image[pos] = image[pos] * n + floor_defect(n, r, row_k[pos], d_k)
            row.append(_trusted_monomial(new_table, tuple(image)))
        new_string_rows.append(tuple(row))

    new_seed = seed._trusted_replace(
        table=new_table,
        cluster=new_cluster,
        matrix=new_matrix,
        strings=CoefficientStrings(tuple(new_string_rows)),
    )
    return AdjoinedSeed(base=seed, seed=new_seed, multiplicity=n)


def transport_check(adjoined):
    """Verify that adjoining commutes with mutation, on one adjoined pair.

    ``adjoined.base`` and ``adjoined.seed`` are a seed and its adjoined
    seed, both mutated along the same sequence (the caller mutates them,
    for instance with :func:`~gencluster.gca_seed.mutate_seed_sequence`).
    With ``phi`` the substitution sending each base frozen variable to
    its root power, three families of identities are checked:

    (i)   ``phi`` of each cluster-monomial product ``u>``/``u<`` equals
          its counterpart;
    (ii)  ``phi(p_{k,r} * v>[r] * v<[d-r])`` equals the counterpart
          coefficient monomial, for every ``k`` and ``r``;
    (iii) ``phi`` of each cluster entry equals the counterpart entry.

    (ii) compares exponent vectors: ``phi``'s vector form of each
    coefficient with the counterpart's.  Returns a :class:`~gencluster.errors.Report` listing failures as
    ``(condition, k, r)`` triples (``r`` is ``None`` outside (ii)).
    """
    t, t_bar = adjoined.base, adjoined.seed
    target = t_bar.table
    phi = Substitution(adjoined.root_map(), t.table, target)
    failures = []
    for k in range(t.rank):
        ctx = ExchangeContext(t, k)
        ctx_bar = ExchangeContext(t_bar, k)
        for label, exps, exps_bar in (
            ("u>", ctx.u_gt, ctx_bar.u_gt),
            ("u<", ctx.u_lt, ctx_bar.u_lt),
        ):
            # An absent cluster power (see _cluster_power) is 1.
            lhs = phi(_cluster_power(t, exps) or LaurentPolynomial.one(t.table))
            rhs = _cluster_power(t_bar, exps_bar) or LaurentPolynomial.one(target)
            if lhs != rhs:
                failures.append((f"(i) {label}", k, None))
        for r, exps in enumerate(ctx.coefficients):
            if phi.vector(exps) != ctx_bar.coefficients[r]:
                failures.append(("(ii)", k, r))
        if phi(t.cluster[k]) != t_bar.cluster[k]:
            failures.append(("(iii)", k, None))
    return Report(tuple(failures))


def rho(seed):
    """The generalized coefficient table of a seed, one row per direction.

    ``rho_{k,r} = p_{k,r} * v>[r] * v<[d-r] * v>[1]^(-r) * v<[1]^(r-d)``.
    On floor-free seeds ``v>[r] = v>[1]^r`` and ``v<[r] = v<[1]^r``, so
    ``rho`` is the string table itself; on other seeds
    :func:`homogeneity_check` raises
    :class:`~gencluster.errors.HomogeneityFailure`.
    """
    for k in range(seed.rank):
        homogeneity_check(seed, k)
    return seed.strings.rows


def _unbalanced_column(ctx):
    """First frozen position whose scaled entry ``d_k`` does not divide, or ``None``."""
    row = ctx.bhat_row
    frozen = range(ctx.seed.rank, len(row))
    return next((j for j in frozen if row[j] % ctx.degree), None)


def homogeneity_check(seed, k):
    """Check that ``theta_k`` is a polynomial in one carrier monomial.

    Requires every frozen entry of scaled row ``k`` to be divisible by
    ``d_k``; otherwise raises
    :class:`~gencluster.errors.HomogeneityFailure` naming the offending
    frozen column and the ``r = 1`` coefficient.  On such a row
    ``v>[r] = v>[1]^r`` and ``v<[r] = v<[1]^r``, so ``rho_{k,r}`` is the
    string entry ``p_{k,r}`` and::

        theta_k = sum_r p_{k,r} * (u> * v>[1])^r * (u< * v<[1])^(d-r)

    holds term by term.  Returns the carrier ``tau_k``; the ``rho_{k,r}``
    are string row ``k`` (see :func:`rho`).  ``tests/test_root_adjoin.py``
    derives ``rho`` from the boxes and rebuilds ``theta_k`` from it as
    oracles.
    """
    ctx = ExchangeContext(seed, k)
    j = _unbalanced_column(ctx)
    if j is not None:
        b = ctx.bhat_row[j]
        name = seed.table.names[j]
        # The r = 1 coefficient carries a genuine floor defect.
        term = _trusted_monomial(seed.table, ctx.coefficients[1])
        raise HomogeneityFailure(
            f"scaled entry {b} of frozen column {name!r} is not divisible "
            f"by {ctx.degree}; coefficient {term} cannot be balanced"
        )
    return _tau_variable(ctx, floor_free=True)


def tau_variable(seed, k):
    """The carrier monomial of direction ``k``.

    On a floor-free direction this is ``u> * v>[1] / (u< * v<[1])``; in
    general the stable parts cannot be split evenly across the degree
    and the carrier is the bare cluster ratio ``u> / u<``.  Cluster
    exponents refer to the current cluster entries.
    """
    ctx = ExchangeContext(seed, k)
    return _tau_variable(ctx, _unbalanced_column(ctx) is None)


def _tau_variable(ctx, floor_free):
    """:func:`tau_variable` of an already built context."""
    exps = map(sub, ctx.u_gt, ctx.u_lt)
    if floor_free:
        exps = map(add, exps, map(sub, ctx.v_gt, ctx.v_lt))
    return _trusted_monomial(ctx.seed.table, tuple(exps))
