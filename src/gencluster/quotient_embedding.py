"""Realizing a generalized cluster algebra inside an ordinary one.

The construction proceeds in three layers, all verified exactly:

1.  **Folded layout** — the unfolded matrix of a seed is the exchange
    matrix of an ordinary (all-divisors-one) seed over a larger table
    (:func:`folded_table`): one cluster variable per member of each
    group, the original frozen variables renamed to their root symbols,
    and one ``t``/``s`` pair of auxiliary frozen variables per member.
    Group mutation mutates every member once.  The checks read only the
    unfolding's matrix and its :class:`~gencluster.unfolding.FoldedLayout`,
    so no folded seed is built; :class:`QuotientContext` holds the
    folded table beside the root unfolding.

2.  **Quotient** — the auxiliary variables are cut down by the ideal
    identifying each generalized coefficient ``rho_{k,r}`` with the
    balanced sum ``sigma_{k,r}``: over all splittings of group ``k``
    into ``|J| = r`` members contributing ``t`` and the rest
    contributing ``s``, the sum of the products.  The ``r = 0`` and
    ``r = d_k`` generators force the unit relations ``prod_i t_{k,i} =
    prod_i s_{k,i} = 1``, which the unit elimination ``E``
    (:meth:`~gencluster.unfolding.FoldedLayout.eliminate_units`) realizes
    by eliminating the last member's pair.  Both relations read only the
    layout's ``t``/``s`` ranges and the folded table.

3.  **Embedding** — the monomial map ``phi`` sending each cluster
    variable to the product of its group members and each root symbol
    to its same-named folded frozen variable; a coefficient placeholder
    then goes to its eliminated ``sigma`` sum.  The checkers verify, at
    every requested mutation depth, that ``phi`` matches cluster
    monomials, stable monomials, cluster variables, and coefficient
    strings against their folded counterparts (conditions (i)-(iv), the
    cluster variables by induction on mutation), that group products of
    exchange polynomials expand the generalized exchange polynomial (the
    product formula), and that the original frozen variables land on
    ``n``-th powers, ``n`` the root multiplicity (the subquotient
    property).

Coefficient bookkeeping: on the generalized side the string entries are
tracked as opaque placeholder symbols (mutation only permutes them), each
standing for the concrete root-symbol monomial at its slot of the
adjoined seed's strings.  This keeps the ``rho``-content of every coefficient visible,
which no expanded form would (a frozen monomial does not remember which
part of it came from a coefficient), and makes the directed rewrite
placeholder -> sigma sound at every depth.

The product formula and the embedding's exchange identity are
statements about exchange polynomials, so they are checked over *formal*
current-cluster symbols: the current cluster is a transcendence basis,
hence an identity holds for the evaluated elements exactly when it holds
formally.  This keeps the checks exact at depths where the evaluated
cluster entries would be astronomically large; both walks step exchange
data only and build no cluster entry.

Exchange data is read off matrix rows, each role from its column block
of the folded layout ``[cluster groups | F | T^1 S^1 | ...]``
(:class:`~gencluster.unfolding.FoldedLayout`).  ``E`` and ``phi`` are
monomial ring maps applied to monomials only, never to a polynomial:
``E(sum c_v x^v) = sum c_v x^(E v)``.  ``phi`` is a kernel
:class:`~gencluster.laurent_kernel.Substitution` built once per walk
and applied to exponent vectors.  ``E`` is the layout's method, and each
walk builds one kernel :class:`~gencluster.laurent_kernel.ColumnMap` of
it from :meth:`~gencluster.unfolding.FoldedLayout.moved_unit_images`,
which reads the eliminated exchange sides of a row straight into packed
monomials.  Every side the checks eliminate is read through it: the
member rows of the binomial product, the coherent row's exchange block
for the product formula's shells, and the member rows' auxiliary columns
for the ratios of (iv).  So the kernel expands each polynomial here
once: a product of member
binomials, or the balanced sums ``sigma`` of every order at once, is one
binomial expansion (``poly_binomial_product``,
``poly_binomial_levels``); the class of a sum of tracked monomials
(:meth:`QuotientContext.class_of`) and the product formula's right side
are each one shifted sum (``poly_shifted_sum``).
"""

from functools import lru_cache

from .errors import GroupCoherenceViolation, InexactDivision, Report
from .gca_seed import ExchangeContext, mutate_exchange_data
from .laurent_kernel import ColumnMap, LaurentPolynomial, Substitution, VariableTable
from .laurent_kernel import _trusted_monomial, monomial_combination
from .laurent_kernel import poly_binomial_levels, poly_binomial_product, poly_shifted_sum, poly_sub
from .matrix_mutation import sides
from .root_adjoin import fresh_name, root_multiplicity, root_names, tau_tilde
from .unfolding import build, group_mutate


# ---------------------------------------------------------------------------
# The folded table


def folded_table(gca, layout):
    """The table of the unfolding of ``gca`` laid out by ``layout``.

    Its names follow the folded columns: cluster variables ``y1..yT``
    (grouped by original direction), the original frozen variables
    renamed to their roots (:func:`~gencluster.root_adjoin.root_names`),
    then per group the ``t`` members followed by the ``s`` members.
    """
    return VariableTable.make(layout.cluster_names(), layout.frozen_names(root_names(gca.table)))


# ---------------------------------------------------------------------------
# Group exchange data


def _coherent_row(matrix, layout, k):
    """First row of group ``k``, once the members are checked to agree.

    Cluster and frozen columns must be constant down the group's rows
    (:class:`~gencluster.errors.GroupCoherenceViolation` otherwise): the
    members share the exchange monomials ``U`` and ``V``.  Auxiliary
    columns are not constrained here; the double-constant check
    validates their structure.
    """
    rows = [matrix.rows[r] for r in layout.group_range(k)]
    stop = layout.exchange_block.stop  # the block starts at column 0
    if any(row[:stop] != rows[0][:stop] for row in rows):
        col = next(c for c in range(stop) if any(row[c] != rows[0][c] for row in rows))
        column = [row[col] for row in rows]
        raise GroupCoherenceViolation(f"group {k} rows disagree in column {col}: {column}")
    return rows[0]


# ---------------------------------------------------------------------------
# The quotient: sigma sums and classes


@lru_cache(maxsize=64)
def _sigma_levels(table, layout, k):
    """``(E(sigma_{k,0}), ..., E(sigma_{k,d}))`` over the folded ``table`` of ``layout``.

    ``sigma_{k,r} = sum_{|J|=r} prod_{c in J} t_c prod_{c not in J} s_c``
    is the balanced sum identified with the coefficient ``rho_{k,r}``,
    over the ``d`` members of group ``k``.  ``E`` is a monomial ring map,
    so the eliminated sums are the levels of one expansion of the
    eliminated ``(t_c, s_c)`` vector pairs, each rebuilt from its terms
    for an exact bound, as every class shifts it.
    """
    width, eliminate = len(table), layout.eliminate_units
    pairs = [
        [eliminate(tuple(int(p == q) for p in range(width))) for q in pair]
        for pair in zip(layout.t_range(k), layout.s_range(k))
    ]
    return tuple(
        LaurentPolynomial(table, level.terms) for level in poly_binomial_levels(table, pairs)
    )


class QuotientContext:
    """The constants of one embedding walk, built once from the root-adjoined pair.

    ``tracked`` is the root-adjoined generalized seed at depth zero with
    each interior string entry replaced by an opaque placeholder symbol
    ``rho<k>_<r>`` (zero matrix column), built unchecked from the checked
    adjoined seed; sending each placeholder to the adjoined string entry
    ``(k, r)`` gives the concrete seed, and mutation only permutes the
    placeholders.  ``root`` is the root unfolding, ``layout`` its folded
    layout and ``table`` the folded table (:func:`folded_table`).  The
    eliminated ``sigma`` sums are cached per folded table and group
    (:func:`_sigma_levels`).

    ``phi`` is the :class:`~gencluster.laurent_kernel.Substitution` from
    the tracked table to ``folded_plus`` sending cluster variable ``k``
    to the product of the members of group ``k``; every other name, a
    root or a placeholder, is carried to the same name, as both tables
    name their roots with :func:`~gencluster.root_adjoin.root_names`.
    ``E`` is the layout's
    :meth:`~gencluster.unfolding.FoldedLayout.eliminate_units`.  Two
    facts keep the images sound: ``phi`` sends no variable to a ``t`` or
    ``s`` variable, so ``E`` fixes every image; and the tracked matrix's
    placeholder columns are zero (mutation keeps a zero column zero), so
    the exchange monomials carry no placeholder.  :meth:`image`
    and :meth:`class_of` take tracked exponent vectors, and are the one
    route to an image.
    """

    def __init__(self, adjoined):
        seed = adjoined.seed
        self.root = build(adjoined.base, adjoined.multiplicity)
        self.layout = layout = self.root.layout
        self.table = table = folded_table(adjoined.base, layout)
        slots = [(k, r) for k in range(seed.rank) for r in range(1, seed.divisors[k])]
        # A placeholder name a cluster variable holds moves on by ``_R``.
        taken = set(seed.table.names)
        names = tuple(fresh_name(f"rho{k + 1}_{r}", taken) for k, r in slots)
        extra = len(names)
        table_p = seed.table.extended(names)
        width = len(table_p)
        one = _trusted_monomial(table_p, (0,) * width)
        rho = iter([
            _trusted_monomial(table_p, tuple(int(q == i) for q in range(width)))
            for i in range(len(seed.table), width)
        ])
        rows = tuple((one, *[next(rho) for j, _ in slots if j == k], one) for k in range(seed.rank))
        self.tracked = seed._trusted_replace(
            table=table_p,
            cluster=tuple(table_p.variable(n) for n in table_p.names[: seed.rank]),
            matrix=seed.matrix._trusted_replace(
                m=seed.matrix.m + extra, rows=tuple(row + (0,) * extra for row in seed.matrix.rows)
            ),
            strings=seed.strings._trusted_replace(rows=rows),
        )
        self.placeholder_names = names
        self.folded_plus = table.extended(names)
        # ``(k, r)`` of every placeholder, in table order.
        self._slots = slots
        self.phi = Substitution({
            seed.table.names[k]: self.folded_plus.monomial(
                {table.names[c]: 1 for c in layout.group_range(k)}
            )
            for k in range(seed.rank)
        }, table_p, self.folded_plus)

    @staticmethod
    def create(gca, mode="total"):
        return QuotientContext(tau_tilde(gca, mode=mode))

    def image(self, exps):
        """``(phi(x^exps)`` cut to the folded table, ``E(sigma_{k,r})`` or ``None)``.

        ``exps`` is an exponent vector over the tracked table.  ``phi``
        carries the placeholders across by name, so the tail of
        ``phi.vector(exps)`` holds their powers; the class of ``x^exps``
        is the head's monomial times the cached eliminated ``sigma`` of
        its placeholder ``rho<k>_<r>`` (``None`` for no placeholder).
        ``phi`` sends no tracked variable to a ``t`` or ``s`` variable,
        so ``E`` fixes the head.  The checks ask only for vectors with at
        most one placeholder, to the first power (the terms of
        ``theta_k`` and the string entries).  A negative placeholder
        power would divide by a ``sigma`` polynomial, and a product of
        placeholders would multiply ``sigma`` sums; both lie outside the
        verified identities and raise
        :class:`~gencluster.errors.InexactDivision`.
        """
        image, width = self.phi.vector(exps), len(self.table)
        head, powers = image[:width], image[width:]
        if any(e < 0 for e in powers):
            raise InexactDivision(
                "negative placeholder power: identity outside the verified fragment"
            )
        count = sum(powers)
        if count > 1:
            raise InexactDivision("placeholder product: identity outside the verified fragment")
        if not count:
            return head, None
        k, r = self._slots[powers.index(1)]
        return head, _sigma_levels(self.table, self.layout, k)[r]

    def class_of(self, vectors):
        """The class of ``sum_v x^v`` over tracked vectors: the :meth:`image` pairs' shifted sum."""
        return poly_shifted_sum(self.table, map(self.image, vectors))

    def group_image(self, k):
        """``E(prod_c y_c)`` over the members of group ``k``: the class the embedding gives ``x_k``."""
        table, members = self.table, self.layout.group_range(k)
        product = tuple(int(q in members) for q in range(len(table)))
        return table.term(self.layout.eliminate_units(product))


# ---------------------------------------------------------------------------
# Verification: the product formula


def _member_binomial_product(columns, fm, k):
    """``E(prod_c theta_c)`` over the members ``c`` of group ``k`` of ``fm``.

    ``E(theta_c) = x^(E a) + x^(E b)`` for the sides ``a`` and ``b`` of row
    ``c``, so the product is one expansion of the side pairs that the
    column map of ``E`` reads off the rows.
    """
    rows = fm.matrix.rows
    return poly_binomial_product(
        columns.table, (columns.sides(rows[c]) for c in fm.layout.group_range(k))
    )


def product_formula_check(columns, fm, k):
    """Group products of exchange polynomials expand the generalized one.

    Verifies, in the quotient and over formal current-cluster symbols::

        prod_c theta_{k,c}  =  sum_r sigma(rho_{k,r}) * (U> V>)^r * (U< V<)^(d_k - r)

    on the unfolding ``fm``, with ``columns`` the
    :class:`~gencluster.laurent_kernel.ColumnMap` of ``E`` over the folded
    table.  ``d_k`` is the size of group ``k``.  Each coefficient
    contributes through its defining relation: ``rho_{k,r}`` is the
    initial coefficient at slot ``r`` or ``d_k - r`` (mutation reverses
    the row once per mutation of the group, and so negates the group's
    :meth:`~gencluster.unfolding.FoldedMatrix.identity_sign`, which
    decides), and the relation identifies that initial coefficient with
    the balanced sum of the same index.  A group of one member has sign
    +1 whatever its mutations, and needs no other: its ``sigma_{k,0} =
    s`` and ``sigma_{k,1} = t`` both eliminate to 1.  Returns a
    :class:`~gencluster.errors.Report`; on failure it carries
    ``(k, residual)`` with the difference of the two normal forms.

    Both sides are built from monomials that the column map reads off the
    matrix rows, with the unit elimination ``E`` applied.  The left side
    is one kernel expansion of the member binomials
    (:func:`_member_binomial_product`).  The shells ``(U> V>)^r (U<
    V<)^(d_k - r)`` carry no auxiliary variable, so ``E(sigma * shell) =
    E(sigma) * shell``: the right side is one shifted sum of the group's
    cached eliminated ``sigma`` sums (:func:`_sigma_levels`) by the
    shells, each the sum ``r g + (d_k - r) l`` of the coherent row's
    exchange-block sides ``g`` and ``l``.
    """
    layout, table = fm.layout, columns.table
    d_k = len(layout.group_range(k))
    lhs = _member_binomial_product(columns, fm, k)
    g, l = columns.sides(_coherent_row(fm.matrix, layout, k), layout.exchange_block)
    sigma, flip = _sigma_levels(table, layout, k), fm.identity_sign(k) < 0
    rhs = poly_shifted_sum(table, (
        (monomial_combination(r, g, d_k - r, l), sigma[d_k - r if flip else r])
        for r in range(d_k + 1)
    ))
    if lhs != rhs:
        return Report(((k, str(poly_sub(lhs, rhs))),))
    return Report(())


def product_formula_walk(gca, mode="total"):
    """Root, step, check and state key of the product formula.

    The state is the bare unfolding, stepped by
    :func:`~gencluster.unfolding.group_mutate`: the product formula reads
    its exchange data off the matrix rows over formal current-cluster
    symbols, so no cluster entry is built.  The unfolding's ``F``
    columns carry the root multiplicity of ``mode``
    (:func:`~gencluster.root_adjoin.root_multiplicity`).  ``check(fm)``
    returns ``(k, residual)`` for every failing group, over the folded
    table; the column map of ``E`` over it is a walk constant.  The key is
    the folded matrix, all that :func:`product_formula_check` reads, as in
    the ``double-constant`` walk.
    """
    root = build(gca, root_multiplicity(gca, mode))
    columns = ColumnMap(folded_table(gca, root.layout), root.layout.moved_unit_images())

    def check(fm):
        return tuple(
            failure
            for k in range(gca.rank)
            for failure in product_formula_check(columns, fm, k).failures
        )

    return root, group_mutate, check, lambda fm: fm.matrix.rows


# ---------------------------------------------------------------------------
# Verification: the embedding conditions


def embedding_walk(gca, mode="total"):
    """Root, step, check and state key of the embedding conditions.

    At every state the walk checks, for each direction ``k``:

    (i)   images of the cluster-monomial sides ``u>``/``u<`` equal the
          folded group monomials ``U>``/``U<``;
    (ii)  images of the stable monomials ``v>[1]``/``v<[1]`` equal
          ``V>``/``V<``;
    (iii) ``phi(x_k) = E(prod_{c in k} x_c)`` for each cluster variable;
    (iv)  the image of each string entry equals the class of the
          balanced sum of member side-ratios: over splittings
          ``I ∪ J`` of the group with ``|J| = r``, the products of
          ``v_{c<}/V<`` over ``I`` times ``v_{c>}/V>`` over ``J``.

    (iii) holds by induction on mutation, as in the paper, so no cluster
    entry is evaluated.  The base case reads no state; it is checked as
    exponent vectors at every state, like (i) and (ii), so the check
    stays a function of the state and a wrong ``phi`` fails at every
    depth.  The step, checked at every state over formal current-cluster
    symbols as ``(iii) exchange``, is ``phi(theta_k) = E(prod_{c in k}
    theta_c)``, which gives ``phi(x'_k) = phi(theta_k) / phi(x_k) =
    E(prod x'_c)``: ``phi`` and ``E`` are ring maps, and the members of a
    group do not interact (``b_cc' = 0``, checked by
    :func:`~gencluster.unfolding.group_mutate`), so each ``theta_c`` reads
    no other member and ``x'_c = theta_c / x_c``.  Every other cluster
    variable is unchanged.

    The state is ``(tracked, fm)``, stepped by
    :func:`~gencluster.gca_seed.mutate_exchange_data` and
    :func:`~gencluster.unfolding.group_mutate`; the tracked cluster stays
    the table's symbols.  ``check(state)`` is
    :func:`_embedding_conditions_at` against the walk's
    :class:`QuotientContext` and the column map of ``E`` over its folded
    table, both walk constants, with ``(condition, k, r)`` failures (``r``
    a string slot, a member, or ``None``).  The key is the tracked seed's
    content and the folded matrix rows.
    """
    ctx = QuotientContext.create(gca, mode=mode)
    columns = ColumnMap(ctx.table, ctx.layout.moved_unit_images())

    def step(state, k):
        tracked, fm = state
        return mutate_exchange_data(tracked, k), group_mutate(fm, k)

    def check(state):
        return _embedding_conditions_at(ctx, columns, *state)

    def key(state):
        return state[0].content_key(), state[1].matrix.rows

    return (ctx.tracked, ctx.root), step, check, key


def _embedding_conditions_at(ctx, columns, tracked, fm):
    """The failures of conditions (i)-(iv) at the state ``(tracked, fm)`` of ``ctx``'s walk.

    ``columns`` is the :class:`~gencluster.laurent_kernel.ColumnMap` of
    ``E`` over ``ctx.table``.

    (i), (ii) and the base case of (iii) compare exponent vectors of any
    size.  The tracked exchange monomials carry no placeholder and the
    folded group monomials no ``t``/``s`` variable, so neither side needs
    the quotient: the left side is ``phi``'s vector form, and the unit
    elimination ``E`` fixes the right side.  The exchange identity's
    left side is ``theta_k`` over the tracked table's symbols, the class
    of the vectors ``c_r + r u> + (d - r) u<`` of the same
    :class:`~gencluster.gca_seed.ExchangeContext` (``c_r`` its coefficient
    ``r``); its right side is :func:`_member_binomial_product`.  (iv)
    reads the eliminated side ratios of each member row through the column
    map and expands their balanced sums of every order at once (``E`` of
    the sums, as ``E`` is a monomial ring map); its left sides are the
    classes of the string entries' vectors.  A ratio is the member's
    auxiliary sides: the member and coherent rows share their ``F``
    slices, so the ``F`` parts cancel.  A member whose ``F`` slice differs
    fails ``(iv) ratio > keeps frozen content`` once for each ``F`` column
    whose positive part differs (``<``: negative part), and its ratios keep
    the difference of the ``F`` sides.
    """
    failures = []
    layout, phi, table = ctx.layout, ctx.phi, ctx.table
    rows, f = fm.matrix.rows, layout.f_block
    width, size = len(table), len(tracked.table)
    for k in range(tracked.rank):
        gca_ctx = ExchangeContext(tracked, k)
        first = _coherent_row(fm.matrix, layout, k)
        u_gt, u_lt = sides(first, layout.cluster_block)
        v_gt, v_lt = sides(first, f)
        # (i) cluster monomials and (ii) stable monomials.
        for label, exps, side in (
            ("(i) u>", gca_ctx.u_gt, u_gt),
            ("(i) u<", gca_ctx.u_lt, u_lt),
            ("(ii) v>[1]", gca_ctx.v_gt, v_gt),
            ("(ii) v<[1]", gca_ctx.v_lt, v_lt),
        ):
            if phi.vector(exps)[:width] != side:
                failures.append((label, k, None))
        # (iii) cluster variables: the base case, then the exchange identity.
        members = layout.group_range(k)
        image = phi.vector(tuple(int(q == k) for q in range(size)))
        if image != tuple(int(q in members) for q in range(len(image))):
            failures.append(("(iii)", k, None))
        d, gt, lt = gca_ctx.degree, gca_ctx.u_gt, gca_ctx.u_lt
        theta = ctx.class_of(
            [c + r * g + (d - r) * l for c, g, l in zip(coefficient, gt, lt)]
            for r, coefficient in enumerate(gca_ctx.coefficients)
        )
        if theta != _member_binomial_product(columns, fm, k):
            failures.append(("(iii) exchange", k, None))
        # (iv) string entries against balanced side-ratio sums.
        ratios = []
        for c in members:
            row = rows[c]
            if row[f.start:f.stop] == first[f.start:f.stop]:
                ratios.append(columns.sides(row, layout.aux_block))
                continue
            for label, sign in ((">", 1), ("<", -1)):
                failures.extend(
                    (f"(iv) ratio {label} keeps frozen content", k, c)
                    for pos in f
                    if max(sign * row[pos], 0) != max(sign * first[pos], 0)
                )
            ratios.append(tuple(
                monomial_combination(1, side, -1, coherent)
                for side, coherent in zip(columns.sides(row, layout.frozen_block),
                                          columns.sides(first, f))
            ))
        sigmas = poly_binomial_levels(table, ratios)
        for r in range(tracked.divisors[k] + 1):
            lhs = ctx.class_of((tracked.strings.entry(k, r).exponents,))
            if lhs != sigmas[r]:
                failures.append(("(iv)", k, r))
    return failures


# ---------------------------------------------------------------------------
# Verification: the subquotient property


def subquotient_check(gca, mode="total"):
    """The original algebra lands inside the quotient as claimed.

    Each original frozen variable maps through the adjunction to the
    ``n``-th power of its root symbol (``n`` the common multiplicity)
    and then to the same power of the folded frozen variable; each
    cluster variable maps to the class of its group product, an element
    of the subring generated by group products and the folded frozen
    variables.  Verified at depth zero.
    """
    adjoined = tau_tilde(gca, mode=mode)
    ctx = QuotientContext(adjoined)
    failures = []
    n = adjoined.multiplicity
    root_map = adjoined.root_map()
    # A root image is lifted onto the tracked table: no placeholder.
    pad = (0,) * len(ctx.placeholder_names)
    for pos, name in zip(gca.table.frozen_indices, root_names(gca.table)):
        original = gca.table.names[pos]
        image = root_map[original]
        support = [(adjoined.seed.table.names[q], e) for q, e in enumerate(image.exponents) if e]
        if len(support) != 1 or support[0][0] != name:
            failures.append(("root image", original, str(image)))
            continue
        exponent = support[0][1]
        if exponent != n:
            failures.append(("root exponent", original, exponent))
        target = ctx.table.monomial({name: exponent}).exponents
        lifted = ctx.class_of((image.exponents + pad,))
        if lifted != ctx.table.term(ctx.layout.eliminate_units(target)):
            failures.append(("frozen image", original, str(lifted)))
    size = len(ctx.tracked.table)
    for k in range(gca.rank):
        image = ctx.class_of((tuple(int(q == k) for q in range(size)),))
        if image != ctx.group_image(k):
            failures.append(("cluster image", k, str(image)))
    return Report(tuple(failures))
