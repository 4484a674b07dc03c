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
    prod_i s_{k,i} = 1``, which the unit elimination ``E`` realizes by
    eliminating the last member's pair.  Both relations read only the
    layout's ``t``/``s`` ranges and the folded table, and one function
    owns them: :func:`quotient_relations` builds ``E`` and its ``sigma``
    levels together, once per folded table and layout.

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
``E(sum c_v x^v) = sum c_v x^(E v)``.  Each is a kernel
:class:`~gencluster.laurent_kernel.Substitution`, the one monomial map,
which offers ``vector``, ``sub(p)`` and ``sides``.  ``phi`` is built once
per walk and applied to exponent vectors, or read as packed sides over
the folded table.  ``E`` is written once, in :func:`quotient_relations`,
and each walk looks it up once; its ``sides`` reads the eliminated
exchange sides of a row straight into packed monomials.  Every side the
checks eliminate is read through it: the coherent row's exchange block,
for the product formula's shells and for the member binomials, and the
member rows' auxiliary columns, for the member binomials and the ratios
of (iv).  So the kernel expands each polynomial here once: a product of
member binomials, or the balanced sums ``sigma`` of every order at
once, is one binomial expansion (``poly_binomial_product``,
``poly_binomial_levels``); the class of a sum of tracked monomials
(:meth:`QuotientContext.class_of`), ``theta_k``'s class and the product
formula's right side are each one shifted sum (``poly_shifted_sum``),
the last two with their shells common to every term.  What a walk reads
of ``phi`` and ``sigma`` without reading its state (the string entries'
classes and the base case of (iii)) its :class:`QuotientContext` keeps
once it has been read.
"""

from functools import lru_cache

from .errors import GroupCoherenceViolation, InexactDivision, Report
from .gca_seed import ExchangeContext, mutate_exchange_data
from .laurent_kernel import LaurentPolynomial, Substitution, VariableTable
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
def quotient_relations(table, layout):
    """``(elimination, sigma)``: the quotient's relations over the folded ``table`` of ``layout``.

    ``elimination`` is the unit elimination ``E``, realizing ``prod t =
    prod s = 1`` per group, as a kernel map of ``table`` into itself: each
    group's last ``t`` (``s``) goes to the inverse product of the group's
    other ``t`` (``s``) variables, so a group of one member has its pair
    erased, and every other variable is fixed.  ``sigma[k]`` is
    ``(E(sigma_{k,0}), ..., E(sigma_{k,d}))``, where ``sigma_{k,r} =
    sum_{|J|=r} prod_{c in J} t_c prod_{c not in J} s_c`` is the balanced
    sum identified with the coefficient ``rho_{k,r}``, over the ``d``
    members of group ``k``.  ``E`` is a monomial ring map, so the
    eliminated sums are the levels of one expansion of the eliminated
    ``(t_c, s_c)`` vector pairs, each rebuilt from its terms for an exact
    bound, as every class shifts it.  Both are process constants: walks
    over equal seeds share their tables, so one lookup per walk finds them.
    """
    width = len(table)
    elimination = Substitution({
        table.names[block[-1]]: _trusted_monomial(
            table, tuple(-int(q in block[:-1]) for q in range(width))
        )
        for pair in layout.aux for block in pair
    }, table, table)

    def unit(c):
        return elimination.vector(tuple(int(q == c) for q in range(width)))

    sigma = tuple(
        tuple(LaurentPolynomial(table, level.terms) for level in poly_binomial_levels(
            table, [(unit(t), unit(s)) for t, s in zip(*pair)]
        ))
        for pair in layout.aux
    )
    return elimination, sigma


class QuotientContext:
    """The constants of one embedding walk, built once from the root-adjoined pair.

    ``tracked`` is the root-adjoined generalized seed at depth zero with
    each interior string entry replaced by an opaque placeholder symbol
    ``rho<k>_<r>`` (zero matrix column), built unchecked from the checked
    adjoined seed; sending each placeholder to the adjoined string entry
    ``(k, r)`` gives the concrete seed, and mutation only permutes the
    placeholders.  ``root`` is the root unfolding, ``layout`` its folded
    layout and ``table`` the folded table (:func:`folded_table`).
    ``elimination`` (the map of ``E``) and ``sigma`` (the eliminated
    ``sigma`` levels of each group) are the quotient's relations over that
    table, from one :func:`quotient_relations` lookup.

    ``phi`` is the :class:`~gencluster.laurent_kernel.Substitution` from
    the tracked table to ``folded_plus`` sending cluster variable ``k``
    to the product of the members of group ``k``; every other name, a
    root or a placeholder, is carried to the same name, as both tables
    name their roots with :func:`~gencluster.root_adjoin.root_names`.
    Two facts keep the images sound: ``phi`` sends no variable to a
    ``t`` or ``s`` variable, so ``E`` fixes every image; and the tracked
    matrix's placeholder columns are zero (mutation keeps a zero column
    zero), so the exchange monomials carry no placeholder.  :meth:`image`
    and :meth:`class_of` take tracked exponent vectors, and are the one
    route to an image.

    The walk's constants that read no state are kept in two tables,
    filled from ``phi`` and ``sigma`` when first read, so that a ``phi``
    replaced after construction reaches them: :meth:`string_class` (the
    class of each string entry) and :meth:`base_case` (each direction's
    base case of (iii)).  :meth:`exchange_class` builds ``theta_k``'s
    class from packed sides of ``phi``.  The tables live on the walk's
    context only, and go with it.
    """

    def __init__(self, adjoined):
        seed = adjoined.seed
        self.root = build(adjoined.base, adjoined.multiplicity)
        self.layout = layout = self.root.layout
        self.table = table = folded_table(adjoined.base, layout)
        self.elimination, self.sigma = quotient_relations(table, layout)
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
        # The walk's constants read off ``phi`` and ``sigma``, filled on first use.
        self._strings, self._base_cases = {}, {}

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
        return head, self.sigma[k][r]

    def class_of(self, vectors):
        """The class of ``sum_v x^v`` over tracked vectors: the :meth:`image` pairs' shifted sum."""
        return poly_shifted_sum(self.table, map(self.image, vectors))

    def string_class(self, exps):
        """``(class, level)`` of a tracked string-entry vector ``exps``, kept per walk.

        ``class`` is the class of ``x^exps`` (:meth:`class_of`) and
        ``level`` the ``sigma`` level of its placeholder, or ``None`` (the
        second member of :meth:`image`).  A walk only reverses string rows,
        so it meets each row's entries in two orders and no new vector:
        each is mapped once, on first use.
        """
        found = self._strings.get(exps)
        if found is None:
            head, level = self.image(exps)
            found = self._strings[exps] = (poly_shifted_sum(self.table, ((head, level),)), level)
        return found

    def base_case(self, k):
        """Whether ``phi(x_k)`` is the product of group ``k``'s members, kept per walk.

        It is the base case of (iii): the image of the tracked unit vector
        of ``x_k`` against the members' indicator over ``folded_plus``.
        It reads no state, so it is worked out once, on first use.
        """
        holds = self._base_cases.get(k)
        if holds is None:
            members, size = self.layout.group_range(k), len(self.tracked.table)
            image = self.phi.vector(tuple(int(q == k) for q in range(size)))
            holds = image == tuple(int(q in members) for q in range(len(image)))
            self._base_cases[k] = holds
        return holds

    def exchange_class(self, exchange, row):
        """The class of ``theta_k`` for the :class:`~gencluster.gca_seed.ExchangeContext` ``exchange``.

        ``row`` is the tracked string row ``k``.  ``theta_k`` sums the
        tracked monomials ``c_r + r u> + (d - r) u<``, with ``c_r`` the
        coefficient ``r``, and ``phi`` is linear: ``phi(u>)`` and
        ``phi(u<)`` are read once, as the packed sides of the scaled row's
        cluster columns, and each ``c_r`` once, as the first side of its
        columns before the placeholders, which is all of it while those
        columns hold no negative entry.  The tracked string entries are
        placeholders or 1 and the frozen floors are not negative, so no
        check makes one; a ``c_r`` that has one lies outside the verified
        identities and raises :class:`~gencluster.errors.InexactDivision`,
        after the string entries' classes, which raise as :meth:`image`
        does.  Both sides land on the folded table, as
        ``phi`` sends no column there onto a placeholder.  The
        placeholder of ``c_r`` is that of the string entry ``r``, whose
        ``sigma`` level :meth:`string_class` keeps, so the class is one
        shifted sum with the shells ``r phi(u>) + (d - r) phi(u<)``
        common to its terms: no vector is built per term.
        """
        seed, phi, table = exchange.seed, self.phi, self.table
        n, stop = seed.matrix.n, len(seed.table) - len(self.placeholder_names)
        frozen = range(n, stop)
        levels = [self.string_class(entry.exponents)[1] for entry in row]
        terms = []
        for coefficient, level in zip(exchange.coefficients, levels):
            if min(coefficient[n:stop], default=0) < 0:
                raise InexactDivision(
                    "negative coefficient entry: identity outside the verified fragment"
                )
            terms.append((phi.sides(coefficient, frozen, table)[0], level))
        return poly_shifted_sum(table, terms, phi.sides(exchange.bhat_row, range(n), table))

    def group_image(self, k):
        """``E(prod_c y_c)`` over the members of group ``k``: the class the embedding gives ``x_k``."""
        table, members = self.table, self.layout.group_range(k)
        product = tuple(int(q in members) for q in range(len(table)))
        return table.term(self.elimination.vector(product))


# ---------------------------------------------------------------------------
# Verification: the product formula


def _member_binomial_product(table, exchange, aux):
    """``E(prod_c theta_c)`` over the members ``c`` of a group, from their eliminated sides.

    The members share the coherent row's exchange block (:func:`_coherent_row`),
    whose eliminated sides are ``exchange = (g, l)``; ``aux`` holds each
    member's ``(a_c, b_c)``, the eliminated sides of the rest of its row.
    ``E`` is a monomial ring map and sides add over columns, so ``E(theta_c)
    = x^(g + a_c) + x^(l + b_c)``, and the product is one expansion over
    ``table`` with ``(g, l)`` common to every pair.
    """
    return poly_binomial_product(table, aux, exchange)


def product_formula_check(elimination, sigma, fm, k):
    """Group products of exchange polynomials expand the generalized one.

    Verifies, in the quotient and over formal current-cluster symbols::

        prod_c theta_{k,c}  =  sum_r sigma(rho_{k,r}) * (U> V>)^r * (U< V<)^(d_k - r)

    on the unfolding ``fm``, with ``elimination`` the map of ``E`` over the
    folded table and ``sigma`` its eliminated ``sigma`` levels, both from
    :func:`quotient_relations`.  ``d_k`` is the size of group ``k``.
    Each coefficient contributes through its defining relation:
    ``rho_{k,r}`` is the initial coefficient at slot ``r`` or ``d_k - r``
    (mutation reverses the row once per mutation of the group, and so
    negates the group's
    :meth:`~gencluster.unfolding.FoldedMatrix.identity_sign`, which
    decides), and the relation identifies that initial coefficient with
    the balanced sum of the same index.  A group of one member has sign
    +1 whatever its mutations, and needs no other: its ``sigma_{k,0} =
    s`` and ``sigma_{k,1} = t`` both eliminate to 1.  Returns a
    :class:`~gencluster.errors.Report`; on failure it carries
    ``(k, residual)`` with the difference of the two normal forms.

    Both sides are built from monomials that ``elimination`` reads off the
    matrix rows, with the unit elimination ``E`` applied: the coherent
    row's exchange-block sides ``g`` and ``l``, and each member's
    auxiliary sides.  The left side is one kernel expansion of the member
    binomials (:func:`_member_binomial_product`), with ``(g, l)`` common
    to every pair.  The shells ``(U> V>)^r (U< V<)^(d_k - r)`` carry no
    auxiliary variable, so ``E(sigma * shell) = E(sigma) * shell``: the
    right side is one shifted sum of the group's eliminated ``sigma``
    levels ``sigma[k]``, with the shells ``r g + (d_k - r) l`` common to
    its terms.
    """
    layout, table, rows = fm.layout, elimination.target, fm.matrix.rows
    members = layout.group_range(k)
    d_k = len(members)
    exchange = elimination.sides(_coherent_row(fm.matrix, layout, k), layout.exchange_block)
    lhs = _member_binomial_product(
        table, exchange, [elimination.sides(rows[c], layout.aux_block) for c in members]
    )
    levels, flip = sigma[k], fm.identity_sign(k) < 0
    rhs = poly_shifted_sum(
        table, [(None, levels[d_k - r if flip else r]) for r in range(d_k + 1)], exchange
    )
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
    table; the quotient's relations over it (:func:`quotient_relations`)
    are looked up once per walk.  The key is
    the folded matrix, all that :func:`product_formula_check` reads, as in
    the ``double-constant`` walk.
    """
    root = build(gca, root_multiplicity(gca, mode))
    elimination, sigma = quotient_relations(folded_table(gca, root.layout), root.layout)

    def check(fm):
        return tuple(
            failure
            for k in range(gca.rank)
            for failure in product_formula_check(elimination, sigma, fm, k).failures
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
    :class:`QuotientContext`, a walk constant that holds the map of ``E``
    over its folded table, with ``(condition, k, r)`` failures (``r``
    a string slot, a member, or ``None``).  The key is the tracked seed's
    content and the folded matrix rows.
    """
    ctx = QuotientContext.create(gca, mode=mode)

    def step(state, k):
        tracked, fm = state
        return mutate_exchange_data(tracked, k), group_mutate(fm, k)

    def check(state):
        return _embedding_conditions_at(ctx, *state)

    def key(state):
        return state[0].content_key(), state[1].matrix.rows

    return (ctx.tracked, ctx.root), step, check, key


def _embedding_conditions_at(ctx, tracked, fm):
    """The failures of conditions (i)-(iv) at the state ``(tracked, fm)`` of ``ctx``'s walk.

    ``ctx.elimination`` is the map of ``E`` over ``ctx.table`` and
    ``ctx.sigma`` its ``sigma`` levels (:func:`quotient_relations`).

    (i), (ii) and the base case of (iii) compare exponent vectors of any
    size.  The tracked exchange monomials carry no placeholder and the
    folded group monomials no ``t``/``s`` variable, so neither side needs
    the quotient: the left side is ``phi``'s vector form, and the unit
    elimination ``E`` fixes the right side.  The base case reads no
    state: ``ctx`` works it out once per direction (:meth:`QuotientContext.base_case`),
    and every state reports it.  The exchange identity's left side is
    ``theta_k`` over the tracked table's symbols, the class of the
    vectors ``c_r + r u> + (d - r) u<`` of the same
    :class:`~gencluster.gca_seed.ExchangeContext` (``c_r`` its coefficient
    ``r``), from packed sides of ``phi`` (:meth:`QuotientContext.exchange_class`);
    its right side is :func:`_member_binomial_product` of the coherent
    row's eliminated exchange-block sides and each member's eliminated
    auxiliary sides.  A member whose exchange block is not the coherent
    row's (only a coherent row other than the members' own makes one)
    takes its whole row's sides less the coherent ones.  (iv) expands the
    balanced sums of every order of the same auxiliary sides at once
    (``E`` of the sums, as ``E`` is a monomial ring map); its left sides
    are the classes of the string entries (:meth:`QuotientContext.string_class`),
    whose placeholders read ``ctx.sigma``.  A ratio is the member's
    auxiliary sides: the member and coherent rows share their ``F``
    slices, so the ``F`` parts cancel.  A member whose ``F`` slice differs
    fails ``(iv) ratio > keeps frozen content`` once for each ``F`` column
    whose positive part differs (``<``: negative part), and its ratios keep
    the difference of the ``F`` sides.
    """
    failures = []
    layout, phi, table, elimination = ctx.layout, ctx.phi, ctx.table, ctx.elimination
    rows, f, stop = fm.matrix.rows, layout.f_block, layout.exchange_block.stop
    width = len(table)
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
        if not ctx.base_case(k):
            failures.append(("(iii)", k, None))
        exchange = elimination.sides(first, layout.exchange_block)
        pairs, ratios, kept = [], [], []
        for c in layout.group_range(k):
            row = rows[c]
            aux = elimination.sides(row, layout.aux_block)
            if row[:stop] == first[:stop]:
                pairs.append(aux)
                ratios.append(aux)
                continue
            # Only a coherent row that is not the members' own reaches here:
            # the member's pair is its whole row's sides less ``exchange``.
            pairs.append(tuple(
                monomial_combination(1, side, -1, common)
                for side, common in zip(elimination.sides(row), exchange)
            ))
            if row[f.start:f.stop] == first[f.start:f.stop]:
                ratios.append(aux)
                continue
            for label, sign in ((">", 1), ("<", -1)):
                kept.extend(
                    (f"(iv) ratio {label} keeps frozen content", k, c)
                    for pos in f
                    if max(sign * row[pos], 0) != max(sign * first[pos], 0)
                )
            ratios.append(tuple(
                monomial_combination(1, side, -1, coherent)
                for side, coherent in zip(elimination.sides(row, layout.frozen_block),
                                          elimination.sides(first, f))
            ))
        theta = ctx.exchange_class(gca_ctx, tracked.strings.rows[k])
        if theta != _member_binomial_product(table, exchange, pairs):
            failures.append(("(iii) exchange", k, None))
        # (iv) string entries against balanced side-ratio sums.
        failures.extend(kept)
        sigmas = poly_binomial_levels(table, ratios)
        for r in range(tracked.divisors[k] + 1):
            if ctx.string_class(tracked.strings.entry(k, r).exponents)[0] != sigmas[r]:
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
        if lifted != ctx.table.term(ctx.elimination.vector(target)):
            failures.append(("frozen image", original, str(lifted)))
    size = len(ctx.tracked.table)
    for k in range(gca.rank):
        image = ctx.class_of((tuple(int(q == k) for q in range(size)),))
        if image != ctx.group_image(k):
            failures.append(("cluster image", k, str(image)))
    return Report(tuple(failures))
