"""Realizing a generalized cluster algebra inside an ordinary one.

The construction proceeds in three layers, all verified exactly:

1.  **Folded seed** — the unfolded matrix of a seed becomes an ordinary
    (all-divisors-one) seed over a larger table: one cluster variable
    per member of each group, the original frozen variables renamed to
    their root symbols, and one ``t``/``s`` pair of auxiliary frozen
    variables per member.  Group mutation mutates every member once.

2.  **Quotient** — the auxiliary variables are cut down by the ideal
    identifying each generalized coefficient ``rho_{k,r}`` with the
    balanced sum ``sigma_{k,r}``: over all splittings of group ``k``
    into ``|J| = r`` members contributing ``t`` and the rest
    contributing ``s``, the sum of the products.  The ``r = 0`` and
    ``r = d_k`` generators force the unit relations ``prod_i t_{k,i} =
    prod_i s_{k,i} = 1``, which :meth:`QuotientContext.normal_form`
    realizes by eliminating the last member's pair.

3.  **Embedding** — the substitution ``phi`` sending each cluster
    variable to the product of its group members, each root symbol to
    its same-named folded frozen variable, and each coefficient
    placeholder to its ``sigma`` expansion.  The checkers verify, at
    every requested mutation depth, that ``phi`` matches cluster
    monomials, stable monomials, cluster variables, and coefficient
    strings against their folded counterparts (conditions (i)-(iv)),
    that group products of exchange polynomials expand the generalized
    exchange polynomial (the product formula), and that the original
    frozen variables land on ``D``-th powers (the subquotient property).

Coefficient bookkeeping: on the generalized side the string entries are
tracked as opaque placeholder symbols (mutation only permutes them), and
a separate value table maps each placeholder to its concrete root-symbol
monomial.  This keeps the ``rho``-content of every coefficient visible,
which no expanded form would (a frozen monomial does not remember which
part of it came from a coefficient), and makes the directed rewrite
placeholder -> sigma sound at every depth.

The product formula is a statement about exchange polynomials, so it is
checked over *formal* current-cluster symbols: the current cluster is a
transcendence basis, hence an identity holds for the evaluated elements
exactly when it holds formally.  This keeps the check exact at depths
where the evaluated cluster entries would be astronomically large.
"""

from dataclasses import dataclass, replace
from itertools import combinations

from .errors import (
    CorrespondenceViolation,
    GroupCoherenceViolation,
    ValidationError,
)
from .gca_seed import (
    CoefficientStrings,
    ExchangeContext,
    GeneralizedSeed,
    mutate_seed,
)
from .laurent_kernel import (
    LaurentPolynomial,
    Monomial,
    ROLE_CLUSTER,
    ROLE_FROZEN,
    ROLE_S,
    ROLE_T,
    VariableTable,
    poly_add,
    poly_map_variables,
    poly_mul,
    poly_pow,
    poly_sub,
)
from .matrix_mutation import DivisorVector, ExtendedExchangeMatrix
from .root_adjoin import (
    AdjoinedSeed,
    GeneralizedCoefficientTable,
    _fresh_root_name,
    tau_tilde,
)
from .unfolding import FoldedMatrix, _independent_members, build, group_mutate


# ---------------------------------------------------------------------------
# Folded seeds


def folded_frozen_names(gca):
    """Folded names of the original frozen variables.

    Mirrors the renaming performed by root adjunction over the same
    table, so the folded frozen variables and the adjoined root symbols
    share their names and the embedding map is the identity on them.
    """
    taken = set(gca.table.names)
    names = []
    for pos in gca.table.frozen_indices:
        original = gca.table.names[pos]
        name = _fresh_root_name(original, taken)
        taken.discard(original)
        taken.add(name)
        names.append(name)
    return tuple(names)


def folded_table(gca):
    """Variable table of the unfolded seed.

    Cluster variables ``y1..yT`` (grouped by original direction), the
    renamed frozen variables, then per group the ``t`` members followed
    by the ``s`` members, in the same interleaved order as the folded
    matrix columns.
    """
    sizes = gca.divisors.entries
    names, roles, groups = [], [], []
    flat = 0
    for i, size in enumerate(sizes):
        for _ in range(size):
            flat += 1
            names.append(f"y{flat}")
            roles.append(ROLE_CLUSTER)
            groups.append(i)
    for name in folded_frozen_names(gca):
        names.append(name)
        roles.append(ROLE_FROZEN)
        groups.append(None)
    flat = 0
    for i, size in enumerate(sizes):
        start = flat
        for c in range(size):
            names.append(f"t{start + c + 1}")
            roles.append(ROLE_T)
            groups.append(i)
        for c in range(size):
            names.append(f"s{start + c + 1}")
            roles.append(ROLE_S)
            groups.append(i)
        flat += size
    return VariableTable(tuple(names), tuple(roles), tuple(groups))


@dataclass(frozen=True)
class FoldedSeed:
    """An ordinary seed over the folded table, with group metadata."""

    seed: GeneralizedSeed
    folded: FoldedMatrix
    group_provenance: tuple = ()

    @property
    def table(self):
        return self.seed.table

    @property
    def cluster(self):
        return self.seed.cluster

    def members(self, k):
        return self.folded.group_range(k)


def folded_initial_seed(gca):
    """Unfold a generalized seed into an ordinary seed at depth zero."""
    fm = build(gca)
    table = folded_table(gca)
    divisors = DivisorVector((1,) * fm.total)
    cluster = tuple(table.variable(table.names[i]) for i in range(fm.total))
    seed = GeneralizedSeed(
        table=table,
        cluster=cluster,
        matrix=fm.matrix,
        divisors=divisors,
        strings=CoefficientStrings.trivial(table, divisors),
    )
    return FoldedSeed(seed=seed, folded=fm, group_provenance=())


def group_mutate_seed(fs, k):
    """Mutate every member of group ``k`` once (matrix, cluster, strings).

    The members are checked as in :func:`~gencluster.unfolding.group_mutate`;
    the seed's mutated matrix is the new folded matrix.
    """
    seed = fs.seed
    for c in _independent_members(fs.folded, k):
        seed = mutate_seed(seed, c)
    return FoldedSeed(
        seed=seed,
        folded=replace(fs.folded, matrix=seed.matrix),
        group_provenance=fs.group_provenance + (k,),
    )


# ---------------------------------------------------------------------------
# Group monomials


@dataclass(frozen=True)
class GroupMonomials:
    """Shared exchange monomials of one group of the folded seed.

    ``u_gt``/``u_lt`` carry cluster-slot exponents (every member of a
    group shares the exponent, one value per other group); ``v_gt``/
    ``v_lt`` are the shared frozen monomials.  All exponents are
    non-negative; the matrix signs select the side.
    """

    k: int
    u_gt: Monomial
    u_lt: Monomial
    v_gt: Monomial
    v_lt: Monomial


def group_monomials(fs, k):
    """Extract the shared monomials of group ``k``, checking coherence.

    Raises :class:`~gencluster.errors.GroupCoherenceViolation` when the
    members disagree where they must agree: cluster and frozen columns
    must be constant down the group's rows.  The constancy of the
    frozen columns is exactly the statement that every member's stable
    exchange monomial is the shared ``V`` times auxiliary-variable
    content, i.e. that the ``V``'s divide the member monomials.
    Auxiliary columns are deliberately not constrained here: mutated
    members carry shared auxiliary content (a power of a full-group
    product, hence 1 in the quotient) plus their own distinguished
    pair, and that structure is validated by the double-constant check.
    """
    fm = fs.folded
    if not 0 <= k < fm.n_groups:
        raise ValidationError(f"no group {k}")
    rows = list(fm.group_range(k))
    table = fs.table
    width = fm.total + fm.m_original
    for col in range(width):
        column = [fm.matrix.rows[r][col] for r in rows]
        if any(v != column[0] for v in column):
            raise GroupCoherenceViolation(
                f"group {k} rows disagree in column {col}: {column}"
            )
    gt, lt = {}, {}
    r0 = rows[0]
    for col in range(fm.total):
        value = fm.matrix.rows[r0][col]
        name = table.names[col]
        if value > 0:
            gt[name] = value
        elif value < 0:
            lt[name] = -value
    v_gt, v_lt = {}, {}
    for l in range(fm.m_original):
        value = fm.matrix.rows[r0][fm.f_column(l)]
        name = table.names[fm.f_column(l)]
        if value > 0:
            v_gt[name] = value
        elif value < 0:
            v_lt[name] = -value
    return GroupMonomials(
        k=k,
        u_gt=table.monomial(gt),
        u_lt=table.monomial(lt),
        v_gt=table.monomial(v_gt),
        v_lt=table.monomial(v_lt),
    )


def _member_sides(fs, c):
    """Exchange sides of one member row as (gt, lt) exponent dicts."""
    fm = fs.folded
    table = fs.table
    gt, lt = {}, {}
    for col in range(len(table)):
        value = fm.matrix.rows[c][col]
        if value > 0:
            gt[table.names[col]] = value
        elif value < 0:
            lt[table.names[col]] = -value
    return gt, lt


# ---------------------------------------------------------------------------
# The quotient: sigma sums, unit relations, normal forms


def sigma_polynomial(fs, k, r):
    """The balanced sum identified with the coefficient ``rho_{k,r}``.

    ``sigma_{k,r} = sum_{|J|=r} prod_{c in J} t_c prod_{c not in J} s_c``
    over the members of group ``k``: subsets with ``r`` members
    contribute their ``t`` variable, the rest their ``s``.
    """
    table = fs.table
    members = list(fs.folded.group_range(k))
    t_names = [table.names[c] for c in fs.folded.t_range(k)]
    s_names = [table.names[c] for c in fs.folded.s_range(k)]
    if not 0 <= r <= len(members):
        raise ValidationError(f"no coefficient slot {r} for group {k}")
    total = LaurentPolynomial.zero(table)
    for subset in combinations(range(len(members)), r):
        chosen = set(subset)
        exps = {}
        for idx in range(len(members)):
            exps[t_names[idx] if idx in chosen else s_names[idx]] = 1
        total = poly_add(total, table.monomial(exps).as_polynomial())
    return total


def unit_elimination_map(fs):
    """Substitutions realizing ``prod t = prod s = 1`` per group.

    The last member's pair is rewritten as the inverse product of the
    others; for a size-one group the variables are simply erased.
    """
    table = fs.table
    mapping = {}
    for k in range(fs.folded.n_groups):
        t_names = [table.names[c] for c in fs.folded.t_range(k)]
        s_names = [table.names[c] for c in fs.folded.s_range(k)]
        mapping[t_names[-1]] = table.monomial({n: -1 for n in t_names[:-1]})
        mapping[s_names[-1]] = table.monomial({n: -1 for n in s_names[:-1]})
    return mapping


def eliminate_units(fs, p):
    """Rewrite ``p`` modulo the unit relations only (no placeholders)."""
    if p.table != fs.table:
        raise ValidationError("polynomial is not over the folded table")
    return poly_map_variables(p, unit_elimination_map(fs), fs.table)


class QuotientContext:
    """Parallel bookkeeping for one embedding run.

    Carries the quotient data — the placeholder-to-monomial table
    ``rho_values``, the per-group auxiliary variable lists, and the
    unit-relation elimination map — together with four objects advanced
    in lock step by :meth:`mutate`:

    * ``adjoined`` — the root-adjoined generalized seed with concrete
      coefficient monomials;
    * ``tracked`` — the same seed with each interior string entry
      replaced by an opaque placeholder symbol (zero matrix column);
    * ``fs`` — the folded ordinary seed, advanced by group mutations;
    * ``rho_values`` — the fixed table sending placeholders to their
      concrete monomials (constant along the run; mutation only permutes
      which placeholder sits where, identically on both tracks, which is
      asserted after every step).
    """

    def __init__(self, base, adjoined, tracked, fs, rho_values, placeholder_names):
        self.base = base
        self.adjoined = adjoined
        self.tracked = tracked
        self.fs = fs
        self.rho_values = rho_values
        self.placeholder_names = placeholder_names
        self.folded_plus = fs.table.extended(
            placeholder_names, (ROLE_FROZEN,) * len(placeholder_names)
        )
        self._sigma_cache = {}
        self._elimination = unit_elimination_map(fs)
        self._phi_images = None
        self._check_value_consistency()

    @staticmethod
    def create(gca, mode="total"):
        adjoined = tau_tilde(gca, mode=mode)
        seed = adjoined.seed
        placeholder_names = []
        rows_placeholders = []
        rho_values = {}
        for k in range(seed.rank):
            row = tuple(
                f"rho{k + 1}_{r}" for r in range(1, seed.divisors[k])
            )
            placeholder_names.extend(row)
            rows_placeholders.append(row)
            for r, name in enumerate(row, start=1):
                rho_values[name] = seed.strings.entry(k, r)
        table_p = seed.table.extended(
            tuple(placeholder_names), (ROLE_FROZEN,) * len(placeholder_names)
        )
        new_rows = tuple(
            row + (0,) * len(placeholder_names) for row in seed.matrix.rows
        )
        matrix_p = ExtendedExchangeMatrix(
            seed.matrix.n, seed.matrix.m + len(placeholder_names), new_rows
        )
        string_rows = []
        for k in range(seed.rank):
            row = [table_p.one()]
            for name in rows_placeholders[k]:
                row.append(table_p.monomial({name: 1}))
            row.append(table_p.one())
            string_rows.append(tuple(row))
        tracked = GeneralizedSeed(
            table=table_p,
            cluster=tuple(table_p.variable(n) for n in table_p.names[: seed.rank]),
            matrix=matrix_p,
            divisors=seed.divisors,
            strings=CoefficientStrings(tuple(string_rows)),
        )
        fs = folded_initial_seed(gca)
        return QuotientContext(
            base=gca,
            adjoined=adjoined,
            tracked=tracked,
            fs=fs,
            rho_values=rho_values,
            placeholder_names=tuple(placeholder_names),
        )

    def mutate(self, k):
        """Advance every track by one mutation in direction ``k``."""
        adjoined = AdjoinedSeed(
            base=self.adjoined.base,
            seed=mutate_seed(self.adjoined.seed, k),
            steps=self.adjoined.steps,
        )
        return QuotientContext(
            base=self.base,
            adjoined=adjoined,
            tracked=mutate_seed(self.tracked, k),
            fs=group_mutate_seed(self.fs, k),
            rho_values=self.rho_values,
            placeholder_names=self.placeholder_names,
        )

    def _check_value_consistency(self):
        """Placeholder strings must shadow the concrete strings exactly."""
        seed = self.adjoined.seed
        for k in range(seed.rank):
            for r in range(seed.divisors[k] + 1):
                tracked_entry = self.tracked.strings.entry(k, r)
                concrete = seed.strings.entry(k, r)
                if self._placeholder_value(tracked_entry) != concrete:
                    raise CorrespondenceViolation(
                        f"string entry ({k},{r}) diverged between the "
                        f"placeholder and concrete tracks"
                    )

    def _placeholder_value(self, mono):
        """Evaluate a placeholder monomial to a concrete frozen monomial."""
        seed_table = self.adjoined.seed.table
        width = len(seed_table)
        out = seed_table.one()
        for pos, e in enumerate(mono.exponents):
            if not e:
                continue
            name = self.tracked.table.names[pos]
            if name in self.rho_values:
                out = out.times(self.rho_values[name].power(e))
            else:
                out = out.times(
                    Monomial(
                        seed_table,
                        tuple(e if q == pos else 0 for q in range(width)),
                    )
                )
        return out

    def sigma(self, k, r):
        """Cached :func:`sigma_polynomial` over this context's groups."""
        key = (k, r)
        if key not in self._sigma_cache:
            self._sigma_cache[key] = sigma_polynomial(self.fs, k, r)
        return self._sigma_cache[key]

    def normal_form(self, p):
        """Canonical representative of ``p`` in the quotient.

        Placeholder exponents are expanded to ``sigma`` powers (only
        non-negative powers arise in the verified identities; a negative
        power raises), then the unit relations eliminate each group's
        last auxiliary pair.
        """
        if p.table == self.folded_plus:
            base_width = len(self.fs.table)
            slots = [
                (self.folded_plus.index(f"rho{k + 1}_{r}"), k, r)
                for k in range(self.tracked.rank)
                for r in range(1, self.tracked.divisors[k])
            ]
            expanded = LaurentPolynomial.zero(self.fs.table)
            for exps, coeff in p.terms.items():
                body = LaurentPolynomial(
                    self.fs.table, {tuple(exps[:base_width]): coeff}
                )
                for pos, k, r in slots:
                    e = exps[pos]
                    if not e:
                        continue
                    if e < 0:
                        raise ValidationError(
                            "negative placeholder power: identity outside "
                            "the verified fragment"
                        )
                    body = poly_mul(body, poly_pow(self.sigma(k, r), e))
                expanded = poly_add(expanded, body)
            p = expanded
        elif p.table != self.fs.table:
            raise ValidationError("normal_form expects a folded-side polynomial")
        return poly_map_variables(p, self._elimination, self.fs.table)

    def phi_poly(self, p):
        """Image of a generalized-side polynomial, in normal form."""
        if self._phi_images is None:
            images = {}
            for k in range(self.tracked.rank):
                members = {
                    self.fs.table.names[c]: 1
                    for c in self.fs.folded.group_range(k)
                }
                images[self.tracked.table.names[k]] = self.folded_plus.monomial(
                    members
                )
            self._phi_images = images
        lifted = poly_map_variables(p, self._phi_images, self.folded_plus)
        return self.normal_form(lifted)


# ---------------------------------------------------------------------------
# The embedding map


def phi(gca_seed, k, fs):
    """Embedding image of the ``k``-th cluster variable, in normal form.

    ``gca_seed`` (a generalized seed or an adjoined seed) and ``fs``
    must have been reached by corresponding mutation sequences; the
    image of the ``k``-th cluster variable is the class of the product
    of its group's folded cluster variables.
    """
    seed = gca_seed.seed if isinstance(gca_seed, AdjoinedSeed) else gca_seed
    if tuple(seed.provenance) != tuple(fs.group_provenance):
        raise CorrespondenceViolation(
            "generalized and folded seeds have different mutation histories"
        )
    seed.check_direction(k)
    product = LaurentPolynomial.one(fs.table)
    for c in fs.members(k):
        product = poly_mul(product, fs.cluster[c])
    return eliminate_units(fs, product)


# ---------------------------------------------------------------------------
# Verification: the product formula


@dataclass(frozen=True)
class QuotientReport:
    """Outcome of a quotient-embedding verification."""

    ok: bool
    failures: tuple


def product_formula_check(fs, k, rho):
    """Group products of exchange polynomials expand the generalized one.

    Verifies, in the quotient and over formal current-cluster symbols::

        prod_c theta_{k,c}  =  sum_r sigma(rho_{k,r}) * (U> V>)^r * (U< V<)^(d_k - r)

    ``rho`` is a generalized coefficient table of the adjoined seed at
    any depth: only its row lengths are read, and they fix ``d_k``.  Each
    coefficient contributes through its defining relation: entry ``r``
    of row ``k`` is the initial coefficient at slot ``r`` or ``d_k - r``
    (mutation reverses the row once per mutation of the group, so the
    parity of ``k`` in the folded seed's provenance decides), and the
    relation identifies that initial coefficient with the balanced sum
    of the same index.  Returns a report; on failure it carries
    ``(k, residual)`` with the difference of the two normal forms.
    """
    d_k = len(fs.folded.group_range(k))
    if len(rho.rows) != fs.folded.n_groups:
        raise ValidationError("coefficient table has the wrong row count")
    if len(rho.rows[k]) != d_k + 1:
        raise ValidationError(
            f"coefficient row {k} must have {d_k + 1} entries"
        )
    table = fs.table
    lhs = LaurentPolynomial.one(table)
    for c in fs.members(k):
        gt, lt = _member_sides(fs, c)
        lhs = poly_mul(
            lhs,
            poly_add(
                table.monomial(gt).as_polynomial(),
                table.monomial(lt).as_polynomial(),
            ),
        )
    lhs = eliminate_units(fs, lhs)

    gm = group_monomials(fs, k)
    reversed_row = fs.group_provenance.count(k) % 2 == 1
    gt_base = gm.u_gt.times(gm.v_gt)
    lt_base = gm.u_lt.times(gm.v_lt)
    rhs = LaurentPolynomial.zero(table)
    for r in range(d_k + 1):
        original = d_k - r if reversed_row else r
        coefficient = eliminate_units(fs, sigma_polynomial(fs, k, original))
        shell = gt_base.power(r).times(lt_base.power(d_k - r))
        rhs = poly_add(rhs, poly_mul(coefficient, shell.as_polynomial()))
    rhs = eliminate_units(fs, rhs)
    if lhs != rhs:
        residual = poly_sub(lhs, rhs)
        return QuotientReport(ok=False, failures=((k, str(residual)),))
    return QuotientReport(ok=True, failures=())


def product_formula_walk(gca, mode="total"):
    """Root, step and per-prefix check of the product formula.

    The state is a folded seed over formal current-cluster symbols:
    group mutation mutates its matrix, and its cluster entries are never
    expanded, which the product formula never needs.  ``tau_tilde`` runs
    once; the check reads only the row lengths of its coefficient table,
    which mutation does not change.  ``check(fs, depth)`` returns
    ``(depth, k, residual)`` for every failing group.
    """
    rho = GeneralizedCoefficientTable(tau_tilde(gca, mode=mode).seed.strings.rows)

    def step(fs, k):
        fm = group_mutate(fs.folded, k)
        return FoldedSeed(
            seed=replace(fs.seed, matrix=fm.matrix),
            folded=fm,
            group_provenance=fs.group_provenance + (k,),
        )

    def check(fs, depth):
        return tuple(
            (depth,) + failure
            for k in range(gca.rank)
            for failure in product_formula_check(fs, k, rho).failures
        )

    return folded_initial_seed(gca), step, check


def _walk_one(walk, sequence):
    """Report of one sequence: the check of every prefix, in depth order."""
    state, step, check = walk
    failures = list(check(state, 0))
    for depth, k in enumerate(sequence, start=1):
        state = step(state, k)
        failures.extend(check(state, depth))
    return QuotientReport(ok=not failures, failures=tuple(failures))


def product_formula_suite(gca, sequence=(), mode="total"):
    """Run the product formula for every group at every prefix.

    One pass of :func:`product_formula_walk` along ``sequence``,
    checking every group at every prefix including the empty one.
    Failures are ``(prefix_length, k, residual)`` triples.
    """
    return _walk_one(product_formula_walk(gca, mode=mode), sequence)


# ---------------------------------------------------------------------------
# Verification: the embedding conditions


def embedding_walk(gca, mode="total"):
    """Root, step and per-prefix check of the embedding conditions.

    The state is the :class:`QuotientContext`, stepped by its
    :meth:`~QuotientContext.mutate`; ``check(ctx, depth)`` returns the
    failures of :func:`embedding_check` at that prefix.
    """

    def check(ctx, depth):
        return tuple((depth,) + f for f in _embedding_conditions_at(ctx))

    return QuotientContext.create(gca, mode=mode), lambda ctx, k: ctx.mutate(k), check


def embedding_check(gca, sequence=(), mode="total"):
    """Verify the embedding conditions at every prefix of ``sequence``.

    (i)   images of the cluster-monomial sides ``u>``/``u<`` equal the
          folded group monomials ``U>``/``U<``;
    (ii)  images of the stable monomials ``v>[1]``/``v<[1]`` equal
          ``V>``/``V<``;
    (iii) the image of each cluster variable equals the class of the
          product of its group's folded cluster variables;
    (iv)  the image of each string entry equals the class of the
          balanced sum of member side-ratios: over splittings
          ``I ∪ J`` of the group with ``|J| = r``, the products of
          ``v_{c<}/V<`` over ``I`` times ``v_{c>}/V>`` over ``J``.

    Conditions (i), (ii) and (iv) compare exchange data — monomials in
    the table symbols — while (iii) compares the evaluated cluster
    entries, which carries the full content of the embedding through
    the homomorphism property.  One pass of :func:`embedding_walk`;
    failures are reported as ``(prefix_length, condition, k, r)``.
    """
    return _walk_one(embedding_walk(gca, mode=mode), sequence)


def _embedding_conditions_at(ctx):
    failures = []
    tracked = ctx.tracked
    fs = ctx.fs
    for k in range(tracked.rank):
        gca_ctx = ExchangeContext.build(tracked, k)
        gm = group_monomials(fs, k)
        # (i) cluster monomials and (ii) stable monomials, compared as
        # monomials in the symbols.
        for label, mono, folded_mono in (
            ("(i) u>", gca_ctx.u_gt, gm.u_gt),
            ("(i) u<", gca_ctx.u_lt, gm.u_lt),
            ("(ii) v>[1]", gca_ctx.v_gt[1], gm.v_gt),
            ("(ii) v<[1]", gca_ctx.v_lt[1], gm.v_lt),
        ):
            lhs = ctx.phi_poly(mono.as_polynomial())
            rhs = ctx.normal_form(folded_mono.as_polynomial())
            if lhs != rhs:
                failures.append((label, k, None))
        # (iii) cluster variables, compared as evaluated elements.
        lhs = ctx.phi_poly(tracked.cluster[k])
        rhs = phi(ctx.adjoined, k, fs)
        if lhs != rhs:
            failures.append(("(iii)", k, None))
        # (iv) string entries against balanced side-ratio sums.
        d_k = tracked.divisors[k]
        members = list(fs.members(k))
        ratios = []
        for c in members:
            gt, lt = _member_sides(fs, c)
            v_c_gt = {
                n: e
                for n, e in gt.items()
                if fs.table.roles[fs.table.index(n)] != ROLE_CLUSTER
            }
            v_c_lt = {
                n: e
                for n, e in lt.items()
                if fs.table.roles[fs.table.index(n)] != ROLE_CLUSTER
            }
            ratio_gt = fs.table.monomial(v_c_gt).over(gm.v_gt)
            ratio_lt = fs.table.monomial(v_c_lt).over(gm.v_lt)
            for ratio, label in ((ratio_gt, ">"), (ratio_lt, "<")):
                for pos, e in enumerate(ratio.exponents):
                    if e and fs.table.roles[pos] == ROLE_FROZEN:
                        failures.append(
                            (f"(iv) ratio {label} keeps frozen content", k, c)
                        )
            ratios.append((ratio_gt, ratio_lt))
        for r in range(d_k + 1):
            lhs = ctx.phi_poly(tracked.strings.entry(k, r).as_polynomial())
            rhs = LaurentPolynomial.zero(fs.table)
            for subset in combinations(range(len(members)), r):
                chosen = set(subset)
                term = fs.table.one()
                for idx in range(len(members)):
                    ratio_gt, ratio_lt = ratios[idx]
                    term = term.times(ratio_gt if idx in chosen else ratio_lt)
                rhs = poly_add(rhs, term.as_polynomial())
            rhs = ctx.normal_form(rhs)
            if lhs != rhs:
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
    variables.  Verified at depth zero together with the placeholder
    consistency that the context asserts on construction.
    """
    ctx = QuotientContext.create(gca, mode=mode)
    failures = []
    n = gca.divisors.product if mode == "total" else None
    root_map = ctx.adjoined.root_map()
    folded_names = folded_frozen_names(gca)
    for pos, name in zip(gca.table.frozen_indices, folded_names):
        original = gca.table.names[pos]
        image = root_map[original]
        support = [
            (ctx.adjoined.seed.table.names[q], e)
            for q, e in enumerate(image.exponents)
            if e
        ]
        if len(support) != 1 or support[0][0] != name:
            failures.append(("root image", original, str(image)))
            continue
        exponent = support[0][1]
        if n is not None and exponent != n:
            failures.append(("root exponent", original, exponent))
        target = ctx.fs.table.monomial({name: exponent}).as_polynomial()
        lifted = ctx.phi_poly(image.as_polynomial())
        if lifted != ctx.normal_form(target):
            failures.append(("frozen image", original, str(lifted)))
    for k in range(gca.rank):
        image = ctx.phi_poly(ctx.tracked.cluster[k])
        if image != phi(ctx.adjoined, k, ctx.fs):
            failures.append(("cluster image", k, str(image)))
    return QuotientReport(ok=not failures, failures=tuple(failures))
