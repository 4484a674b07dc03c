"""Quotient embedding: the folded layout, the product formula, and the image map."""

import ast
from collections import Counter, namedtuple
from copy import copy
import hashlib
import io
from itertools import combinations, product
from math import lcm, prod
import random

import pytest

from conftest import (
    FIRST_RUNG_BITS,
    FIRST_RUNG_LIMIT,
    SECOND_RUNG_LIMIT,
    eliminated,
    failed_cases,
    map_variables,
    mono_over,
    mono_poly,
    mono_power,
    mono_times,
    oracle_balanced_sum,
    oracle_sigma,
    oracle_unit_elimination,
    packed_vector,
    poly_mul_monomial,
    poly_sum,
    shared_factor_seeds,
)
from gencluster.cli_io import parse_seed_text, run_command
from gencluster.errors import (
    GroupCoherenceViolation,
    IndexOutOfRange,
    InexactDivision,
    Report,
    StructureViolation,
    ValidationError,
)
from gencluster.fixtures import fixture_seed
from gencluster.gca_seed import (
    CoefficientStrings,
    ExchangeContext,
    GeneralizedSeed,
    initial_seed,
    mutate_exchange_data,
    mutate_seed,
)
from gencluster.laurent_kernel import (
    ColumnMap,
    LaurentPolynomial,
    Monomial,
    Substitution,
    poly_add,
    poly_mul,
    poly_pow,
    poly_sub,
)
from gencluster.matrix_mutation import ExtendedExchangeMatrix
from gencluster.quotient_embedding import (
    QuotientContext,
    _coherent_row,
    _embedding_conditions_at,
    _member_binomial_product,
    _sigma_levels,
    embedding_walk,
    folded_table,
    product_formula_check,
    product_formula_walk,
    subquotient_check,
)
from gencluster.randomgen import random_seed, random_sequence
from gencluster.root_adjoin import AdjoinedSeed, root_names, tau_tilde
from gencluster.unfolding import FoldedLayout, FoldedMatrix, build, group_mutate
from evaluated_embedding import (
    EvaluatedContext,
    evaluated_conditions,
    folded_initial_seed,
    group_mutate_seed,
    oracle_lift,
    oracle_phi_poly,
)

FIX_C_PHI_X = "y1*y2"
FIX_C_PHI_X_MUTATED = (
    "y1^-1*y2^-1*F^4 + y1^-1*y2^-1*F^2*t1*s1^-1 "
    "+ y1^-1*y2^-1*F^2*t1^-1*s1 + y1^-1*y2^-1"
)


FIX_B_CLUSTER_IMAGES_SHA256 = (
    "335cb14205b7c7aa27e3250b401709f9f57fb1f7487a9f255235c2a147f0f558"
)


#: Shared exchange monomials of one group of the folded seed.
GroupMonomials = namedtuple("GroupMonomials", "k u_gt u_lt v_gt v_lt")


def folded_roles(table, sizes):
    """``(role, k)`` of each variable of a folded table, found by its name.

    ``sizes`` are the divisors of the unfolded seed.  Group ``k``'s
    members are numbered on from the sizes of the groups before it, and
    member ``c`` names the cluster variable ``y<c>`` (role ``"cluster"``)
    and the auxiliaries ``t<c>`` and ``s<c>`` (roles ``"t"`` and
    ``"s"``).  Any other name is ``("frozen", None)``.
    """
    roles, start = {}, 0
    for k, size in enumerate(sizes):
        for c in range(start + 1, start + size + 1):
            roles[f"y{c}"], roles[f"t{c}"], roles[f"s{c}"] = (
                ("cluster", k), ("t", k), ("s", k)
            )
        start += size
    return [roles.get(name, ("frozen", None)) for name in table.names]


def member_sides(table, row, keep):
    """Exchange sides ``(gt, lt)`` of a matrix row as monomials.

    Only the columns whose ``keep`` flag is set are read.
    """
    row = [v if kept else 0 for v, kept in zip(row, keep)]
    return (
        Monomial(table, tuple(max(v, 0) for v in row)),
        Monomial(table, tuple(max(-v, 0) for v in row)),
    )


def folded_root(seed, multiplicity=None):
    """The folded table and the unfolding of ``seed``, at depth zero."""
    fm = build(seed, multiplicity)
    return folded_initial_seed(seed, fm).table, fm


def library_conditions(ctx):
    """The library's check of the state an :class:`EvaluatedContext` holds.

    The walk's tracked cluster is the table's symbols, so the evaluated
    entries are put back to them.
    """
    constants = ctx.constants
    tracked = ctx.tracked._trusted_replace(cluster=constants.tracked.cluster)
    columns = ColumnMap(constants.table, constants.layout.moved_unit_images())
    return _embedding_conditions_at(constants, columns, tracked, ctx.unfolding)


def group_monomials(table, fm, k):
    """The shared monomials of group ``k``, once the members are checked to agree.

    ``u_gt``/``u_lt`` carry the cluster columns of the group's rows and
    ``v_gt``/``v_lt`` the frozen columns, each split by sign.
    """
    first = _coherent_row(fm.matrix, fm.layout, k)
    # The group sizes are the divisors of the unfolded seed.
    roles = [role for role, _ in folded_roles(table, fm.group_sizes)]
    return GroupMonomials(
        k,
        *member_sides(table, first, [role == "cluster" for role in roles]),
        *member_sides(table, first, [role == "frozen" for role in roles]),
    )


def sigma_polynomial(table, layout, k, r):
    """The balanced sum ``sigma_{k,r}``, built one subset at a time.

    Each ``r``-subset ``J`` of group ``k``'s members adds the monomial
    with ``t_c`` for ``c`` in ``J`` and ``s_c`` for the others.
    """
    names = table.names
    pairs = list(zip(layout.t_range(k), layout.s_range(k)))
    total = LaurentPolynomial.zero(table)
    for subset in combinations(range(len(pairs)), r):
        term = table.monomial({
            names[t if idx in subset else s]: 1
            for idx, (t, s) in enumerate(pairs)
        })
        total = poly_add(total, mono_poly(term))
    return total


def tracked_sum(ctx, vectors):
    """``sum_v x^v`` over the tracked table, each vector counted as often as it comes."""
    return LaurentPolynomial(ctx.tracked.table, Counter(map(tuple, vectors)))


def term_by_term_class(ctx, vectors):
    """The class of ``sum_v x^v`` over tracked vectors by :func:`expand_term_by_term`."""
    return expand_term_by_term(ctx, oracle_lift(ctx, tracked_sum(ctx, vectors)))


def expand_term_by_term(ctx, p):
    """Normal form of a placeholder polynomial, expanded one term at a time.

    Each term's placeholder exponents become powers of freshly built
    balanced sums, the products are added term by term, and the unit
    relations are applied last.
    """
    table, layout = ctx.table, ctx.layout
    base_width = len(table)
    slots = [
        (ctx.folded_plus.index(f"rho{k + 1}_{r}"), k, r)
        for k in range(ctx.tracked.rank)
        for r in range(1, ctx.tracked.divisors[k])
    ]
    expanded = LaurentPolynomial.zero(table)
    for exps, coeff in p.terms.items():
        body = LaurentPolynomial(table, {exps[:base_width]: coeff})
        for pos, k, r in slots:
            if exps[pos]:
                sigma = sigma_polynomial(table, layout, k, r)
                body = poly_mul(body, poly_pow(sigma, exps[pos]))
        expanded = poly_add(expanded, body)
    return eliminated(expanded, ctx.tracked.divisors.entries)


def oracle_product_formula_check(table, fm, k, parity):
    """The product formula over exponent-tuple monomials.

    Both sides are built from :class:`Monomial` objects and expanded in
    full, each shell by ``mono_power`` and ``mono_times``, and the unit relations
    eliminate both sides at the end.  ``parity`` is the number of
    mutations of group ``k`` so far, mod 2, counted by the caller rather
    than read off the matrix.
    """
    layout = fm.layout
    d_k = len(layout.group_range(k))
    lhs = LaurentPolynomial.one(table)
    for c in layout.group_range(k):
        row = fm.matrix.rows[c]
        gt = Monomial(table, tuple(max(v, 0) for v in row))
        lt = Monomial(table, tuple(max(-v, 0) for v in row))
        lhs = poly_mul(lhs, poly_add(mono_poly(gt), mono_poly(lt)))
    gm = group_monomials(table, fm, k)
    gt_base = mono_times(gm.u_gt, gm.v_gt)
    lt_base = mono_times(gm.u_lt, gm.v_lt)
    rhs = poly_sum(table, (
        poly_mul_monomial(
            sigma_polynomial(table, layout, k, d_k - r if parity else r),
            mono_times(mono_power(gt_base, r), mono_power(lt_base, d_k - r)),
        )
        for r in range(d_k + 1)
    ))
    lhs, rhs = eliminated(lhs, fm.group_sizes), eliminated(rhs, fm.group_sizes)
    if lhs != rhs:
        return Report(((k, str(poly_sub(lhs, rhs))),))
    return Report(())


def oracle_condition_iv(ctx):
    """Condition (iv) of the embedding check over exponent-tuple monomials.

    Each member's side ratios are divided out with ``mono_over`` and the
    balanced sums are built one subset at a time with ``mono_times``.
    """
    tracked, table, fm = ctx.tracked, ctx.folded.table, ctx.unfolding
    roles = [role for role, _ in folded_roles(table, tracked.divisors.entries)]
    keep = [role != "cluster" for role in roles]
    failures = []
    for k in range(tracked.rank):
        gm = group_monomials(table, fm, k)
        ratios = []
        for c in fm.layout.group_range(k):
            row = [v if kept else 0 for v, kept in zip(fm.matrix.rows[c], keep)]
            pair = (
                mono_over(Monomial(table, tuple(max(v, 0) for v in row)), gm.v_gt),
                mono_over(Monomial(table, tuple(max(-v, 0) for v in row)), gm.v_lt),
            )
            for ratio, label in zip(pair, "><"):
                failures.extend(
                    (f"(iv) ratio {label} keeps frozen content", k, c)
                    for pos, role in enumerate(roles)
                    if role == "frozen" and ratio.exponents[pos]
                )
            ratios.append(pair)
        for r in range(tracked.divisors[k] + 1):
            total = LaurentPolynomial.zero(table)
            for subset in combinations(range(len(ratios)), r):
                term = table.one()
                for idx, (inside, outside) in enumerate(ratios):
                    term = mono_times(term, inside if idx in subset else outside)
                total = poly_add(total, mono_poly(term))
            lhs = oracle_phi_poly(ctx, mono_poly(tracked.strings.entry(k, r)))
            if lhs != eliminated(total, tracked.divisors.entries):
                failures.append(("(iv)", k, r))
    return failures


def oracle_group_image(ctx, k):
    """``E(prod_c x_c)``: the group product first, the unit elimination last."""
    folded, layout = ctx.folded, ctx.layout
    product = LaurentPolynomial.one(folded.table)
    for c in layout.group_range(k):
        product = poly_mul(product, folded.cluster[c])
    return eliminated(product, ctx.tracked.divisors.entries)


def oracle_conditions_i_ii(ctx):
    """Conditions (i) and (ii) of the embedding check, compared as polynomials.

    The left side is the image of the tracked monomial by
    :func:`oracle_phi_poly`, the right side the normal form of the
    folded group monomial.
    """
    tracked, failures = ctx.tracked, []
    for k in range(tracked.rank):
        gca_ctx = ExchangeContext(tracked, k)
        gm = group_monomials(ctx.folded.table, ctx.unfolding, k)
        for label, exps, folded in (
            ("(i) u>", gca_ctx.u_gt, gm.u_gt),
            ("(i) u<", gca_ctx.u_lt, gm.u_lt),
            ("(ii) v>[1]", gca_ctx.v_gt, gm.v_gt),
            ("(ii) v<[1]", gca_ctx.v_lt, gm.v_lt),
        ):
            lhs = oracle_phi_poly(ctx, mono_poly(Monomial(tracked.table, exps)))
            if lhs != eliminated(mono_poly(folded), tracked.divisors.entries):
                failures.append((label, k, None))
    return failures


def conditions_i_ii(ctx):
    """The (i) and (ii) failures of :func:`library_conditions`."""
    return [
        f for f in library_conditions(ctx) if f[0].startswith(("(i) ", "(ii) "))
    ]


def outcome(check, ctx):
    """``check(ctx)``, or the type and message of what it raised."""
    try:
        return check(ctx)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def walked_contexts(seed, mode, sequences):
    """The evaluated context at every prefix of ``sequences``, each prefix once."""
    root = EvaluatedContext.create(seed, mode=mode)
    reached = {(): root}
    for sequence in sequences:
        for depth in range(1, len(sequence) + 1):
            prefix = tuple(sequence[:depth])
            if prefix not in reached:
                reached[prefix] = reached[prefix[:-1]].mutate(prefix[-1])
    return reached


def formal_contexts(seed, depth):
    """The context at every state of the exhaustive walk to ``depth``, over formal cluster symbols.

    After every step both tracks' cluster entries are reset to their
    variables, so a step costs one exchange per member however deep the
    walk (FIX-A's entries at depth 3 take half a minute each).  Matrices,
    strings and placeholders evolve as in :func:`walked_contexts`;
    neither condition (iv) nor a string image reads a cluster entry.
    """
    root = EvaluatedContext.create(seed)

    def formal(ctx):
        folded = ctx.folded._trusted_replace(cluster=root.folded.cluster)
        step = EvaluatedContext(ctx.constants, folded)
        step.tracked = ctx.tracked._trusted_replace(cluster=root.tracked.cluster)
        return step

    reached = {(): root}
    for d in range(1, depth + 1):
        for prefix in product(range(seed.rank), repeat=d):
            reached[prefix] = formal(reached[prefix[:-1]].mutate(prefix[-1]))
    return reached


def embedding_walks():
    """The walks the image routes are compared on, with their sequences.

    FIX-A exhaustively to depth 2, FIX-B to depth 3, FIX-C to depth 6,
    and 20 random seeds along a random length-3 sequence.
    """
    walks = [
        (fixture_seed("FIX-A"), list(product(range(2), repeat=2))),
        (fixture_seed("FIX-B"), list(product(range(2), repeat=3))),
        (fixture_seed("FIX-C"), [(0,) * 6]),
    ]
    rng = random.Random(13)
    for _ in range(20):
        seed = random_seed(rng)
        walks.append((seed, [random_sequence(rng, seed.rank, 3)]))
    return walks


def big_entry_seed(kind, b):
    """A divisor-one seed whose (i) or (ii) monomial has exponent ``b``."""
    if kind == "(i)":
        text = f"gca-seed v1\nN 2\nM 0\ndivisors 1 1\nnames x y ;\nmatrix 0 {b} ; -{b} 0\n"
    else:
        text = f"gca-seed v1\nN 1\nM 1\ndivisors 1\nnames x ; f\nmatrix 0 {b}\nstring 0 ; 0\n"
    return parse_seed_text(text)


def product_formula_states(seed, mode, sequences):
    """The folded table, and every state the product-formula walk reaches.

    Each state is ``(fm, parity)``: the unfolding, and the number of
    mutations of each group on the path to it, mod 2, counted here.
    """
    root, step, _, _ = product_formula_walk(seed, mode)
    parity = (0,) * root.layout.n_groups
    states = [(root, parity)]
    for sequence in sequences:
        fm, parity = states[0]
        for k in sequence:
            fm = step(fm, k)
            parity = parity[:k] + (1 - parity[k],) + parity[k + 1:]
            states.append((fm, parity))
    return folded_initial_seed(seed, root).table, states


def tampered(fm, row, col, delta):
    """``fm`` with one entry of its matrix moved by ``delta``.

    The matrix is built without validation, so a moved principal entry
    may break its skew-symmetrizability.
    """
    rows = [list(r) for r in fm.matrix.rows]
    rows[row][col] += delta
    matrix = fm.matrix._trusted_replace(rows=tuple(tuple(r) for r in rows))
    return FoldedMatrix(matrix, fm.layout)


def tampered_context(ctx, row, col, delta):
    """A copy of ``ctx`` whose folded matrix has one entry moved by ``delta``."""
    bad = copy(ctx)
    bad.folded = ctx.folded._trusted_replace(
        matrix=tampered(ctx.unfolding, row, col, delta).matrix
    )
    return bad


def moved_entry_contexts(ctx):
    """Copies of ``ctx`` with one matrix entry moved, one copy per entry.

    Each group ``j`` gets its tracked row's first frozen entry moved by
    ``d_j``, and its first member's entry in the first cluster column of
    another group, and in the first frozen column, moved by one.
    """
    tracked, layout = ctx.tracked, ctx.layout
    frozen = [
        pos for pos in tracked.table.frozen_indices
        if tracked.table.names[pos] not in ctx.placeholder_names
    ]
    for j in range(tracked.rank):
        if frozen:
            rows = [list(row) for row in tracked.matrix.rows]
            rows[j][frozen[0]] += tracked.divisors[j]
            bad = copy(ctx)
            bad.tracked = tracked._trusted_replace(
                matrix=ExtendedExchangeMatrix(tracked.matrix.n, tracked.matrix.m, rows),
            )
            yield bad
        member = layout.group_range(j)[0]
        columns = [layout.group_range(i)[0] for i in range(tracked.rank) if i != j]
        roles = folded_roles(ctx.folded.table, tracked.divisors.entries)
        columns += [q for q, (role, _) in enumerate(roles) if role == "frozen"][:1]
        for col in columns:
            yield tampered_context(ctx, member, col, 1)


def oracle_lifts(ctx):
    """Folded-table positions of each tracked variable's image, found by name.

    A cluster variable lifts to the folded cluster variables of its
    group, any other variable to the same-named variable of
    ``folded_plus``, which for a placeholder lies past the folded table.
    """
    table, plus, width = ctx.tracked.table, ctx.folded_plus, len(ctx.folded.table)
    roles = folded_roles(ctx.folded.table, ctx.tracked.divisors.entries)
    lifts = []
    for pos, name in enumerate(table.names):
        if pos < ctx.tracked.rank:
            support = [q for q, role in enumerate(roles) if role == ("cluster", pos)]
        else:
            support = [plus.index(name)]
        lifts.append(tuple(q for q in support if q < width))
    return tuple(lifts)


def phi_lifts(ctx):
    """Folded-table positions of each tracked variable's image, read off ``phi.vector``.

    Within the folded table every image has exponents 0 and 1 only.
    """
    width, size = len(ctx.folded.table), len(ctx.tracked.table)
    lifts = []
    for pos in range(size):
        image = ctx.phi.vector(tuple(int(q == pos) for q in range(size)))[:width]
        assert set(image) <= {0, 1}
        lifts.append(tuple(q for q, e in enumerate(image) if e))
    return tuple(lifts)


def named_frozen_seeds():
    """Seeds whose frozen names are the folded table's or their root names."""
    matrix = ExtendedExchangeMatrix.from_rows(
        [[0, 2, 1, -1, 2, 0], [-1, 0, 0, 1, -1, 1]], m=4
    )
    return [
        initial_seed(matrix, (2, 1), frozen_names=names)
        for names in (("t1", "T1", "F", "y1"), ("y1", "s2", "t3", "F"))
    ]


class TestFoldedSeed:
    def test_table_layout(self, fix_c):
        table, fm = folded_root(fix_c)
        assert table.names == ("y1", "y2", "F", "t1", "t2", "s1", "s2")
        assert table.n_cluster == 2
        # The library builds the table of the folded seed without the seed.
        assert folded_table(fix_c, fm.layout) is table
        assert QuotientContext.create(fix_c).table is table

    def test_frozen_names_match_root_symbols(self, fix_a, fix_b):
        assert root_names(fix_a.table) == ("F1", "F2")
        # A root name in use, or equal to its variable's, moves on.
        clash = initial_seed(
            ExtendedExchangeMatrix.from_rows([[0, 1, 1, 1]], m=3),
            (1,),
            frozen_names=("f", "F", "F_R"),
        )
        assert root_names(clash.table) == ("F_R_R", "F_R_R_R", "F_R_R_R_R")
        for seed in (fix_a, fix_b, clash):
            adjoined, folded = tau_tilde(seed).seed.table, folded_root(seed)[0]
            roles = folded_roles(folded, seed.divisors.entries)
            assert [adjoined.names[p] for p in adjoined.frozen_indices] == [
                name for name, (role, _) in zip(folded.names, roles) if role == "frozen"
            ]

    def test_table_roles_are_the_layout_blocks(self, fix_a, fix_b, fix_c):
        # Each (role, group) of the folded table, found by name, is one
        # contiguous block, the one the unfolding's accessors name, and
        # the table's cluster count is the cluster block's width.
        rng = random.Random(29)
        seeds = [fix_a, fix_b, fix_c] + [random_seed(rng, max_frozen=3) for _ in range(40)]
        for seed in seeds:
            table, fm = folded_root(seed)
            blocks = {}
            for q, key in enumerate(folded_roles(table, seed.divisors.entries)):
                blocks.setdefault(key, []).append(q)
            expected = {}
            if fm.m_original:
                expected["frozen", None] = list(fm.layout.f_block)
            for k in range(fm.layout.n_groups):
                expected["cluster", k] = list(fm.layout.group_range(k))
                expected["t", k] = list(fm.layout.t_range(k))
                expected["s", k] = list(fm.layout.s_range(k))
            assert blocks == expected
            assert all(b == list(range(b[0], b[-1] + 1)) for b in blocks.values())
            assert len(table) == fm.matrix.n + fm.matrix.m
            assert table.n_cluster == fm.layout.total

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_eliminate_units_matches_the_name_oracle(self, fix_a, fix_b, fix_c, mode):
        # The layout moves each group's last t and s powers by position;
        # the oracle substitution finds the variables by name, numbering
        # members by divisors.  The vectors are zero, then random with
        # entries up to 2**200.
        rng = random.Random(31)
        seeds = [fix_a, fix_b, fix_c] + [random_seed(rng, max_frozen=3) for _ in range(12)]
        for seed in seeds:
            ctx = QuotientContext.create(seed, mode)
            table, layout = ctx.table, ctx.layout
            assert layout.aux == tuple(
                (layout.t_range(k), layout.s_range(k)) for k in range(layout.n_groups)
            )
            images = oracle_unit_elimination(table, seed.divisors.entries)
            units = Substitution(images, table, table)
            width = len(table)
            vectors = [(0,) * width]
            for bits in (2, 64, 200):
                vectors += [
                    tuple(rng.randint(-2**bits, 2**bits) for _ in range(width)) for _ in range(4)
                ]
            for exps in vectors:
                assert layout.eliminate_units(exps) == units.vector(exps)
            # The moved images are those of the unit vectors E does not fix.
            moved = {}
            for c in range(width):
                unit = tuple(int(q == c) for q in range(width))
                if units.vector(unit) != unit:
                    moved[c] = units.vector(unit)
            assert layout.moved_unit_images() == moved

    def test_initial_seed_shape(self, fix_a):
        fm = build(fix_a)
        seed = folded_initial_seed(fix_a, fm)
        assert [fm.identity_sign(k) for k in range(2)] == [1, 1]
        assert list(fm.layout.group_range(0)) == [0, 1]
        assert list(fm.layout.group_range(1)) == [2, 3, 4]
        assert seed.matrix == fm.matrix
        assert all(d == 1 for d in seed.divisors.entries)

    def test_group_mutation_matches_unfolding(self, fix_a, fix_b):
        for gca in (fix_a, fix_b):
            fm = build(gca)
            seed = folded_initial_seed(gca, fm)
            for k in (0, 1, 1, 0):
                fm = group_mutate(fm, k)
                seed = group_mutate_seed(seed, fm.layout, k)
                assert seed.matrix == fm.matrix

    def test_group_mutation_checks_members(self, fix_c):
        fm = build(fix_c)
        with pytest.raises(IndexOutOfRange):
            group_mutate_seed(folded_initial_seed(fix_c, fm), fm.layout, 1)
        matrix = ExtendedExchangeMatrix.from_rows(
            ((0, 1, 1, 0, -1, 0), (-1, 0, 0, 1, 0, -1)), m=4
        )
        with pytest.raises(StructureViolation):
            group_mutate_seed(initial_seed(matrix, (1, 1)), FoldedLayout((2,), 0), 0)

    def test_coherent_row_names_the_first_column_that_disagrees(self, fix_a):
        fm = build(fix_a)
        rows = [list(row) for row in fm.matrix.rows]
        rows[4][6], rows[3][5] = 13, -8
        matrix = ExtendedExchangeMatrix(fm.matrix.n, fm.matrix.m, tuple(map(tuple, rows)))
        assert _coherent_row(matrix, fm.layout, 0) == fm.matrix.rows[0]
        with pytest.raises(GroupCoherenceViolation) as error:
            _coherent_row(matrix, fm.layout, 1)
        assert str(error.value) == "group 1 rows disagree in column 5: [-4, -8, -4]"

    def test_coherent_row_refuses_a_missing_group(self, fix_a):
        # The layout's check is the only one, so the error is IndexOutOfRange.
        fm = build(fix_a)
        for k in (-1, fm.layout.n_groups):
            with pytest.raises(IndexOutOfRange, match=f"no group {k}"):
                _coherent_row(fm.matrix, fm.layout, k)

    def test_walks_share_the_layout(self, fix_b):
        (tracked, embedded), embedding_step, _, _ = embedding_walk(fix_b)
        fm, step, _, _ = product_formula_walk(fix_b)
        layouts = embedded.layout, fm.layout
        for k in (0, 1):
            (tracked, embedded), fm = embedding_step((tracked, embedded), k), step(fm, k)
            assert embedded.layout is layouts[0]
            assert fm.layout is layouts[1]

    def test_group_monomials(self, fix_a):
        table, fm = folded_root(fix_a)
        gm0 = group_monomials(table, fm, 0)
        assert str(gm0.u_gt) == "y3^4*y4^4*y5^4"
        assert str(gm0.u_lt) == "1"
        assert str(gm0.v_gt) == "F2^15"
        assert str(gm0.v_lt) == "F1^9"
        gm1 = group_monomials(table, fm, 1)
        assert str(gm1.u_lt) == "y1^4*y2^4"
        assert str(gm1.v_gt) == "F2^14"
        assert str(gm1.v_lt) == "F1^4"

    def test_group_coherence_violation(self, fix_a):
        table, fm = folded_root(fix_a)
        rows = [list(row) for row in fm.matrix.rows]
        rows[0][5] = -8
        corrupted = FoldedMatrix(
            matrix=ExtendedExchangeMatrix(
                fm.matrix.n, fm.matrix.m, tuple(tuple(row) for row in rows)
            ),
            layout=fm.layout,
        )
        with pytest.raises(GroupCoherenceViolation):
            group_monomials(table, corrupted, 0)


    def test_root_unfoldings_scale_f_by_the_root_multiplicity(
        self, fix_a, fix_b, fix_c
    ):
        # Row r of group i carries (n // d_i) * B[i][N + l] in column F_l,
        # with n the product (total) or the lcm of the divisors, computed
        # here from the divisors themselves.
        rng = random.Random(318)
        seeds = [fix_a, fix_b, fix_c]
        seeds += [random_seed(rng, max_frozen=3) for _ in range(60)]
        apart = 0
        for gca in seeds:
            rank, divisors = gca.rank, gca.divisors.entries
            for mode, n in (("total", prod(divisors)), ("lcm", lcm(*divisors))):
                expected = [
                    tuple((n // d) * e for e in row[rank:])
                    for row, d in zip(gca.matrix.rows, divisors)
                    for _ in range(d)
                ]
                if n != prod(divisors) and any(map(any, expected)):
                    apart += 1
                for fm in (
                    product_formula_walk(gca, mode)[0],
                    QuotientContext.create(gca, mode).root,
                ):
                    columns = fm.layout.f_block
                    rows = fm.matrix.rows
                    assert [tuple(row[c] for c in columns) for row in rows] == expected
        # Some draws tell the lcm from the product.
        assert apart >= 5


class TestSigmaAndUnits:
    def test_balanced_sum(self, fix_c):
        table, fm = folded_root(fix_c)
        assert str(sigma_polynomial(table, fm.layout, 0, 1)) == "t1*s2 + t2*s1"
        assert str(sigma_polynomial(table, fm.layout, 0, 0)) == "s1*s2"
        assert str(sigma_polynomial(table, fm.layout, 0, 2)) == "t1*t2"

    def test_end_sums_are_units(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            table, fm = folded_root(seed)
            layout = fm.layout
            one = LaurentPolynomial.one(table)
            for k in range(seed.rank):
                d_k = len(layout.group_range(k))
                levels = _sigma_levels(table, layout, k)
                for r in (0, d_k):
                    sigma = sigma_polynomial(table, layout, k, r)
                    assert eliminated(sigma, seed.divisors.entries) == one
                    (exps,) = sigma.terms
                    assert table.term(layout.eliminate_units(exps)) == levels[r] == one

    def test_normal_form_idempotent_and_multiplicative(self, fix_c, rng):
        ctx = QuotientContext.create(fix_c)
        table, sizes, eliminate = ctx.table, fix_c.divisors.entries, ctx.layout.eliminate_units

        def random_poly():
            out = LaurentPolynomial.zero(table)
            for _ in range(rng.randint(1, 3)):
                mono = table.monomial(
                    {
                        name: rng.randint(-2, 2)
                        for name in rng.sample(table.names, 3)
                    }
                )
                term = LaurentPolynomial(
                    table, {mono.exponents: rng.randint(1, 3)}
                )
                out = poly_add(out, term)
            return out

        for _ in range(25):
            p, q = random_poly(), random_poly()
            np_, nq = eliminated(p, sizes), eliminated(q, sizes)
            assert eliminated(np_, sizes) == np_
            assert eliminated(poly_mul(p, q), sizes) == eliminated(poly_mul(np_, nq), sizes)
            # The layout's map on vectors: idempotent, and additive, as a
            # monomial map is multiplicative.
            for a, b in product(p.terms, q.terms):
                assert eliminate(eliminate(a)) == eliminate(a)
                total = tuple(x + y for x, y in zip(a, b))
                assert eliminate(total) == tuple(
                    x + y for x, y in zip(eliminate(a), eliminate(b))
                )

    def test_placeholder_expansion_matches_term_by_term(
        self, fix_a, fix_b, fix_c, rng
    ):
        # The library shifts each vector's image by the cached eliminated
        # sigma of its placeholder; the oracle lifts the sum, expands it
        # term by term and eliminates last.  A vector comes up to three
        # times (its coefficient), and its placeholder tail holds at most
        # one placeholder, to the first power.  A tail that multiplies
        # placeholders is refused.
        cases = [(seed, "total", 15) for seed in (fix_a, fix_b, fix_c)]
        cases += [
            (seed, mode, 3)
            for seed in shared_factor_seeds()
            for mode in ("total", "lcm")
        ]
        for seed, mode, count in cases:
            ctx = QuotientContext.create(seed, mode=mode)
            width = len(ctx.placeholder_names)
            base = len(ctx.tracked.table) - width
            ones = [tuple(int(q == i) for q in range(width)) for i in range(width)]
            for _ in range(count):
                tails = [rng.choice([(0,) * width] + ones) for _ in range(2)]
                vectors = []
                for _ in range(rng.randint(1, 6)):
                    head = [0] * base
                    for q in rng.sample(range(base), min(3, base)):
                        head[q] = rng.randint(-2, 2)
                    vectors += [tuple(head) + rng.choice(tails)] * rng.randint(1, 3)
                image = ctx.class_of(vectors)
                assert image == term_by_term_class(ctx, vectors)
                assert image == oracle_phi_poly(ctx, tracked_sum(ctx, vectors))
            for tail in {
                tuple(a + b for a, b in zip(ones[i], ones[j])) for i, j in ((0, 0), (0, -1))
            } if width else ():
                with pytest.raises(InexactDivision, match="^placeholder product"):
                    ctx.class_of([(0,) * base + tail])

    @pytest.mark.parametrize("e", [FIRST_RUNG_LIMIT - 2, FIRST_RUNG_LIMIT - 1])
    def test_expansion_across_the_first_rung(self, fix_c, e):
        # x^e * rho1_1 has the image y1^e*y2^e * E(sigma_{1,1}), where
        # E(sigma_{1,1}) = t1*s1^-1 + t1^-1*s1, bounded by e + 1; x^(e + 1)
        # holds y1^(e + 1).  Both reach the first rung's limit for the
        # second ``e`` only.
        ctx = QuotientContext.create(fix_c)
        vectors = [
            ctx.tracked.table.monomial({"x": e, "rho1_1": 1}).exponents,
            ctx.tracked.table.monomial({"x": e + 1}).exponents,
        ]
        image = ctx.class_of(vectors)
        assert image == term_by_term_class(ctx, vectors)
        y1 = ctx.table.index("y1")
        assert max(exps[y1] for exps in image.terms) == e + 1
        assert (image._layout.bits == FIRST_RUNG_BITS) == (e + 1 < FIRST_RUNG_LIMIT)

    def test_expansion_bound_past_the_first_rung_above_the_exact_extremes(self, fix_c):
        # The bound of y1^(limit - 1)*y2^(limit - 1) * E(sigma_{1,1})
        # reaches the first rung's limit, but sigma moves only t1 and s1,
        # so the exact exponents stay below it: the image sits on a wider
        # rung and equals the term-by-term one, and that one rebuilt on
        # the first.
        ctx = QuotientContext.create(fix_c)
        vectors = [
            ctx.tracked.table.monomial({"x": FIRST_RUNG_LIMIT - 1, "rho1_1": 1}).exponents,
            ctx.tracked.table.monomial({"x": -3, "rho1_1": 1}).exponents,
        ]
        image, oracle = ctx.class_of(vectors), term_by_term_class(ctx, vectors)
        tight = LaurentPolynomial(oracle.table, dict(oracle.terms.items()))
        assert image._layout.bits > tight._layout.bits == FIRST_RUNG_BITS
        for other in (oracle, tight):
            assert image == other and other == image
            assert image.hash_key() == other.hash_key()

    def test_expansion_past_the_first_rung(self, fix_c):
        # The second vector's x^(limit + 1) times E(sigma_{1,1}) holds
        # y1^(limit + 1); the first vector is within the first rung's limit.
        ctx = QuotientContext.create(fix_c)
        vectors = [
            ctx.tracked.table.monomial({"x": FIRST_RUNG_LIMIT - 2, "rho1_1": 1}).exponents,
            ctx.tracked.table.monomial({"x": FIRST_RUNG_LIMIT + 1, "rho1_1": 1}).exponents,
        ]
        image = ctx.class_of(vectors)
        assert image == term_by_term_class(ctx, vectors)
        y1 = ctx.table.index("y1")
        assert max(exps[y1] for exps in image.terms) == FIRST_RUNG_LIMIT + 1

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_every_cached_sigma_level_matches_the_oracle(self, fix_a, fix_b, fix_c, mode):
        # Each group's one cached tuple E(sigma_{k,0}), ..., E(sigma_{k,d}),
        # level by level, against the balanced sum built subset by subset
        # and eliminated through the name oracle.  Each level is rebuilt
        # from its terms, so its bound is the exact one.
        rng = random.Random(33)
        seeds = [fix_a, fix_b, fix_c] + [random_seed(rng, max_frozen=3) for _ in range(12)]
        for seed in seeds:
            ctx = QuotientContext.create(seed, mode)
            table, sizes = ctx.table, seed.divisors.entries
            for k in range(seed.rank):
                levels = _sigma_levels(table, ctx.layout, k)
                assert _sigma_levels(table, ctx.layout, k) is levels
                assert len(levels) == sizes[k] + 1
                for r, level in enumerate(levels):
                    oracle = oracle_sigma(table, sizes, k, r)
                    assert level == oracle and str(level) == str(oracle)
                    assert level.hash_key() == oracle.hash_key()
                    assert level._amp == LaurentPolynomial(table, dict(oracle.terms))._amp

    @pytest.mark.parametrize("m", [
        FIRST_RUNG_LIMIT - 1, FIRST_RUNG_LIMIT, SECOND_RUNG_LIMIT - 1, SECOND_RUNG_LIMIT,
        2**47, 2**94, 2**200,
    ])
    def test_image_splits_off_the_placeholder_tail(self, fix_b, m):
        # The image's head is phi's vector cut to the folded table, of any
        # size; its one placeholder picks the cached eliminated sigma,
        # against the oracle's expansion.  A second placeholder power
        # would multiply sigma sums, and is refused.
        ctx = QuotientContext.create(fix_b)
        tracked, folded = ctx.tracked.table, ctx.table
        mono = tracked.monomial({"x": m, "A": -m, "rho1_2": 1})
        head, sigma = ctx.image(mono.exponents)
        assert head == folded.monomial({"y1": m, "y2": m, "y3": m, "A": -m}).exponents
        assert ctx.image(tracked.monomial({"A": -m}).exponents)[1] is None
        image, oracle = ctx.class_of((mono.exponents,)), oracle_phi_poly(ctx, mono_poly(mono))
        assert image == oracle and image.hash_key() == oracle.hash_key()
        assert image == poly_mul(folded.term(head), sigma)
        product = tracked.monomial({"x": m, "A": -m, "rho1_2": 1, "rho2_1": 2})
        with pytest.raises(InexactDivision, match="^placeholder product"):
            ctx.image(product.exponents)

    def test_negative_placeholder_power_rejected(self, fix_c):
        ctx = QuotientContext.create(fix_c)
        bad = ctx.tracked.table.monomial({"x": 2, "rho1_1": -1}).exponents
        with pytest.raises(InexactDivision, match="verified fragment"):
            ctx.class_of([ctx.tracked.table.one().exponents, bad])


class TestEmbeddingMap:
    def test_initial_image(self, fix_c):
        ctx = QuotientContext.create(fix_c)
        assert str(ctx.group_image(0)) == FIX_C_PHI_X

    def test_image_after_mutation(self, fix_c):
        ctx = EvaluatedContext.create(fix_c).mutate(0)
        assert str(ctx.group_image(0)) == FIX_C_PHI_X_MUTATED

    def test_tracked_seed_specializes_to_concrete(self, fix_a, fix_b, fix_c, rng):
        # The concrete root-adjoined seed is mutated here on its own; the
        # context's placeholder track must specialize to it at every
        # prefix, each placeholder sent to the root seed's string entry
        # at its slot.
        def values(ctx, root):
            slots = [(k, r) for k in range(root.rank) for r in range(1, root.divisors[k])]
            return {
                name: root.strings.entry(k, r)
                for name, (k, r) in zip(ctx.placeholder_names, slots, strict=True)
            }

        def check(ctx, concrete, rho):
            table = concrete.table
            for k in range(concrete.rank):
                assert map_variables(ctx.tracked.cluster[k], rho, table) == concrete.cluster[k]
                for r in range(concrete.divisors[k] + 1):
                    entry = mono_poly(ctx.tracked.strings.entry(k, r))
                    assert map_variables(
                        entry, rho, table
                    ) == mono_poly(concrete.strings.entry(k, r))

        def walk(ctx, concrete, rho, depth):
            check(ctx, concrete, rho)
            if depth:
                for k in range(concrete.rank):
                    walk(ctx.mutate(k), mutate_seed(concrete, k), rho, depth - 1)

        for seed, depth in ((fix_a, 2), (fix_b, 3), (fix_c, 3)):
            ctx, concrete = EvaluatedContext.create(seed), tau_tilde(seed).seed
            walk(ctx, concrete, values(ctx, concrete), depth)
        for _ in range(20):
            seed = random_seed(rng)
            ctx, concrete = EvaluatedContext.create(seed), tau_tilde(seed).seed
            rho = values(ctx, concrete)
            check(ctx, concrete, rho)
            for k in random_sequence(rng, seed.matrix.n, 3):
                ctx, concrete = ctx.mutate(k), mutate_seed(concrete, k)
                check(ctx, concrete, rho)

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_tracked_seed_passes_the_validating_constructors(self, fix_a, fix_b, fix_c, mode):
        # The context builds its tracked seed unchecked from the adjoined
        # seed.  Rebuilt through the public constructors, with each
        # placeholder found by name, it is the same seed.
        rng = random.Random(48)
        for seed in [fix_a, fix_b, fix_c] + [random_seed(rng, max_frozen=3) for _ in range(12)]:
            ctx = QuotientContext.create(seed, mode)
            adjoined, names = tau_tilde(seed, mode=mode).seed, ctx.placeholder_names
            table = adjoined.table.extended(names)
            extra = len(names)
            matrix = ExtendedExchangeMatrix(
                adjoined.matrix.n,
                adjoined.matrix.m + extra,
                [list(row) + [0] * extra for row in adjoined.matrix.rows],
            )
            slots = [(k, r) for k in range(seed.rank) for r in range(1, seed.divisors[k])]
            rows = [
                [table.one()]
                + [table.monomial({name: 1}) for name, (j, _) in zip(names, slots) if j == k]
                + [table.one()]
                for k in range(seed.rank)
            ]
            rebuilt = GeneralizedSeed(
                table,
                [table.variable(name) for name in table.names[: seed.rank]],
                matrix,
                list(adjoined.divisors.entries),
                CoefficientStrings(rows),
            )
            assert rebuilt == ctx.tracked
            assert ctx.tracked.table is table
            for row in ctx.tracked.strings.rows:
                for entry in row:
                    assert Monomial(entry.table, entry.exponents) == entry
                    assert vars(entry).keys() == {"table", "exponents"}

    def test_cluster_images_pinned(self, fix_b):
        # SHA-256 of every cluster image along FIX-B, exhaustively to
        # depth 3 in depth-first order, pinned from a reference run.
        lines = []

        def walk(ctx, depth):
            for k in range(ctx.tracked.rank):
                lines.append(str(oracle_phi_poly(ctx, ctx.tracked.cluster[k])))
            if depth:
                for k in range(ctx.tracked.rank):
                    walk(ctx.mutate(k), depth - 1)

        walk(EvaluatedContext.create(fix_b), 3)
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == FIX_B_CLUSTER_IMAGES_SHA256


class TestProductFormula:
    def test_suite_on_fixtures(self, fix_a, fix_b, fix_c):
        for seed, sequence in (
            (fix_a, (0, 1)),
            (fix_b, (0, 1, 0)),
            (fix_c, (0, 0, 0, 0)),
        ):
            assert not failed_cases("product-formula", seed, [sequence])

    def test_suite_on_random(self, rng):
        for _ in range(25):
            seed = random_seed(rng)
            sequence = random_sequence(rng, seed.matrix.n, 3)
            assert not failed_cases("product-formula", seed, [sequence])

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_packed_check_matches_tuple_oracle(self, fix_a, fix_b, fix_c, rng, mode):
        cases = [
            (fix_a, list(product(range(2), repeat=3))),
            (fix_b, list(product(range(2), repeat=4))),
            (fix_c, [(0,) * 6]),
        ]
        cases += [
            (seed, [random_sequence(rng, seed.matrix.n, 3)])
            for seed in shared_factor_seeds()
        ]
        for _ in range(25):
            seed = random_seed(rng)
            cases.append((seed, [random_sequence(rng, seed.matrix.n, 4)]))
        for seed, sequences in cases:
            table, states = product_formula_states(seed, mode, sequences)
            columns = ColumnMap(table, states[0][0].layout.moved_unit_images())
            for fm, parity in states:
                for k in range(seed.rank):
                    report = product_formula_check(columns, fm, k)
                    assert report.ok, (seed.divisors, parity, k)
                    assert report == oracle_product_formula_check(table, fm, k, parity[k])

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_identity_sign_is_the_counted_parity(self, fix_a, fix_b, fix_c, mode):
        # The walks count each group's mutations themselves.  A group of
        # two or more members reads sign -1 exactly when its count is odd;
        # a group of one reads +1 and needs no parity, since its
        # sigma_{k,0} = s and sigma_{k,1} = t both eliminate to 1.
        cases = [
            (fix_a, list(product(range(2), repeat=6))),
            (fix_b, list(product(range(2), repeat=6))),
            (fix_c, [(0,) * 6]),
        ]
        rng = random.Random(37)
        for _ in range(60):
            seed = random_seed(rng, max_frozen=3)
            cases.append((seed, [random_sequence(rng, seed.rank, 6) for _ in range(3)]))
        read = single = 0
        for seed, sequences in cases:
            table, states = product_formula_states(seed, mode, sequences)
            layout, one = states[0][0].layout, LaurentPolynomial.one(table)
            for k in range(seed.rank):
                if len(layout.group_range(k)) == 1:
                    single += 1
                    for r in (0, 1):
                        sigma = sigma_polynomial(table, layout, k, r)
                        assert eliminated(sigma, seed.divisors.entries) == one
            for fm, parity in states:
                for k in range(seed.rank):
                    if len(layout.group_range(k)) > 1:
                        assert fm.identity_sign(k) == (-1 if parity[k] else 1)
                        read += 1
        assert read > 1000 and single > 20

    def test_tampered_auxiliary_entry_fails_alike(self, fix_a, fix_b, fix_c):
        # The aux columns are outside the coherence check, so a tampered
        # entry reaches the identity itself.  Where it leaves the group's
        # identity sign as counted, both routes must print the same
        # residual; a moved diagonal T entry may instead break the sign
        # (StructureViolation) or flip it, and the check must still fail.
        kinds = set()
        for seed in (fix_a, fix_b, fix_c):
            sequences = [(k,) for k in range(seed.rank)]
            table, states = product_formula_states(seed, "total", sequences)
            columns = ColumnMap(table, states[0][0].layout.moved_unit_images())
            for fm, parity in states:
                for k in range(seed.rank):
                    member, (t_cols, s_cols) = fm.layout.group_range(k)[0], fm.layout.aux[k]
                    for col in (t_cols[0], s_cols[-1]):
                        for delta in (1, -2):
                            bad = tampered(fm, member, col, delta)
                            try:
                                report = product_formula_check(columns, bad, k)
                            except StructureViolation:
                                kinds.add("broken sign")
                                continue
                            assert not report.ok
                            if bad.identity_sign(k) != fm.identity_sign(k):
                                kinds.add("flipped sign")
                                continue
                            kinds.add("alike")
                            assert report == oracle_product_formula_check(
                                table, bad, k, parity[k]
                            )
        assert kinds == {"broken sign", "flipped sign", "alike"}

    def test_shell_exponent_across_the_first_rung(self):
        # One group of two members whose shared frozen entry is b: the
        # r = 2 shell holds F^(2b), past the first rung's limit at 2b = limit.
        def check_at(b):
            seed = parse_seed_text(
                "gca-seed v1\nN 1\nM 1\ndivisors 2\nnames x ; f\n"
                f"matrix 0 {b}\nstring 0 ; 2 ; 0\n"
            )
            table, fm = folded_root(seed)
            assert [row[2] for row in fm.matrix.rows] == [b, b]
            return table, fm

        for b in (FIRST_RUNG_LIMIT // 2 - 2, FIRST_RUNG_LIMIT // 2, FIRST_RUNG_LIMIT):
            table, fm = check_at(b)
            columns = ColumnMap(table, fm.layout.moved_unit_images())
            assert product_formula_check(columns, fm, 0) == Report(())
            assert oracle_product_formula_check(table, fm, 0, 0) == Report(())

    def test_lcm_mode(self, fix_b):
        assert not failed_cases("product-formula", fix_b, [(0, 1)], mode="lcm")

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_walk_root_carries_the_adjoined_multiplicity(
        self, fix_a, fix_b, fix_c, mode
    ):
        # The product-formula checks cannot see the scale of the F
        # columns, so the walk's multiplicity is pinned here against the
        # one root adjunction uses.
        for seed in (fix_a, fix_b, fix_c, *shared_factor_seeds()):
            root, _, _, _ = product_formula_walk(seed, mode)
            n = tau_tilde(seed, mode=mode).multiplicity
            assert root == build(seed, n), (seed.divisors, mode)


class TestEliminationOnVectors:
    """The elimination passes that exponent vectors replace, kept as oracles.

    Every state of the FIX-A and FIX-B walks to depth 3 and the FIX-C
    walk to depth 6 is checked.
    """

    WALKS = [("FIX-A", 3), ("FIX-B", 3), ("FIX-C", 6)]

    @pytest.mark.parametrize("name, depth", [("FIX-A", 2), ("FIX-B", 3), ("FIX-C", 6)])
    def test_formal_contexts_follow_the_walk(self, name, depth):
        seed = fixture_seed(name)
        formal = formal_contexts(seed, depth)
        walked = walked_contexts(seed, "total", list(product(range(seed.rank), repeat=depth)))
        assert formal.keys() == walked.keys()
        for prefix, ctx in walked.items():
            other = formal[prefix]
            assert other.tracked.matrix == ctx.tracked.matrix
            assert other.tracked.strings == ctx.tracked.strings
            assert other.folded.matrix == ctx.folded.matrix

    @pytest.mark.parametrize("name, depth", WALKS)
    def test_product_formula_left_side(self, name, depth):
        # The product of the members' binomials built from eliminated
        # sides, against the unit elimination of the product of the binomials.
        seed = fixture_seed(name)
        sequences = list(product(range(seed.rank), repeat=depth))
        table, states = product_formula_states(seed, "total", sequences)
        columns = ColumnMap(table, states[0][0].layout.moved_unit_images())
        everything = [True] * len(table)
        for fm, _ in states:
            layout = fm.layout
            for k in range(layout.n_groups):
                lhs = LaurentPolynomial.one(table)
                for c in layout.group_range(k):
                    gt, lt = member_sides(table, fm.matrix.rows[c], everything)
                    lhs = poly_mul(lhs, poly_add(mono_poly(gt), mono_poly(lt)))
                expected = eliminated(lhs, seed.divisors.entries)
                assert _member_binomial_product(columns, fm, k) == expected

    @pytest.mark.parametrize("name, depth", WALKS)
    def test_condition_iv_right_sides(self, name, depth, monkeypatch):
        # Every level of the balanced sums of eliminated side ratios that
        # (iv) compares, against the unit elimination of the ratios'
        # balanced sums built subset by subset.  The ratios are read off the
        # rows by role and eliminated by name.  The check passes packed
        # monomials, recorded here by their exponent vectors.
        from gencluster import quotient_embedding

        built = {}
        expand = quotient_embedding.poly_binomial_levels

        def recording(table, pairs):
            pairs = [tuple(pair) for pair in pairs]
            levels = expand(table, pairs)
            built[tuple(tuple(map(packed_vector, pair)) for pair in pairs)] = levels
            return levels

        monkeypatch.setattr(quotient_embedding, "poly_binomial_levels", recording)
        seed = fixture_seed(name)
        for ctx in formal_contexts(seed, depth).values():
            built.clear()
            assert library_conditions(ctx) == []
            table, fm = ctx.folded.table, ctx.unfolding
            units = oracle_unit_elimination(table, seed.divisors.entries)
            keep = [role != "cluster" for role, _ in folded_roles(table, seed.divisors.entries)]

            def eliminated_vector(mono):
                (exps,) = map_variables(mono_poly(mono), units, table).terms
                return exps

            for k in range(seed.rank):
                gm = group_monomials(table, fm, k)
                ratios = []
                for c in fm.layout.group_range(k):
                    gt, lt = member_sides(table, fm.matrix.rows[c], keep)
                    ratios.append((mono_over(gt, gm.v_gt), mono_over(lt, gm.v_lt)))
                raw = [(a.exponents, b.exponents) for a, b in ratios]
                vectors = tuple((eliminated_vector(a), eliminated_vector(b)) for a, b in ratios)
                levels = built[vectors]
                assert len(levels) == seed.divisors[k] + 1
                for r, level in enumerate(levels):
                    expected = eliminated(oracle_balanced_sum(table, raw, r), seed.divisors.entries)
                    assert level == expected
                    assert str(level) == str(expected)

    @pytest.mark.parametrize("name, depth", WALKS)
    def test_string_images(self, name, depth):
        # Each string entry's class, against the earlier route; its
        # vector's image holds at most one placeholder, to the first power.
        for ctx in formal_contexts(fixture_seed(name), depth).values():
            tracked, width = ctx.tracked, len(ctx.folded.table)
            for k in range(tracked.rank):
                for r in range(tracked.divisors[k] + 1):
                    entry = tracked.strings.entry(k, r)
                    tail = ctx.phi.vector(entry.exponents)[width:]
                    assert sum(tail) <= 1 and set(tail) <= {0, 1}
                    image = ctx.class_of((entry.exponents,))
                    assert image == oracle_phi_poly(ctx, mono_poly(entry))


def attempt(function, *args):
    """``(function(*args), None)``, or ``(None, "Type: message")`` of what it raised."""
    try:
        return function(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def evaluated_mismatches(seed, mode, depth):
    """The prefixes where the exchange-data walk and the evaluated walk disagree.

    Every prefix up to ``depth`` is walked on both.  At each, the walks
    must hold the same tracked matrix and strings and the same folded
    matrix, and their checks must raise alike or agree: the same (i),
    (ii) and (iv) failures, and a failure of (iii) (the evaluated
    elements) exactly where the walk's base case or exchange identity
    fails somewhere on the prefix.
    """
    root, step, check, _ = embedding_walk(seed, mode)
    mismatches, level = [], [((), root, EvaluatedContext.create(seed, mode), False)]
    for d in range(depth + 1):
        deeper = []
        for prefix, state, ctx, failed in level:
            (found, error), (expected, oracle_error) = (
                attempt(check, state), attempt(evaluated_conditions, ctx)
            )
            failed |= any(f[0].startswith("(iii)") for f in found or ())
            if error or oracle_error:
                agree = error == oracle_error
            else:
                agree = failed == any(f[0] == "(iii)" for f in expected) and (
                    [f for f in found if not f[0].startswith("(iii)")]
                    == [f for f in expected if f[0] != "(iii)"]
                )
            if not agree:
                mismatches.append(prefix)
            for k in range(seed.rank if d < depth else 0):
                (child, error), (evaluated, oracle_error) = (
                    attempt(step, state, k), attempt(EvaluatedContext.mutate, ctx, k)
                )
                if error or oracle_error:
                    if error != oracle_error:
                        mismatches.append(prefix + (k,))
                    continue
                tracked, fm = child
                if (tracked.matrix, tracked.strings, fm.matrix) != (
                    evaluated.tracked.matrix, evaluated.tracked.strings, evaluated.folded.matrix
                ):
                    mismatches.append(prefix + (k,))
                    continue
                deeper.append((prefix + (k,), child, evaluated, failed))
        level = deeper
    return mismatches


def oracle_draws():
    """60 draws of rank up to 5, divisors up to 5 and up to 3 frozen columns."""
    rng = random.Random(2504)
    return [random_seed(rng, max_rank=5, max_frozen=3, max_divisor=5) for _ in range(60)]


class TestEvaluatedOracle:
    """The exchange-data walk against the evaluated walk of ``evaluated_embedding``."""

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    @pytest.mark.parametrize("name, depth", [("FIX-A", 2), ("FIX-B", 4), ("FIX-C", 6)])
    def test_fixtures(self, name, depth, mode):
        assert evaluated_mismatches(fixture_seed(name), mode, depth) == []

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_random_draws(self, mode):
        for seed in oracle_draws():
            assert evaluated_mismatches(seed, mode, 2) == [], seed.divisors

    def test_planted_faults_in_either_track_fail(self, monkeypatch):
        import evaluated_embedding
        from gencluster import quotient_embedding

        fix_b = fixture_seed("FIX-B")

        def wrong_group(columns, fm, k):
            return _member_binomial_product(columns, fm, (k + 1) % fm.layout.n_groups)

        def skipped_members(seed, layout, k):
            return seed if k == 1 else group_mutate_seed(seed, layout, k)

        plants = [
            lambda: unreversed_strings(monkeypatch),
            lambda: skipped_group_step(monkeypatch),
            lambda: monkeypatch.setattr(
                quotient_embedding, "_member_binomial_product", wrong_group
            ),
            lambda: monkeypatch.setattr(
                evaluated_embedding, "group_mutate_seed", skipped_members
            ),
            lambda: monkeypatch.setattr(
                EvaluatedContext, "group_image",
                lambda ctx, k: LaurentPolynomial.one(ctx.table),
            ),
        ]
        for plant in plants:
            plant()
            assert evaluated_mismatches(fix_b, "total", 2) != []
            monkeypatch.undo()
        assert evaluated_mismatches(fix_b, "total", 2) == []


class TestEmbeddingAndSubquotient:
    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_condition_iv_matches_the_monomial_oracle(self, fix_a, fix_b, fix_c, mode):
        # Untouched contexts pass (iv); a moved auxiliary entry of one
        # member must fail it alike on both routes (a group of one has
        # its auxiliary pair erased by the unit relations, so it is
        # not tampered with).
        rng = random.Random(21)
        walks = [(fix_a, (0,)), (fix_b, (0, 1)), (fix_b, (1, 0)), (fix_c, (0, 0, 0))]
        for _ in range(10):
            seed = random_seed(rng)
            walks.append((seed, random_sequence(rng, seed.rank, 2)))
        def condition_iv(ctx):
            return [f for f in library_conditions(ctx) if f[0].startswith("(iv)")]

        for seed, sequence in walks:
            ctx = EvaluatedContext.create(seed, mode=mode)
            for k in (None,) + sequence:
                ctx = ctx if k is None else ctx.mutate(k)
                assert condition_iv(ctx) == oracle_condition_iv(ctx) == []
                for j in (j for j in range(seed.rank) if seed.divisors[j] > 1):
                    member = ctx.layout.group_range(j)[0]
                    bad = tampered_context(ctx, member, ctx.layout.t_range(j)[0], 1)
                    assert condition_iv(bad) == oracle_condition_iv(bad) != []

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_images_match_the_earlier_route(self, mode, monkeypatch):
        # Every class the check asks for (each exchange polynomial over
        # formal symbols, each string entry), and every group image,
        # against the route that eliminated the units of the whole lift
        # and of the whole group product.  The walk shares one phi and one layout.
        asked, class_of = [], QuotientContext.class_of

        def recording(self, vectors):
            vectors = list(vectors)
            asked.append((vectors, class_of(self, vectors)))
            return asked[-1][1]

        monkeypatch.setattr(QuotientContext, "class_of", recording)
        for seed, sequences in embedding_walks():
            contexts = walked_contexts(seed, mode, sequences)
            root = contexts[()]
            for k in range(seed.rank):
                image = root.constants.group_image(k)
                assert image._keys == oracle_group_image(root, k)._keys
            for ctx in contexts.values():
                assert ctx.phi is root.phi and ctx.layout is root.layout
                asked.clear()
                assert library_conditions(ctx) == []
                assert len(asked) == sum(d + 2 for d in ctx.tracked.divisors.entries)
                for vectors, image in asked:
                    p = tracked_sum(ctx, vectors)
                    assert image._keys == oracle_phi_poly(ctx, p)._keys
                for k in range(ctx.tracked.rank):
                    assert ctx.group_image(k)._keys == oracle_group_image(ctx, k)._keys

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_conditions_i_ii_match_the_polynomial_oracle(self, mode):
        # Untouched contexts pass both routes.  Then one entry is moved in
        # turn: a frozen entry of the tracked matrix, or a cluster or
        # frozen entry of one folded member's row, which breaks the
        # coherence of a larger group.
        failing = 0
        for seed, sequences in embedding_walks():
            for ctx in walked_contexts(seed, mode, sequences).values():
                assert conditions_i_ii(ctx) == oracle_conditions_i_ii(ctx) == []
                for bad in moved_entry_contexts(ctx):
                    found = outcome(conditions_i_ii, bad)
                    assert found == outcome(oracle_conditions_i_ii, bad)
                    failing += isinstance(found, list) and found != []
        assert failing > 100

    @pytest.mark.parametrize("kind", ["(i)", "(ii)"])
    def test_conditions_i_ii_across_the_first_rung(self, kind):
        # Exchange monomials with an exponent at and below the first
        # rung's limit pass both routes; one more on the folded side alone
        # fails both alike.
        for b in (FIRST_RUNG_LIMIT, FIRST_RUNG_LIMIT - 1):
            ctx = EvaluatedContext.create(big_entry_seed(kind, b))
            assert library_conditions(ctx) == oracle_conditions_i_ii(ctx) == []
            col = ctx.layout.group_range(1)[0] if kind == "(i)" else ctx.layout.f_block[0]
            bad = tampered_context(ctx, 0, col, 1)
            found = outcome(conditions_i_ii, bad)
            assert found == outcome(oracle_conditions_i_ii, bad)
            assert found and all(f[0].startswith(kind) for f in found)

    def test_context_checks_what_the_images_rely_on(self, fix_c):
        # A vector over the folded table is not one over the tracked table.
        ctx = QuotientContext.create(fix_c)
        with pytest.raises(ValidationError, match="table size"):
            ctx.class_of((ctx.table.one().exponents,))

    @pytest.mark.parametrize("mode", ["total", "lcm"])
    def test_lifts_read_off_the_layout_match_the_name_oracle(
        self, fix_a, fix_b, fix_c, mode
    ):
        # The images rely on two facts: no lift touches a t or s column,
        # and the tracked placeholder columns stay zero along every walk.
        # FIX-A is walked to depth 2: its folded cluster entries at depth
        # 3 take minutes to build.
        walks = [
            (fix_a, list(product(range(2), repeat=2))),
            (fix_b, list(product(range(2), repeat=3))),
            (fix_c, [(0,) * 3]),
        ]
        walks += [
            (seed, list(product(range(2), repeat=3))) for seed in named_frozen_seeds()
        ]
        rng = random.Random(23)
        for _ in range(20):
            seed = random_seed(rng, max_frozen=3)
            walks.append((seed, [random_sequence(rng, seed.rank, 3)]))
        for seed, sequences in walks:
            for ctx in walked_contexts(seed, mode, sequences).values():
                lifts = phi_lifts(ctx)
                assert oracle_lifts(ctx) == lifts
                roles = folded_roles(ctx.folded.table, ctx.tracked.divisors.entries)
                assert all(roles[q][0] not in ("t", "s") for q in sum(lifts, ()))
                columns = [ctx.tracked.table.index(n) for n in ctx.placeholder_names]
                assert not any(row[j] for row in ctx.tracked.matrix.rows for j in columns)

    def test_placeholders_move_off_cluster_names(self, tmp_path):
        # A cluster variable may hold a placeholder's name; the
        # placeholder then moves on by _R, as a root name does.
        text = "gca-seed v1\nN 1\nM 1\ndivisors 2\nnames rho1_1 ; f\nmatrix 0 2\n"
        seed = parse_seed_text(text)
        assert QuotientContext.create(seed).placeholder_names == ("rho1_1_R",)
        assert not failed_cases("embedding", seed, [(0, 0)])
        assert subquotient_check(seed).ok
        path = tmp_path / "rho.seed"
        path.write_text(text, encoding="utf-8")
        for target in ("embedding", "subquotient"):
            out = io.StringIO()
            assert run_command(["verify", target, "--seed-file", str(path)], out) == 0
            assert out.getvalue().startswith(f"ok target={target} ")
        both = parse_seed_text(
            "gca-seed v1\nN 2\nM 1\ndivisors 2 1\nnames rho1_1 rho1_1_R ; f\n"
            "matrix 0 0 2 ; 0 0 1\n"
        )
        assert QuotientContext.create(both).placeholder_names == ("rho1_1_R_R",)
        assert not failed_cases("embedding", both, [(0, 1)])

    def test_embedding_fix_c_deep(self, fix_c):
        assert not failed_cases("embedding", fix_c, [(0,) * 6])

    def test_embedding_fix_b(self, fix_b):
        for sequence in ((0, 1), (1, 0)):
            assert not failed_cases("embedding", fix_b, [sequence])

    def test_embedding_fix_a(self, fix_a):
        assert not failed_cases("embedding", fix_a, [(0,)])

    def test_subquotient_on_fixtures(self, fix_a, fix_b, fix_c):
        for seed in (fix_a, fix_b, fix_c):
            report = subquotient_check(seed)
            assert report.ok, report.failures

    def test_subquotient_on_random(self, rng):
        for _ in range(25):
            report = subquotient_check(random_seed(rng))
            assert report.ok, report.failures

    def test_lcm_mode_on_shared_factor_seeds(self, rng):
        seeds = shared_factor_seeds()
        assert len(seeds) == 48
        for seed in seeds:
            sequence = random_sequence(rng, seed.matrix.n, 2)
            failed = failed_cases("embedding", seed, [sequence], mode="lcm")
            assert not failed, seed.divisors
            report = subquotient_check(seed, mode="lcm")
            assert report.ok, (seed.divisors, report.failures)


def first_root_image_changed(change):
    """A ``root_map`` whose first image is ``change`` of the true one."""
    root_map = AdjoinedSeed.root_map

    def planted(self):
        images = root_map(self)
        name = next(iter(images))
        images[name] = change(images[name])
        return images

    return planted


class TestSubquotientFailures:
    """Each failure of :func:`subquotient_check`, from one planted fault on FIX-A.

    FIX-A adjoins sixth roots: ``f1 = F1^6``.
    """

    def test_root_image(self, fix_a, monkeypatch):
        # The first root image picks up a cluster variable.
        def times_x1(image):
            return mono_times(image, image.table.monomial({"x1": 1}))

        monkeypatch.setattr(AdjoinedSeed, "root_map", first_root_image_changed(times_x1))
        assert subquotient_check(fix_a).failures == (("root image", "f1", "x1*F1^6"),)

    def test_root_exponent(self, fix_a, monkeypatch):
        # The first root image is squared; its folded image is squared alike.
        planted = first_root_image_changed(lambda image: mono_power(image, 2))
        monkeypatch.setattr(AdjoinedSeed, "root_map", planted)
        assert subquotient_check(fix_a).failures == (("root exponent", "f1", 12),)

    def test_frozen_image(self, fix_a, monkeypatch):
        # A unit elimination that squares the first root sends the folded
        # target F1^6 elsewhere.
        def moving_a_root(layout, exps):
            q = layout.f_block[0]
            return exps[:q] + (2 * exps[q],) + exps[q + 1:]

        monkeypatch.setattr(FoldedLayout, "eliminate_units", moving_a_root)
        assert subquotient_check(fix_a).failures == (("frozen image", "f1", "F1^6"),)

    def test_cluster_image(self, fix_a, monkeypatch):
        # Every group image reads 1.
        monkeypatch.setattr(
            QuotientContext, "group_image",
            lambda ctx, k: LaurentPolynomial.one(ctx.table),
        )
        assert subquotient_check(fix_a).failures == (
            ("cluster image", 0, "y1*y2"), ("cluster image", 1, "y3*y4*y5"),
        )


def unreversed_strings(monkeypatch):
    """Tracked steps that mutate the matrix but keep every string row."""
    from gencluster import quotient_embedding

    def step(seed, k):
        return mutate_exchange_data(seed, k)._trusted_replace(strings=seed.strings)

    monkeypatch.setattr(quotient_embedding, "mutate_exchange_data", step)


def skipped_group_step(monkeypatch):
    """Folded steps that leave the unfolding as it is for group 2."""
    from gencluster import quotient_embedding

    def step(fm, k):
        return fm if k == 1 else group_mutate(fm, k)

    monkeypatch.setattr(quotient_embedding, "group_mutate", step)


def phi_from_another_group(monkeypatch):
    """An embedding that sends the first cluster variable to the second group's product."""
    built = QuotientContext.__init__

    def init(self, adjoined):
        built(self, adjoined)
        phi, names = self.phi, self.tracked.table.names
        images = dict(phi.images)
        images[names[0]] = images[names[1]]
        self.phi = Substitution(images, phi.source, phi.target)

    monkeypatch.setattr(QuotientContext, "__init__", init)


#: ``verify embedding --seed FIX-B --depth 2`` under each planted fault:
#: the exit code and the failing records' details, by sequence.
PLANTED_EMBEDDING_FAULTS = {
    "unreversed strings": (unreversed_strings, {
        "1,1": [
            "(1, '(iii) exchange', 0, None)", "(1, '(iv)', 0, 1)", "(1, '(iv)', 0, 2)"
        ],
        "1,2": [
            "(1, '(iii) exchange', 0, None)", "(1, '(iv)', 0, 1)", "(1, '(iv)', 0, 2)",
            "(2, '(iii) exchange', 0, None)", "(2, '(iv)', 0, 1)", "(2, '(iv)', 0, 2)"
        ],
        "2,1": [
            "(2, '(iii) exchange', 0, None)", "(2, '(iv)', 0, 1)", "(2, '(iv)', 0, 2)"
        ],
    }),
    "skipped group step": (skipped_group_step, {
        "1,2": [
            "(2, '(i) u>', 0, None)", "(2, '(i) u<', 0, None)",
            "(2, '(ii) v>[1]', 0, None)", "(2, '(ii) v<[1]', 0, None)",
            "(2, '(iii) exchange', 0, None)", "(2, '(i) u>', 1, None)",
            "(2, '(i) u<', 1, None)", "(2, '(ii) v>[1]', 1, None)",
            "(2, '(ii) v<[1]', 1, None)"
        ],
        "2,1": [
            "(1, '(i) u>', 0, None)", "(1, '(i) u<', 0, None)",
            "(1, '(iii) exchange', 0, None)", "(1, '(i) u>', 1, None)",
            "(1, '(i) u<', 1, None)", "(1, '(ii) v>[1]', 1, None)",
            "(1, '(ii) v<[1]', 1, None)", "(2, '(i) u>', 0, None)",
            "(2, '(i) u<', 0, None)", "(2, '(iii) exchange', 0, None)",
            "(2, '(i) u>', 1, None)", "(2, '(i) u<', 1, None)",
            "(2, '(ii) v>[1]', 1, None)", "(2, '(ii) v<[1]', 1, None)",
            "(2, '(iii) exchange', 1, None)"
        ],
        "2,2": [
            "(1, '(i) u>', 0, None)", "(1, '(i) u<', 0, None)",
            "(1, '(iii) exchange', 0, None)", "(1, '(i) u>', 1, None)",
            "(1, '(i) u<', 1, None)", "(1, '(ii) v>[1]', 1, None)",
            "(1, '(ii) v<[1]', 1, None)"
        ],
    }),
    "phi from another group": (phi_from_another_group, {
        "1,1": [
            "(0, '(iii)', 0, None)", "(0, '(i) u<', 1, None)",
            "(0, '(iii) exchange', 1, None)", "(1, '(iii)', 0, None)",
            "(1, '(i) u>', 1, None)", "(1, '(iii) exchange', 1, None)",
            "(2, '(iii)', 0, None)", "(2, '(i) u<', 1, None)",
            "(2, '(iii) exchange', 1, None)"
        ],
        "1,2": [
            "(0, '(iii)', 0, None)", "(0, '(i) u<', 1, None)",
            "(0, '(iii) exchange', 1, None)", "(1, '(iii)', 0, None)",
            "(1, '(i) u>', 1, None)", "(1, '(iii) exchange', 1, None)",
            "(2, '(iii)', 0, None)", "(2, '(i) u<', 1, None)",
            "(2, '(iii) exchange', 1, None)"
        ],
        "2,1": [
            "(0, '(iii)', 0, None)", "(0, '(i) u<', 1, None)",
            "(0, '(iii) exchange', 1, None)", "(1, '(iii)', 0, None)",
            "(1, '(i) u>', 1, None)", "(1, '(iii) exchange', 1, None)",
            "(2, '(iii)', 0, None)", "(2, '(i) u<', 1, None)",
            "(2, '(iii) exchange', 1, None)"
        ],
        "2,2": [
            "(0, '(iii)', 0, None)", "(0, '(i) u<', 1, None)",
            "(0, '(iii) exchange', 1, None)", "(1, '(iii)', 0, None)",
            "(1, '(i) u>', 1, None)", "(1, '(iii) exchange', 1, None)",
            "(2, '(iii)', 0, None)", "(2, '(i) u<', 1, None)",
            "(2, '(iii) exchange', 1, None)"
        ],
    }),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_EMBEDDING_FAULTS))
def test_planted_embedding_faults_are_pinned(monkeypatch, fault):
    # Each plant fails the cases that reach it, with these records; every
    # other case of the depth-2 walk passes.
    plant, expected = PLANTED_EMBEDDING_FAULTS[fault]
    plant(monkeypatch)
    out = io.StringIO()
    assert run_command(["verify", "embedding", "--seed", "FIX-B", "--depth", "2"], out) == 2
    found = {}
    for line in out.getvalue().splitlines():
        verdict, _, _, sequence, *detail = line.split(" ", 4)
        assert verdict == ("FAIL" if detail else "ok"), line
        if detail:
            found[sequence.removeprefix("sequence=")] = ast.literal_eval(
                detail[0].removeprefix("detail=")
            )
    assert found == expected


def coherent_row_with_another_f_slice(monkeypatch):
    """Coherent rows whose first ``F`` entry is one more than every member's."""
    from gencluster import quotient_embedding

    coherent = quotient_embedding._coherent_row

    def planted(matrix, layout, k):
        row = coherent(matrix, layout, k)
        q = layout.f_block[0]
        return row[:q] + (row[q] + 1,) + row[q + 1:]

    monkeypatch.setattr(quotient_embedding, "_coherent_row", planted)


#: ``verify embedding --seed FIX-B --depth 1`` under
#: :func:`coherent_row_with_another_f_slice`: the failing records' details
#: by sequence, and the stdout digest.  The members' ``F`` slices differ
#: from the coherent row's, so the side ratios of (iv) keep frozen content:
#: both labels are recorded, one per member and ``F`` column whose part of
#: that sign differs, and the levels with frozen content fail (iv).
FROZEN_CONTENT_RECORDS = {
    "1": [
        "(0, '(ii) v<[1]', 0, None)", "(0, '(iv) ratio < keeps frozen content', 0, 0)",
        "(0, '(iv) ratio < keeps frozen content', 0, 1)",
        "(0, '(iv) ratio < keeps frozen content', 0, 2)",
        "(0, '(iv)', 0, 0)", "(0, '(iv)', 0, 1)", "(0, '(iv)', 0, 2)",
        "(0, '(ii) v>[1]', 1, None)", "(0, '(iv) ratio > keeps frozen content', 1, 3)",
        "(0, '(iv) ratio > keeps frozen content', 1, 4)",
        "(0, '(iv)', 1, 1)", "(0, '(iv)', 1, 2)",
        "(1, '(ii) v>[1]', 0, None)", "(1, '(iv) ratio > keeps frozen content', 0, 0)",
        "(1, '(iv) ratio > keeps frozen content', 0, 1)",
        "(1, '(iv) ratio > keeps frozen content', 0, 2)",
        "(1, '(iv)', 0, 1)", "(1, '(iv)', 0, 2)", "(1, '(iv)', 0, 3)",
        "(1, '(ii) v<[1]', 1, None)", "(1, '(iv) ratio < keeps frozen content', 1, 3)",
        "(1, '(iv) ratio < keeps frozen content', 1, 4)",
        "(1, '(iv)', 1, 0)", "(1, '(iv)', 1, 1)",
    ],
    "2": [
        "(0, '(ii) v<[1]', 0, None)", "(0, '(iv) ratio < keeps frozen content', 0, 0)",
        "(0, '(iv) ratio < keeps frozen content', 0, 1)",
        "(0, '(iv) ratio < keeps frozen content', 0, 2)",
        "(0, '(iv)', 0, 0)", "(0, '(iv)', 0, 1)", "(0, '(iv)', 0, 2)",
        "(0, '(ii) v>[1]', 1, None)", "(0, '(iv) ratio > keeps frozen content', 1, 3)",
        "(0, '(iv) ratio > keeps frozen content', 1, 4)",
        "(0, '(iv)', 1, 1)", "(0, '(iv)', 1, 2)",
        "(1, '(ii) v<[1]', 0, None)", "(1, '(iv) ratio < keeps frozen content', 0, 0)",
        "(1, '(iv) ratio < keeps frozen content', 0, 1)",
        "(1, '(iv) ratio < keeps frozen content', 0, 2)",
        "(1, '(iv)', 0, 0)", "(1, '(iv)', 0, 1)", "(1, '(iv)', 0, 2)",
        "(1, '(ii) v>[1]', 1, None)", "(1, '(iv) ratio > keeps frozen content', 1, 3)",
        "(1, '(iv) ratio > keeps frozen content', 1, 4)",
        "(1, '(iv)', 1, 1)", "(1, '(iv)', 1, 2)",
    ],
}
FROZEN_CONTENT_SHA256 = "789cbb2905b6f37fda46d48dea8ec89b192d7a48a859ad08e8a9dcfa4f661b7a"


def test_frozen_content_records_are_pinned(monkeypatch):
    coherent_row_with_another_f_slice(monkeypatch)
    out = io.StringIO()
    assert run_command(["verify", "embedding", "--seed", "FIX-B", "--depth", "1"], out) == 2
    found = {}
    for line in out.getvalue().splitlines():
        verdict, _, _, sequence, detail = line.split(" ", 4)
        assert verdict == "FAIL", line
        found[sequence.removeprefix("sequence=")] = ast.literal_eval(
            detail.removeprefix("detail=")
        )
    assert found == FROZEN_CONTENT_RECORDS
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == FROZEN_CONTENT_SHA256
