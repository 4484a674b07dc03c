"""The evaluated embedding walk, kept as the oracle of the exchange-data walk.

:func:`gencluster.quotient_embedding.embedding_walk` steps exchange data
only and proves condition (iii) by induction.  The walk here evaluates
both tracks at every state: the tracked seed by ``mutate_seed`` and the
folded seed (:func:`folded_initial_seed`, which the library no longer
builds) member by member, each an exact division of a cluster entry.
Its condition (iii) compares ``phi(x_k)`` with ``prod_c E(x_c)`` as
evaluated elements, and a mutated context shares the eliminated entries
``E(x_c)`` with its parent outside the mutated group.  An evaluated
cluster entry is a general polynomial, which the library's image route
(exponent vectors) does not take: its image is :func:`oracle_phi_poly`.
``E`` is the name oracle :func:`conftest.eliminated` throughout.
Conditions (i) and (ii) are as the library checks them; (iv) builds each
balanced sum subset by subset (:func:`conftest.oracle_balanced_sum`).
"""

from functools import reduce
from operator import sub

from conftest import (
    eliminated, map_variables, oracle_balanced_sum, oracle_sigma, oracle_units, poly_sum,
)
from gencluster.errors import InexactDivision
from gencluster.gca_seed import ExchangeContext, initial_seed, mutate_seed
from gencluster.laurent_kernel import LaurentPolynomial, poly_mul, poly_pow
from gencluster.matrix_mutation import sides
from gencluster.quotient_embedding import QuotientContext, _coherent_row
from gencluster.root_adjoin import root_names
from gencluster.unfolding import FoldedMatrix, _independent_members


def folded_initial_seed(gca, fm):
    """The ordinary seed of the unfolding ``fm`` of ``gca``, at depth zero.

    The table follows the folded columns: cluster variables ``y1..yT``
    (grouped by original direction), the original frozen variables
    renamed to their roots (:func:`~gencluster.root_adjoin.root_names`),
    then per group the ``t`` members followed by the ``s`` members.
    """
    layout = fm.layout
    return initial_seed(
        fm.matrix,
        (1,) * layout.total,
        cluster_names=layout.cluster_names(),
        frozen_names=layout.frozen_names(root_names(gca.table)),
    )


def oracle_lift(ctx, p):
    """``p`` over the tracked table, lifted to ``folded_plus`` with its units eliminated.

    Each cluster variable goes to the product of its group's members,
    found by the layout; every other name is kept.
    """
    table, layout, plus, tracked = ctx.table, ctx.layout, ctx.folded_plus, ctx.tracked
    images = {
        tracked.table.names[k]: plus.monomial(
            {table.names[c]: 1 for c in layout.group_range(k)}
        )
        for k in range(tracked.rank)
    }
    return eliminated(map_variables(p, images, plus), tracked.divisors.entries)


def oracle_phi_poly(ctx, p):
    """The image of a polynomial over the tracked table, placeholders expanded.

    Split the terms of :func:`oracle_lift` by their placeholder powers
    (the exponents past the folded table), multiply each part by the
    powers of its :func:`conftest.oracle_sigma` sums one ``poly_mul`` at
    a time, and add the parts with ``poly_sum``.  A negative placeholder
    power raises :class:`~gencluster.errors.InexactDivision`.
    """
    table, tracked = ctx.table, ctx.tracked
    sizes = tracked.divisors.entries
    slots = [(k, r) for k in range(tracked.rank) for r in range(1, sizes[k])]
    width, split = len(table), {}
    for exps, coeff in oracle_lift(ctx, p).terms.items():
        split.setdefault(exps[width:], {})[exps[:width]] = coeff
    parts = []
    for powers, terms in split.items():
        if any(e < 0 for e in powers):
            raise InexactDivision("negative placeholder power")
        part = LaurentPolynomial(table, terms)
        for (k, r), e in zip(slots, powers):
            if e:
                part = poly_mul(part, poly_pow(oracle_sigma(table, sizes, k, r), e))
        parts.append(part)
    return poly_sum(table, parts)


def group_mutate_seed(seed, layout, k):
    """Mutate every member of group ``k`` of a folded seed once.

    The members are checked as in :func:`~gencluster.unfolding.group_mutate`;
    the seed's mutated matrix is the new folded matrix.
    """
    for c in _independent_members(seed.matrix, layout, k):
        seed = mutate_seed(seed, c)
    return seed


class EvaluatedContext:
    """Both tracks' evaluated seeds at one state, beside a walk's constants.

    ``constants`` is the walk's :class:`QuotientContext`; every name this
    class does not set is read off it.  ``tracked`` starts at its
    depth-zero seed, and ``folded`` is the folded track's seed.
    """

    def __init__(self, constants, folded):
        self.constants = constants
        self.tracked, self.folded = constants.tracked, folded
        self._eliminated = [None] * constants.layout.total

    @staticmethod
    def create(gca, mode="total"):
        constants = QuotientContext.create(gca, mode=mode)
        return EvaluatedContext(constants, folded_initial_seed(gca, constants.root))

    def __getattr__(self, name):
        if name.startswith("__"):  # ``copy`` asks before the instance has a dict
            raise AttributeError(name)
        return getattr(self.constants, name)

    @property
    def unfolding(self):
        return FoldedMatrix(self.folded.matrix, self.layout)

    def mutate(self, k):
        """Advance both tracks by one mutation in direction ``k``."""
        tracked = mutate_seed(self.tracked, k)
        step = EvaluatedContext(self.constants, group_mutate_seed(self.folded, self.layout, k))
        step.tracked = tracked
        step._eliminated = list(self._eliminated)
        for c in self.layout.group_range(k):
            step._eliminated[c] = None
        return step

    def group_image(self, k):
        """``prod_c E(x_c)`` over the members ``c`` of group ``k``, each ``E(x_c)`` kept."""
        members, kept = self.layout.group_range(k), self._eliminated
        for c in members:
            if kept[c] is None:
                kept[c] = eliminated(self.folded.cluster[c], self.tracked.divisors.entries)
        return reduce(poly_mul, (kept[c] for c in members))


def evaluated_conditions(ctx):
    """The failures of conditions (i)-(iv) at an :class:`EvaluatedContext`.

    (iii) compares the image of each evaluated tracked cluster entry with
    the group's product of eliminated folded entries.
    """
    failures = []
    tracked, folded, layout = ctx.tracked, ctx.folded, ctx.layout
    table, phi = folded.table, ctx.phi
    units = oracle_units(table, tracked.divisors.entries)
    width = len(table)
    for k in range(tracked.rank):
        gca_ctx = ExchangeContext(tracked, k)
        first = _coherent_row(folded.matrix, layout, k)
        u_gt, u_lt = sides(first, layout.cluster_block)
        v_gt, v_lt = sides(first, layout.f_block)
        for label, exps, side in (
            ("(i) u>", gca_ctx.u_gt, u_gt),
            ("(i) u<", gca_ctx.u_lt, u_lt),
            ("(ii) v>[1]", gca_ctx.v_gt, v_gt),
            ("(ii) v<[1]", gca_ctx.v_lt, v_lt),
        ):
            if phi.vector(exps)[:width] != side:
                failures.append((label, k, None))
        if oracle_phi_poly(ctx, tracked.cluster[k]) != ctx.group_image(k):
            failures.append(("(iii)", k, None))
        ratios = []
        for c in layout.group_range(k):
            gt, lt = sides(folded.matrix.rows[c], layout.frozen_block)
            pair = (tuple(map(sub, gt, v_gt)), tuple(map(sub, lt, v_lt)))
            for ratio, label in zip(pair, "><"):
                failures.extend(
                    (f"(iv) ratio {label} keeps frozen content", k, c)
                    for pos in layout.f_block
                    if ratio[pos]
                )
            ratios.append((units.vector(pair[0]), units.vector(pair[1])))
        for r in range(tracked.divisors[k] + 1):
            lhs = ctx.class_of((tracked.strings.entry(k, r).exponents,))
            if lhs != oracle_balanced_sum(table, ratios, r):
                failures.append(("(iv)", k, r))
    return failures
