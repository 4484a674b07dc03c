"""The evaluated embedding walk, kept as the oracle of the exchange-data walk.

:func:`gencluster.quotient_embedding.embedding_walk` steps exchange data
only and proves condition (iii) by induction.  The walk here evaluates
both tracks at every state: the tracked seed by ``mutate_seed`` and the
folded seed member by member, each an exact division of a cluster entry.
Its condition (iii) compares ``phi(x_k)`` with ``prod_c E(x_c)`` as
evaluated elements, and a mutated context shares the eliminated entries
``E(x_c)`` with its parent outside the mutated group.  Conditions (i),
(ii) and (iv) are as the library checks them.
"""

from functools import reduce
from operator import sub

from gencluster.gca_seed import ExchangeContext, mutate_seed
from gencluster.laurent_kernel import poly_mul
from gencluster.matrix_mutation import sides
from gencluster.quotient_embedding import QuotientContext, _balanced_sum, _coherent_row
from gencluster.unfolding import FoldedMatrix, _independent_members


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
    class does not set is read off it.  ``tracked`` and ``folded`` start
    at its depth-zero seeds.
    """

    def __init__(self, constants):
        self.constants = constants
        self.tracked, self.folded = constants.tracked, constants.folded
        self._eliminated = [None] * constants.layout.total

    @staticmethod
    def create(gca, mode="total"):
        return EvaluatedContext(QuotientContext.create(gca, mode=mode))

    def __getattr__(self, name):
        if name.startswith("__"):  # ``copy`` asks before the instance has a dict
            raise AttributeError(name)
        return getattr(self.constants, name)

    @property
    def unfolding(self):
        return FoldedMatrix(self.folded.matrix, self.layout)

    def mutate(self, k):
        """Advance both tracks by one mutation in direction ``k``."""
        step = EvaluatedContext(self.constants)
        step.tracked = mutate_seed(self.tracked, k)
        step.folded = group_mutate_seed(self.folded, self.layout, k)
        step._eliminated = list(self._eliminated)
        for c in self.layout.group_range(k):
            step._eliminated[c] = None
        return step

    def group_image(self, k):
        """``prod_c E(x_c)`` over the members ``c`` of group ``k``, each ``E(x_c)`` kept."""
        members, eliminated = self.layout.group_range(k), self._eliminated
        for c in members:
            if eliminated[c] is None:
                eliminated[c] = self.elimination(self.folded.cluster[c])
        return reduce(poly_mul, (eliminated[c] for c in members))


def evaluated_conditions(ctx):
    """The failures of conditions (i)-(iv) at an :class:`EvaluatedContext`.

    (iii) compares the image of each evaluated tracked cluster entry with
    the group's product of eliminated folded entries.
    """
    failures = []
    tracked, folded, layout, units = ctx.tracked, ctx.folded, ctx.layout, ctx.elimination
    table, phi = folded.table, ctx.phi
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
        if ctx.phi_poly(tracked.cluster[k]) != ctx.group_image(k):
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
            lhs = ctx.string_image(tracked.strings.entry(k, r))
            if lhs != _balanced_sum(table, ratios, r):
                failures.append(("(iv)", k, r))
    return failures
