#!/usr/bin/env python3
"""End-to-end tour of the library on the bundled seeds.

Prints every major object the package computes, in dependency order:
the seed files, the divisor-scaled matrix, matrix and seed mutation,
the unfolded matrix with its block-structure witnesses, root adjoining
with the generalized coefficient rows, and the quotient images of the
cluster variables.  Everything here is recomputed from
the definitions; nothing is read from stored outputs.
"""

import argparse
from functools import reduce

from gencluster.cli_io import _seed_text
from gencluster.fixtures import fixture_seed
from gencluster.gca_seed import exchange_polynomial, initial_seed, mutate_seed
from gencluster.laurent_kernel import LaurentPolynomial, poly_mul
from gencluster.matrix_mutation import modify, mutate, write_matrix
from gencluster.quotient_embedding import QuotientContext
from gencluster.root_adjoin import rho, tau_tilde, tau_variable
from gencluster.unfolding import build, double_constant_check, group_mutate


def show(title, text):
    print(f"== {title} ==")
    print(text if text.endswith("\n") else text + "\n", end="")
    print()


def tour_matrices():
    seed = fixture_seed("FIX-A")
    show("FIX-A seed file", _seed_text(seed))
    modified = modify(seed.matrix, seed.divisors)
    show("FIX-A divisor-scaled matrix", write_matrix(modified))
    show("mutation at 1: plain matrix", write_matrix(mutate(seed.matrix, 0)))

    fm = build(seed)
    show("FIX-A unfolded matrix", write_matrix(fm.matrix))
    after = group_mutate(fm, 0)
    show("unfolded matrix after group mutation 1", write_matrix(after.matrix))
    a, c, alpha = double_constants(group_mutate(after, 1))
    show(
        "double-constant witness after groups 1,2",
        f"a = {a}\nc = {c}\nalpha = {alpha}\n",
    )


def double_constants(fm):
    """The constants ``a``, ``c`` and ``alpha`` of the ``T``/``S`` block pairs.

    Once :func:`double_constant_check` passes, each pair ``(i, j)`` is
    ``T = c J + alpha Id`` and ``T + S = a J`` (``alpha`` only on the
    diagonal), so the constants are read off the first row, and ``alpha``
    is the unfolding's ``identity_sign``.
    """
    double_constant_check(fm)
    a, c, alpha = {}, {}, {}
    for i, rows in enumerate(fm.layout.groups):
        for j, (t_cols, s_cols) in enumerate(fm.layout.aux):
            t, s = fm.block(rows, t_cols)[0], fm.block(rows, s_cols)[0]
            if i == j:
                alpha[i] = fm.identity_sign(i)
            a[(i, j)] = t[0] + s[0]
            c[(i, j)] = t[0] - (alpha[i] if i == j else 0)
    return a, c, alpha


def tour_exchange():
    seed = fixture_seed("FIX-B")
    for k, name in ((0, "x"), (1, "y")):
        show(f"FIX-B exchange polynomial at {name}", str(exchange_polynomial(seed, k)))
    adjoined = tau_tilde(seed)
    for k, name in ((0, "x"), (1, "y")):
        show(
            f"FIX-B adjoined exchange polynomial at {name}",
            str(exchange_polynomial(adjoined.seed, k)),
        )
        show(f"FIX-B carrier monomial at {name}", str(tau_variable(adjoined.seed, k)))
    show(
        "FIX-B generalized coefficient rows",
        "\n".join(
            "  ".join(str(entry) for entry in row) for row in rho(adjoined.seed)
        )
        + "\n",
    )
    mutated = mutate_seed(seed, 0)
    show("FIX-B cluster entry x after mutation at x", str(mutated.cluster[0]))


def eliminated(p, layout):
    """``E(p)``: each term's vector through ``layout.eliminate_units``, like terms added."""
    terms = {}
    for exps, coeff in p.terms.items():
        key = layout.eliminate_units(exps)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPolynomial(p.table, {exps: c for exps, c in terms.items() if c})


def tour_quotient():
    seed = fixture_seed("FIX-C")
    ctx = QuotientContext.create(seed)
    table, layout = ctx.table, ctx.layout
    show("FIX-C folded matrix", write_matrix(ctx.root.matrix))
    image = ctx.group_image(0)
    show("FIX-C image of x under the embedding", str(image))
    # Mutating x mutates each member of its group once in the ordinary
    # seed of the unfolding; x' maps to the unit elimination of the
    # members' product.
    folded = initial_seed(
        ctx.root.matrix,
        (1,) * layout.total,
        cluster_names=table.names[: table.n_cluster],
        frozen_names=table.names[table.n_cluster:],
    )
    members = layout.group_range(0)
    for c in members:
        folded = mutate_seed(folded, c)
    image = reduce(poly_mul, (eliminated(folded.cluster[c], layout) for c in members))
    show("FIX-C image of x' after one mutation", str(image))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    tour_matrices()
    tour_exchange()
    tour_quotient()


if __name__ == "__main__":
    main()
