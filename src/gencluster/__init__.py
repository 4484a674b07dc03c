"""Exact symbolic computation for generalized cluster algebras.

Subpackages cover the Laurent-polynomial kernel, matrix mutation,
generalized seeds with higher-order exchange relations, root adjoining,
block-constant unfoldings, and the quotient embedding of a generalized
cluster algebra into an ordinary one, together with a
verification harness exposed on the command line as ``gencluster``.
"""

from . import (
    cli_io,
    gca_seed,
    laurent_kernel,
    matrix_mutation,
    quotient_embedding,
    root_adjoin,
    unfolding,
)
from .errors import GenClusterError

__all__ = [
    "GenClusterError",
    "cli_io",
    "gca_seed",
    "laurent_kernel",
    "matrix_mutation",
    "quotient_embedding",
    "root_adjoin",
    "unfolding",
]

__version__ = "0.1.0"
