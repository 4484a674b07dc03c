"""Exact symbolic computation for generalized cluster algebras.

Subpackages cover the Laurent-polynomial kernel, matrix mutation,
generalized seeds with higher-order exchange relations, root adjoining,
block-constant unfoldings, and the quotient embedding of a generalized
cluster algebra into an ordinary one, together with a
verification harness exposed on the command line as ``gencluster``.
"""

import importlib

from . import (
    cli_io,
    gca_seed,
    laurent_kernel,
    matrix_mutation,
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


def __getattr__(name):
    """Import the quotient layer on first use: only its targets need it."""
    if name != "quotient_embedding":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
