"""Built-in example seeds used by tests, docs, and the command line.

Three pinned fixtures exercise complementary features:

* ``FIX-A`` — rank 2 with two slack columns, divisors (2, 3), trivial
  strings; its entries grow quickly under mutation, which stresses the
  matrix layer and the unfolding.
* ``FIX-B`` — rank 2 with five frozen columns, divisors (3, 2); two of
  the frozen variables never appear in the matrix and act as formal
  string coefficients, so the root-adjoining layer has genuine work to
  do in every direction.
* ``FIX-C`` — rank 1 with one frozen column, divisor (2); the smallest
  seed whose quotient embedding is still non-degenerate.
"""

from .errors import ValidationError
from .gca_seed import CoefficientStrings, initial_seed
from .laurent_kernel import VariableTable
from .matrix_mutation import DivisorVector, ExtendedExchangeMatrix

FIXTURE_NAMES = ("FIX-A", "FIX-B", "FIX-C")


def _fix_a():
    matrix = ExtendedExchangeMatrix.from_rows(
        [[0, 8, -3, 5], [-12, 0, -2, 7]], m=2
    )
    return initial_seed(
        matrix,
        DivisorVector.of(2, 3),
        cluster_names=("x1", "x2"),
        frozen_names=("f1", "f2"),
    )


def _fix_b():
    matrix = ExtendedExchangeMatrix.from_rows(
        [[0, 3, -4, 2, 0, 0, 0], [-2, 0, 0, -3, 0, 0, 0]], m=5
    )
    cluster = ("x", "y")
    frozen = ("a", "b", "p1x", "p2x", "p1y")
    table = VariableTable.make(cluster=cluster, frozen=frozen)
    strings = CoefficientStrings(
        (
            (table.one(), table.monomial(p1x=1), table.monomial(p2x=1), table.one()),
            (table.one(), table.monomial(p1y=1), table.one()),
        )
    )
    return initial_seed(
        matrix,
        DivisorVector.of(3, 2),
        strings=strings,
        cluster_names=cluster,
        frozen_names=frozen,
    )


def _fix_c():
    matrix = ExtendedExchangeMatrix.from_rows([[0, 2]], m=1)
    table = VariableTable.make(cluster=("x",), frozen=("f",))
    strings = CoefficientStrings(
        ((table.one(), table.monomial(f=2), table.one()),)
    )
    return initial_seed(
        matrix,
        DivisorVector.of(2),
        strings=strings,
        cluster_names=("x",),
        frozen_names=("f",),
    )


_BUILDERS = {"FIX-A": _fix_a, "FIX-B": _fix_b, "FIX-C": _fix_c}


def fixture_seed(name):
    """The named built-in seed (``FIX-A``, ``FIX-B`` or ``FIX-C``)."""
    key = name.strip().upper()
    if key not in _BUILDERS:
        raise ValidationError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return _BUILDERS[key]()
