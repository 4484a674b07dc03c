"""Exception types and the check report shared across the package.

Every error raised by the library derives from :class:`GenClusterError`,
so callers can catch one type at the boundary.  Input/validation problems
and mathematical impossibilities get distinct subclasses because the
command line maps them to different exit codes.  A verification check
that reports its failures rather than raising returns a :class:`Report`.

:class:`FrozenValue` is the base of the immutable value types (tables,
monomials, matrices, strings, seeds, layouts, reports): it refuses
assigning or deleting any attribute with AttributeError and prints the
annotated fields in order.  Each subclass annotates its fields; its
``__init__`` stores them with ``object.__setattr__`` and calls its
``__post_init__`` validator, if any; its ``__eq__`` (same class, then
field by field) and ``__hash__`` (of the fields' tuple) are written out.
"""


class FrozenValue:
    """Base of the immutable value types: no attribute can be set or deleted."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        cls = type(self)
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in cls.__annotations__)
        return f"{cls.__qualname__}({fields})"


class Report(FrozenValue):
    """Outcome of a verification check: the ``failures`` tuple, ``ok`` when empty."""

    failures: tuple

    def __init__(self, failures):
        object.__setattr__(self, "failures", failures)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.failures == other.failures

    def __hash__(self):
        return hash((self.failures,))

    @property
    def ok(self):
        return not self.failures


class GenClusterError(Exception):
    """Base class for all library errors."""


class TableMismatch(GenClusterError):
    """Two ring elements over different variable tables were combined."""


class InexactDivision(GenClusterError):
    """A Laurent-polynomial division left a nonzero remainder."""


class ExponentOverflow(GenClusterError):
    """A Laurent exponent would reach the kernel's exponent limit.

    The limit is :data:`gencluster.laurent_kernel.EXPONENT_LIMIT`; no
    kernel operation stores an exponent of that magnitude or more.
    """


class UnknownSymbol(GenClusterError):
    """A symbol is not present in the relevant variable table."""


class NotSkewSymmetrizable(GenClusterError):
    """No positive diagonal matrix skew-symmetrizes the principal part."""


class InvalidDivisors(GenClusterError):
    """A divisor vector is not compatible with an exchange matrix."""


class IndexOutOfRange(GenClusterError, IndexError):
    """A mutation index does not name a mutable direction."""


class HomogeneityFailure(GenClusterError):
    """An exchange polynomial is not coefficient-homogeneous."""


class StructureViolation(GenClusterError):
    """A block-structured matrix violates a required block identity."""


class GroupCoherenceViolation(GenClusterError):
    """Members of one mutation group disagree where they must agree."""


class ParseError(GenClusterError):
    """A text input does not match the documented grammar.

    ``line`` and ``column`` are 1-based positions when known; they are
    folded into the message so plain ``str()`` reporting stays useful.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(GenClusterError):
    """A parsed object fails a semantic validity requirement."""
