"""Exception types and the check report shared across the package.

Every error raised by the library derives from :class:`GenClusterError`,
so callers can catch one type at the boundary.  Input/validation problems
and mathematical impossibilities get distinct subclasses because the
command line maps them to different exit codes.  A verification check
that reports its failures rather than raising returns a :class:`Report`.

:class:`FrozenValue` owns the value semantics of the immutable value
types (tables, monomials, matrices, strings, seeds, layouts, reports).
A subclass annotates its fields in order, with any class-level default,
and may write a ``__post_init__`` validator.  The base binds arguments
to the fields with ``object.__setattr__``, then calls ``__post_init__``,
looked up at each call so that it can be wrapped; it compares (same
class, then the fields' values), hashes and prints by the fields, and
refuses assigning or deleting any attribute with AttributeError.
:meth:`FrozenValue._trusted_replace` copies a value with some fields
replaced and skips ``__post_init__``: mutation results use it.
"""

from operator import attrgetter

_store = object.__setattr__


class FrozenValue:
    """Base of the immutable value types: built, compared and hashed by their fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        for name, value in zip(fields, args):
            _store(self, name, value)
        if kwargs or len(args) != len(fields):
            cls = type(self)
            if len(args) > len(fields):
                raise TypeError(f"{cls.__qualname__} takes {len(fields)} fields, got {len(args)}")
            for name in fields[len(args):]:
                try:
                    value = kwargs.pop(name) if name in kwargs else getattr(cls, name)
                except AttributeError:
                    raise TypeError(f"{cls.__qualname__} missing field {name!r}") from None
                _store(self, name, value)
            if kwargs:
                raise TypeError(f"{cls.__qualname__} got an unexpected field {min(kwargs)!r}")
        self.__post_init__()

    def __post_init__(self):
        """Check and normalize the stored fields; a subclass may override."""

    def _trusted_replace(self, **changes):
        """A copy with the fields ``changes`` names replaced, built unchecked.

        Only for a type whose instances hold just their fields (a cached
        attribute would be copied stale), and changes that keep its invariants.
        """
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **changes)
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Report(FrozenValue):
    """Outcome of a verification check: the ``failures`` tuple, ``ok`` when empty."""

    failures: tuple

    @property
    def ok(self):
        return not self.failures


class GenClusterError(Exception):
    """Base class for all library errors."""


class TableMismatch(GenClusterError):
    """Two ring elements over different variable tables were combined."""


class InexactDivision(GenClusterError):
    """A Laurent-polynomial division left a nonzero remainder."""


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
