"""Value semantics of the package's immutable value types.

Each type is built, compares, hashes and prints by its fields:
keyword and positional arguments build equal values, instances built
apart from equal parts are equal, a change to any one field makes them
unequal, another type never compares equal, and no attribute can be
assigned or deleted.  A part that is not a sequence, or not of its
field's type, raises ValidationError.
"""

from copy import copy

import pytest

from gencluster.errors import Report, ValidationError
from gencluster.gca_seed import CoefficientStrings, GeneralizedSeed, initial_seed, mutate_seed
from gencluster.laurent_kernel import Monomial, VariableTable
from gencluster.matrix_mutation import DivisorVector, ExtendedExchangeMatrix, mutate
from gencluster.root_adjoin import AdjoinedSeed, tau_tilde
from gencluster.unfolding import FoldedLayout, FoldedMatrix, build


def _table():
    return VariableTable(("x", "y", "f"), 2)


def _matrix():
    return ExtendedExchangeMatrix(2, 1, ((0, 2, 1), (-1, 0, 3)))


def _seed():
    return initial_seed(_matrix(), DivisorVector((2, 1)))


#: ``class: (factory, {field: another value})``, fields in declaration
#: order.  Each factory call builds an instance from freshly built parts.
VALUES = {
    Report: (lambda: Report(("x fails", "y fails")), {"failures": ("x fails",)}),
    VariableTable: (_table, {"names": ("x", "y", "g"), "n_cluster": 1}),
    Monomial: (
        lambda: Monomial(_table(), (1, 0, -2)),
        {"table": VariableTable(("x", "z", "f"), 2), "exponents": (1, 0, 2)},
    ),
    ExtendedExchangeMatrix: (
        _matrix, {"n": 3, "m": 2, "rows": ((0, 2, 1), (-1, 0, 2))},
    ),
    DivisorVector: (lambda: DivisorVector((2, 1)), {"entries": (1, 2)}),
    CoefficientStrings: (
        lambda: CoefficientStrings.trivial(_table(), DivisorVector((2, 1))),
        {"rows": CoefficientStrings.trivial(_table(), DivisorVector((1, 1))).rows},
    ),
    GeneralizedSeed: (_seed, {
        "table": VariableTable(("a", "b", "f1"), 2),
        "cluster": mutate_seed(_seed(), 0).cluster,
        "matrix": mutate(_matrix(), 0),
        "divisors": DivisorVector((1, 1)),
        "strings": CoefficientStrings.trivial(_seed().table, DivisorVector((1, 1))),
    }),
    AdjoinedSeed: (lambda: tau_tilde(_seed()), {
        "base": mutate_seed(_seed(), 0), "seed": _seed(), "multiplicity": 4,
    }),
    FoldedLayout: (
        lambda: FoldedLayout((2, 1), 1),
        {"group_sizes": (1, 2), "m_original": 0, "multiplicity": 4},
    ),
    FoldedMatrix: (lambda: build(_seed()), {
        "matrix": mutate(build(_seed()).matrix, 0), "layout": FoldedLayout((2, 1), 1, 4),
    }),
}

#: Types with a field that holds Laurent polynomials, which do not hash.
UNHASHABLE = {GeneralizedSeed, AdjoinedSeed}

CASES = [pytest.param(cls, id=cls.__name__) for cls in VALUES]
FIELD_CASES = [
    pytest.param(cls, field, id=f"{cls.__name__}.{field}")
    for cls, (_, changes) in VALUES.items()
    for field in changes
]


@pytest.mark.parametrize("cls", CASES)
def test_equal_parts_give_equal_values(cls):
    make, _ = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert repr(a) == repr(b)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CASES)
def test_keyword_and_positional_arguments_build_equal_values(cls):
    make, changes = VALUES[cls]
    value = make()
    fields = {name: getattr(value, name) for name in changes}
    assert cls(**fields) == cls(*fields.values()) == value
    if cls is FoldedLayout:
        # The multiplicity defaults to the product of the divisors.
        assert FoldedLayout(group_sizes=(2, 1), m_original=1) == value
    first = next(iter(fields))
    with pytest.raises(TypeError, match=f"missing field {first!r}"):
        cls(**{name: v for name, v in fields.items() if name != first})
    with pytest.raises(TypeError, match="unexpected field 'extra'"):
        cls(**fields, extra=None)
    with pytest.raises(TypeError, match=f"unexpected field {first!r}"):
        cls(fields[first], **fields)
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields"):
        cls(*fields.values(), None)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ExtendedExchangeMatrix(1, 0, 5), id="matrix-rows"),
    pytest.param(lambda: ExtendedExchangeMatrix(1, 0, (5,)), id="matrix-row"),
    pytest.param(lambda: Monomial(_table(), 5), id="monomial-exponents"),
    pytest.param(lambda: CoefficientStrings(5), id="string-rows"),
    pytest.param(lambda: VariableTable(5, 0), id="table-names"),
])
def test_parts_that_are_not_sequences_raise_validation_error(build):
    with pytest.raises(ValidationError, match="must be a sequence|must be sequences"):
        build()


def _seed_with(**part):
    seed = _seed()
    return GeneralizedSeed(**{**{name: getattr(seed, name) for name in seed._fields}, **part})


def _strings_with(entry):
    """The seed's trivial strings with ``entry`` inside row 0."""
    (first, *rest) = _seed().strings.rows
    return CoefficientStrings(((first[0], entry, first[-1]), *rest))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _seed_with(cluster=5), id="seed-cluster"),
    pytest.param(lambda: _seed_with(divisors=5), id="seed-divisors"),
    pytest.param(lambda: _seed_with(matrix=5), id="seed-matrix"),
    pytest.param(lambda: _seed_with(strings=5), id="seed-strings"),
    pytest.param(lambda: _seed_with(cluster=(5, 6)), id="seed-cluster-entries"),
    pytest.param(lambda: _seed_with(strings=_strings_with(5)), id="seed-string-entry"),
    pytest.param(lambda: CoefficientStrings(((5,),)).validate(_table(), (0,)), id="string-entry"),
    pytest.param(lambda: FoldedLayout(5, 1), id="layout-sizes"),
    pytest.param(lambda: FoldedLayout((0,), 0, 1), id="layout-empty-group"),
    pytest.param(lambda: FoldedLayout((-1,), 0, 2), id="layout-negative-group"),
    pytest.param(lambda: FoldedLayout((2, 1), "a"), id="layout-frozen-count"),
    pytest.param(lambda: FoldedMatrix(5, FoldedLayout((2, 1), 1)), id="folded-matrix"),
])
def test_parts_of_the_wrong_type_raise_validation_error(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("cls", CASES)
def test_repr_lists_the_fields_in_order(cls):
    make, changes = VALUES[cls]
    value = make()
    if cls is Monomial:
        assert repr(value) == "Monomial(x*f^-2)"
        return
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in changes)
    assert repr(value) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, field", FIELD_CASES)
def test_a_changed_field_makes_values_unequal(cls, field):
    make, changes = VALUES[cls]
    a = make()
    b = copy(a)
    assert a == b
    assert getattr(a, field) != changes[field]
    object.__setattr__(b, field, changes[field])
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("cls", CASES)
def test_other_types_never_compare_equal(cls):
    make, _ = VALUES[cls]
    value = make()
    others = [None, 0, (), "value", object()]
    others += [m() for other, (m, _) in VALUES.items() if other is not cls]
    for other in others:
        assert (value == other) is False
        assert (other == value) is False
        assert value != other


@pytest.mark.parametrize("cls, field", FIELD_CASES)
def test_fields_cannot_be_assigned_or_deleted(cls, field):
    make, changes = VALUES[cls]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, changes[field])
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("cls", CASES)
def test_no_attribute_can_be_added(cls):
    make, _ = VALUES[cls]
    value = make()
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")
