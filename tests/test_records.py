"""The immutable record types: frozen, compared and hashed by value within
their own class, printable, picklable, and strict about their arguments."""

import copy
import pickle
from types import SimpleNamespace

import pytest

from drcontract import (
    ConsumerParams, MonteCarloResult, PortfolioMember, Prices, Report, SweepSpec,
)

HOUSEHOLD = ConsumerParams(8.0, 0.05, 16.0)

# Each record type with the arguments of one valid, hashable value and of a
# second one that differs from it.
ARGS = {
    Prices: [(0.26, 0.3), (0.2, 0.3)],
    ConsumerParams: [(8.0, 0.05, 16.0), (8.0, 0.05, 17.0)],
    Report: [(9.0, 2.0), (9.0, 3.0)],
    SweepSpec: [("p_r", 0.0, 1.0, 3), ("gamma", 0.04, 0.2, 3)],
    PortfolioMember: [("a", HOUSEHOLD, 0.1), ("b", HOUSEHOLD, 0.1)],
    MonteCarloResult: [((), (), (), None, None), (("s",), (), (), None, None)],
}
TYPES = list(ARGS)


@pytest.mark.parametrize("cls", TYPES)
def test_fields_are_the_arguments_in_order(cls):
    args = ARGS[cls][0]
    record = cls(*args)
    assert list(vars(record)) == list(cls._fields)
    assert tuple(vars(record).values()) == args
    assert cls(**dict(zip(cls._fields, args))) == record


@pytest.mark.parametrize("cls", TYPES)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = cls(*ARGS[cls][0])
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.__init__(*ARGS[cls][1])
    assert tuple(vars(record).values()) == ARGS[cls][0]


@pytest.mark.parametrize("cls", TYPES)
def test_a_record_equals_only_a_record_of_its_own_class(cls):
    first, second = (cls(*args) for args in ARGS[cls])
    assert first == cls(*ARGS[cls][0])
    assert first != second
    subclass = type("Sub", (cls,), {})
    for other in (
        subclass(*ARGS[cls][0]),
        SimpleNamespace(**vars(first)),
        tuple(vars(first).values()),
        *(kind(*ARGS[kind][0]) for kind in TYPES if kind is not cls),
    ):
        assert first != other
        assert first.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", TYPES)
def test_equal_records_hash_alike(cls):
    assert hash(cls(*ARGS[cls][0])) == hash(cls(*ARGS[cls][0]))
    assert len({cls(*args) for args in ARGS[cls]}) == 2


def test_repr_names_every_field():
    assert repr(Prices(0.26, 0.3)) == "Prices(energy_price=0.26, incentive_price=0.3)"


@pytest.mark.parametrize("cls", TYPES)
@pytest.mark.parametrize(
    "duplicate", [copy.copy, lambda record: pickle.loads(pickle.dumps(record))]
)
def test_a_record_round_trips(cls, duplicate):
    record = cls(*ARGS[cls][0])
    copied = duplicate(record)
    assert type(copied) is cls
    assert copied == record
    assert vars(copied) == vars(record)


@pytest.mark.parametrize("cls", TYPES)
def test_a_missing_extra_or_doubled_argument_is_a_type_error(cls):
    args = ARGS[cls][0]
    for build in (
        lambda: cls(*args[:-1]),
        lambda: cls(*args, args[-1]),
        lambda: cls(*args, extra=1.0),
        lambda: cls(*args, **{cls._fields[0]: args[0]}),
    ):
        with pytest.raises(TypeError):
            build()


def test_results_compare_by_stats_summaries_and_records_only():
    result = MonteCarloResult(("s",), ("m",), ("r",), outcomes="one", called=(True,))
    for changed in ({"outcomes": "other"}, {"called": (False,)}):
        other = result._replace(**changed)
        assert other == result
        assert hash(other) == hash(result)
    assert result != result._replace(records=("other",))
