"""Column-valued domain types: one float array per field, checked by the
same rules as one value, with errors that name the first offending row."""

import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drcontract import ConsumerParams, Prices, Report
from drcontract.core import check_call_probability, check_consumption_cap, columns

NAN, INF = math.nan, math.inf

GOOD_ROWS = {
    ConsumerParams: (8.0, 0.05, 16.0),
    Prices: (0.26, 0.30),
    Report: (9.0, 2.0),
}

BAD_ROWS = [
    (ConsumerParams, (0.0, 0.05, 16.0)),
    (ConsumerParams, (8.0, -0.05, 16.0)),
    (ConsumerParams, (8.0, 0.05, 0.0)),
    (ConsumerParams, (NAN, 0.05, 16.0)),
    (ConsumerParams, (8.0, NAN, -1.0)),
    (ConsumerParams, (8.0, 0.05, INF)),
    (ConsumerParams, (-1.0, 0.05, -INF)),
    (Prices, (-0.1, 0.30)),
    (Prices, (0.30, 0.26)),
    (Prices, (0.0, 0.0)),
    (Prices, (NAN, 0.30)),
    (Prices, (0.26, INF)),
    (Report, (2.0, 9.0)),
    (Report, (9.0, -1.0)),
    (Report, (NAN, 2.0)),
    (Report, (9.0, NAN)),
]


def message(build):
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


def rows_as_columns(cls, rows):
    """``columns`` of rows given as plain numbers, which may be invalid."""
    return columns(cls, [SimpleNamespace(**dict(zip(cls._fields, row))) for row in rows])


@pytest.mark.parametrize("cls, bad", BAD_ROWS)
@pytest.mark.parametrize("at", [0, 1, 2])
def test_one_bad_row_raises_its_own_message(cls, bad, at):
    rows = [GOOD_ROWS[cls]] * 3
    rows[at] = bad
    alone = message(lambda: cls(*bad))
    assert message(lambda: rows_as_columns(cls, rows)) == alone


@pytest.mark.parametrize("cls", [ConsumerParams, Prices, Report])
def test_no_values_give_empty_columns(cls):
    empty = columns(cls, [])
    assert type(empty) is cls
    assert all(np.shape(v) == (0,) for v in vars(empty).values())


@pytest.mark.parametrize("cls", [ConsumerParams, Prices, Report])
def test_columns_hold_one_float_array_per_field(cls):
    values = [cls(*GOOD_ROWS[cls])] * 2
    built = columns(cls, values)
    assert type(built) is cls
    for name, column in vars(built).items():
        assert column.dtype == float
        assert column.tolist() == [getattr(values[0], name)] * 2


@pytest.mark.parametrize("cls", [ConsumerParams, Prices, Report])
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
)
def test_columns_are_the_arrays_passed_in_made_read_only(cls, duplicate):
    given = [np.array([value] * 2) for value in GOOD_ROWS[cls]]
    built = cls(*given)
    for value in (built, duplicate(built)):
        for column, array in zip(vars(value).values(), given):
            assert not column.flags.writeable
            assert column.tolist() == array.tolist()
            with pytest.raises(ValueError):
                column[0] = 1.0
    assert all(column is array for column, array in zip(vars(built).values(), given))


def test_cap_check_names_the_first_row_under_saturation():
    params = columns(
        ConsumerParams,
        [ConsumerParams(8.0, 0.05, cap) for cap in (16.0, 13.0, 12.0)],
    )
    prices = Prices(0.26, 0.30)
    assert message(lambda: check_consumption_cap(params, prices)) == (
        "max_consumption=13.0 must exceed the saturation point "
        "baseline + p/gamma = 13.2"
    )
    assert message(
        lambda: check_consumption_cap(ConsumerParams(8.0, 0.05, 13.0), prices)
    ) == message(lambda: check_consumption_cap(params, prices))
    check_consumption_cap(columns(ConsumerParams, []), prices)


@pytest.mark.parametrize(
    "probabilities, named",
    [([0.5, 1.5, -0.1], "1.5"), ([0.0, NAN, 2.0], "nan"), ([1.0, 0.2, -0.1], "-0.1")],
)
def test_call_probability_check_names_the_first_bad_row(probabilities, named):
    want = f"call probability must lie in [0, 1], got {named}"
    assert message(lambda: check_call_probability(np.array(probabilities))) == want
    assert message(lambda: check_call_probability(float(named))) == want
    check_call_probability(np.array([0.0, 0.5, 1.0]))


def test_one_value_keeps_python_floats():
    params = ConsumerParams(8.0, 0.05, 16.0)
    assert all(type(v) is float for v in vars(params).values())
    assert params == ConsumerParams(8.0, 0.05, 16.0)
    assert hash(params) == hash(ConsumerParams(8.0, 0.05, 16.0))


# Every field value that breaks some rule of some type, and some that do not.
field_values = st.sampled_from(
    [NAN, INF, -INF, -1.0, -0.0, 0.0, 0.05, 0.26, 0.3, 2.0, 9.0, 16.0]
)


@given(
    st.sampled_from([ConsumerParams, Prices, Report]).flatmap(
        lambda cls: st.tuples(
            st.just(cls),
            st.lists(
                st.tuples(*[field_values] * len(cls._fields)),
                max_size=4,
            ),
        )
    )
)
def test_a_column_raises_iff_some_row_raises(case):
    cls, rows = case
    alone = []
    for row in rows:
        try:
            cls(*row)
        except ValueError as exc:
            alone.append(str(exc))
    try:
        rows_as_columns(cls, rows)
    except ValueError as exc:
        assert str(exc) in alone
    else:
        assert not alone
