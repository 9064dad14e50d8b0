"""Domain types and elementary payoff computations for the call-probability
demand-response contract.

Everything downstream (closed-form strategies, the brute-force oracle, the
event simulator) is built on the functions in this module, so they are kept
deliberately small and side-effect free. All quantities are double-precision
floats: energies in kWh, money in $, marginal utility in $/kWh^2.

The consumption-dependent functions accept either a scalar or a numpy array
for the consumption argument and return a matching ``float`` or ``ndarray``,
which lets the grid-search oracle evaluate them in bulk. They also broadcast
over per-row parameters: :class:`ConsumerParams`, :class:`Prices` and
:class:`Report` each hold either one value or columns (one float array per
field, see :func:`columns`), so one call evaluates many consumers with the
same formulas. Either form is checked by the same rules, and an error names
the first offending row. Column-valued instances are neither hashable nor
comparable with ``==``, as with numpy arrays.
"""

from __future__ import annotations

import math
import sys
from enum import IntEnum

import numpy as np

__all__ = [
    "CallSignal",
    "ConsumerParams",
    "Prices",
    "Report",
    "check_call_probability",
    "check_consumption_cap",
    "columns",
    "ideal_consumption",
    "opt_out_payoff",
    "payment_called",
    "payment_not_called",
    "saturation_point",
    "stage2_profit",
    "utility",
]


# abs(x) < _INF is False for NaN and both infinities, for floats and arrays.
_INF = math.inf


def require(ok, message: str, *values) -> None:
    """Raise ``ValueError(message.format(*values))`` unless ``ok``, one flag
    or one per row, holds; ``values`` (each one value or a column) are taken
    at the first row where it does not. A ``bool`` is tested without numpy."""
    if ok is True:
        return
    if ok is not False:
        if ok.all():
            return
        bad = np.logical_not(ok)
        values = [np.broadcast_to(v, bad.shape)[bad][0] for v in values]
    raise ValueError(message.format(*values))


class CallSignal(IntEnum):
    """Binary aggregator decision: 1 means the consumer must reduce."""

    NOT_CALLED = 0
    CALLED = 1


class FrozenRecord:
    """Base of the package's value types: a record is its fields, named in
    order by ``_fields`` and set once, by :meth:`_store`.

    Assignment and deletion raise ``AttributeError``, and every numpy array
    among the fields is read-only. Two records are equal when they are of
    the same class and their :meth:`_key`, by default every field, is
    equal, and equal records hash alike. The default ``__init__`` takes the
    fields in order or by name and stores them unchecked; a subclass whose
    fields need checks writes its own, which checks its arguments and then
    stores every field with :meth:`_store`. A record pickles and copies through
    :meth:`__reduce__`, by default a call of its class on its fields, and
    :meth:`_replace` rebuilds through it too, naming each field, so a copy
    or a changed record is checked, and read-only, again.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named) -> None:
        names = self._fields
        values += tuple(named.pop(k) for k in names[len(values):] if k in named)
        if len(values) != len(names) or named:
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        self._store(*values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _store(self, *values) -> None:
        """Set the fields to ``values``, in ``_fields`` order; refused once
        they are set."""
        fields = self.__dict__
        if fields:
            raise AttributeError(f"the fields of {type(self).__name__} are already set")
        for value in values:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        fields.update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(self.__dict__.values())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(self.__dict__.values())

    def _replace(self, **changes):
        """A new record with ``changes`` put over this one's fields, rebuilt
        as :meth:`__reduce__` rebuilds it and so checked as any new one is;
        an unknown field is a ``TypeError``."""
        rebuild, values = self.__reduce__()
        return rebuild(**dict(zip(self._fields, values), **changes))


class Prices(FrozenRecord):
    """Contract prices, one pair or columns of many (see :func:`columns`).

    Attributes:
        energy_price: retail price of energy, $/kWh, finite, >= 0.
        incentive_price: rebate paid per kWh of reduction when called, also
            charged as the penalty per kWh of deviation from the committed
            consumption; finite, > 0 and >= energy_price.
    """

    _fields = ("energy_price", "incentive_price")

    def __init__(self, energy_price: float, incentive_price: float) -> None:
        p, p2 = energy_price, incentive_price
        require(abs(p) < _INF, "energy_price must be finite, got {}", p)
        require(abs(p2) < _INF, "incentive_price must be finite, got {}", p2)
        require(p >= 0, "energy_price must be >= 0, got {}", p)
        require(p2 >= p, "incentive_price must be >= energy_price, got {} < {}", p2, p)
        require(
            p2 != 0,
            "incentive_price must be > 0: with both prices at 0 the call "
            "threshold p / (p + p2) is undefined",
        )
        self._store(p, p2)


class ConsumerParams(FrozenRecord):
    """Private type of one consumer, or columns of many (see :func:`columns`).

    All three attributes must be finite.

    Attributes:
        baseline: consumption the consumer would choose absent any DR
            obligation, kWh, > 0. Known only to the consumer.
        marginal_utility: curvature of the consumer's utility, $/kWh^2, > 0.
        max_consumption: hard cap on consumption, kWh, > 0. The contract
            analysis additionally assumes the cap exceeds the saturation
            point; that coupling with prices is validated separately by
            :func:`check_consumption_cap`.
    """

    _fields = ("baseline", "marginal_utility", "max_consumption")

    def __init__(
        self, baseline: float, marginal_utility: float, max_consumption: float
    ) -> None:
        b, g, q_max = baseline, marginal_utility, max_consumption
        # A NaN passes every "> 0" check, so finiteness is tested first.
        require(abs(b) < _INF, "baseline must be finite, got {}", b)
        require(abs(g) < _INF, "marginal_utility must be finite, got {}", g)
        require(abs(q_max) < _INF, "max_consumption must be finite, got {}", q_max)
        require(b > 0, "baseline must be > 0, got {}", b)
        require(g > 0, "marginal_utility must be > 0, got {}", g)
        require(q_max > 0, "max_consumption must be > 0, got {}", q_max)
        self._store(b, g, q_max)


class Report(FrozenRecord):
    """The pair a consumer announces before the event, or columns of many.

    Attributes:
        baseline: announced baseline, kWh. The gaming target.
        committed: consumption level the consumer commits to if called, kWh.
    """

    _fields = ("baseline", "committed")

    def __init__(self, baseline: float, committed: float) -> None:
        b, q = baseline, committed
        require(
            (0 <= q) & (q <= b),
            "report must satisfy 0 <= committed <= baseline, got "
            "committed={}, baseline={}", q, b,
        )
        self._store(b, q)


def columns(cls: type, values):
    """The ``cls`` (:class:`ConsumerParams`, :class:`Prices` or :class:`Report`)
    whose fields are those of ``values`` as float arrays, one entry per value
    in order (no values give empty columns). It is checked as one value is,
    and an error names the first offending row.
    """
    return cls(*(
        np.array([getattr(v, name) for v in values], dtype=float)
        for name in cls._fields
    ))


def check_call_probability(call_probability) -> None:
    """Refuse a call probability, or a column of them, outside [0, 1]."""
    pr = call_probability
    require((0 <= pr) & (pr <= 1), "call probability must lie in [0, 1], got {}", pr)


def saturation_point(params: ConsumerParams, prices: Prices) -> float:
    """Consumption beyond which marginal utility net of price is zero."""
    return params.baseline + prices.energy_price / params.marginal_utility


# The most a payoff term may be: a sixteenth of the largest float, so that
# every sum of payoff terms that a payoff, an expected profit or verify's
# comparison of them takes, at most about nine terms' worth, stays finite.
_PAYOFF_TERM_LIMIT = sys.float_info.max / 16


def check_consumption_cap(params: ConsumerParams, prices: Prices) -> None:
    """Validate that the consumption cap exceeds the saturation point, and
    that no payoff can overflow, for one consumer or for columns, naming the
    first offending row.

    The contract analysis requires max_consumption > baseline + p/gamma.
    This couples ConsumerParams with Prices, so it is checked here (at
    scenario-assembly time) rather than in either constructor.

    Then every consumption, report and kink lies in [0, q_max], the utility
    is flat past the saturation point s, and p <= p2. So every product that
    a payoff, an expected profit or an oracle table takes is at most twice
    one of these terms, each of which must be at most
    ``_PAYOFF_TERM_LIMIT``: s^2 (the utility's squares), g*s^2/2 (its peak,
    and the opt-out payoff g*b^2/2), p2*q_max (the payments, with p*q_max),
    p2^2 and p2^2/g (the expected profit's, with p^2 and p^2/g) and p2/g
    (the reduced optima b - p2/g and b - 2*p2/g). Each term can overflow
    while the others stay small, so none can be left out.
    """
    q_max = params.max_consumption
    sat = saturation_point(params, prices)
    require(
        q_max > sat,
        "max_consumption={} must exceed the saturation point baseline + p/gamma = {}",
        q_max, sat,
    )
    with np.errstate(over="ignore"):
        for name, value in _payoff_terms(
            sat, q_max, params.marginal_utility, prices.incentive_price
        ):
            require(
                value <= _PAYOFF_TERM_LIMIT,
                f"payoff term {name} = {{}} must be at most {_PAYOFF_TERM_LIMIT} "
                f"for the payoffs to stay finite",
                value,
            )


def _payoff_terms(s, q_max, g, p2):
    """Each term that :func:`check_consumption_cap` bounds, with its name,
    one at a time, so that columns of consumers never hold all six term
    columns at once. In this order a term's own products overflow only
    when the term, or one before it, is over the limit, so the first term
    named is the cause."""
    yield "saturation_point^2", s * s
    yield "marginal_utility*saturation_point^2/2", 0.5 * g * s * s
    yield "incentive_price*max_consumption", p2 * q_max
    yield "incentive_price^2", p2 * p2
    yield "incentive_price^2/marginal_utility", p2 * p2 / g
    yield "incentive_price/marginal_utility", p2 / g


def _scalar_or_array(value: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(value)
    return value


def utility(consumption, params: ConsumerParams, prices: Prices):
    """Consumer utility of a consumption level, $.

    Quadratic with saturation: -g/2*q^2 + (g*b + p)*q up to the saturation
    point b + p/g, constant p^2/(2g) + g*b^2/2 + p*b beyond it. Continuous
    and once-differentiable at the breakpoint, zero at q=0, concave and
    non-decreasing.

    The square is taken as ``d * d``: numpy squares an array that way, but
    raises a Python float or numpy scalar ``** 2`` through libm ``pow``,
    which can differ in the last bit. So one consumption level gives the
    same bits as a scalar, in an array, or with per-row parameters.

    Args:
        consumption: kWh, scalar or array, >= 0.
    """
    q = np.asarray(consumption, dtype=float)
    # Stated positively, so that a NaN consumption is refused too.
    if not (q >= 0).all():
        raise ValueError("consumption must be >= 0")
    g = params.marginal_utility
    s = saturation_point(params, prices)
    # Vertex form of the quadratic, with d = 0.0 from the saturation point
    # on: peak - 0.0 is the saturated constant itself, so plateau ties
    # resolve consistently.
    peak = 0.5 * g * s * s
    d = np.minimum(q, s) - s
    out = peak - 0.5 * g * (d * d)
    return _scalar_or_array(out, consumption)


def opt_out_payoff(params: ConsumerParams) -> float:
    """Payoff of a consumer that does not participate in DR: g*b^2/2."""
    return params.marginal_utility * (params.baseline * params.baseline) / 2


def ideal_consumption(
    params: ConsumerParams, prices: Prices, signal: CallSignal
) -> float:
    """Optimal consumption of a truthfully-reporting consumer.

    Not called: the baseline. Called: the baseline reduced by
    incentive_price/marginal_utility, floored at zero.
    """
    if signal == CallSignal.NOT_CALLED:
        return params.baseline
    reduced = params.baseline - prices.incentive_price / params.marginal_utility
    return _scalar_or_array(np.maximum(reduced, 0.0), reduced)


def payment_not_called(consumption, reported_baseline: float, prices: Prices):
    """Payment owed when not called: p * max(reported baseline, consumption).

    The consumer "buys the baseline": inflating the report costs the full
    energy price on the inflated amount.
    """
    q = np.asarray(consumption, dtype=float)
    out = prices.energy_price * np.maximum(reported_baseline, q)
    return _scalar_or_array(out, consumption)


def payment_called(consumption, report: Report, prices: Prices):
    """Payment owed when called.

    Energy cost p*q, minus the incentive p2*(reported baseline - q)+ for
    reducing below the report, plus the penalty p2*|q - committed| for
    deviating from the committed consumption. Negative values are net
    payments to the consumer.
    """
    q = np.asarray(consumption, dtype=float)
    p = prices.energy_price
    p2 = prices.incentive_price
    out = (
        p * q
        - p2 * np.maximum(report.baseline - q, 0.0)
        + p2 * np.abs(q - report.committed)
    )
    return _scalar_or_array(out, consumption)


def stage2_profit(
    consumption,
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
):
    """Realized profit utility(q) - payment(q) for a given call signal.

    Args:
        consumption: kWh, scalar or array, must lie in [0, max_consumption].
    """
    q = np.asarray(consumption, dtype=float)
    q_max = params.max_consumption
    require((0 <= q) & (q <= q_max), "consumption must lie in [0, {}]", q_max)
    if signal == CallSignal.NOT_CALLED:
        paid = payment_not_called(q, report.baseline, prices)
    else:
        paid = payment_called(q, report, prices)
    out = utility(q, params, prices) - paid
    return _scalar_or_array(out, consumption)
