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
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class Prices:
    """Contract prices, one pair or columns of many (see :func:`columns`).

    Attributes:
        energy_price: retail price of energy, $/kWh, finite, >= 0.
        incentive_price: rebate paid per kWh of reduction when called, also
            charged as the penalty per kWh of deviation from the committed
            consumption; finite, > 0 and >= energy_price.
    """

    energy_price: float
    incentive_price: float

    def __post_init__(self) -> None:
        p, p2 = self.energy_price, self.incentive_price
        require(abs(p) < _INF, "energy_price must be finite, got {}", p)
        require(abs(p2) < _INF, "incentive_price must be finite, got {}", p2)
        require(p >= 0, "energy_price must be >= 0, got {}", p)
        require(p2 >= p, "incentive_price must be >= energy_price, got {} < {}", p2, p)
        require(
            p2 != 0,
            "incentive_price must be > 0: with both prices at 0 the call "
            "threshold p / (p + p2) is undefined",
        )


@dataclass(frozen=True)
class ConsumerParams:
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

    baseline: float
    marginal_utility: float
    max_consumption: float

    def __post_init__(self) -> None:
        b, g, q_max = self.baseline, self.marginal_utility, self.max_consumption
        # A NaN passes every "> 0" check, so finiteness is tested first.
        require(abs(b) < _INF, "baseline must be finite, got {}", b)
        require(abs(g) < _INF, "marginal_utility must be finite, got {}", g)
        require(abs(q_max) < _INF, "max_consumption must be finite, got {}", q_max)
        require(b > 0, "baseline must be > 0, got {}", b)
        require(g > 0, "marginal_utility must be > 0, got {}", g)
        require(q_max > 0, "max_consumption must be > 0, got {}", q_max)


@dataclass(frozen=True)
class Report:
    """The pair a consumer announces before the event, or columns of many.

    Attributes:
        baseline: announced baseline, kWh. The gaming target.
        committed: consumption level the consumer commits to if called, kWh.
    """

    baseline: float
    committed: float

    def __post_init__(self) -> None:
        b, q = self.baseline, self.committed
        require(
            (0 <= q) & (q <= b),
            "report must satisfy 0 <= committed <= baseline, got "
            "committed={}, baseline={}", q, b,
        )


def columns(cls: type, values):
    """The ``cls`` (:class:`ConsumerParams`, :class:`Prices` or :class:`Report`)
    whose fields are those of ``values`` as float arrays, one entry per value
    in order (no values give empty columns). It is checked as one value is,
    and an error names the first offending row.
    """
    return cls(*(
        np.array([getattr(v, f.name) for v in values], dtype=float)
        for f in fields(cls)
    ))


def check_call_probability(call_probability) -> None:
    """Refuse a call probability, or a column of them, outside [0, 1]."""
    pr = call_probability
    require((0 <= pr) & (pr <= 1), "call probability must lie in [0, 1], got {}", pr)


def saturation_point(params: ConsumerParams, prices: Prices) -> float:
    """Consumption beyond which marginal utility net of price is zero."""
    return params.baseline + prices.energy_price / params.marginal_utility


def check_consumption_cap(params: ConsumerParams, prices: Prices) -> None:
    """Validate that the consumption cap exceeds the saturation point, for
    one consumer or for columns, naming the first offending row.

    The contract analysis requires max_consumption > baseline + p/gamma.
    This couples ConsumerParams with Prices, so it is checked here (at
    scenario-assembly time) rather than in either constructor.
    """
    q_max = params.max_consumption
    sat = saturation_point(params, prices)
    require(
        q_max > sat,
        "max_consumption={} must exceed the saturation point baseline + p/gamma = {}",
        q_max, sat,
    )


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
    raises a 0-d value ``** 2`` through libm ``pow``, which can differ in
    the last bit. So one consumption level gives the same bits as a scalar,
    in an array, or with per-row parameters.

    Args:
        consumption: kWh, scalar or array, >= 0.
    """
    q = np.asarray(consumption, dtype=float)
    # Stated positively, so that a NaN consumption is refused too.
    if not (q >= 0).all():
        raise ValueError("consumption must be >= 0")
    g = params.marginal_utility
    s = saturation_point(params, prices)
    # Vertex form of the quadratic: bitwise-identical to the saturated
    # constant at the breakpoint, so plateau ties resolve consistently.
    peak = 0.5 * g * s * s
    d = q - s
    out = np.where(q <= s, peak - 0.5 * g * (d * d), peak)
    return _scalar_or_array(out, consumption)


def opt_out_payoff(params: ConsumerParams) -> float:
    """Payoff of a consumer that does not participate in DR: g*b^2/2."""
    return params.marginal_utility * params.baseline**2 / 2


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
