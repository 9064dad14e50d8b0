"""Domain types and elementary payoff computations for the call-probability
demand-response contract.

Everything downstream (closed-form strategies, the brute-force oracle, the
event simulator) is built on the functions in this module, so they are kept
deliberately small and side-effect free. All quantities are double-precision
floats: energies in kWh, money in $, marginal utility in $/kWh^2.

The consumption-dependent functions accept either a scalar or a numpy array
for the consumption argument and return a matching ``float`` or ``ndarray``,
which lets the grid-search oracle evaluate them in bulk. They also broadcast
over per-row parameters: wherever they take a :class:`ConsumerParams`,
:class:`Prices` or :class:`Report`, they take the :func:`columns` of many
such values too, so one call evaluates many consumers with the same formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntEnum
from types import SimpleNamespace

import numpy as np

__all__ = [
    "CallSignal",
    "ConsumerParams",
    "Prices",
    "Report",
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


def _require_finite(obj, *names: str) -> None:
    # A NaN passes every "<= 0" check, so finiteness is tested first.
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class CallSignal(IntEnum):
    """Binary aggregator decision: 1 means the consumer must reduce."""

    NOT_CALLED = 0
    CALLED = 1


@dataclass(frozen=True)
class Prices:
    """Contract prices.

    Attributes:
        energy_price: retail price of energy, $/kWh, finite, >= 0.
        incentive_price: rebate paid per kWh of reduction when called, also
            charged as the penalty per kWh of deviation from the committed
            consumption; finite, > 0 and >= energy_price.
    """

    energy_price: float
    incentive_price: float

    def __post_init__(self) -> None:
        _require_finite(self, "energy_price", "incentive_price")
        if self.energy_price < 0:
            raise ValueError(f"energy_price must be >= 0, got {self.energy_price}")
        if self.incentive_price < self.energy_price:
            raise ValueError(
                "incentive_price must be >= energy_price, got "
                f"{self.incentive_price} < {self.energy_price}"
            )
        if self.incentive_price == 0:
            raise ValueError(
                "incentive_price must be > 0: with both prices at 0 the call "
                "threshold p / (p + p2) is undefined"
            )


@dataclass(frozen=True)
class ConsumerParams:
    """Private type of one consumer.

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
        _require_finite(self, "baseline", "marginal_utility", "max_consumption")
        if self.baseline <= 0:
            raise ValueError(f"baseline must be > 0, got {self.baseline}")
        if self.marginal_utility <= 0:
            raise ValueError(
                f"marginal_utility must be > 0, got {self.marginal_utility}"
            )
        if self.max_consumption <= 0:
            raise ValueError(
                f"max_consumption must be > 0, got {self.max_consumption}"
            )


@dataclass(frozen=True)
class Report:
    """The pair a consumer announces before the event.

    Attributes:
        baseline: announced baseline, kWh. The gaming target.
        committed: consumption level the consumer commits to if called, kWh.
    """

    baseline: float
    committed: float

    def __post_init__(self) -> None:
        if not 0 <= self.committed <= self.baseline:
            raise ValueError(
                "report must satisfy 0 <= committed <= baseline, got "
                f"committed={self.committed}, baseline={self.baseline}"
            )


def columns(cls: type, values) -> SimpleNamespace:
    """The fields of ``values``, all of dataclass ``cls``, as float arrays.

    The result has one attribute per field of ``cls`` (for example
    ``columns(ConsumerParams, params).baseline``), each with one entry per
    value in order. The values were validated when they were built; the
    columns are not validated again.
    """
    return SimpleNamespace(
        **{
            f.name: np.array([getattr(v, f.name) for v in values], dtype=float)
            for f in fields(cls)
        }
    )


def first_flagged(value, flags):
    """``value`` at the first row set in ``flags``, to name it in an error;
    a scalar ``value`` is returned as it is."""
    if np.ndim(value) == 0:
        return value
    return np.broadcast_to(value, np.shape(flags))[flags][0]


def saturation_point(params: ConsumerParams, prices: Prices) -> float:
    """Consumption beyond which marginal utility net of price is zero."""
    return params.baseline + prices.energy_price / params.marginal_utility


def check_consumption_cap(params: ConsumerParams, prices: Prices) -> None:
    """Validate that the consumption cap exceeds the saturation point.

    The contract analysis requires max_consumption > baseline + p/gamma.
    This couples ConsumerParams with Prices, so it is checked here (at
    scenario-assembly time) rather than in either constructor.
    """
    sat = saturation_point(params, prices)
    if params.max_consumption <= sat:
        raise ValueError(
            f"max_consumption={params.max_consumption} must exceed the "
            f"saturation point baseline + p/gamma = {sat}"
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
    if (q < 0).any():
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
    outside = (q < 0) | (q > params.max_consumption)
    if outside.any():
        cap = first_flagged(params.max_consumption, outside)
        raise ValueError(f"consumption must lie in [0, {cap}]")
    if signal == CallSignal.NOT_CALLED:
        paid = payment_not_called(q, report.baseline, prices)
    else:
        paid = payment_called(q, report, prices)
    out = utility(q, params, prices) - paid
    return _scalar_or_array(out, consumption)
