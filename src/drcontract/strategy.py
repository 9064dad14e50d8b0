"""Closed-form optimal consumer behavior under the contract.

The consumer problem is solved backward: for a fixed report, the best
consumption for each call signal is one of a handful of candidate levels
(the vertex of the active quadratic piece or one of its kinks); the best
report then follows from maximizing the expected profit over the report
pair. Each solution carries the strategy label of the region it falls in.

Rather than re-deriving region boundaries, the stage-2 solvers evaluate the
realized profit at every candidate consumption and keep the best, preferring
the smaller consumption on exact payoff ties. The label, which is purely
descriptive, is then assigned from the winning candidate and the report's
position relative to the region bounds (negative bounds clamped to zero).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    opt_out_payoff,
    saturation_point,
    stage2_profit,
)

__all__ = [
    "Regime",
    "Stage1Solution",
    "Stage2Solution",
    "StrategyCalled",
    "StrategyNotCalled",
    "best_report",
    "best_response_called",
    "best_response_not_called",
    "break_even_baseline",
    "call_threshold",
    "expected_profit",
    "planned_consumption",
]

logger = logging.getLogger(__name__)


class StrategyNotCalled(str, Enum):
    """Regions of the best response when not called."""

    A = "A"  # report at or below the true baseline: consume the baseline
    B = "B"  # report between baseline and saturation: consume the report
    C = "C"  # report beyond saturation: consume the saturation point


class StrategyCalled(str, Enum):
    """Regions of the best response when called."""

    U = "U"  # commitment at or above the baseline: consume the baseline
    V = "V"  # high report: honor the commitment, collect the incentive
    W = "W"  # mid report above break-even: still honor the commitment
    X = "X"  # low report below break-even: consume the reduced optimum
    Y = "Y"  # very low report and commitment: consume the reduced optimum
    Z = "Z"  # low commitment, high report: consume the doubly reduced level


class Regime(str, Enum):
    """Position of the call probability relative to the gaming threshold."""

    BELOW_THRESHOLD = "below_threshold"
    ABOVE_THRESHOLD = "above_threshold"


@dataclass(frozen=True)
class Stage2Solution:
    """Optimal consumption for one call signal, with its realized profit."""

    consumption: float
    label: StrategyNotCalled | StrategyCalled | None
    payoff: float


@dataclass(frozen=True)
class Stage1Solution:
    """Optimal report and the expected profit it secures."""

    report: Report
    expected_profit: float
    regime: Regime


def call_threshold(prices: Prices) -> float:
    """Call probability p/(p + p2) above which the report jumps to the cap.

    Defined for every :class:`Prices`, which require p2 > 0.
    """
    return prices.energy_price / (prices.energy_price + prices.incentive_price)


def break_even_baseline(
    committed: float, params: ConsumerParams, prices: Prices
) -> float:
    """Reported baseline at which honoring the commitment stops paying off.

    For a called consumer with a low report, consuming the committed level
    earns the incentive on (baseline - committed) but forgoes utility; at
    this reported-baseline level that exactly ties with ignoring the report
    and consuming the reduced optimum. Below it the reduced optimum wins,
    above it the commitment wins.
    """
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    return (
        g * b**2 / (2 * p2)
        - g * b * committed / p2
        - b
        + g * committed**2 / (2 * p2)
        + 2 * committed
        + p2 / (2 * g)
    )


def _pick_best(candidates, report, signal, params, prices):
    """Evaluate candidate consumption levels; max payoff, smaller q on ties.

    ``candidates`` is an ordered list of (consumption, label); for equal
    consumption values the earlier entry keeps its label.
    """
    ranked = sorted(candidates, key=lambda item: item[0])
    best_q, best_label = ranked[0]
    best_payoff = stage2_profit(best_q, report, signal, params, prices)
    for q, label in ranked[1:]:
        payoff = stage2_profit(q, report, signal, params, prices)
        if payoff > best_payoff:
            best_q, best_label, best_payoff = q, label, payoff
    return Stage2Solution(best_q, best_label, best_payoff)


def best_response_not_called(
    reported_baseline: float, params: ConsumerParams, prices: Prices
) -> Stage2Solution:
    """Optimal consumption when not called, given the announced baseline.

    The payment is p*max(reported baseline, q), so the candidates are the
    true baseline, the reported baseline, and the saturation point.
    """
    if not 0 <= reported_baseline <= params.max_consumption:
        raise ValueError(
            f"reported baseline must lie in [0, {params.max_consumption}]"
        )
    report = Report(baseline=reported_baseline, committed=0.0)
    sat = min(saturation_point(params, prices), params.max_consumption)
    candidates = [
        (params.baseline, StrategyNotCalled.A),
        (reported_baseline, StrategyNotCalled.B),
        (sat, StrategyNotCalled.C),
    ]
    return _pick_best(candidates, report, CallSignal.NOT_CALLED, params, prices)


def best_response_called(
    report: Report, params: ConsumerParams, prices: Prices
) -> Stage2Solution:
    """Optimal consumption when called, given the report pair.

    The profit is piecewise quadratic in q with kinks at the committed level
    and the reported baseline; its maximum is always attained at the true
    baseline, the committed level, or one of the reduced optima
    (b - p2/g)+ and (b - 2*p2/g)+.
    """
    if report.baseline > params.max_consumption:
        raise ValueError(
            f"reported baseline must lie in [0, {params.max_consumption}]"
        )
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    reduced_raw = b - p2 / g
    reduced = max(reduced_raw, 0.0)
    doubly_reduced = max(b - 2 * p2 / g, 0.0)

    if report.baseline >= reduced_raw:
        honor_label = StrategyCalled.V
    else:
        honor_label = StrategyCalled.W
    if report.committed >= doubly_reduced:
        reduce_label = StrategyCalled.X
    else:
        reduce_label = StrategyCalled.Y

    candidates = [
        (b, StrategyCalled.U),
        (report.committed, honor_label),
        (reduced, reduce_label),
        (doubly_reduced, StrategyCalled.Z),
    ]
    return _pick_best(candidates, report, CallSignal.CALLED, params, prices)


def best_report(
    call_probability: float, params: ConsumerParams, prices: Prices
) -> Stage1Solution:
    """Optimal report given the contractual call probability.

    Below the threshold p/(p + p2) the announced baseline is the true one
    inflated by p2*pr/(g*(1 - pr)); above it, the consumption cap. The
    committed consumption is the reduced optimum (b - p2/g)+ regardless.
    The announced baseline is clamped to the cap (reports must satisfy
    baseline <= max_consumption); the clamp only fires when the cap
    assumption is violated and is logged.
    """
    if not 0 <= call_probability <= 1:
        raise ValueError(f"call probability must lie in [0, 1], got {call_probability}")
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    threshold = call_threshold(prices)
    if call_probability <= threshold:
        announced = b + call_probability * p2 / (g * (1 - call_probability))
        regime = Regime.BELOW_THRESHOLD
    else:
        announced = params.max_consumption
        regime = Regime.ABOVE_THRESHOLD
    if announced > params.max_consumption:
        logger.warning(
            "announced baseline %.6f clamped to the cap %.6f "
            "(consumption cap below the saturation point?)",
            announced,
            params.max_consumption,
        )
        announced = params.max_consumption
    committed = max(b - p2 / g, 0.0)
    report = Report(baseline=announced, committed=committed)
    called = best_response_called(report, params, prices)
    not_called = best_response_not_called(report.baseline, params, prices)
    expected = (
        call_probability * called.payoff
        + (1 - call_probability) * not_called.payoff
    )
    return Stage1Solution(report=report, expected_profit=expected, regime=regime)


def expected_profit(
    call_probability: float,
    params: ConsumerParams,
    prices: Prices,
    literal_above_threshold: bool = False,
) -> float:
    """Expected profit of a rational consumer at its optimal report.

    Below the threshold: g*b^2/2 + pr*p2^2/(2g(1-pr)). Above it, the grouped
    form (1-pr)*(p^2/(2g) + b*p - p*q_max) + g*b^2/2
    + pr*(p2^2/(2g) - b*p2 + p2*q_max), which is continuous at the threshold
    and matches the brute-force two-stage optimum.

    ``literal_above_threshold`` substitutes the dimensionally inconsistent
    -b*pr term for the -b*p*pr term in the above-threshold branch. It is
    kept only so the verification suite can demonstrate the resulting
    discontinuity; never use it for real computations.
    """
    if not 0 <= call_probability <= 1:
        raise ValueError(f"call probability must lie in [0, 1], got {call_probability}")
    b = params.baseline
    g = params.marginal_utility
    p = prices.energy_price
    p2 = prices.incentive_price
    q_max = params.max_consumption
    pr = call_probability
    if pr <= call_threshold(prices):
        return opt_out_payoff(params) + pr * p2**2 / (2 * g * (1 - pr))
    if literal_above_threshold:
        return (
            p**2 / (2 * g)
            + b * p
            - p * q_max
            + g * b**2 / 2
            - p**2 * pr / (2 * g)
            + p2**2 * pr / (2 * g)
            - b * pr
            - b * p2 * pr
            + p * q_max * pr
            + p2 * q_max * pr
        )
    return (
        (1 - pr) * (p**2 / (2 * g) + b * p - p * q_max)
        + g * b**2 / 2
        + pr * (p2**2 / (2 * g) - b * p2 + p2 * q_max)
    )


def planned_consumption(
    call_probability: float,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
) -> float:
    """Consumption a rational consumer ends up choosing for each signal.

    This is the composition of the optimal report with the stage-2 best
    response, written in closed form: when not called, the inflated baseline
    below the threshold and the saturation point above it; when called, the
    reduced optimum (b - p2/g)+ regardless of the probability.
    """
    if not 0 <= call_probability <= 1:
        raise ValueError(f"call probability must lie in [0, 1], got {call_probability}")
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    if signal == CallSignal.CALLED:
        return max(b - p2 / g, 0.0)
    if call_probability <= call_threshold(prices):
        planned = b + call_probability * p2 / (g * (1 - call_probability))
    else:
        planned = saturation_point(params, prices)
    return min(planned, params.max_consumption)
