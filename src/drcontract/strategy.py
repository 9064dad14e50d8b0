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

One array kernel, :func:`solve`, does this for many consumers at once; the
scalar solvers :func:`best_report`, :func:`best_response_called` and
:func:`best_response_not_called` are its one-row forms. The sweep formulas
:func:`expected_profit` and :func:`planned_consumption` stay scalar.
"""

from __future__ import annotations

from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_call_probability,
    ideal_consumption,
    opt_out_payoff,
    require,
    saturation_point,
    stage2_profit,
)

__all__ = [
    "LABELS",
    "Regime",
    "Solutions",
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
    "solve",
]


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


class Stage2Solution(NamedTuple):
    """Optimal consumption for one call signal, with its realized profit."""

    consumption: float
    label: StrategyNotCalled | StrategyCalled | None
    payoff: float


class Stage1Solution(NamedTuple):
    """Optimal report and the expected profit it secures."""

    report: Report
    expected_profit: float
    regime: Regime


# The strategy labels of each call signal, indexed by CallSignal; the label
# indices of Solutions point into these.
LABELS = (tuple(StrategyNotCalled), tuple(StrategyCalled))


class Solutions(NamedTuple):
    """Closed-form solutions of many consumers, one entry per row.

    Column ``s`` of the per-signal arrays (shape ``(..., 2)``) is for
    ``CallSignal(s)``.

    Attributes:
        report_baseline, report_committed: the optimal report, or the given
            one.
        consumption, payoff: best consumption per signal and its realized
            profit.
        label: index of the strategy label in ``LABELS[s]``.
        expected_profit: expected profit of the optimal report; None when
            the report was given.
        above_threshold: True where the call probability lies above
            p/(p + p2); None when the report was given.
    """

    report_baseline: np.ndarray
    report_committed: np.ndarray
    consumption: np.ndarray
    payoff: np.ndarray
    label: np.ndarray
    expected_profit: np.ndarray | None
    above_threshold: np.ndarray | None


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
        g * (b * b) / (2 * p2)
        - g * b * committed / p2
        - b
        + g * (committed * committed) / (2 * p2)
        + 2 * committed
        + p2 / (2 * g)
    )


def _respond(signal: CallSignal, report, params, prices):
    """Best consumption, its payoff and its label index for one call signal.

    Each row evaluates the same candidate levels as the scalar closed form
    (see :func:`best_response_not_called` and :func:`best_response_called`)
    with one :func:`stage2_profit` call per candidate, ranks them by
    consumption (equal levels keep their listed order) and keeps the first
    with the largest payoff: the smaller consumption wins a tie. The label
    index points into ``LABELS[signal]``.
    """
    b = params.baseline
    q_max = params.max_consumption
    reported = report.baseline
    inside = (0 <= reported) & (reported <= q_max)
    require(inside, "reported baseline must lie in [0, {}], got {}", q_max, reported)
    if signal == CallSignal.NOT_CALLED:
        levels = [b, reported, np.minimum(saturation_point(params, prices), q_max)]
        labels = [0, 1, 2]
    else:
        p2 = prices.incentive_price
        g = params.marginal_utility
        reduced_raw = b - p2 / g
        doubly_reduced = np.maximum(b - 2 * p2 / g, 0.0)
        levels = [b, report.committed, np.maximum(reduced_raw, 0.0), doubly_reduced]
        labels = [
            0,
            np.where(reported >= reduced_raw, 1, 2),
            np.where(report.committed >= doubly_reduced, 3, 4),
            5,
        ]
    rows = (
        b, params.marginal_utility, q_max, prices.energy_price,
        prices.incentive_price, reported, report.committed,
    )
    shape = np.broadcast(*rows).shape
    level = np.empty((len(levels), *shape))
    label = np.empty((len(labels), *shape), dtype=np.intp)
    payoff = np.empty((len(levels), *shape))
    for j, (q, k) in enumerate(zip(levels, labels)):
        level[j] = q
        label[j] = k
        payoff[j] = stage2_profit(level[j], report, signal, params, prices)
    # The first maximum in (level, listed order) is the top-payoff candidate
    # with the smallest level, the first listed among equal levels.
    top = payoff == payoff.max(axis=0)
    smallest = np.where(top, level, np.inf).min(axis=0)
    best = np.argmax(top & (level == smallest), axis=0)[None]
    return tuple(
        np.take_along_axis(column, best, axis=0)[0] for column in (level, payoff, label)
    )


def _inflated(pr, params, prices):
    """The true baseline inflated by p2*pr/(g*(1 - pr)) at call probability
    ``pr``: the optimal report's baseline below the threshold."""
    g = params.marginal_utility
    return params.baseline + pr * prices.incentive_price / (g * (1 - pr))


def _optimal_report(call_probability, params, prices):
    """The optimal report's baseline and commitment, and where the call
    probability lies above the threshold, per row; see :func:`best_report`."""
    pr = np.asarray(call_probability, dtype=float)
    # A single probability is named as it was given.
    check_call_probability(pr if pr.ndim else call_probability)
    q_max = params.max_consumption
    above = pr > call_threshold(prices)
    # Above the threshold the inflated baseline is unused: at pr = 1 it
    # divides by zero, and near 1 it can overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        announced = np.where(above, q_max, _inflated(pr, params, prices))
    clamped = announced > q_max
    if clamped.any():
        # Imported here, as checked input reaches the clamp only through
        # rounding, so no command pays for logging's import otherwise.
        import logging

        logger = logging.getLogger(__name__)
        caps = np.broadcast_to(q_max, announced.shape)
        for raw, cap in zip(announced[clamped].tolist(), caps[clamped].tolist()):
            logger.warning(
                "announced baseline %.6f clamped to the cap %.6f "
                "(consumption cap below the saturation point?)",
                raw,
                cap,
            )
        announced = np.where(clamped, q_max, announced)
    committed = ideal_consumption(params, prices, CallSignal.CALLED)
    return announced, committed, np.broadcast_to(above, announced.shape)


def solve(params, prices, call_probability=None, report=None) -> Solutions:
    """Closed-form consumer solution for many consumers in one pass.

    ``params``, ``prices`` and the optional inputs are single values or
    :func:`~drcontract.core.columns`, broadcast row by row. Give either
    ``call_probability``, to solve for the optimal report as
    :func:`best_report` does, or ``report``, to solve only the best
    responses to a given report. Rows do not interact: a row gives the same
    bits, errors and clamp warning alone as in a batch.
    """
    if (call_probability is None) == (report is None):
        raise TypeError("give exactly one of call_probability and report")
    above = expected = None
    if call_probability is not None:
        baseline, committed, above = _optimal_report(call_probability, params, prices)
        report = Report(baseline, committed)
    not_called = _respond(CallSignal.NOT_CALLED, report, params, prices)
    called = _respond(CallSignal.CALLED, report, params, prices)
    if call_probability is not None:
        pr = np.asarray(call_probability, dtype=float)
        expected = pr * called[1] + (1 - pr) * not_called[1]
    consumption, payoff, label = (
        np.stack(pair, axis=-1) for pair in zip(not_called, called)
    )
    shape = consumption.shape[:-1]
    return Solutions(
        report_baseline=np.broadcast_to(report.baseline, shape),
        report_committed=np.broadcast_to(report.committed, shape),
        consumption=consumption,
        payoff=payoff,
        label=label,
        expected_profit=expected,
        above_threshold=above,
    )


def best_response_not_called(
    reported_baseline: float, params: ConsumerParams, prices: Prices
) -> Stage2Solution:
    """Optimal consumption when not called, given the announced baseline.

    The payment is p*max(reported baseline, q), so the candidates are the
    true baseline, the reported baseline, and the saturation point (capped).
    """
    report = SimpleNamespace(baseline=reported_baseline, committed=0.0)
    return _one_response(CallSignal.NOT_CALLED, report, params, prices)


def best_response_called(
    report: Report, params: ConsumerParams, prices: Prices
) -> Stage2Solution:
    """Optimal consumption when called, given the report pair.

    The profit is piecewise quadratic in q with kinks at the committed level
    and the reported baseline; its maximum is always attained at the true
    baseline, the committed level, or one of the reduced optima
    (b - p2/g)+ and (b - 2*p2/g)+. The committed level is labelled V when
    the report reaches b - p2/g and W below it; the reduced optimum X when
    the commitment reaches (b - 2*p2/g)+ and Y below it.
    """
    return _one_response(CallSignal.CALLED, report, params, prices)


def _one_response(signal: CallSignal, report, params, prices) -> Stage2Solution:
    """One consumer's best response to ``signal``, as :func:`_respond`
    finds it, with its strategy label."""
    q, payoff, label = _respond(signal, report, params, prices)
    return Stage2Solution(float(q), LABELS[signal][int(label)], float(payoff))


def best_report(
    call_probability: float, params: ConsumerParams, prices: Prices
) -> Stage1Solution:
    """Optimal report given the contractual call probability.

    Below the threshold p/(p + p2) the announced baseline is the true one
    inflated by p2*pr/(g*(1 - pr)); above it, the consumption cap. The
    committed consumption is the reduced optimum (b - p2/g)+ regardless.
    The announced baseline is clamped to the cap (reports must satisfy
    baseline <= max_consumption); the clamp only fires when the cap
    assumption is violated and is logged. The expected profit is that of
    the best responses to this report.
    """
    solution = solve(params, prices, call_probability=call_probability)
    return Stage1Solution(
        report=Report(
            float(solution.report_baseline), float(solution.report_committed)
        ),
        expected_profit=float(solution.expected_profit),
        regime=(
            Regime.ABOVE_THRESHOLD
            if solution.above_threshold
            else Regime.BELOW_THRESHOLD
        ),
    )


def expected_profit(
    call_probability: float,
    params: ConsumerParams,
    prices: Prices,
    literal_above_threshold: bool = False,
) -> float:
    """Expected profit of a rational consumer at its optimal report.

    Below the threshold: g*b^2/2 + pr*p2^2/(2g(1-pr)). Above it, the grouped
    form (1-pr)*(p^2/(2g) + b*p - p*q_max) + g*b^2/2
    + pr*(p2^2/(2g) - b*p2 + p2*q_max), which is continuous at the threshold.

    Domain: b > p2/g, where the called consumer's reduced optimum b - p2/g
    is positive; there the formula equals the two-stage optimum. Where
    b <= p2/g the called consumer consumes 0 and the formula overstates the
    optimum by pr*(p2 - g*b)^2/(2g); :func:`solve` is exact on both sides.

    ``literal_above_threshold`` substitutes the dimensionally inconsistent
    -b*pr term for the -b*p*pr term in the above-threshold branch. It is
    kept only so the verification suite can demonstrate the resulting
    discontinuity; never use it for real computations.
    """
    check_call_probability(call_probability)
    b = params.baseline
    g = params.marginal_utility
    p = prices.energy_price
    p2 = prices.incentive_price
    q_max = params.max_consumption
    pr = call_probability
    if pr <= call_threshold(prices):
        return opt_out_payoff(params) + pr * (p2 * p2) / (2 * g * (1 - pr))
    if literal_above_threshold:
        return (
            p * p / (2 * g)
            + b * p
            - p * q_max
            + opt_out_payoff(params)
            - p * p * pr / (2 * g)
            + p2 * p2 * pr / (2 * g)
            - b * pr
            - b * p2 * pr
            + p * q_max * pr
            + p2 * q_max * pr
        )
    return (
        (1 - pr) * (p * p / (2 * g) + b * p - p * q_max)
        + opt_out_payoff(params)
        + pr * (p2 * p2 / (2 * g) - b * p2 + p2 * q_max)
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
    check_call_probability(call_probability)
    if signal == CallSignal.CALLED:
        return ideal_consumption(params, prices, CallSignal.CALLED)
    if call_probability <= call_threshold(prices):
        planned = _inflated(call_probability, params, prices)
    else:
        planned = saturation_point(params, prices)
    return min(planned, params.max_consumption)
