"""Brute-force verification of the closed-form strategies.

Two independent routes are provided: a dense grid search over decisions
(exact once the objective's kinks and piece vertices are injected into the
grid, because every smooth piece is a downward parabola or a constant), and
the per-case optimal payoff expressions with their feasibility regions.
Neither route consults the strategy module's region logic, so agreement
between the three is a meaningful check.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_call_probability,
    payment_called,
    payment_not_called,
    require,
    saturation_point,
    utility,
)
from .strategy import Regime, Stage1Solution, Stage2Solution, call_threshold

# Not called here: it stays bound in this module because the benchmark's
# tracer (perfbench/spans.py) looks it up by this name.
from .core import stage2_profit  # noqa: F401

__all__ = [
    "CASE_TO_STRATEGY",
    "CasePayoff",
    "case_payoffs",
    "grid_best_report",
    "grid_best_reports",
    "grid_best_response",
    "grid_best_responses",
    "max_feasible_case_payoff",
    "report_axis",
]

# Points-per-grid guard; a finer request is almost certainly a unit mistake.
_MAX_POINTS = 10**7
# grid_best_reports does O(N^2) work on an N-point axis; 10**9 report pairs
# take about half a minute on a 2-vCPU host.
_MAX_REPORT_PAIRS = 10**9
# grid_best_reports builds the lower triangle of its (baseline, commitment)
# table in blocks of _BLOCK_ELEMENTS // N rows (at least one) of its N-point
# axis. A block of rows below hi needs only the columns below hi, so it holds
# at most this many float64 entries (128 KiB) or one row, and memory stays
# flat in the grid size.
_BLOCK_ELEMENTS = 2**14
# grid_best_responses searches many rows at once, padded to the longest axis
# of each block of rows; a block holds at most this many points or one row.
_STAGE2_BLOCK_ELEMENTS = 2**14
# grid_best_responses evaluates every point of every row's axis; 10**9
# points take about half a minute on a 2-vCPU host.
_MAX_STAGE2_POINTS = 10**9


def _kinks(params, prices) -> list:
    """Kinks and piece vertices of the profit in the consumption that do not
    depend on the report, per row."""
    b = params.baseline
    p2 = prices.incentive_price
    g = params.marginal_utility
    return [
        b,
        saturation_point(params, prices),
        np.maximum(b - p2 / g, 0.0),
        np.maximum(b - 2 * p2 / g, 0.0),
    ]


def _check_step(step: float, q_max) -> None:
    """Refuse a grid step that is not finite and > 0, or that puts more than
    ``_MAX_POINTS`` points on the grid over [0, max(q_max)]."""
    if not 0 < step < np.inf:
        raise ValueError(f"grid step must be finite and > 0, got {step}")
    if np.max(q_max) / step > _MAX_POINTS:
        raise ValueError(f"grid would exceed {_MAX_POINTS} points; widen the step")


def grid_best_responses(
    report,
    signals: Sequence[CallSignal],
    params,
    prices,
    step: float = 0.01,
    inject_breakpoints: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-search best consumption for each call signal, row by row.

    ``report``, ``params`` and ``prices`` are single values or
    :func:`~drcontract.core.columns`, broadcast row by row. A row searches
    the points ``step * k`` (in kWh) of its own [0, q_max], its cap and, by
    default, every kink and piece vertex of its profit in [0, q_max], which
    makes the search exact, as the profit is piecewise quadratic. Without
    them the payoff carries an O(step^2) error, which the refinement tests
    rely on. Ties go to the smallest consumption. Rows are searched
    longest axis first, in blocks of at most ``_STAGE2_BLOCK_ELEMENTS``
    points or one row; each axis is padded with its cap, which is on it.
    A block checks its points and computes their utility once for all
    signals; each signal then costs its payment. The grid part of a row
    never decreases, so its first argmax is its smallest best consumption,
    and only the cap and kinks after it are searched for ties.

    Returns the best consumption and its payoff, each of shape
    ``(*rows, len(signals))``; column i is for ``signals[i]``.
    """
    given = (report, params, prices)
    shape = np.broadcast(*(v for ns in given for v in vars(ns).values())).shape
    report, params, prices = (
        SimpleNamespace(
            **{k: np.broadcast_to(v, shape).ravel() for k, v in vars(ns).items()}
        )
        for ns in given
    )
    q_max = params.max_consumption
    _check_step(step, q_max)
    kinks = (
        np.stack(
            [report.baseline, report.committed, *_kinks(params, prices)], axis=1
        )
        if inject_breakpoints
        else np.empty((q_max.size, 0))
    )
    last = np.floor(q_max / step)  # index of each row's last grid point
    # A row's axis is its grid points up to the last, its cap and its kinks.
    points = int(last.sum()) + q_max.size * (2 + kinks.shape[1])
    if points > _MAX_STAGE2_POINTS:
        raise ValueError(
            f"the stage-2 grid search would evaluate {points} points over "
            f"{q_max.size} rows, over the limit of {_MAX_STAGE2_POINTS}; "
            f"use a coarser grid step"
        )
    order = np.argsort(-last, kind="stable")
    consumption = np.empty((q_max.size, len(signals)))
    payoff = np.empty_like(consumption)
    start = 0
    while start < order.size:
        width = int(last[order[start]]) + 1
        size = max(1, _STAGE2_BLOCK_ELEMENTS // (width + 1 + kinks.shape[1]))
        rows = order[start : start + size]
        start += rows.size
        cap = q_max[rows, None]
        # Points or kinks above a row's cap become the cap. That includes
        # every grid point past the row's last one: step * j rounds to at
        # least q_max once j exceeds the rounded q_max / step.
        grid_points = np.broadcast_to(step * np.arange(width), (rows.size, width))
        q = np.minimum(np.concatenate([grid_points, cap, kinks[rows]], axis=1), cap)
        rep, par, pri = (
            SimpleNamespace(**{k: v[rows, None] for k, v in vars(ns).items()})
            for ns in (report, params, prices)
        )
        # stage2_profit per signal, with its range check and utility, which
        # do not depend on the signal, done once.
        require((0 <= q) & (q <= cap), "consumption must lie in [0, {}]", cap)
        gain = utility(q, par, pri)
        r = np.arange(rows.size)
        for i, signal in enumerate(signals):
            if signal == CallSignal.NOT_CALLED:
                values = gain - payment_not_called(q, rep.baseline, pri)
            else:
                values = gain - payment_called(q, rep, pri)
            # The first width points of a row never decrease, so their
            # first argmax is their smallest best consumption; the cap and
            # kinks after them are in no order.
            k = values[:, :width].argmax(axis=1)
            grid_top, grid_q = values[r, k], q[r, k]
            tail = values[:, width:]
            tail_top = tail.max(axis=1)
            tail_q = np.where(tail == tail_top[:, None], q[:, width:], np.inf).min(1)
            top = np.maximum(grid_top, tail_top)
            payoff[rows, i] = top
            consumption[rows, i] = np.minimum(
                np.where(grid_top == top, grid_q, np.inf),
                np.where(tail_top == top, tail_q, np.inf),
            )
    out = (*shape, len(signals))
    return consumption.reshape(out), payoff.reshape(out)


def grid_best_response(
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
    step: float = 0.01,
    inject_breakpoints: bool = True,
) -> Stage2Solution:
    """Exhaustive-search best consumption for one report and call signal;
    the one-row form of :func:`grid_best_responses`."""
    q, payoff = grid_best_responses(
        report, [signal], params, prices, step, inject_breakpoints
    )
    return Stage2Solution(float(q[0]), None, float(payoff[0]))


def _best_commitments(
    x: np.ndarray, base_gain: np.ndarray, p2: float
) -> tuple[np.ndarray, np.ndarray]:
    """The best called payoff under each baseline x[j] of the ascending axis
    ``x``, and the index of its first best commitment.

    Consuming q under a committed level c pays off h(q) - p2*|q - c| with
    h(q) = base_gain(q) + p2*(x[j] - q)+, whose maximum over q for every c
    at once is the pair of slope-limited prefix/suffix envelopes of h. Only
    c = x[i] <= x[j] is a report; the first such i with the largest called
    payoff is also the tie-broken best commitment at every call
    probability, since the expected profit never decreases in the called
    payoff.
    """
    n = x.size
    called = np.empty(n)
    commit = np.empty(n, dtype=np.intp)
    cols = np.arange(n)
    px = p2 * x
    # Rows lo..hi-1 keep commitments c < hi only, for which the left envelope
    # reads h at q < hi. At q >= hi, above every such row's baseline, h is
    # base_gain + p2*0.0 in every row, so the right envelope's part there is
    # one suffix max, shared[hi], built once. It enters each row's running
    # max first, as it would in a whole row, so the bits do not change.
    shared = np.append(
        np.maximum.accumulate(((base_gain + p2 * 0.0) - px)[::-1])[::-1], -np.inf
    )
    block = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = cols[lo:hi]
        pxs = px[:hi]
        h = base_gain[:hi] + p2 * np.maximum(x[rows, None] - x[:hi], 0.0)
        left = np.maximum.accumulate(h + pxs, axis=1) - pxs
        right = np.empty((rows.size, hi + 1))
        np.subtract(h, pxs, out=right[:, :hi])
        right[:, hi] = shared[hi]
        right = np.maximum.accumulate(right[:, ::-1], axis=1)[:, :0:-1] + pxs
        envelope = np.maximum(left, right)
        envelope[cols[:hi] > rows[:, None]] = -np.inf
        commit[rows] = envelope.argmax(axis=1)
        called[rows] = envelope[rows - lo, commit[rows]]
    return called, commit


def report_axis(
    params: ConsumerParams, prices: Prices, step: float = 0.01
) -> np.ndarray:
    """The ascending consumption axis that :func:`grid_best_reports`
    searches: the points ``step * k`` (in kWh) of [0, q_max], the cap and the
    kinks of the profit in the consumption that lie in [0, q_max]. Raises
    before any search when the axis would give more than
    ``_MAX_REPORT_PAIRS`` report pairs."""
    q_max = params.max_consumption
    _check_step(step, q_max)
    grid = step * np.arange(np.floor(q_max / step) + 1)
    x = np.unique(np.concatenate([grid, [q_max], _kinks(params, prices)]))
    x = x[(0.0 <= x) & (x <= q_max)]
    n = x.size
    if n**2 > _MAX_REPORT_PAIRS:
        raise ValueError(
            f"the two-stage grid search would compare {n**2} report pairs "
            f"({n} grid points squared), over the limit of "
            f"{_MAX_REPORT_PAIRS}; use a coarser grid step"
        )
    return x


def grid_best_reports(
    call_probabilities: Iterable[float],
    params: ConsumerParams,
    prices: Prices,
    step: float = 0.01,
) -> list[Stage1Solution]:
    """Exhaustive-search best report over the (baseline, committed) grid,
    for each call probability in order.

    For every candidate report the two inner problems are solved over the
    same kink-augmented consumption axis, and the expected profit is
    maximized. Ties resolve to the report with the larger called-branch
    payoff, then the smaller committed value, then the smaller baseline, so
    the degenerate zero-probability case stays comparable to the closed
    form. The inner optima do not depend on the call probability: they are
    found once, and each probability then costs O(N). Finding them takes
    O(N^2) work on an N-point axis, over the lower triangle of the
    (baseline, commitment) table only (about N^2 / 2 entries), in row
    blocks of bounded size, plus one O(N) suffix maximum that every block
    shares.
    """
    probabilities = list(call_probabilities)
    for pr in probabilities:
        check_call_probability(pr)
    x = report_axis(params, prices, step)
    p = prices.energy_price
    p2 = prices.incentive_price
    gains = utility(x, params, prices)
    base_gain = gains - p * x

    # Not called under baseline x[j]: consuming x[i] <= x[j] pays p*x[j] and
    # consuming more pays p*x[i], so the optimum is the larger of the best
    # gain up to j less p*x[j] and the best base_gain past j.
    past = np.append(np.maximum.accumulate(base_gain[::-1])[::-1][1:], -np.inf)
    not_called = np.maximum(np.maximum.accumulate(gains) - p * x, past)

    called, commit = _best_commitments(x, base_gain, p2)

    threshold = call_threshold(prices)
    solutions = []
    for pr in probabilities:
        # Best expected profit, then called payoff, then smallest commitment
        # (x ascends with the index), then smallest baseline (first j).
        expected = pr * called + (1 - pr) * not_called
        top = np.flatnonzero(expected == expected.max())
        top = top[called[top] == called[top].max()]
        j = int(top[np.argmin(commit[top])])
        report = Report(baseline=float(x[j]), committed=float(x[commit[j]]))
        regime = (
            Regime.BELOW_THRESHOLD if pr <= threshold else Regime.ABOVE_THRESHOLD
        )
        solutions.append(
            Stage1Solution(
                report=report, expected_profit=float(expected[j]), regime=regime
            )
        )
    return solutions


def grid_best_report(
    call_probability: float,
    params: ConsumerParams,
    prices: Prices,
    step: float = 0.01,
) -> Stage1Solution:
    """Exhaustive-search best report for one call probability; see
    :func:`grid_best_reports`."""
    return grid_best_reports([call_probability], params, prices, step)[0]


class CasePayoff(NamedTuple):
    """Optimal payoff of one analytic subcase, with its feasibility; arrays
    with one entry per row when the inputs are columns."""

    case_id: str
    payoff: float | np.ndarray
    feasible: bool | np.ndarray


def case_payoffs(report, signal: CallSignal, params, prices) -> list[CasePayoff]:
    """Per-case optimal payoffs for the given report and call signal.

    Each subcase fixes which side of every kink the consumption falls on
    (payment max, penalty absolute value, utility saturation) and reports
    the optimum of the resulting smooth problem together with the region of
    reports where that subcase applies. Two subcases of the called branch
    are ruled out by committed <= baseline and are never emitted. Payoffs
    are evaluated even for infeasible entries so boundary crossovers can be
    inspected; only feasible entries participate in the maximum.

    The inputs are single values or :func:`~drcontract.core.columns`; each
    payoff and feasibility flag then holds one entry per row. Squares are
    taken as ``x * x``, as in :func:`~drcontract.core.utility`, so a row
    gives the same bits alone as in a batch.
    """
    b = params.baseline
    g = params.marginal_utility
    p = prices.energy_price
    p2 = prices.incentive_price
    sat = saturation_point(params, prices)
    bh = report.baseline
    qh = report.committed

    # [()] turns the 0-d result of single values into a scalar.
    if signal == CallSignal.NOT_CALLED:
        consume_report = -g * (bh * bh) / 2 + g * b * bh
        saturate = p * p / (2 * g) + g * (b * b) / 2 + p * (b - bh)
        return [
            CasePayoff("a", np.where(bh <= sat, consume_report, saturate)[()], True),
            CasePayoff("b", saturate, bh >= sat),
            CasePayoff(
                "c", np.where(bh <= b, g * (b * b) / 2, consume_report)[()], bh <= sat
            ),
            CasePayoff("d", -(p * p) / (2 * g) + g * (b * b) / 2, bh <= sat),
        ]

    reduced = b - p2 / g
    doubly_reduced = b - 2 * p2 / g
    consume_report = p2 * qh - bh * p2 - g * (bh * bh) / 2 + g * b * bh
    honor = bh * p2 - p2 * qh - g * (qh * qh) / 2 + g * b * qh
    return [
        CasePayoff(
            "e1",
            g * (b * b) / 2 - b * p2 + p2 * p2 / (2 * g) + qh * p2,
            (bh <= reduced) & (qh <= reduced),
        ),
        CasePayoff("e2", consume_report, (reduced <= bh) & (bh <= sat)),
        CasePayoff(
            "f1",
            2 * (p2 * p2) / g - 2 * b * p2 + bh * p2 + p2 * qh + g * (b * b) / 2,
            (bh >= doubly_reduced) & (qh <= doubly_reduced),
        ),
        CasePayoff("f2", consume_report, bh <= doubly_reduced),
        CasePayoff("f3", honor, (doubly_reduced <= qh) & (qh <= sat)),
        CasePayoff(
            "g",
            g * (b * b) / 2 - p2 * b - p * p / (2 * g) - p2 * p / g + p2 * qh,
            bh <= sat,
        ),
        CasePayoff(
            "h",
            g * (b * b) / 2
            - 2 * p2 * b
            - p * p / (2 * g)
            - 2 * p2 * p / g
            + bh * p2
            + p2 * qh,
            (bh >= sat) & (qh <= sat),
        ),
        CasePayoff(
            "j1", bh * p2 - p2 * qh + g * (b * b) / 2, (bh >= b) & (qh >= b)
        ),
        CasePayoff("j2", honor, qh <= b),
        CasePayoff(
            "l",
            g * (b * b) / 2 - p * p / (2 * g) + bh * p2 - p2 * qh,
            (bh >= sat) & (qh >= sat),
        ),
    ]


def max_feasible_case_payoff(
    report, signal: CallSignal, params, prices
) -> float | np.ndarray:
    """Maximum payoff over the feasible analytic subcases, per row for
    columns; raises if any row has no feasible subcase."""
    cases = case_payoffs(report, signal, params, prices)
    n = len(cases)
    table = np.broadcast_arrays(
        *(c.payoff for c in cases), *(c.feasible for c in cases)
    )
    feasible = np.array(table[n:])
    if not feasible.any(axis=0).all():
        raise ValueError("no feasible subcase for this report")
    best = np.where(feasible, table[:n], -np.inf).max(axis=0)
    return best if best.ndim else float(best)


# Which closed-form strategy labels each subcase can coincide with at its
# optimum. Cases g and h are strictly dominated everywhere and map to
# nothing; consume-the-report cases (e2, f2) only tie the honor strategies
# where the report and commitment coincide.
CASE_TO_STRATEGY: dict[str, tuple[str, ...]] = {
    "a": ("B", "C"),
    "b": ("C",),
    "c": ("A", "B"),
    "d": ("B", "C"),
    "e1": ("X", "Y"),
    "e2": ("V", "W"),
    "f1": ("Z",),
    "f2": ("V", "W"),
    "f3": ("W",),
    "g": (),
    "h": (),
    "j1": ("U",),
    "j2": ("V",),
    "l": ("U",),
}
