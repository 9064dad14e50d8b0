"""Brute-force verification of the closed-form strategies.

Two independent routes are provided: a dense grid search over decisions
(exact once the objective's kinks and piece vertices are injected into the
grid, because every smooth piece is a downward parabola or a constant), and
the per-case optimal payoff expressions with their feasibility regions.
Neither route consults the strategy module's region logic, so agreement
between the three is a meaningful check.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    saturation_point,
    stage2_profit,
    utility,
)
from .strategy import Regime, Stage1Solution, Stage2Solution, call_threshold

__all__ = [
    "CASE_TO_STRATEGY",
    "CasePayoff",
    "GridSpec",
    "case_payoffs",
    "grid_best_report",
    "grid_best_reports",
    "grid_best_response",
    "grid_best_responses",
    "max_feasible_case_payoff",
]

# Points-per-grid guard; a finer request is almost certainly a unit mistake.
_MAX_POINTS = 10**7
# grid_best_reports does O(N^2) work on an N-point axis; 10**9 report pairs
# take about half a minute on a 2-vCPU host.
_MAX_REPORT_PAIRS = 10**9
# grid_best_reports builds its (baseline, commitment) table a few rows at a
# time, each block holding at most this many float64 entries (32 KiB) or one
# row, so its memory stays flat in the grid size.
_BLOCK_ELEMENTS = 2**12
# grid_best_responses searches many rows at once, padded to the longest axis
# of each block of rows; a block holds at most this many points or one row.
_STAGE2_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class GridSpec:
    """Uniform search grid over a consumption interval, in kWh."""

    lo: float
    hi: float
    step: float = 0.01

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"grid lo {self.lo} exceeds hi {self.hi}")
        if not 0 < self.step < np.inf:
            raise ValueError(f"grid step must be finite and > 0, got {self.step}")
        if (self.hi - self.lo) / self.step > _MAX_POINTS:
            raise ValueError(
                f"grid would exceed {_MAX_POINTS} points; widen the step"
            )

    @classmethod
    def cover(cls, hi: float, step: float = 0.01) -> "GridSpec":
        return cls(lo=0.0, hi=hi, step=step)

    def points(self, extra: Iterable[float] = ()) -> np.ndarray:
        """Sorted unique grid points plus any extra points inside [lo, hi].

        Points are lo + k*step up to hi, with hi always included, so the
        spacing is exactly the requested step except possibly the last gap.
        """
        n = int(np.floor((self.hi - self.lo) / self.step))
        base = self.lo + self.step * np.arange(n + 1)
        base = base[base <= self.hi]
        extras = np.asarray(
            [x for x in extra if self.lo <= x <= self.hi], dtype=float
        )
        pts = np.unique(np.concatenate([base, [self.hi], extras]))
        if pts.size == 0:
            raise ValueError("empty grid")
        return pts


def _stage2_breakpoints(report, params, prices) -> list:
    """Kinks and piece vertices of the stage-2 profit in the consumption,
    per row."""
    b = params.baseline
    p2 = prices.incentive_price
    g = params.marginal_utility
    return [
        report.baseline,
        report.committed,
        b,
        saturation_point(params, prices),
        np.maximum(b - p2 / g, 0.0),
        np.maximum(b - 2 * p2 / g, 0.0),
    ]


def _covering(grid: GridSpec | None, q_max) -> GridSpec:
    """``grid``, or the default grid over [0, max(q_max)], checked to cover
    [0, q_max] for every cap in ``q_max``."""
    top = float(np.max(q_max))
    if grid is None:
        return GridSpec.cover(top)
    if grid.lo > 0 or grid.hi < top:
        raise ValueError(f"grid [{grid.lo}, {grid.hi}] must cover [0, {top}]")
    return grid


def _checked_axis(
    grid: GridSpec | None, params: ConsumerParams, extra: Iterable[float]
) -> np.ndarray:
    q_max = params.max_consumption
    pts = _covering(grid, q_max).points(extra)
    return pts[(pts >= 0.0) & (pts <= q_max)]


def grid_best_responses(
    report,
    signals: Sequence[CallSignal],
    params,
    prices,
    grid: GridSpec | None = None,
    inject_breakpoints: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-search best consumption for each call signal, row by row.

    ``report``, ``params`` and ``prices`` are single values or
    :func:`~drcontract.core.columns`, broadcast row by row. A row searches
    the points of ``GridSpec.cover(q_max, grid.step)`` for its own cap and,
    by default, every kink and piece vertex of its profit in [0, q_max],
    which makes the search exact, as the profit is piecewise quadratic.
    Without them the payoff carries an O(step^2) error, which the refinement
    tests rely on. Ties go to the smallest consumption. ``grid`` (default
    step 0.01 kWh) must cover [0, q_max] of every row. Rows are searched
    longest axis first, in blocks of at most ``_STAGE2_BLOCK_ELEMENTS``
    points or one row; each axis is padded with its cap, which is on it.

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
    step = _covering(grid, q_max).step
    kinks = (
        np.stack(_stage2_breakpoints(report, params, prices), axis=1)
        if inject_breakpoints
        else np.empty((q_max.size, 0))
    )
    last = np.floor(q_max / step)  # index of each row's last grid point
    order = np.argsort(-last, kind="stable")
    consumption = np.empty((q_max.size, len(signals)))
    payoff = np.empty_like(consumption)
    start = 0
    while start < order.size:
        width = int(last[order[start]]) + 1
        size = max(1, _STAGE2_BLOCK_ELEMENTS // (width + 1 + kinks.shape[1]))
        rows = order[start : start + size]
        start += rows.size
        j = np.arange(width)
        cap = q_max[rows, None]
        # Grid points past a row's last one, and points or kinks above its
        # cap, become the cap.
        q = np.minimum(
            np.concatenate(
                [np.where(j <= last[rows, None], step * j, cap), cap, kinks[rows]],
                axis=1,
            ),
            cap,
        )
        rep, par, pri = (
            SimpleNamespace(**{k: v[rows, None] for k, v in vars(ns).items()})
            for ns in (report, params, prices)
        )
        for i, signal in enumerate(signals):
            values = stage2_profit(q, rep, signal, par, pri)
            top = values.max(axis=1)
            payoff[rows, i] = top
            consumption[rows, i] = np.where(values == top[:, None], q, np.inf).min(1)
    out = (*shape, len(signals))
    return consumption.reshape(out), payoff.reshape(out)


def grid_best_response(
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
    grid: GridSpec | None = None,
    inject_breakpoints: bool = True,
) -> Stage2Solution:
    """Exhaustive-search best consumption for one report and call signal;
    the one-row form of :func:`grid_best_responses`."""
    q, payoff = grid_best_responses(
        report, [signal], params, prices, grid, inject_breakpoints
    )
    return Stage2Solution(float(q[0]), None, float(payoff[0]))


def grid_best_reports(
    call_probabilities: Iterable[float],
    params: ConsumerParams,
    prices: Prices,
    grid: GridSpec | None = None,
) -> list[Stage1Solution]:
    """Exhaustive-search best report over the (baseline, committed) grid,
    for each call probability in order.

    For every candidate report the two inner problems are solved over the
    same kink-augmented consumption axis, and the expected profit is
    maximized. Ties resolve to the report with the larger called-branch
    payoff, then the smaller committed value, then the smaller baseline, so
    the degenerate zero-probability case stays comparable to the closed
    form. The inner optima do not depend on the call probability: they are
    found once, with O(N^2) work on an N-point axis in row blocks of
    bounded size, and each probability then costs O(N).
    """
    probabilities = list(call_probabilities)
    for pr in probabilities:
        if not 0 <= pr <= 1:
            raise ValueError(f"call probability must lie in [0, 1], got {pr}")
    b = params.baseline
    g = params.marginal_utility
    p = prices.energy_price
    p2 = prices.incentive_price
    extra = [
        b,
        saturation_point(params, prices),
        max(b - p2 / g, 0.0),
        max(b - 2 * p2 / g, 0.0),
    ]
    x = _checked_axis(grid, params, extra)
    n = x.size
    if n**2 > _MAX_REPORT_PAIRS:
        raise ValueError(
            f"the two-stage grid search would compare {n**2} report pairs "
            f"({n} grid points squared), over the limit of "
            f"{_MAX_REPORT_PAIRS}; use a coarser grid step"
        )
    gains = utility(x, params, prices)
    base_gain = gains - p * x

    # Not called under baseline x[j]: consuming x[i] <= x[j] pays p*x[j] and
    # consuming more pays p*x[i], so the optimum is the larger of the best
    # gain up to j less p*x[j] and the best base_gain past j.
    past = np.append(np.maximum.accumulate(base_gain[::-1])[::-1][1:], -np.inf)
    not_called = np.maximum(np.maximum.accumulate(gains) - p * x, past)

    # Called under baseline x[j]: the payoff of consuming q under a committed
    # level c is h(q) - p2*|q - c| with h(q) = G(q) - p*q + p2*(x[j] - q)+,
    # whose maximum over q for every c at once is the pair of slope-limited
    # prefix/suffix envelopes of h. Only c = x[i] <= x[j] is a report;
    # commit[j] is the first such i with the largest called payoff, which is
    # also the tie-broken best commitment at every call probability, since
    # the expected profit never decreases in the called payoff.
    called = np.empty(n)
    commit = np.empty(n, dtype=np.intp)
    cols = np.arange(n)
    px = p2 * x
    block = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, block):
        rows = cols[lo : lo + block]
        h = base_gain + p2 * np.maximum(x[rows, None] - x, 0.0)
        left = np.maximum.accumulate(h + px, axis=1) - px
        right = np.maximum.accumulate((h - px)[:, ::-1], axis=1)[:, ::-1] + px
        envelope = np.maximum(left, right)
        envelope[cols > rows[:, None]] = -np.inf
        commit[rows] = envelope.argmax(axis=1)
        called[rows] = envelope[rows - lo, commit[rows]]

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
    grid: GridSpec | None = None,
) -> Stage1Solution:
    """Exhaustive-search best report for one call probability; see
    :func:`grid_best_reports`."""
    return grid_best_reports([call_probability], params, prices, grid)[0]


@dataclass(frozen=True)
class CasePayoff:
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
