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


def _stage2_breakpoints(
    report: Report, params: ConsumerParams, prices: Prices
) -> list[float]:
    """Kinks and piece vertices of the stage-2 profit in the consumption."""
    b = params.baseline
    p2 = prices.incentive_price
    g = params.marginal_utility
    return [
        report.baseline,
        report.committed,
        b,
        saturation_point(params, prices),
        max(b - p2 / g, 0.0),
        max(b - 2 * p2 / g, 0.0),
    ]


def _checked_axis(
    grid: GridSpec | None, params: ConsumerParams, extra: Iterable[float]
) -> np.ndarray:
    q_max = params.max_consumption
    if grid is None:
        grid = GridSpec.cover(q_max)
    if grid.lo > 0 or grid.hi < q_max:
        raise ValueError(
            f"grid [{grid.lo}, {grid.hi}] must cover [0, {q_max}]"
        )
    pts = grid.points(extra)
    return pts[(pts >= 0.0) & (pts <= q_max)]


def grid_best_responses(
    report: Report,
    signals: Sequence[CallSignal],
    params: ConsumerParams,
    prices: Prices,
    grid: GridSpec | None = None,
    inject_breakpoints: bool = True,
) -> list[Stage2Solution]:
    """Exhaustive-search best consumption for each call signal, in order.

    With breakpoint injection (the default) the search is exact: the profit
    is piecewise quadratic and every kink and piece vertex is on the grid.
    Without it, the result carries an O(step^2) payoff error, which the
    refinement tests rely on. Ties resolve to the smallest consumption. The
    kinks do not depend on the signal, so all signals share one axis.
    """
    extra = (
        _stage2_breakpoints(report, params, prices) if inject_breakpoints else ()
    )
    q = _checked_axis(grid, params, extra)
    solutions = []
    for signal in signals:
        values = stage2_profit(q, report, signal, params, prices)
        i = int(np.argmax(values))
        solutions.append(Stage2Solution(float(q[i]), None, float(values[i])))
    return solutions


def grid_best_response(
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
    grid: GridSpec | None = None,
    inject_breakpoints: bool = True,
) -> Stage2Solution:
    """Exhaustive-search best consumption for one call signal; see
    :func:`grid_best_responses`."""
    return grid_best_responses(
        report, [signal], params, prices, grid, inject_breakpoints
    )[0]


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
    """Optimal payoff of one analytic subcase, with its feasibility."""

    case_id: str
    payoff: float
    feasible: bool


def case_payoffs(
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
) -> list[CasePayoff]:
    """Per-case optimal payoffs for the given report and call signal.

    Each subcase fixes which side of every kink the consumption falls on
    (payment max, penalty absolute value, utility saturation) and reports
    the optimum of the resulting smooth problem together with the region of
    reports where that subcase applies. Two subcases of the called branch
    are ruled out by committed <= baseline and are never emitted. Payoffs
    are evaluated even for infeasible entries so boundary crossovers can be
    inspected; only feasible entries participate in the maximum.
    """
    b = params.baseline
    g = params.marginal_utility
    p = prices.energy_price
    p2 = prices.incentive_price
    sat = saturation_point(params, prices)
    bh = report.baseline
    qh = report.committed

    if signal == CallSignal.NOT_CALLED:
        a_payoff = (
            -g * bh**2 / 2 + g * b * bh
            if bh <= sat
            else p**2 / (2 * g) + g * b**2 / 2 + p * (b - bh)
        )
        c_payoff = g * b**2 / 2 if bh <= b else -g * bh**2 / 2 + g * b * bh
        return [
            CasePayoff("a", a_payoff, True),
            CasePayoff(
                "b", p**2 / (2 * g) + g * b**2 / 2 + p * (b - bh), bh >= sat
            ),
            CasePayoff("c", c_payoff, bh <= sat),
            CasePayoff("d", -(p**2) / (2 * g) + g * b**2 / 2, bh <= sat),
        ]

    reduced = b - p2 / g
    doubly_reduced = b - 2 * p2 / g
    consume_report = p2 * qh - bh * p2 - g * bh**2 / 2 + g * b * bh
    honor = bh * p2 - p2 * qh - g * qh**2 / 2 + g * b * qh
    return [
        CasePayoff(
            "e1",
            g * b**2 / 2 - b * p2 + p2**2 / (2 * g) + qh * p2,
            bh <= reduced and qh <= reduced,
        ),
        CasePayoff("e2", consume_report, reduced <= bh <= sat),
        CasePayoff(
            "f1",
            2 * p2**2 / g - 2 * b * p2 + bh * p2 + p2 * qh + g * b**2 / 2,
            bh >= doubly_reduced and qh <= doubly_reduced,
        ),
        CasePayoff("f2", consume_report, bh <= doubly_reduced),
        CasePayoff("f3", honor, doubly_reduced <= qh <= sat),
        CasePayoff(
            "g",
            g * b**2 / 2 - p2 * b - p**2 / (2 * g) - p2 * p / g + p2 * qh,
            bh <= sat,
        ),
        CasePayoff(
            "h",
            g * b**2 / 2
            - 2 * p2 * b
            - p**2 / (2 * g)
            - 2 * p2 * p / g
            + bh * p2
            + p2 * qh,
            bh >= sat and qh <= sat,
        ),
        CasePayoff("j1", bh * p2 - p2 * qh + g * b**2 / 2, bh >= b and qh >= b),
        CasePayoff("j2", honor, qh <= b),
        CasePayoff(
            "l",
            g * b**2 / 2 - p**2 / (2 * g) + bh * p2 - p2 * qh,
            bh >= sat and qh >= sat,
        ),
    ]


def max_feasible_case_payoff(
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
) -> float:
    """Maximum payoff over the feasible analytic subcases."""
    feasible = [
        c.payoff
        for c in case_payoffs(report, signal, params, prices)
        if c.feasible
    ]
    if not feasible:
        raise ValueError("no feasible subcase for this report")
    return max(feasible)


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
