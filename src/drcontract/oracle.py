"""Brute-force verification of the closed-form strategies.

Two independent routes are provided: a dense grid search over decisions,
whose axis holds the objective's kinks and piece vertices besides its grid
points (which makes it exact, because every smooth piece is a downward
parabola or a constant), and the per-case optimal payoff expressions with
their feasibility regions.
Neither route consults the strategy module's region logic, so agreement
between the three is a meaningful check.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_call_probability,
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
# take about 4.5 s on a 2-vCPU Xeon host (about 225-235 M pairs/s at both
# N = 16 003 and N = 31 563).
_MAX_REPORT_PAIRS = 10**9
# Both grid searches work in blocks of at most this many float64 entries
# (256 KiB) or one row, so memory stays flat in the grid size.
# grid_best_reports builds the lower triangle of its (baseline, commitment)
# table in blocks of _BLOCK_ELEMENTS // N rows (at least one) of its N-point
# axis; a block of rows below hi needs only the columns below hi.
# grid_best_responses searches many rows' grid points at once, each padded to
# the longest of its block, and the rows' caps and kinks in chunks; its four
# buffers of a block (1 MiB) fit in a core's 2 MiB L2 cache.
_BLOCK_ELEMENTS = 2**15
# grid_best_responses counts every point of every row's uncut axis against
# this bound. With nothing cut (every report at its cap), 10**9 points take
# about 6.5 s on a 2-vCPU Xeon host in rows of up to 7*10**4 points, 10 s in
# rows of about 6*10**5 and 13-23 s in rows of 10**6 to 4*10**6 points, each
# a block whose buffers do not fit in a core's 2 MiB L2 cache. verify's drawn
# reports cut about a fifth of the points: about 5.5 s in the shortest rows.
_MAX_STAGE2_POINTS = 10**9


def _kinks(b, g, p, p2) -> list:
    """Kinks and piece vertices of the profit in the consumption that do not
    depend on the report, per row of the baseline, marginal utility and
    prices ``b``, ``g``, ``p`` and ``p2``."""
    return [
        b, b + p / g, np.maximum(b - p2 / g, 0.0), np.maximum(b - 2 * p2 / g, 0.0)
    ]


def _check_step(step: float, q_max) -> None:
    """Refuse a grid step that is not finite and > 0, or that puts more than
    ``_MAX_POINTS`` points on the grid over [0, max(q_max)]."""
    if not 0 < step < np.inf:
        raise ValueError(f"grid step must be finite and > 0, got {step}")
    # A tiny step overflows the quotient to inf, which the bound refuses.
    with np.errstate(over="ignore"):
        intervals = np.max(q_max) / step
    if intervals > _MAX_POINTS:
        raise ValueError(f"grid would exceed {_MAX_POINTS} points; widen the step")


# numpy copies a (rows, 1) operand of a (rows, width) ufunc through its
# buffer, at about three times the cost of a scalar operand, whenever the
# rows are shorter than the buffer (8192 elements by default). Below the
# row length it runs at scalar speed. Elementwise results do not depend on
# the buffer size, but sums may, so only the block loops of the two grid
# searches, which take no float sum, run under it.
_UFUNC_BUFFER = 64


@contextlib.contextmanager
def _ufunc_buffer():
    """Run the body with numpy's ufunc buffer at :data:`_UFUNC_BUFFER`
    elements, and restore the previous size on every exit."""
    old = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def _block_operands(b, g, p, p2, bh, qh) -> tuple:
    """The per-row operands of :func:`_search_block` for rows of the
    baseline, marginal utility, prices, reported baseline and commitment:
    ``s = b + p / g`` (the saturation point), ``peak = 0.5 * g * s * s``,
    ``half_g = 0.5 * g``, ``p``, ``p2``, ``bh`` and ``qh``. Computed once for
    all rows, by the operations of ``utility`` in their order."""
    s = b + p / g
    half_g = 0.5 * g
    return s, half_g * s * s, half_g, p, p2, bh, qh


def _search_block(q, signals, s, peak, half_g, p, p2, bh, qh, gain, paid, work):
    """Each signal's first best point and its payoff in every row of the
    block ``q``, whose rows ascend, as two ``(rows, len(signals))`` arrays.

    ``s`` to ``qh`` are the rows' :func:`_block_operands`, as ``(rows, 1)``
    columns, so the block does only per-point work. The payoff is
    :func:`~drcontract.core.stage2_profit` by the operations of ``utility``,
    ``payment_not_called`` and ``payment_called``, in their order, written
    into the buffers ``gain``, ``paid`` and ``work`` of ``q``'s shape.
    """
    np.minimum(q, s, out=work)
    np.subtract(work, s, out=work)
    np.multiply(work, work, out=work)
    np.multiply(half_g, work, out=work)
    np.subtract(peak, work, out=gain)
    r = np.arange(q.shape[0])
    consumption = np.empty((q.shape[0], len(signals)))
    payoff = np.empty_like(consumption)
    for i, signal in enumerate(signals):
        if signal == CallSignal.NOT_CALLED:
            # p * max(baseline, q)
            np.maximum(bh, q, out=paid)
            np.multiply(p, paid, out=paid)
        else:
            # p*q - p2*max(baseline - q, 0.0) + p2*|q - committed|
            np.multiply(p, q, out=paid)
            np.subtract(bh, q, out=work)
            np.maximum(work, 0.0, out=work)
            np.multiply(p2, work, out=work)
            np.subtract(paid, work, out=paid)
            np.subtract(q, qh, out=work)
            np.abs(work, out=work)
            np.multiply(p2, work, out=work)
            np.add(paid, work, out=paid)
        np.subtract(gain, paid, out=paid)
        k = paid.argmax(axis=1)
        consumption[:, i] = q[r, k]
        payoff[:, i] = paid[r, k]
    return consumption, payoff


def grid_best_responses(
    report,
    signals: Sequence[CallSignal],
    params,
    prices,
    step: float = 0.01,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-search best consumption for each call signal, row by row.

    ``report``, ``params`` and ``prices`` are single values or
    :func:`~drcontract.core.columns`, broadcast row by row. A row searches
    the points ``step * k`` (in kWh) of its own [0, q_max], its cap and
    every kink and piece vertex of its profit in [0, q_max], which makes the
    search exact, as the profit is piecewise quadratic. Every row's range is
    checked once, before any search.

    A row whose peak utility ``0.5 * g * s * s`` is finite ends its grid
    points at ``step * (floor(top / step) + 1)``, past the kink
    ``top = max(bh, s)`` with ``s = b + p / g``, or at its cap if that comes
    first. Past ``top`` the utility is its peak and neither payment, in
    [0, inf] as ``Prices`` and ``Report`` hold 0 <= p <= p2 < inf and
    qh <= bh, falls: the payoff never rises nor is NaN, and ``top`` wins ties.

    A row's grid points and its cap and kinks are searched apart. The grid
    points form an ascending run, searched longest run first, in blocks of
    at most ``_BLOCK_ELEMENTS`` points or one row, each run padded with the
    later points of its uncut run, then its cap. The cap and kinks of every
    row are sorted once and searched in chunks of at most
    ``_BLOCK_ELEMENTS`` points. The rows' columns are put
    in search order and their :func:`_block_operands` computed once, so a
    block or chunk takes contiguous slices of them and computes its utility
    once for all signals; each signal then costs its payment and one first
    argmax. Of the two winners, ordered by consumption (the grid point first
    on a tie), the first argmax of their payoffs is the row's: ties go to
    the smallest consumption, as on one merged ascending axis.

    Returns the best consumption and its payoff, each of shape
    ``(*rows, len(signals))``; column i is for ``signals[i]``.
    """
    given = (
        params.max_consumption, params.baseline, params.marginal_utility,
        prices.energy_price, prices.incentive_price, report.baseline,
        report.committed,
    )
    shape = np.broadcast(*given).shape
    q_max, b, g, p, p2, bh, qh = (np.broadcast_to(v, shape).ravel() for v in given)
    _check_step(step, q_max)
    # A row's cap and kinks: the points of its axis that are not grid points.
    off_grid = np.stack([q_max, bh, qh, *_kinks(b, g, p, p2)], axis=1)
    last = np.floor(q_max / step)  # index of each row's last grid point
    # A row's axis is its grid points up to the last, its cap and its kinks.
    points = int(last.sum()) + q_max.size * (1 + off_grid.shape[1])
    if points > _MAX_STAGE2_POINTS:
        raise ValueError(
            f"the stage-2 grid search would evaluate {points} points over "
            f"{q_max.size} rows, over the limit of {_MAX_STAGE2_POINTS}; "
            f"use a coarser grid step"
        )
    # Every point is min(x, cap) of a grid point step * j >= 0, the cap or a
    # kink, so all of a row's points lie in [0, cap] exactly when its cap and
    # kinks are >= 0 (and not NaN). A refusal names the first row that fails
    # in order of the uncut grid runs, longest first.
    inside = (0 <= off_grid).all(axis=1)
    if not inside.all():
        by_last = np.argsort(-last, kind="stable")
        require(inside[by_last], "consumption must lie in [0, {}]", q_max[by_last])
    operands = _block_operands(b, g, p, p2, bh, qh)
    # The index of each row's last searched grid point. Past the kink
    # max(bh, s) no point can win (see the docstring); a top at or above the
    # cap cuts nothing, and is clipped to it first so that top / step cannot
    # overflow.
    s, peak = operands[:2]
    top = np.minimum(np.maximum(bh, s), q_max)
    run = np.where(
        np.isfinite(peak), np.minimum(last, np.floor(top / step) + 1), last
    )
    # From here on every column holds its rows in search order, longest
    # grid run first; the winners are scattered back to row order at the end.
    order = np.argsort(-run, kind="stable")
    q_max, run, off_grid = q_max[order], run[order], off_grid[order]
    operands = [c[order] for c in operands]
    # Kinks above a row's cap become the cap; the stable sort keeps the cap
    # before its ties, as it stands before the kinks.
    cap = q_max[:, None]
    np.minimum(off_grid, cap, out=off_grid)
    off_grid.sort(axis=1, kind="stable")
    # The first block holds the longest row, so no block or chunk needs more
    # than max(_BLOCK_ELEMENTS, that row's length, one row's cap and kinks)
    # points of each buffer.
    longest = int(run[0]) + 1 if run.size else 0
    grid = step * np.arange(longest)
    buffers = np.empty(
        (4, max(_BLOCK_ELEMENTS, longest, off_grid.shape[1]))
    )
    # Each row's two winners per signal, the grid point's first.
    consumption = np.empty((q_max.size, len(signals), 2))
    payoff = np.empty_like(consumption)

    def search(rows, q, side):
        """Search the block ``q`` of the rows ``rows`` (a slice) and store
        each row's winners as ``side``."""
        scratch = (buf[: q.size].reshape(q.shape) for buf in buffers[1:])
        consumption[rows, :, side], payoff[rows, :, side] = _search_block(
            q, signals, *(c[rows, None] for c in operands), *scratch
        )

    with _ufunc_buffer():
        start = 0
        while start < q_max.size:
            width = int(run[start]) + 1
            stop = min(start + max(1, _BLOCK_ELEMENTS // width), q_max.size)
            q = buffers[0, : (stop - start) * width].reshape(-1, width)
            # Grid points past a row's last one become its cap: step * j
            # rounds to at least q_max once j exceeds the rounded q_max / step.
            # Those past a shorter run's cut are points of its uncut axis.
            np.minimum(grid[:width], cap[start:stop], out=q)
            search(slice(start, stop), q, 0)
            start = stop
        chunk = max(1, _BLOCK_ELEMENTS // off_grid.shape[1])
        for lo in range(0, q_max.size, chunk):
            rows = slice(lo, lo + chunk)
            search(rows, off_grid[rows], 1)
    # Each row's two winners per signal, the smaller consumption first (the
    # grid point's when both are one point, as on one merged axis); numpy's
    # first argmax of their payoffs takes the first best, or the first NaN.
    swap = consumption[..., 1] < consumption[..., 0]
    consumption[swap] = consumption[swap][:, ::-1]
    payoff[swap] = payoff[swap][:, ::-1]
    k = payoff.argmax(axis=2)[..., None]
    best = np.empty((2, q_max.size, len(signals)))
    best[0, order] = np.take_along_axis(consumption, k, axis=2)[..., 0]
    best[1, order] = np.take_along_axis(payoff, k, axis=2)[..., 0]
    out = (*shape, len(signals))
    return best[0].reshape(out), best[1].reshape(out)


def grid_best_response(
    report: Report,
    signal: CallSignal,
    params: ConsumerParams,
    prices: Prices,
    step: float = 0.01,
) -> Stage2Solution:
    """Exhaustive-search best consumption for one report and call signal;
    the one-row form of :func:`grid_best_responses`."""
    q, payoff = grid_best_responses(report, [signal], params, prices, step)
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

    The left (prefix) envelope is taken elementwise, as (h + p2*x) - p2*x.
    Rounding is monotone and p2*x ascends, so no c beats the last position
    at or before it where the prefix max was set, and the first best c is
    such a position, where the two forms agree: the maximum and its first
    argmax do not change, NaN and infinities included. The right envelope
    keeps its suffix max, as a rounding tie can put the first best c before
    the suffix record.
    """
    n = x.size
    called = np.empty(n)
    commit = np.empty(n, dtype=np.intp)
    px = p2 * x
    # Rows lo..hi-1 keep commitments c < hi only, for which the left envelope
    # reads h at q < hi. At q >= hi, above every such row's baseline, h is
    # base_gain + p2*0.0 in every row, so the right envelope's part there is
    # one suffix max, shared[hi], built once. It enters each row's running
    # max first, as it would in a whole row, so the bits do not change.
    shared = np.append(
        np.maximum.accumulate(((base_gain + p2 * 0.0) - px)[::-1])[::-1], -np.inf
    )
    block = min(max(1, _BLOCK_ELEMENTS // n), n)
    # A block's h, which becomes its envelope, and its right envelope with
    # the shared column, in two buffers that every block reuses.
    table, suffix = np.empty((2, block * (n + 1)))
    # Commitments above the baseline are not reports; below lo there are none.
    above = np.arange(block) > np.arange(block)[:, None]
    with _ufunc_buffer():
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            k = hi - lo
            pxs = px[:hi]
            h = table[: k * hi].reshape(k, hi)
            np.subtract(x[lo:hi, None], x[:hi], out=h)
            np.maximum(h, 0.0, out=h)
            np.multiply(p2, h, out=h)
            np.add(base_gain[:hi], h, out=h)
            right = suffix[: k * (hi + 1)].reshape(k, hi + 1)
            np.subtract(h, pxs, out=right[:, :hi])
            right[:, hi] = shared[hi]
            np.maximum.accumulate(right[:, ::-1], axis=1, out=right[:, ::-1])
            right = right[:, :hi]
            np.add(right, pxs, out=right)
            envelope = h  # built in place: h is not read again
            np.add(envelope, pxs, out=envelope)
            np.subtract(envelope, pxs, out=envelope)
            np.maximum(envelope, right, out=envelope)
            np.copyto(envelope[:, lo:hi], -np.inf, where=above[:k, :k])
            envelope.argmax(axis=1, out=commit[lo:hi])
            called[lo:hi] = envelope[np.arange(k), commit[lo:hi]]
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
    kinks = _kinks(
        params.baseline, params.marginal_utility, prices.energy_price,
        prices.incentive_price,
    )
    # np.unique's steps for floats, without its lazy import of numpy.ma: one
    # in-place sort, then each point that differs from its predecessor.
    x = np.concatenate([grid, [q_max], kinks])
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    x = x[keep & (0.0 <= x) & (x <= q_max)]
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
    blocks of at most ``_BLOCK_ELEMENTS`` entries or one row, built in two
    buffers that every block reuses, plus one O(N) suffix maximum that every
    block shares. A block takes one running maximum, for the right envelope;
    the left envelope is elementwise (see :func:`_best_commitments`).
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
