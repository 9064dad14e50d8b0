from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drcontract.oracle as oracle
from drcontract import (
    CallSignal,
    ConsumerParams,
    Prices,
    Regime,
    Report,
    Stage1Solution,
    Stage2Solution,
    best_response_called,
    best_response_not_called,
    best_report,
    call_threshold,
    case_payoffs,
    grid_best_report,
    grid_best_reports,
    grid_best_response,
    grid_best_responses,
    max_feasible_case_payoff,
    saturation_point,
    stage2_profit,
    utility,
)
from drcontract.core import columns
from drcontract.oracle import CASE_TO_STRATEGY
from drcontract.strategy import solve

SIGNALS = (CallSignal.NOT_CALLED, CallSignal.CALLED)


def draw_instance(rng):
    baseline = rng.uniform(1.0, 20.0)
    gamma = rng.uniform(0.01, 0.2)
    p = rng.uniform(0.05, 0.5)
    p2 = rng.uniform(p, 2 * p)
    params = ConsumerParams(baseline, gamma, baseline + p / gamma + rng.uniform(1, 10))
    prices = Prices(p, p2)
    reported = rng.uniform(0.0, params.max_consumption)
    report = Report(reported, rng.uniform(0.0, reported))
    return params, prices, report


def reference_axis(q_max, step, extra=()):
    """The points step * k of [0, q_max], the cap and the points of
    ``extra`` in [0, q_max], sorted and unique: the axis a one-row search
    covers."""
    points = np.concatenate(
        [step * np.arange(int(np.floor(q_max / step)) + 1), [q_max], list(extra)]
    )
    return np.unique(points[(0 <= points) & (points <= q_max)])


def two_stage_kinks(params, prices):
    """The kinks of the profit in the consumption that do not depend on the
    report: b, the saturation point and the two reduced optima, at least 0."""
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    return [
        b,
        saturation_point(params, prices),
        max(b - p2 / g, 0.0),
        max(b - 2 * p2 / g, 0.0),
    ]


# Each oracle, called on the household at a given grid step.
SEARCHES = {
    "grid_best_response": lambda params, prices, step: grid_best_response(
        Report(8.0, 2.0), CallSignal.CALLED, params, prices, step
    ),
    "grid_best_responses": lambda params, prices, step: grid_best_responses(
        Report(8.0, 2.0), SIGNALS, params, prices, step
    ),
    "grid_best_report": lambda params, prices, step: grid_best_report(
        0.1, params, prices, step
    ),
    "grid_best_reports": lambda params, prices, step: grid_best_reports(
        [0.1], params, prices, step
    ),
    "report_axis": oracle.report_axis,
}


class TestGridStep:
    @pytest.mark.parametrize("search", SEARCHES)
    @pytest.mark.parametrize("step", [0.0, -0.01, float("nan"), float("inf")])
    def test_every_oracle_rejects_a_bad_step(self, household, prices, search, step):
        with pytest.raises(ValueError) as exc:
            SEARCHES[search](household, prices, step)
        assert str(exc.value) == f"grid step must be finite and > 0, got {step}"

    @pytest.mark.parametrize("search", SEARCHES)
    def test_points_bound_comes_before_the_pair_bound(
        self, household, prices, search
    ):
        # 1.6e7 points over the cap of 16 kWh, and 2.6e14 report pairs.
        with pytest.raises(ValueError) as exc:
            SEARCHES[search](household, prices, 1e-6)
        assert str(exc.value) == "grid would exceed 10000000 points; widen the step"

    def test_report_axis_holds_zero_the_cap_and_the_kinks_on_it(self, prices):
        # The kinks are b = 8, b - p2/g (about 2) and b - 2 p2/g clipped to
        # 0; the saturation point 13.2 lies above the cap 12.1, which is no
        # multiple of the step.
        params = ConsumerParams(8.0, 0.05, 12.1)
        x = oracle.report_axis(params, prices, 0.3)
        assert x[0] == 0.0 and x[-1] == 12.1
        assert np.all(np.diff(x) > 0)
        grid = 0.3 * np.arange(41)
        assert set(x.tolist()) == set(grid.tolist()) | {12.1, 8.0, 8.0 - 0.3 / 0.05}
        assert 13.2 not in x

    def test_each_row_searches_its_own_cap(self, household, prices):
        # 16 is no multiple of 0.3: the cap is still searched, and at 0.9
        # the best report is the cap itself, as in the closed form.
        want = best_report(0.9, household, prices)
        assert want.report.baseline == 16.0
        got = [
            grid_best_report(0.9, household, prices, 0.3),
            *grid_best_reports([0.9], household, prices, 0.3),
        ]
        for solution in got:
            assert solution.report.baseline == 16.0
            assert solution.expected_profit == pytest.approx(
                want.expected_profit, abs=1e-9
            )


class TestGridBestResponse:
    def test_called_reference_report(self, household, prices):
        sol = grid_best_response(Report(8.0, 2.0), CallSignal.CALLED, household, prices)
        assert sol.consumption == pytest.approx(2.0, abs=1e-12)
        assert sol.payoff == pytest.approx(2.5, abs=1e-12)
        assert sol.label is None

    def test_not_called_truthful_report(self, household, prices):
        sol = grid_best_response(
            Report(8.0, 0.0), CallSignal.NOT_CALLED, household, prices
        )
        assert sol.consumption == pytest.approx(8.0, abs=1e-12)
        assert sol.payoff == pytest.approx(1.6, abs=1e-12)

    def test_not_called_zero_report(self, household, prices):
        sol = grid_best_response(
            Report(0.0, 0.0), CallSignal.NOT_CALLED, household, prices
        )
        assert sol.consumption == pytest.approx(8.0, abs=1e-12)

    def test_deterministic(self, household, prices):
        a = grid_best_response(Report(9.5, 3.3), CallSignal.CALLED, household, prices)
        b = grid_best_response(Report(9.5, 3.3), CallSignal.CALLED, household, prices)
        assert (a.consumption, a.payoff) == (b.consumption, b.payoff)

    def test_closed_form_never_beaten(self):
        rng = np.random.default_rng(123)
        for _ in range(120):
            params, prices, report = draw_instance(rng)
            step = 0.01
            for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED):
                if signal == CallSignal.CALLED:
                    closed = best_response_called(report, params, prices)
                else:
                    closed = best_response_not_called(report.baseline, params, prices)
                oracle = grid_best_response(report, signal, params, prices, step)
                assert oracle.payoff <= closed.payoff + 1e-6
                assert abs(oracle.payoff - closed.payoff) <= 1e-6
                assert abs(oracle.consumption - closed.consumption) <= 2 * step

    def test_refinement_converges_quadratically(self, prices):
        # Reports with off-grid optima at interior parabola vertices (an
        # un-reported consumer when not called, an ignore-the-commitment
        # consumer when called); without breakpoint injection the payoff
        # error shrinks with the square of the step, bounded by the
        # curvature times the squared half-step.
        params = ConsumerParams(8.1337, 0.05, 21.0)
        gamma = params.marginal_utility
        cases = [
            (Report(5.4321, 0.0), CallSignal.NOT_CALLED),  # optimum at 8.1337
            (Report(1.25, 1.2345), CallSignal.CALLED),  # optimum at 2.1337
        ]
        for report, signal in cases:
            exact = grid_best_response(report, signal, params, prices).payoff
            for step in (0.04, 0.02, 0.01):
                coarse = grid_best_response(
                    report,
                    signal,
                    params,
                    prices,
                    step,
                    inject_breakpoints=False,
                ).payoff
                halved = grid_best_response(
                    report,
                    signal,
                    params,
                    prices,
                    step / 2,
                    inject_breakpoints=False,
                ).payoff
                assert 0 <= exact - coarse <= gamma * step**2 / 8 + 1e-12
                assert abs(halved - coarse) <= gamma * step**2 / 8 + 1e-12


class TestCasePayoffs:
    def test_infeasible_subcases_never_emitted(self, household, prices):
        ids = {c.case_id for c in case_payoffs(
            Report(8.0, 2.0), CallSignal.CALLED, household, prices
        )}
        assert ids == {"e1", "e2", "f1", "f2", "f3", "g", "h", "j1", "j2", "l"}
        ids0 = {c.case_id for c in case_payoffs(
            Report(8.0, 2.0), CallSignal.NOT_CALLED, household, prices
        )}
        assert ids0 == {"a", "b", "c", "d"}

    def test_not_called_moderate_report(self, household, prices):
        table = {
            c.case_id: c
            for c in case_payoffs(
                Report(10.0, 0.0), CallSignal.NOT_CALLED, household, prices
            )
        }
        assert table["a"].payoff == pytest.approx(1.5, abs=1e-12)
        assert table["a"].feasible
        assert not table["b"].feasible
        best = max(c.payoff for c in table.values() if c.feasible)
        assert best == pytest.approx(1.5, abs=1e-12)

    def test_called_reference_report(self, household, prices):
        table = {
            c.case_id: c
            for c in case_payoffs(
                Report(8.0, 2.0), CallSignal.CALLED, household, prices
            )
        }
        assert table["j2"].feasible
        assert table["j2"].payoff == pytest.approx(2.5, abs=1e-12)
        assert max_feasible_case_payoff(
            Report(8.0, 2.0), CallSignal.CALLED, household, prices
        ) == pytest.approx(2.5, abs=1e-12)

    def test_crossover_where_both_reduced_optima_tie(self, household, prices):
        # At a reported baseline 1.5 incentive-price-units below the true
        # one, forgoing the incentive and collecting it on the doubly
        # reduced level pay the same, by construction of the boundary.
        big = ConsumerParams(20.0, 0.05, 30.0)
        boundary = 20.0 - 1.5 * prices.incentive_price / 0.05  # = 11
        report = Report(boundary, 5.0)
        table = {
            c.case_id: c for c in case_payoffs(report, CallSignal.CALLED, big, prices)
        }
        assert table["e1"].feasible and table["f1"].feasible
        assert table["e1"].payoff == pytest.approx(table["f1"].payoff, abs=1e-9)

    def test_max_feasible_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(321)
        for _ in range(120):
            params, prices, report = draw_instance(rng)
            for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED):
                oracle = grid_best_response(report, signal, params, prices)
                analytic = max_feasible_case_payoff(report, signal, params, prices)
                assert analytic == pytest.approx(oracle.payoff, abs=1e-9)

    def test_winning_case_maps_to_strategy_label(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            params, prices, report = draw_instance(rng)
            for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED):
                if signal == CallSignal.CALLED:
                    closed = best_response_called(report, params, prices)
                else:
                    closed = best_response_not_called(report.baseline, params, prices)
                table = case_payoffs(report, signal, params, prices)
                best = max(c.payoff for c in table if c.feasible)
                winners = [
                    c.case_id
                    for c in table
                    if c.feasible and abs(c.payoff - best) <= 1e-9
                ]
                allowed = set()
                for case_id in winners:
                    allowed.update(CASE_TO_STRATEGY[case_id])
                assert closed.label.value in allowed, (
                    report,
                    params,
                    prices,
                    winners,
                    closed,
                )


class TestGridBestReport:
    def test_low_probability(self, household, prices):
        sol = grid_best_report(0.1, household, prices)
        assert sol.report.baseline == pytest.approx(8.67, abs=1e-9)
        assert abs(sol.report.baseline - (8 + 2 / 3)) <= 0.02
        assert sol.report.committed == pytest.approx(2.0, abs=1e-12)
        assert sol.expected_profit == pytest.approx(1.7, abs=1e-4)

    def test_zero_probability_breaks_ties_toward_truthful(self, household, prices):
        sol = grid_best_report(0.0, household, prices)
        assert sol.report.baseline == pytest.approx(8.0, abs=1e-12)
        assert sol.report.committed == pytest.approx(2.0, abs=1e-12)
        assert sol.expected_profit == pytest.approx(1.6, abs=1e-12)

    def test_certain_call(self, household, prices):
        sol = grid_best_report(1.0, household, prices)
        assert sol.report.baseline == pytest.approx(16.0, abs=1e-12)
        assert sol.expected_profit == pytest.approx(4.9, abs=1e-6)

    def test_quadratic_work_is_bounded(self, household, prices):
        # 160 001 points: the 1-D grid is fine, its 2.6e10 report pairs are not.
        with pytest.raises(ValueError, match="coarser grid step"):
            grid_best_report(0.1, household, prices, 1e-4)

    def test_probability_out_of_range_rejected(self, household, prices):
        with pytest.raises(ValueError):
            grid_best_report(-0.1, household, prices)


def reference_grid_best_report(pr, params, prices, step):
    """The two-stage search one candidate baseline x[j] at a time.

    This is the per-baseline loop that grid_best_reports replaced, kept as
    the reference its blocked, probability-shared form must equal bit for
    bit.
    """
    p = prices.energy_price
    p2 = prices.incentive_price
    x = reference_axis(params.max_consumption, step, two_stage_kinks(params, prices))
    gains = utility(x, params, prices)
    base_gain = gains - p * x
    best_key = None
    best_ij = (0, 0)
    for j in range(x.size):
        not_called = float((gains - p * np.maximum(x[j], x)).max())
        h = base_gain + p2 * np.maximum(x[j] - x, 0.0)
        left = np.maximum.accumulate(h + p2 * x) - p2 * x
        right = np.maximum.accumulate((h - p2 * x)[::-1])[::-1] + p2 * x
        called = np.maximum(left, right)[: j + 1]
        expected = pr * called + (1 - pr) * not_called
        m = expected.max()
        tied = np.flatnonzero(expected == m)
        mm = called[tied].max()
        i = int(tied[np.flatnonzero(called[tied] == mm)[0]])
        key = (float(m), float(called[i]), -float(x[i]), -float(x[j]))
        if best_key is None or key > best_key:
            best_key = key
            best_ij = (i, j)
    i, j = best_ij
    regime = (
        Regime.BELOW_THRESHOLD
        if pr <= call_threshold(prices)
        else Regime.ABOVE_THRESHOLD
    )
    return Stage1Solution(
        Report(baseline=float(x[j]), committed=float(x[i])), best_key[0], regime
    )


def edge_probabilities(prices, extra=()):
    """0, 1, the call threshold and one ulp either side of it."""
    threshold = call_threshold(prices)
    return [
        0.0,
        1.0,
        threshold,
        float(np.nextafter(threshold, 0.0)),
        float(np.nextafter(threshold, 1.0)),
        *extra,
    ]


@st.composite
def two_stage_instances(draw):
    """A consumer, prices with the edges p = 0 and p2 = p, and a grid of
    20 to 150 steps over the cap."""
    baseline = draw(st.floats(1.0, 20.0))
    gamma = draw(st.floats(0.01, 0.2))
    p = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.5)))
    p2 = draw(
        st.one_of(st.just(p), st.floats(p, 2 * p))
        if p > 0
        else st.floats(0.05, 1.0)
    )
    cap = baseline + p / gamma + draw(st.floats(0.5, 10.0))
    step = cap / draw(st.integers(20, 150))
    pr = draw(st.floats(0.0, 1.0))
    return ConsumerParams(baseline, gamma, cap), Prices(p, p2), step, pr


class TestBlockedTwoStageSearch:
    @settings(max_examples=120, deadline=None)
    @given(two_stage_instances())
    def test_equals_per_baseline_loop_bitwise(self, instance):
        params, prices, step, pr = instance
        probabilities = edge_probabilities(prices, [pr])
        got = grid_best_reports(probabilities, params, prices, step)
        want = [
            reference_grid_best_report(q, params, prices, step)
            for q in probabilities
        ]
        assert got == want

    def test_one_row_blocks_change_nothing(self, household, prices, monkeypatch):
        probabilities = [k / 10 for k in range(11)] + edge_probabilities(prices)
        blocked = grid_best_reports(probabilities, household, prices, 0.05)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 1)
        assert grid_best_reports(probabilities, household, prices, 0.05) == blocked
        assert blocked == [
            reference_grid_best_report(q, household, prices, 0.05)
            for q in probabilities
        ]

    def test_single_probability_wrapper(self, household, prices):
        both = grid_best_reports([0.1, 0.6], household, prices, 0.05)
        assert both == [
            grid_best_report(0.1, household, prices, 0.05),
            grid_best_report(0.6, household, prices, 0.05),
        ]
        assert grid_best_reports([], household, prices, 0.05) == []

    def test_any_probability_out_of_range_rejected(self, household, prices):
        with pytest.raises(ValueError, match="call probability"):
            grid_best_reports([0.1, 1.5], household, prices)


class TestSharedStage2Axis:
    def test_both_signals_match_single_signal_searches(self):
        rng = np.random.default_rng(5)
        signals = (CallSignal.NOT_CALLED, CallSignal.CALLED)
        for _ in range(20):
            params, prices, report = draw_instance(rng)
            q, payoff = grid_best_responses(report, signals, params, prices, 0.05)
            assert [
                Stage2Solution(float(q[i]), None, float(payoff[i])) for i in (0, 1)
            ] == [grid_best_response(report, s, params, prices, 0.05) for s in signals]
            reverse = grid_best_responses(report, signals[::-1], params, prices, 0.05)
            assert np.array_equal(reverse[0], q[::-1])
            assert np.array_equal(reverse[1], payoff[::-1])


@st.composite
def verify_box_instances(draw):
    """A consumer, prices and report from the box of ``verify``'s stage-2
    suite, with the report also at 0, b, the saturation point or the cap,
    and the commitment also at 0 or the report."""
    baseline = draw(st.floats(1.0, 20.0))
    gamma = draw(st.floats(0.01, 0.2))
    p = draw(st.floats(0.05, 0.5))
    p2 = draw(st.floats(p, 2 * p))
    cap = baseline + p / gamma + draw(st.floats(1.0, 10.0))
    params = ConsumerParams(baseline, gamma, cap)
    prices = Prices(p, p2)
    q_max = params.max_consumption
    sat = saturation_point(params, prices)
    reported = draw(
        st.one_of(st.floats(0.0, q_max), st.sampled_from([0.0, baseline, sat, q_max]))
    )
    committed = draw(
        st.one_of(st.floats(0.0, reported), st.sampled_from([0.0, reported]))
    )
    return params, prices, Report(reported, committed)


class TestKernelOracleCaseTableAgree:
    STEP = 0.01

    @settings(max_examples=40, deadline=None)
    @given(st.lists(verify_box_instances(), min_size=1, max_size=10))
    def test_within_the_stage2_suite_tolerances(self, rows):
        params, prices, reports = zip(*rows)
        closed = solve(
            columns(ConsumerParams, params),
            columns(Prices, prices),
            report=columns(Report, reports),
        )
        signals = (CallSignal.NOT_CALLED, CallSignal.CALLED)
        for k, (one, price, report) in enumerate(rows):
            q, payoff = grid_best_responses(report, signals, one, price, self.STEP)
            for s in signals:
                assert abs(closed.payoff[k, s] - payoff[s]) <= 1e-6
                assert abs(closed.consumption[k, s] - q[s]) <= 2 * self.STEP
                case = max_feasible_case_payoff(report, s, one, price)
                assert abs(case - payoff[s]) <= 1e-9


def reference_grid_best_responses(
    report, signals, params, prices, step, inject_breakpoints=True
):
    """The stage-2 search one report at a time, over the sorted unique axis
    of its grid points, cap and kinks: the per-draw loop that the many-row
    form replaced, kept as the reference it must equal. One (consumption,
    payoff) pair per signal."""
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    extra = (
        [
            report.baseline,
            report.committed,
            b,
            saturation_point(params, prices),
            max(b - p2 / g, 0.0),
            max(b - 2 * p2 / g, 0.0),
        ]
        if inject_breakpoints
        else ()
    )
    q = reference_axis(params.max_consumption, step, extra)
    pairs = []
    for signal in signals:
        values = stage2_profit(q, report, signal, params, prices)
        i = int(np.argmax(values))
        pairs.append((float(q[i]), float(values[i])))
    return pairs


def reference_case_payoffs(report, signal, params, prices):
    """The scalar case table that the array form replaced, with squares
    taken as x * x as the array form takes them: {case_id: (payoff,
    feasible)}."""
    b = params.baseline
    g = params.marginal_utility
    p = prices.energy_price
    p2 = prices.incentive_price
    sat = saturation_point(params, prices)
    bh = report.baseline
    qh = report.committed
    if signal == CallSignal.NOT_CALLED:
        a_payoff = (
            -g * (bh * bh) / 2 + g * b * bh
            if bh <= sat
            else p * p / (2 * g) + g * (b * b) / 2 + p * (b - bh)
        )
        c_payoff = g * (b * b) / 2 if bh <= b else -g * (bh * bh) / 2 + g * b * bh
        return {
            "a": (a_payoff, True),
            "b": (p * p / (2 * g) + g * (b * b) / 2 + p * (b - bh), bh >= sat),
            "c": (c_payoff, bh <= sat),
            "d": (-(p * p) / (2 * g) + g * (b * b) / 2, bh <= sat),
        }
    reduced = b - p2 / g
    doubly_reduced = b - 2 * p2 / g
    consume_report = p2 * qh - bh * p2 - g * (bh * bh) / 2 + g * b * bh
    honor = bh * p2 - p2 * qh - g * (qh * qh) / 2 + g * b * qh
    return {
        "e1": (
            g * (b * b) / 2 - b * p2 + p2 * p2 / (2 * g) + qh * p2,
            bh <= reduced and qh <= reduced,
        ),
        "e2": (consume_report, reduced <= bh <= sat),
        "f1": (
            2 * (p2 * p2) / g - 2 * b * p2 + bh * p2 + p2 * qh + g * (b * b) / 2,
            bh >= doubly_reduced and qh <= doubly_reduced,
        ),
        "f2": (consume_report, bh <= doubly_reduced),
        "f3": (honor, doubly_reduced <= qh <= sat),
        "g": (
            g * (b * b) / 2 - p2 * b - p * p / (2 * g) - p2 * p / g + p2 * qh,
            bh <= sat,
        ),
        "h": (
            g * (b * b) / 2 - 2 * p2 * b - p * p / (2 * g) - 2 * p2 * p / g
            + bh * p2 + p2 * qh,
            bh >= sat and qh <= sat,
        ),
        "j1": (bh * p2 - p2 * qh + g * (b * b) / 2, bh >= b and qh >= b),
        "j2": (honor, qh <= b),
        "l": (
            g * (b * b) / 2 - p * p / (2 * g) + bh * p2 - p2 * qh,
            bh >= sat and qh >= sat,
        ),
    }


def assert_rows_equal_references(rows, step, inject_breakpoints=True):
    """The many-row oracle and case table on ``rows`` (consumer, prices,
    report) equal the one-row references, row by row. Floats are compared
    with ==: bit for bit, up to the sign of zero."""
    params, prices, reports = zip(*rows)
    params, prices, reports = (
        columns(ConsumerParams, params),
        columns(Prices, prices),
        columns(Report, reports),
    )
    q, payoff = grid_best_responses(
        reports, SIGNALS, params, prices, step, inject_breakpoints
    )
    assert q.shape == payoff.shape == (len(rows), 2)
    for s in SIGNALS:
        best = max_feasible_case_payoff(reports, s, params, prices)
        table = {
            c.case_id: np.broadcast_arrays(c.payoff, c.feasible, q[:, s])[:2]
            for c in case_payoffs(reports, s, params, prices)
        }
        for k, (one, price, report) in enumerate(rows):
            want = reference_case_payoffs(report, s, one, price)
            assert {i: (v[0][k], v[1][k]) for i, v in table.items()} == want
            feasible = [value for value, ok in want.values() if ok]
            assert best[k] == max(feasible)
    for k, (one, price, report) in enumerate(rows):
        want = reference_grid_best_responses(
            report, SIGNALS, one, price, step, inject_breakpoints
        )
        assert list(zip(q[k].tolist(), payoff[k].tolist())) == want


def edge_reports(params, prices):
    """Reports at 0, the baseline, the saturation point and the cap, each
    with the commitment at 0, half the report and the report."""
    sat = saturation_point(params, prices)
    return [
        Report(reported, committed)
        for reported in (0.0, params.baseline, sat, params.max_consumption)
        for committed in (0.0, reported / 2, reported)
    ]


class TestManyRowStage2Oracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(verify_box_instances(), min_size=1, max_size=8),
        st.sampled_from([0.01, 0.05, 0.3]),
        st.booleans(),
        st.sampled_from([1, 64, oracle._STAGE2_BLOCK_ELEMENTS]),
    )
    def test_equals_one_row_references(self, rows, step, inject, block):
        with mock.patch.object(oracle, "_STAGE2_BLOCK_ELEMENTS", block):
            assert_rows_equal_references(rows, step, inject)

    @pytest.mark.parametrize("inject", [True, False])
    def test_one_row_blocks_change_nothing(self, monkeypatch, inject):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(6):
            params, prices, _ = draw_instance(rng)
            rows += [(params, prices, r) for r in edge_reports(params, prices)]
        params, prices, reports = (
            columns(cls, values) for cls, values in zip(
                (ConsumerParams, Prices, Report), zip(*rows)
            )
        )
        blocked = grid_best_responses(reports, SIGNALS, params, prices, 0.02, inject)
        monkeypatch.setattr(oracle, "_STAGE2_BLOCK_ELEMENTS", 1)
        one_row = grid_best_responses(reports, SIGNALS, params, prices, 0.02, inject)
        assert all(np.array_equal(a, b) for a, b in zip(blocked, one_row))
        assert_rows_equal_references(rows, 0.02, inject)

    @pytest.mark.parametrize("inject", [True, False])
    def test_total_points_bounded_before_any_block(self, monkeypatch, inject):
        rng = np.random.default_rng(5)
        rows = [draw_instance(rng) for _ in range(4)]
        params, prices, reports = (
            columns(cls, values) for cls, values in zip(
                (ConsumerParams, Prices, Report), zip(*rows)
            )
        )
        # Each row's grid points 0 to floor(q_max / step), its cap and its
        # six kinks.
        points = int(np.floor(params.max_consumption / 0.05).sum()) + 4 * (
            2 + 6 * inject
        )
        def refuse(*args):
            raise AssertionError("a block was searched before the bound")

        monkeypatch.setattr(oracle, "utility", refuse)
        monkeypatch.setattr(oracle, "_MAX_STAGE2_POINTS", points - 1)
        with pytest.raises(ValueError) as exc:
            grid_best_responses(reports, SIGNALS, params, prices, 0.05, inject)
        assert str(exc.value) == (
            f"the stage-2 grid search would evaluate {points} points over 4 "
            f"rows, over the limit of {points - 1}; use a coarser grid step"
        )
        monkeypatch.undo()
        monkeypatch.setattr(oracle, "_MAX_STAGE2_POINTS", points)
        q, _ = grid_best_responses(reports, SIGNALS, params, prices, 0.05, inject)
        assert q.shape == (4, 2)

    def test_one_row_forms_take_single_values(self, household, prices):
        report = Report(8.0, 2.0)
        q, payoff = grid_best_responses(report, SIGNALS, household, prices)
        assert q.shape == payoff.shape == (2,)
        assert [
            grid_best_response(report, s, household, prices) for s in SIGNALS
        ] == [Stage2Solution(q[s], None, payoff[s]) for s in SIGNALS]
        best = max_feasible_case_payoff(report, CallSignal.CALLED, household, prices)
        assert type(best) is float and best == pytest.approx(2.5, abs=1e-12)

    def test_points_bound_uses_the_largest_cap(self, prices):
        params = SimpleNamespace(
            baseline=8.0, marginal_utility=0.05, max_consumption=np.array([16.0, 2e9])
        )
        with pytest.raises(ValueError) as exc:
            grid_best_responses(Report(8.0, 2.0), SIGNALS, params, prices)
        assert str(exc.value) == "grid would exceed 10000000 points; widen the step"

    def test_no_feasible_subcase_in_any_row_is_an_error(self, household, prices):
        reports = SimpleNamespace(
            baseline=np.array([8.0, 8.0]), committed=np.array([2.0, 2.0])
        )
        empty = [oracle.CasePayoff("x", np.zeros(2), np.array([True, False]))]
        with mock.patch.object(oracle, "case_payoffs", return_value=empty):
            with pytest.raises(ValueError, match="no feasible subcase"):
                max_feasible_case_payoff(reports, CallSignal.CALLED, household, prices)

    @pytest.mark.parametrize("inject", [True, False])
    def test_grid_points_rounded_above_the_cap_are_left_out(self, prices, inject):
        # 0.1 * 17 rounds to 1.7000000000000002, above the cap 1.7, although
        # floor(1.7 / 0.1) is 17; likewise 0.01 * 35 against 0.35.
        rows = [
            (ConsumerParams(1.0, 0.2, 1.7), Prices(0.05, 0.1), Report(1.2, 0.5)),
            (ConsumerParams(0.2, 0.2, 0.35), Prices(0.01, 0.02), Report(0.3, 0.1)),
            (ConsumerParams(8.0, 0.05, 16.0), prices, Report(9.0, 2.0)),
        ]
        for step in (0.1, 0.01):
            assert_rows_equal_references(rows, step, inject)

    def test_one_row_equals_its_row_in_a_batch(self, household, prices):
        # For each of b, bh, qh, p and p2 Python's float ** 2 (libm pow)
        # differs from x * x in the last bit; the table squares as x * x.
        one = (
            ConsumerParams(7.4880708322611955, 0.05, 16.0),
            Prices(0.2895771386615925, 0.3986773892228438),
            Report(12.157587503299359, 9.745074186709957),
        )
        rows = [one, (household, prices, Report(9.0, 2.0))]
        params, prices_, reports = (
            columns(cls, values) for cls, values in zip(
                (ConsumerParams, Prices, Report), zip(*rows)
            )
        )
        for s in SIGNALS:
            batch = case_payoffs(reports, s, params, prices_)
            alone = case_payoffs(one[2], s, one[0], one[1])
            assert [(c.case_id, c.payoff, c.feasible) for c in alone] == [
                (c.case_id, np.broadcast_to(c.payoff, 2)[0],
                 np.broadcast_to(c.feasible, 2)[0])
                for c in batch
            ]
            assert max_feasible_case_payoff(one[2], s, one[0], one[1]) == (
                max_feasible_case_payoff(reports, s, params, prices_)[0]
            )


def responses_and_references(rows, step, inject_breakpoints):
    """(consumption, payoff) per signal of each row: from one many-row
    search, and from the one-row reference on the row's own axis."""
    params, prices, reports = (
        columns(cls, values) for cls, values in zip(
            (ConsumerParams, Prices, Report), zip(*rows)
        )
    )
    q, payoff = grid_best_responses(
        reports, SIGNALS, params, prices, step, inject_breakpoints
    )
    got = [list(zip(qk.tolist(), pk.tolist())) for qk, pk in zip(q, payoff)]
    want = [
        reference_grid_best_responses(
            report, SIGNALS, one, price, step, inject_breakpoints
        )
        for one, price, report in rows
    ]
    return got, want


class TestStage2TieBreaks:
    """The many-row search splits each row into its grid points, which
    never decrease, and a tail of the cap and the kinks; ties within and
    between the two parts go to the smallest consumption."""

    STEP = 0.25
    # Not called with the report at the cap, the consumer pays for the cap
    # whatever it consumes, so the payoff is flat from the saturation point
    # (13.4, between the grid points 13.25 and 13.5) to the cap.
    PLATEAU = (ConsumerParams(8.0, 0.05, 16.0), Prices(0.27, 0.30), Report(16.0, 2.0))
    # The same with the saturation point on the grid (8 + 0.25/0.0625 = 12)
    # and the report at 14.1: flat from 12 to the kink at 14.1.
    ON_GRID = (ConsumerParams(8.0, 0.0625, 16.0), Prices(0.25, 0.30), Report(14.1, 2.0))

    def test_saturated_plateau_goes_to_its_first_grid_point(self):
        # Without kinks, 11 grid points and the cap tie.
        got, want = responses_and_references([self.PLATEAU], self.STEP, False)
        assert got == want
        q, payoff = got[0][CallSignal.NOT_CALLED]
        assert q == 13.5
        assert payoff == utility(16.0, *self.PLATEAU[:2]) - 0.27 * 16.0

    def test_kink_tying_at_a_smaller_consumption_wins(self):
        got, want = responses_and_references([self.PLATEAU], self.STEP, True)
        assert got == want
        assert got[0][CallSignal.NOT_CALLED][0] == saturation_point(
            *self.PLATEAU[:2]
        )

    def test_kink_tying_at_a_larger_consumption_loses(self):
        # The kink at 14.1 ties the grid points 12 to 14 at a larger
        # consumption (the kink at 12 ties at the same one).
        for inject in (True, False):
            got, want = responses_and_references([self.ON_GRID], self.STEP, inject)
            assert got == want
            assert got[0][CallSignal.NOT_CALLED][0] == 12.0

    def test_cap_on_a_grid_point(self):
        # A cap below the saturation point, on the grid, is the unique best
        # consumption when not called; in a block with a longer row the cap
        # also pads the row, so it ties itself several times.
        low_cap = (
            ConsumerParams(15.5, 0.05, 16.0), Prices(0.26, 0.30), Report(16.0, 2.0)
        )
        longer = (ConsumerParams(8.0, 0.05, 17.0), Prices(0.26, 0.30), Report(9.0, 2.0))
        for inject in (True, False):
            got, want = responses_and_references(
                [low_cap, longer], self.STEP, inject
            )
            assert got == want
            assert got[0][CallSignal.NOT_CALLED][0] == 16.0


def two_stage_axis(params, prices, step):
    """The two-stage search's axis and base_gain = utility - p * x on it."""
    x = reference_axis(params.max_consumption, step, two_stage_kinks(params, prices))
    return x, utility(x, params, prices) - prices.energy_price * x


def reference_best_commitments(x, base_gain, p2):
    """Each baseline's row of the whole (baseline, commitment) table on its
    own: the best called payoff and the first commitment reaching it."""
    called, commit = [], []
    for j in range(x.size):
        h = base_gain + p2 * np.maximum(x[j] - x, 0.0)
        left = np.maximum.accumulate(h + p2 * x) - p2 * x
        right = np.maximum.accumulate((h - p2 * x)[::-1])[::-1] + p2 * x
        envelope = np.maximum(left, right)[: j + 1]
        commit.append(int(np.argmax(envelope)))
        called.append(envelope[commit[-1]])
    return np.array(called), np.array(commit)


class TestTwoStageBlocks:
    @settings(max_examples=60, deadline=None)
    @given(two_stage_instances(), st.sampled_from(["1", "7", "n", "7n", "n^2"]))
    def test_any_block_size_equals_the_whole_table(self, instance, elements):
        # Blocks of one row, of seven rows (the last one cut short) and one
        # block of all n rows. Every block but the last has hi < n and takes
        # the shared suffix; it moves no report, as baselines too low to
        # consume past never win, so each row's optimum is checked as well.
        params, prices, step, pr = instance
        x, base_gain = two_stage_axis(params, prices, step)
        n = x.size
        size = {"1": 1, "7": 7, "n": n, "7n": 7 * n, "n^2": n * n}[elements]
        probabilities = edge_probabilities(prices, [pr])
        p2 = prices.incentive_price
        with mock.patch.object(oracle, "_BLOCK_ELEMENTS", size):
            got = grid_best_reports(probabilities, params, prices, step)
            called, commit = oracle._best_commitments(x, base_gain, p2)
        want_called, want_commit = reference_best_commitments(x, base_gain, p2)
        assert np.array_equal(called.view(np.int64), want_called.view(np.int64))
        assert np.array_equal(commit, want_commit)
        assert got == [
            reference_grid_best_report(q, params, prices, step)
            for q in probabilities
        ]
