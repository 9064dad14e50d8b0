import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drcontract.oracle as oracle
from drcontract import (
    CallSignal,
    ConsumerParams,
    GridSpec,
    Prices,
    Regime,
    Report,
    Stage1Solution,
    best_response_called,
    best_response_not_called,
    call_threshold,
    case_payoffs,
    grid_best_report,
    grid_best_reports,
    grid_best_response,
    grid_best_responses,
    max_feasible_case_payoff,
    saturation_point,
    utility,
)
from drcontract.core import columns
from drcontract.oracle import CASE_TO_STRATEGY
from drcontract.strategy import solve


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


class TestGridSpec:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, step=0.0)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1e9, step=1e-3)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(0.0, 1.0, step=step)

    def test_points_include_bounds_and_extras(self):
        pts = GridSpec(0.0, 1.0, 0.25).points(extra=[0.1, 2.0])
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert 0.1 in pts
        assert 2.0 not in pts  # outside the interval

    def test_grid_must_cover_the_consumption_domain(self, household, prices):
        with pytest.raises(ValueError):
            grid_best_response(
                Report(8.0, 2.0),
                CallSignal.CALLED,
                household,
                prices,
                GridSpec(0.0, 10.0),
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
            grid = GridSpec.cover(params.max_consumption, 0.01)
            for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED):
                if signal == CallSignal.CALLED:
                    closed = best_response_called(report, params, prices)
                else:
                    closed = best_response_not_called(report.baseline, params, prices)
                oracle = grid_best_response(report, signal, params, prices, grid)
                assert oracle.payoff <= closed.payoff + 1e-6
                assert abs(oracle.payoff - closed.payoff) <= 1e-6
                assert abs(oracle.consumption - closed.consumption) <= 2 * grid.step

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
                    GridSpec.cover(params.max_consumption, step),
                    inject_breakpoints=False,
                ).payoff
                halved = grid_best_response(
                    report,
                    signal,
                    params,
                    prices,
                    GridSpec.cover(params.max_consumption, step / 2),
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
        grid = GridSpec.cover(household.max_consumption, 1e-4)
        with pytest.raises(ValueError, match="coarser grid step"):
            grid_best_report(0.1, household, prices, grid)

    def test_probability_out_of_range_rejected(self, household, prices):
        with pytest.raises(ValueError):
            grid_best_report(-0.1, household, prices)


def reference_grid_best_report(pr, params, prices, grid):
    """The two-stage search one candidate baseline x[j] at a time.

    This is the per-baseline loop that grid_best_reports replaced, kept as
    the reference its blocked, probability-shared form must equal bit for
    bit.
    """
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
    x = oracle._checked_axis(grid, params, extra)
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
        grid = GridSpec.cover(params.max_consumption, step)
        probabilities = edge_probabilities(prices, [pr])
        got = grid_best_reports(probabilities, params, prices, grid)
        want = [
            reference_grid_best_report(q, params, prices, grid)
            for q in probabilities
        ]
        assert got == want

    def test_one_row_blocks_change_nothing(self, household, prices, monkeypatch):
        grid = GridSpec.cover(household.max_consumption, 0.05)
        probabilities = [k / 10 for k in range(11)] + edge_probabilities(prices)
        blocked = grid_best_reports(probabilities, household, prices, grid)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 1)
        assert grid_best_reports(probabilities, household, prices, grid) == blocked
        assert blocked == [
            reference_grid_best_report(q, household, prices, grid)
            for q in probabilities
        ]

    def test_single_probability_wrapper(self, household, prices):
        grid = GridSpec.cover(household.max_consumption, 0.05)
        both = grid_best_reports([0.1, 0.6], household, prices, grid)
        assert both == [
            grid_best_report(0.1, household, prices, grid),
            grid_best_report(0.6, household, prices, grid),
        ]
        assert grid_best_reports([], household, prices, grid) == []

    def test_any_probability_out_of_range_rejected(self, household, prices):
        with pytest.raises(ValueError, match="call probability"):
            grid_best_reports([0.1, 1.5], household, prices)


class TestSharedStage2Axis:
    def test_both_signals_match_single_signal_searches(self):
        rng = np.random.default_rng(5)
        signals = (CallSignal.NOT_CALLED, CallSignal.CALLED)
        for _ in range(20):
            params, prices, report = draw_instance(rng)
            grid = GridSpec.cover(params.max_consumption, 0.05)
            both = grid_best_responses(report, signals, params, prices, grid)
            assert both == [
                grid_best_response(report, s, params, prices, grid)
                for s in signals
            ]
            reverse = grid_best_responses(report, signals[::-1], params, prices, grid)
            assert reverse == both[::-1]


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
            grid = GridSpec.cover(one.max_consumption, self.STEP)
            oracles = grid_best_responses(report, signals, one, price, grid)
            for s, oracle in zip(signals, oracles):
                assert abs(closed.payoff[k, s] - oracle.payoff) <= 1e-6
                q_dev = abs(closed.consumption[k, s] - oracle.consumption)
                assert q_dev <= 2 * self.STEP
                case = max_feasible_case_payoff(report, s, one, price)
                assert abs(case - oracle.payoff) <= 1e-9
