import numpy as np
import pytest

from drcontract import (
    CallSignal,
    ConsumerParams,
    GridSpec,
    Prices,
    Report,
    best_response_called,
    best_response_not_called,
    case_payoffs,
    grid_best_report,
    grid_best_response,
    max_feasible_case_payoff,
)
from drcontract.oracle import CASE_TO_STRATEGY


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
