"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion NN <name>: PASS|FAIL`` line (run pytest
with ``-s`` to see them live). The reference setting throughout is the
bundled household: energy price 0.26 $/kWh, incentive price 0.30 $/kWh,
baseline 8 kWh, marginal utility 0.05 $/kWh^2, cap 16 kWh.
"""

import contextlib

import numpy as np
import pytest

from drcontract import (
    Behavior,
    CallSignal,
    ConsumerParams,
    Portfolio,
    PortfolioMember,
    Prices,
    Report,
    best_report,
    best_response_called,
    best_response_not_called,
    call_threshold,
    collect_reports,
    expected_profit,
    grid_best_report,
    grid_best_response,
    ideal_consumption,
    max_feasible_case_payoff,
    opt_out_payoff,
    planned_consumption,
    run_monte_carlo,
    settle_event,
)

PRICES = Prices(energy_price=0.26, incentive_price=0.30)
HOUSEHOLD = ConsumerParams(baseline=8.0, marginal_utility=0.05, max_consumption=16.0)
SWEEP = [k / 100 for k in range(101)]


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def test_01_call_threshold_value():
    with criterion(1, "call-probability threshold"):
        assert call_threshold(PRICES) == pytest.approx(0.46429, abs=1e-5)


def test_02_opt_out_payoff_value():
    with criterion(2, "non-participation payoff"):
        assert opt_out_payoff(HOUSEHOLD) == pytest.approx(1.600, abs=1e-9)


def test_03_report_curve_shape_and_oracle_agreement():
    with criterion(3, "optimal report curve vs two-stage oracle"):
        threshold = call_threshold(PRICES)
        for pr in SWEEP:
            sol = best_report(pr, HOUSEHOLD, PRICES)
            if pr <= threshold:
                assert sol.report.baseline == pytest.approx(
                    8.0 + 6.0 * pr / (1.0 - pr), abs=1e-9
                )
            else:
                assert sol.report.baseline == 16.0
            assert sol.report.committed == pytest.approx(2.0, abs=1e-9)
            called = planned_consumption(pr, CallSignal.CALLED, HOUSEHOLD, PRICES)
            assert called == pytest.approx(2.0, abs=1e-9)
        for k in range(11):
            pr = k / 10
            closed = best_report(pr, HOUSEHOLD, PRICES)
            oracle = grid_best_report(pr, HOUSEHOLD, PRICES, 0.01)
            assert abs(closed.report.baseline - oracle.report.baseline) <= 0.02


def test_04_individually_rational():
    with criterion(4, "voluntary participation"):
        floor = 1.6
        for pr in SWEEP:
            value = expected_profit(pr, HOUSEHOLD, PRICES)
            assert value >= floor - 1e-9
            if pr == 0.0:
                assert value == pytest.approx(floor, abs=1e-9)
            else:
                assert value > floor + 1e-9


def test_05_commitment_incentive_compatibility():
    with criterion(5, "commitment is honored exactly"):
        for pr in SWEEP:
            sol = best_report(pr, HOUSEHOLD, PRICES)
            response = best_response_called(sol.report, HOUSEHOLD, PRICES)
            assert response.consumption == sol.report.committed


def test_06_asymptotic_baseline_truthfulness():
    with criterion(6, "report inflation follows the stated identity"):
        threshold = call_threshold(PRICES)
        p2 = PRICES.incentive_price
        g = HOUSEHOLD.marginal_utility
        for pr in SWEEP:
            if pr > threshold:
                continue
            overshoot = best_report(pr, HOUSEHOLD, PRICES).report.baseline - 8.0
            assert overshoot == pytest.approx(p2 * pr / (g * (1 - pr)), abs=1e-9)
        assert best_report(0.0, HOUSEHOLD, PRICES).report.baseline == 8.0
        # At pr=0.1 the inflation is 1/12 of the true baseline (~8.33%).
        tenth = best_report(0.1, HOUSEHOLD, PRICES).report.baseline
        assert tenth / 8.0 == pytest.approx(1 + 1 / 12, abs=1e-9)


def test_07_expected_profit_continuity_and_upper_branch():
    with criterion(7, "expected-profit branches agree and match the oracle"):
        threshold = call_threshold(PRICES)
        below = expected_profit(threshold, HOUSEHOLD, PRICES)
        above = expected_profit(
            float(np.nextafter(threshold, 1.0)), HOUSEHOLD, PRICES
        )
        assert below == pytest.approx(2.380, abs=1e-9)
        assert abs(above - below) <= 1e-9
        for pr in (0.6, 0.8, 1.0):
            closed = expected_profit(pr, HOUSEHOLD, PRICES)
            oracle = grid_best_report(pr, HOUSEHOLD, PRICES, 0.01)
            assert closed == pytest.approx(oracle.expected_profit, abs=1e-4)


def test_08_oracle_equivalence_on_random_draws():
    with criterion(8, "closed form vs exact search vs case table"):
        rng = np.random.default_rng(20240817)
        for _ in range(500):
            baseline = rng.uniform(1.0, 20.0)
            gamma = rng.uniform(0.01, 0.2)
            p = rng.uniform(0.05, 0.5)
            p2 = rng.uniform(p, 2 * p)
            params = ConsumerParams(
                baseline, gamma, baseline + p / gamma + rng.uniform(1.0, 10.0)
            )
            prices = Prices(p, p2)
            reported = rng.uniform(0.0, params.max_consumption)
            report = Report(reported, rng.uniform(0.0, reported))
            step = 0.01
            for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED):
                if signal == CallSignal.CALLED:
                    closed = best_response_called(report, params, prices)
                else:
                    closed = best_response_not_called(report.baseline, params, prices)
                oracle = grid_best_response(report, signal, params, prices, step)
                assert abs(closed.payoff - oracle.payoff) <= 1e-6
                assert abs(closed.consumption - oracle.consumption) <= 2 * step
                analytic = max_feasible_case_payoff(report, signal, params, prices)
                assert abs(analytic - oracle.payoff) <= 1e-9


def test_09_monte_carlo_consistency():
    with criterion(9, "Monte Carlo mean profit and call frequency"):
        portfolio = Portfolio(
            (PortfolioMember("household", HOUSEHOLD, 0.1),), PRICES
        )
        behaviors = {"household": Behavior.RATIONAL}
        result = run_monte_carlo(portfolio, behaviors, trials=1000, master_seed=2024)
        stats = result.stats[0]
        se = np.sqrt(stats.profit_variance / stats.trials)
        assert abs(stats.mean_profit - 1.700) <= 3 * se
        assert abs(stats.call_frequency - 0.1) <= 4 * np.sqrt(0.1 * 0.9 / 1000)


def test_10_marginal_utility_sweep_behavior():
    with criterion(10, "marginal-utility sweep monotonicity"):
        pr = 0.1
        p2 = PRICES.incentive_price
        # A wide cap keeps the model's validity condition satisfied down to
        # the stated profit turning point; below the call threshold none of
        # the asserted quantities depend on the cap.
        gammas = [0.0125 + k * (0.2 - 0.0125) / 100 for k in range(101)]
        overshoots = []
        profits = []
        for gamma in gammas:
            params = ConsumerParams(8.0, gamma, 40.0)
            sol = best_report(pr, params, PRICES)
            overshoots.append(sol.report.baseline - 8.0)
            assert sol.report.baseline - 8.0 == pytest.approx(
                p2 * pr / (gamma * (1 - pr)), abs=1e-9
            )
            q_r0 = planned_consumption(pr, CallSignal.NOT_CALLED, params, PRICES)
            q_r1 = planned_consumption(pr, CallSignal.CALLED, params, PRICES)
            assert sol.report.baseline == q_r0
            assert sol.report.committed == q_r1
            profits.append(expected_profit(pr, params, PRICES))
        assert all(b < a for a, b in zip(overshoots, overshoots[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(profits, profits[1:]))
        # Just below the turning point gamma = 0.0125 the profit still falls.
        low = expected_profit(pr, ConsumerParams(8.0, 0.0115, 40.0), PRICES)
        turning = expected_profit(pr, ConsumerParams(8.0, 0.0125, 40.0), PRICES)
        assert low > turning


def test_11_buy_the_baseline_punishes_gaming():
    with criterion(11, "inflated reports are punished when not called"):
        members = (
            PortfolioMember("honest", HOUSEHOLD, 0.1),
            PortfolioMember("gamer", HOUSEHOLD, 0.1),
        )
        portfolio = Portfolio(members, PRICES)
        behaviors = {"honest": Behavior.TRUTHFUL, "gamer": Behavior.NAIVE_GAMER}
        reports = collect_reports(portfolio, behaviors)
        assert reports["gamer"].baseline == 16.0
        records, _ = settle_event(
            portfolio,
            reports,
            {"honest": CallSignal.NOT_CALLED, "gamer": CallSignal.NOT_CALLED},
            behaviors,
        )
        by_id = {r.consumer_id: r for r in records}
        assert by_id["gamer"].profit == pytest.approx(-0.48, abs=1e-9)
        assert by_id["honest"].profit == pytest.approx(1.6, abs=1e-9)
        assert ideal_consumption(HOUSEHOLD, PRICES, CallSignal.NOT_CALLED) == 8.0
