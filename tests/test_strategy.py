import logging

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drcontract import (
    CallSignal,
    ConsumerParams,
    Prices,
    Regime,
    Report,
    StrategyCalled,
    StrategyNotCalled,
    best_report,
    best_response_called,
    best_response_not_called,
    break_even_baseline,
    call_threshold,
    expected_profit,
    grid_best_report,
    grid_best_reports,
    ideal_consumption,
    opt_out_payoff,
    planned_consumption,
    stage2_profit,
)
from drcontract.strategy import solve

SWEEP = [k / 100 for k in range(101)]


class TestCallThreshold:
    def test_reference_prices(self, prices):
        assert call_threshold(prices) == pytest.approx(0.26 / 0.56, abs=1e-12)

    def test_equal_prices_give_half(self):
        assert call_threshold(Prices(0.3, 0.3)) == 0.5

    def test_free_energy_gives_zero(self):
        assert call_threshold(Prices(0.0, 0.3)) == 0.0

    def test_degenerate_prices_rejected(self):
        with pytest.raises(ValueError):
            call_threshold(Prices(0.0, 0.0))


class TestBreakEvenBaseline:
    def test_substitution_at_zero_commitment(self, household, prices):
        expected = 0.05 * 64 / 0.6 - 8 + 0.3 / 0.1
        assert break_even_baseline(0.0, household, prices) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(1 / 3, abs=1e-9)

    def test_equal_payoff_root(self, household, prices):
        # Independently recover the boundary as the reported-baseline level
        # where consuming the reduced optimum (forgoing the incentive) ties
        # with honoring the commitment, by bisection on realized profits.
        committed = 1.0
        reduced = 2.0  # baseline - incentive_price / marginal_utility

        def gap(reported):
            report = Report(reported, committed)
            ignore = stage2_profit(reduced, report, CallSignal.CALLED, household, prices)
            honor = stage2_profit(committed, report, CallSignal.CALLED, household, prices)
            return ignore - honor

        lo, hi = 1.0, 2.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        value = break_even_baseline(committed, household, prices)
        assert value == pytest.approx(13 / 12, abs=1e-9)
        assert value == pytest.approx(root, abs=1e-9)

    def test_meets_region_corner_at_reduced_optimum(self, household, prices):
        # With the commitment at the reduced optimum the boundary collapses
        # onto that same level: the two candidate strategies coincide there.
        assert break_even_baseline(2.0, household, prices) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_requires_positive_incentive_price(self, household):
        with pytest.raises(ValueError):
            break_even_baseline(1.0, household, Prices(0.0, 0.0))


class TestBestResponseNotCalled:
    def test_low_report_consumes_baseline(self, household, prices):
        sol = best_response_not_called(7.0, household, prices)
        assert sol.consumption == 8.0
        assert sol.label is StrategyNotCalled.A
        assert sol.payoff == pytest.approx(1.6, abs=1e-12)  # pays for the 8 consumed

    def test_moderate_report_is_consumed(self, household, prices):
        sol = best_response_not_called(10.0, household, prices)
        assert sol.consumption == 10.0
        assert sol.label is StrategyNotCalled.B
        assert sol.payoff == pytest.approx(1.5, abs=1e-12)

    def test_excess_report_saturates(self, household, prices):
        sol = best_response_not_called(14.0, household, prices)
        assert sol.consumption == pytest.approx(13.2, abs=1e-12)
        assert sol.label is StrategyNotCalled.C
        assert sol.payoff == pytest.approx(0.716, abs=1e-12)

    def test_out_of_range_report_rejected(self, household, prices):
        with pytest.raises(ValueError):
            best_response_not_called(16.5, household, prices)
        with pytest.raises(ValueError):
            best_response_not_called(-0.5, household, prices)

    def test_payoff_is_realized_profit(self, household, prices):
        sol = best_response_not_called(10.0, household, prices)
        again = stage2_profit(
            sol.consumption, Report(10.0, 0.0), CallSignal.NOT_CALLED, household, prices
        )
        assert sol.payoff == again


class TestBestResponseCalled:
    def test_commitment_above_baseline_consumes_baseline(self, household, prices):
        sol = best_response_called(Report(10.0, 9.0), household, prices)
        assert sol.consumption == 8.0
        assert sol.label is StrategyCalled.U
        assert sol.payoff == pytest.approx(1.9, abs=1e-12)

    def test_honors_commitment_with_high_report(self, household, prices):
        sol = best_response_called(Report(8.0, 2.0), household, prices)
        assert sol.consumption == 2.0
        assert sol.label is StrategyCalled.V
        assert sol.payoff == pytest.approx(2.5, abs=1e-12)

    def test_break_even_separates_ignore_from_honor(self, household, prices):
        below = best_response_called(Report(1.0, 1.0), household, prices)
        assert below.consumption == pytest.approx(2.0, abs=1e-12)
        assert below.label is StrategyCalled.X
        assert below.payoff == pytest.approx(0.4, abs=1e-12)

        above = best_response_called(Report(1.5, 1.0), household, prices)
        assert above.consumption == 1.0
        assert above.label is StrategyCalled.W
        assert above.payoff == pytest.approx(0.525, abs=1e-12)

    def test_doubly_reduced_regime(self, prices):
        big = ConsumerParams(baseline=20.0, marginal_utility=0.05, max_consumption=30.0)
        sol = best_response_called(Report(15.0, 5.0), big, prices)
        assert sol.consumption == pytest.approx(8.0, abs=1e-12)
        assert sol.label is StrategyCalled.Z
        assert sol.payoff == pytest.approx(7.6, abs=1e-12)

    def test_report_beyond_cap_rejected(self, household, prices):
        with pytest.raises(ValueError):
            best_response_called(Report(16.5, 2.0), household, prices)

    def test_never_below_any_feasible_alternative(self, household, prices):
        rng = np.random.default_rng(7)
        for _ in range(200):
            reported = rng.uniform(0, 16)
            report = Report(reported, rng.uniform(0, reported))
            sol = best_response_called(report, household, prices)
            q = rng.uniform(0, 16, size=50)
            alt = stage2_profit(q, report, CallSignal.CALLED, household, prices)
            assert sol.payoff >= alt.max() - 1e-9


class TestBestReport:
    def test_zero_probability_is_truthful(self, household, prices):
        sol = best_report(0.0, household, prices)
        assert sol.report.baseline == 8.0
        assert sol.report.committed == pytest.approx(2.0, abs=1e-12)
        assert sol.regime is Regime.BELOW_THRESHOLD
        assert sol.expected_profit == pytest.approx(1.6, abs=1e-12)

    def test_low_probability_inflates_mildly(self, household, prices):
        sol = best_report(0.1, household, prices)
        assert sol.report.baseline == pytest.approx(8 + 2 / 3, abs=1e-9)
        assert sol.report.committed == pytest.approx(2.0, abs=1e-12)

    def test_above_threshold_reports_the_cap(self, household, prices):
        sol = best_report(0.6, household, prices)
        assert sol.report.baseline == 16.0
        assert sol.regime is Regime.ABOVE_THRESHOLD

    def test_probability_out_of_range_rejected(self, household, prices):
        with pytest.raises(ValueError):
            best_report(1.5, household, prices)

    def test_clamp_to_cap_logged_when_cap_assumption_fails(self, prices, caplog):
        # cap below the saturation point: the inflated report can overshoot
        tight = ConsumerParams(baseline=8.0, marginal_utility=0.05, max_consumption=10.0)
        with caplog.at_level(logging.WARNING):
            sol = best_report(0.4, tight, prices)  # raw formula gives 12
        assert sol.report.baseline == 10.0
        assert any("clamped" in message for message in caplog.messages)


class TestExpectedProfit:
    def test_zero_probability_matches_opt_out(self, household, prices):
        assert expected_profit(0.0, household, prices) == pytest.approx(1.6, abs=1e-12)

    def test_low_probability_value(self, household, prices):
        assert expected_profit(0.1, household, prices) == pytest.approx(1.7, abs=1e-9)

    def test_continuity_at_threshold(self, household, prices):
        threshold = call_threshold(prices)
        below = expected_profit(threshold, household, prices)
        above = expected_profit(
            float(np.nextafter(threshold, 1.0)), household, prices
        )
        assert below == pytest.approx(2.38, abs=1e-9)
        assert abs(above - below) < 1e-9

    def test_literal_variant_is_discontinuous(self, household, prices):
        threshold = call_threshold(prices)
        below = expected_profit(
            threshold, household, prices, literal_above_threshold=True
        )
        above = expected_profit(
            float(np.nextafter(threshold, 1.0)),
            household,
            prices,
            literal_above_threshold=True,
        )
        assert abs(above - below) > 1.0

    def test_certain_call_value(self, household, prices):
        assert expected_profit(1.0, household, prices) == pytest.approx(4.9, abs=1e-9)


@st.composite
def draw_box_households(draw):
    """A consumer and prices from verify's draw box, which spans both sides
    of b = p2/g, and a call probability."""
    baseline = draw(st.floats(1.0, 20.0))
    gamma = draw(st.floats(0.01, 0.2))
    p = draw(st.floats(0.05, 0.5))
    p2 = draw(st.floats(p, 2 * p))
    cap = baseline + p / gamma + draw(st.floats(0.5, 10.0))
    pr = draw(st.floats(0.0, 1.0))
    return ConsumerParams(baseline, gamma, cap), Prices(p, p2), pr


# Outside the formula's domain: b = 8 <= p2/g = 30.
OUTSIDE = (ConsumerParams(8.0, 0.01, 40.0), Prices(0.26, 0.30), 0.3)
INSIDE = (ConsumerParams(8.0, 0.05, 16.0), Prices(0.26, 0.30), 0.3)


class TestExpectedProfitDomain:
    """expected_profit is the closed form for an interior called optimum,
    b > p2/g; the kernel (solve) is exact on both sides."""

    @settings(max_examples=60, deadline=None)
    @given(draw_box_households())
    @example(OUTSIDE)
    @example(INSIDE)
    def test_kernel_matches_the_two_stage_oracle(self, household):
        # verify's two-stage tolerance, on a 1000-step grid over the cap.
        params, prices, pr = household
        step = params.max_consumption / 1000
        oracle = grid_best_reports([pr], params, prices, step)[0].expected_profit
        kernel = float(solve(params, prices, call_probability=pr).expected_profit)
        assert abs(kernel - oracle) <= 1e-4
        assert oracle <= kernel + 1e-12 * max(1.0, abs(kernel))

    @settings(max_examples=200, deadline=None)
    @given(draw_box_households())
    @example(OUTSIDE)
    @example(INSIDE)
    def test_formula_matches_the_kernel_only_inside_its_domain(self, household):
        # Where b <= p2/g the called consumer consumes 0 instead of the
        # negative b - p2/g, and the formula overstates the optimum by
        # pr * (p2 - g*b)^2 / (2g).
        params, prices, pr = household
        b = params.baseline
        g = params.marginal_utility
        p2 = prices.incentive_price
        formula = expected_profit(pr, params, prices)
        kernel = float(solve(params, prices, call_probability=pr).expected_profit)
        excess = pr * max(p2 - g * b, 0.0) ** 2 / (2 * g)
        assert formula - kernel == pytest.approx(excess, rel=1e-9, abs=1e-12)
        if b > p2 / g:
            assert formula == pytest.approx(kernel, rel=1e-12, abs=1e-12)

    def test_overstated_example(self):
        params, prices, pr = OUTSIDE
        formula = expected_profit(pr, params, prices)
        assert formula == pytest.approx(2.24857142857, abs=1e-9)
        kernel = solve(params, prices, call_probability=pr).expected_profit
        assert float(kernel) == pytest.approx(1.52257142857, abs=1e-9)
        oracle = grid_best_report(pr, params, prices, 0.05).expected_profit
        assert oracle == pytest.approx(1.52257, abs=1e-5)


class TestPlannedConsumption:
    def test_not_called_below_threshold(self, household, prices):
        q = planned_consumption(0.1, CallSignal.NOT_CALLED, household, prices)
        assert q == pytest.approx(8 + 2 / 3, abs=1e-9)

    def test_not_called_above_threshold_saturates(self, household, prices):
        q = planned_consumption(0.6, CallSignal.NOT_CALLED, household, prices)
        assert q == pytest.approx(13.2, abs=1e-12)

    def test_called_is_probability_free(self, household, prices):
        for pr in (0.0, 0.25, 0.9):
            q = planned_consumption(pr, CallSignal.CALLED, household, prices)
            assert q == pytest.approx(2.0, abs=1e-12)


class TestContractProperties:
    def test_composition_reproduces_planned_consumption(self, household, prices):
        for pr in SWEEP:
            sol = best_report(pr, household, prices)
            via_r0 = best_response_not_called(sol.report.baseline, household, prices)
            via_r1 = best_response_called(sol.report, household, prices)
            assert abs(
                via_r0.consumption
                - planned_consumption(pr, CallSignal.NOT_CALLED, household, prices)
            ) <= 1e-9
            assert abs(
                via_r1.consumption
                - planned_consumption(pr, CallSignal.CALLED, household, prices)
            ) <= 1e-9

    def test_commitment_incentive_compatible(self, household, prices):
        for pr in SWEEP:
            sol = best_report(pr, household, prices)
            response = best_response_called(sol.report, household, prices)
            assert response.consumption == sol.report.committed

    def test_asymptotic_baseline_truthfulness(self, household, prices):
        threshold = call_threshold(prices)
        p2 = prices.incentive_price
        g = household.marginal_utility
        last = 0.0
        for pr in [p for p in SWEEP if p <= threshold]:
            overshoot = best_report(pr, household, prices).report.baseline - 8.0
            assert overshoot >= 0.0
            assert overshoot == pytest.approx(
                p2 * pr / (g * (1 - pr)), abs=1e-9
            )
            assert overshoot >= last
            last = overshoot
        assert best_report(0.0, household, prices).report.baseline == 8.0

    def test_individually_rational(self, household, prices):
        floor = opt_out_payoff(household)
        for pr in SWEEP:
            value = expected_profit(pr, household, prices)
            assert value >= floor - 1e-12
            if pr > 0:
                assert value > floor

    def test_expected_profit_monotone(self, household, prices):
        values = [expected_profit(pr, household, prices) for pr in SWEEP]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_truthful_report_recovers_ideal_consumption(self, household, prices):
        truthful = Report(
            household.baseline, ideal_consumption(household, prices, CallSignal.CALLED)
        )
        r0 = best_response_not_called(truthful.baseline, household, prices)
        r1 = best_response_called(truthful, household, prices)
        assert r0.consumption == household.baseline
        assert r1.consumption == ideal_consumption(
            household, prices, CallSignal.CALLED
        )

    @given(
        baseline=st.floats(1.0, 20.0),
        gamma=st.floats(0.01, 0.2),
        p=st.floats(0.05, 0.5),
        p2_scale=st.floats(1.0, 2.0),
        headroom=st.floats(1.0, 10.0),
        reported_frac=st.floats(0.0, 1.0),
        committed_frac=st.floats(0.0, 1.0),
        q_frac=st.floats(0.0, 1.0),
        signal=st.sampled_from([CallSignal.NOT_CALLED, CallSignal.CALLED]),
    )
    @settings(max_examples=150)
    def test_closed_form_dominates_arbitrary_consumption(
        self,
        baseline,
        gamma,
        p,
        p2_scale,
        headroom,
        reported_frac,
        committed_frac,
        q_frac,
        signal,
    ):
        prices = Prices(p, p * p2_scale)
        params = ConsumerParams(baseline, gamma, baseline + p / gamma + headroom)
        reported = reported_frac * params.max_consumption
        report = Report(reported, committed_frac * reported)
        if signal == CallSignal.CALLED:
            sol = best_response_called(report, params, prices)
        else:
            sol = best_response_not_called(report.baseline, params, prices)
        q = q_frac * params.max_consumption
        assert sol.payoff >= stage2_profit(q, report, signal, params, prices) - 1e-9
