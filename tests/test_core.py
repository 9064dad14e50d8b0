import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drcontract import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_consumption_cap,
    ideal_consumption,
    opt_out_payoff,
    payment_called,
    payment_not_called,
    saturation_point,
    stage2_profit,
    utility,
)


class TestTypes:
    def test_prices_reject_incentive_below_energy(self):
        with pytest.raises(ValueError):
            Prices(energy_price=0.3, incentive_price=0.26)

    def test_prices_reject_negative_energy_price(self):
        with pytest.raises(ValueError):
            Prices(energy_price=-0.01, incentive_price=0.3)

    def test_equal_prices_allowed(self):
        Prices(energy_price=0.3, incentive_price=0.3)

    @pytest.mark.parametrize("field", ["baseline", "marginal_utility", "max_consumption"])
    def test_params_reject_nonpositive(self, field):
        kwargs = {"baseline": 8.0, "marginal_utility": 0.05, "max_consumption": 16.0}
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            ConsumerParams(**kwargs)

    @pytest.mark.parametrize("field", ["baseline", "marginal_utility", "max_consumption"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, field, value):
        kwargs = {"baseline": 8.0, "marginal_utility": 0.05, "max_consumption": 16.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ConsumerParams(**kwargs)

    @pytest.mark.parametrize("field", ["energy_price", "incentive_price"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_prices_reject_non_finite(self, field, value):
        kwargs = {"energy_price": 0.26, "incentive_price": 0.30}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Prices(**kwargs)

    def test_prices_reject_both_zero(self):
        with pytest.raises(ValueError, match="incentive_price must be > 0"):
            Prices(energy_price=0.0, incentive_price=0.0)

    def test_report_ordering_enforced(self):
        with pytest.raises(ValueError):
            Report(baseline=2.0, committed=3.0)
        with pytest.raises(ValueError):
            Report(baseline=2.0, committed=-0.5)
        Report(baseline=2.0, committed=2.0)

    def test_cap_check_couples_params_and_prices(self, prices):
        check_consumption_cap(
            ConsumerParams(8.0, 0.05, 16.0), prices
        )  # 16 > 13.2
        with pytest.raises(ValueError):
            check_consumption_cap(ConsumerParams(8.0, 0.05, 13.2), prices)


class TestUtility:
    def test_zero_consumption_zero_utility(self, household, prices):
        assert utility(0.0, household, prices) == 0.0

    def test_value_at_baseline(self, household, prices):
        assert utility(8.0, household, prices) == pytest.approx(3.68, abs=1e-12)

    def test_breakpoint_continuity(self, household, prices):
        sat = saturation_point(household, prices)
        assert sat == pytest.approx(13.2, abs=1e-12)
        below = utility(np.nextafter(sat, 0.0), household, prices)
        above = utility(np.nextafter(sat, 100.0), household, prices)
        assert utility(sat, household, prices) == pytest.approx(4.356, abs=1e-12)
        assert abs(below - above) < 1e-12

    def test_breakpoint_slope_is_flat(self, household, prices):
        sat = saturation_point(household, prices)
        h = 1e-5
        slope = (
            utility(sat + h, household, prices) - utility(sat - h, household, prices)
        ) / (2 * h)
        assert abs(slope) < 1e-6

    def test_negative_consumption_rejected(self, household, prices):
        with pytest.raises(ValueError):
            utility(-0.1, household, prices)

    def test_nondecreasing_and_concave_on_grid(self, household, prices):
        q = np.linspace(0.0, household.max_consumption, 1601)
        values = utility(q, household, prices)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) <= 1e-12)


class TestOptOutPayoff:
    def test_reference_household(self, household):
        assert opt_out_payoff(household) == pytest.approx(1.6, abs=1e-12)

    def test_substitution(self):
        assert opt_out_payoff(ConsumerParams(4.0, 0.1, 10.0)) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_vanishes_with_baseline(self):
        tiny = ConsumerParams(1e-9, 0.05, 10.0)
        assert opt_out_payoff(tiny) == pytest.approx(0.0, abs=1e-12)


class TestIdealConsumption:
    def test_not_called_is_baseline(self, household, prices):
        assert ideal_consumption(household, prices, CallSignal.NOT_CALLED) == 8.0

    def test_called_is_reduced(self, household, prices):
        assert ideal_consumption(household, prices, CallSignal.CALLED) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_called_clamps_at_zero(self, prices):
        small = ConsumerParams(1.0, 0.05, 8.0)
        assert ideal_consumption(small, prices, CallSignal.CALLED) == 0.0


class TestPayments:
    def test_not_called_buys_the_baseline(self, prices):
        assert payment_not_called(8.0, 10.0, prices) == pytest.approx(2.60, abs=1e-12)
        assert payment_not_called(8.0, 8.0, prices) == pytest.approx(2.08, abs=1e-12)
        assert payment_not_called(9.0, 6.0, prices) == pytest.approx(2.34, abs=1e-12)

    @given(
        q=st.floats(0.0, 20.0),
        reported=st.floats(0.0, 20.0),
    )
    def test_not_called_symmetric_in_its_energy_arguments(self, q, reported):
        prices = Prices(0.26, 0.30)
        assert payment_not_called(q, reported, prices) == payment_not_called(
            reported, q, prices
        )

    def test_called_examples(self, prices):
        report = Report(baseline=8.0, committed=2.0)
        assert payment_called(2.0, report, prices) == pytest.approx(-1.28, abs=1e-12)
        assert payment_called(4.0, report, prices) == pytest.approx(0.44, abs=1e-12)
        assert payment_called(8.0, report, prices) == pytest.approx(3.88, abs=1e-12)

    @given(q=st.floats(0.0, 16.0))
    def test_called_reduces_to_energy_cost_when_report_matches(self, q):
        prices = Prices(0.26, 0.30)
        report = Report(baseline=q, committed=q)
        assert payment_called(q, report, prices) == pytest.approx(
            prices.energy_price * q, abs=1e-12
        )


class TestStage2Profit:
    def test_called_composition(self, household, prices):
        report = Report(8.0, 2.0)
        value = stage2_profit(2.0, report, CallSignal.CALLED, household, prices)
        assert value == pytest.approx(2.50, abs=1e-12)

    def test_not_called_truthful_matches_opt_out(self, household, prices):
        report = Report(8.0, 2.0)
        value = stage2_profit(8.0, report, CallSignal.NOT_CALLED, household, prices)
        assert value == pytest.approx(opt_out_payoff(household), abs=1e-12)

    def test_not_called_still_buys_baseline_at_zero_consumption(
        self, household, prices
    ):
        value = stage2_profit(
            0.0, Report(8.0, 2.0), CallSignal.NOT_CALLED, household, prices
        )
        assert value == pytest.approx(-2.08, abs=1e-12)

    def test_domain_errors(self, household, prices):
        report = Report(8.0, 2.0)
        with pytest.raises(ValueError):
            stage2_profit(-0.1, report, CallSignal.CALLED, household, prices)
        with pytest.raises(ValueError):
            stage2_profit(16.1, report, CallSignal.CALLED, household, prices)

    @given(
        q=st.floats(0.0, 16.0),
        reported=st.floats(0.0, 16.0),
        committed_frac=st.floats(0.0, 1.0),
        signal=st.sampled_from([CallSignal.NOT_CALLED, CallSignal.CALLED]),
    )
    def test_profit_finite_everywhere(self, q, reported, committed_frac, signal):
        household = ConsumerParams(8.0, 0.05, 16.0)
        prices = Prices(0.26, 0.30)
        report = Report(baseline=reported, committed=committed_frac * reported)
        assert math.isfinite(stage2_profit(q, report, signal, household, prices))
