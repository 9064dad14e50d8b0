"""The array kernel ``strategy.solve`` against the scalar closed form it
replaced, kept here as the reference: one ``stage2_profit`` call per
candidate level, ranked by consumption, first maximum wins."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcontract import (
    CallSignal,
    ConsumerParams,
    Prices,
    Regime,
    Report,
    Stage1Solution,
    Stage2Solution,
    StrategyCalled,
    StrategyNotCalled,
    best_report,
    best_response_called,
    best_response_not_called,
    call_threshold,
    check_consumption_cap,
    saturation_point,
    stage2_profit,
)
from drcontract.core import columns
from drcontract.strategy import LABELS, solve


def _pick_best(candidates, report, signal, params, prices):
    ranked = sorted(candidates, key=lambda item: item[0])
    best_q, best_label = ranked[0]
    best_payoff = stage2_profit(best_q, report, signal, params, prices)
    for q, label in ranked[1:]:
        payoff = stage2_profit(q, report, signal, params, prices)
        if payoff > best_payoff:
            best_q, best_label, best_payoff = q, label, payoff
    return Stage2Solution(best_q, best_label, best_payoff)


def reference_not_called(reported_baseline, params, prices):
    if not 0 <= reported_baseline <= params.max_consumption:
        raise ValueError(
            f"reported baseline must lie in [0, {params.max_consumption}], "
            f"got {reported_baseline}"
        )
    report = Report(baseline=reported_baseline, committed=0.0)
    sat = min(saturation_point(params, prices), params.max_consumption)
    candidates = [
        (params.baseline, StrategyNotCalled.A),
        (reported_baseline, StrategyNotCalled.B),
        (sat, StrategyNotCalled.C),
    ]
    return _pick_best(candidates, report, CallSignal.NOT_CALLED, params, prices)


def reference_called(report, params, prices):
    if report.baseline > params.max_consumption:
        raise ValueError(
            f"reported baseline must lie in [0, {params.max_consumption}], "
            f"got {report.baseline}"
        )
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    reduced_raw = b - p2 / g
    reduced = max(reduced_raw, 0.0)
    doubly_reduced = max(b - 2 * p2 / g, 0.0)
    honor = StrategyCalled.V if report.baseline >= reduced_raw else StrategyCalled.W
    reduce = (
        StrategyCalled.X if report.committed >= doubly_reduced else StrategyCalled.Y
    )
    candidates = [
        (b, StrategyCalled.U),
        (report.committed, honor),
        (reduced, reduce),
        (doubly_reduced, StrategyCalled.Z),
    ]
    return _pick_best(candidates, report, CallSignal.CALLED, params, prices)


def reference_best_report(call_probability, params, prices):
    if not 0 <= call_probability <= 1:
        raise ValueError(
            f"call probability must lie in [0, 1], got {call_probability}"
        )
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    if call_probability <= call_threshold(prices):
        announced = b + call_probability * p2 / (g * (1 - call_probability))
        regime = Regime.BELOW_THRESHOLD
    else:
        announced = params.max_consumption
        regime = Regime.ABOVE_THRESHOLD
    announced = min(announced, params.max_consumption)
    report = Report(baseline=announced, committed=max(b - p2 / g, 0.0))
    called = reference_called(report, params, prices)
    not_called = reference_not_called(report.baseline, params, prices)
    expected = (
        call_probability * called.payoff
        + (1 - call_probability) * not_called.payoff
    )
    return Stage1Solution(report=report, expected_profit=expected, regime=regime)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@st.composite
def consumers(draw):
    """A consumer and prices from a box with the edges p = 0, p2 = p,
    b - p2/g at 0 and below, b - 2*p2/g at 0 and below, and a cap just
    above the saturation point."""
    baseline = draw(st.floats(0.5, 20.0))
    p = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
    p2 = draw(
        st.one_of(st.just(p), st.floats(p, 2 * p))
        if p > 0
        else st.floats(0.01, 1.0)
    )
    gamma = draw(
        st.one_of(
            st.floats(0.005, 0.5),
            st.sampled_from([p2 / baseline, 2 * p2 / baseline]),
        )
    )
    slack = draw(st.one_of(st.just(1e-6), st.floats(0.01, 10.0)))
    params = ConsumerParams(baseline, gamma, baseline + p / gamma + slack)
    return params, Prices(p, p2)


def edges(*values):
    return st.sampled_from([float(v) for v in values])


@st.composite
def probability_rows(draw):
    params, prices = draw(consumers())
    threshold = call_threshold(prices)
    pr = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            edges(
                0.0,
                1.0,
                threshold,
                np.nextafter(threshold, 0.0),
                np.nextafter(threshold, 1.0),
            ),
        )
    )
    return params, prices, pr


@st.composite
def report_rows(draw):
    """A consumer and a report, with the report at 0, b, the saturation
    point, b - p2/g or the cap, and the commitment at 0, the report, b,
    (b - p2/g)+ or (b - 2*p2/g)+, so candidate levels tie."""
    params, prices = draw(consumers())
    b = params.baseline
    g = params.marginal_utility
    p2 = prices.incentive_price
    q_max = params.max_consumption
    reduced = max(b - p2 / g, 0.0)
    doubly = max(b - 2 * p2 / g, 0.0)
    sat = saturation_point(params, prices)
    reported = draw(
        st.one_of(st.floats(0.0, q_max), edges(0.0, b, sat, reduced, q_max))
    )
    committed = draw(
        st.one_of(
            st.floats(0.0, reported),
            edges(0.0, reported, *(v for v in (b, reduced, doubly) if v <= reported)),
        )
    )
    return params, prices, Report(reported, committed)


def assert_responses_equal(solution, k, want_not_called, want_called):
    for s, want in enumerate((want_not_called, want_called)):
        assert bits(solution.consumption[k, s]) == bits(want.consumption)
        assert bits(solution.payoff[k, s]) == bits(want.payoff)
        assert LABELS[s][solution.label[k, s]] is want.label


class TestKernelEqualsScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(probability_rows(), min_size=1, max_size=12))
    def test_optimal_reports_bitwise(self, rows):
        params, prices, probabilities = zip(*rows)
        solution = solve(
            columns(ConsumerParams, params),
            columns(Prices, prices),
            call_probability=np.array(probabilities),
        )
        for k, (one, price, pr) in enumerate(rows):
            want = reference_best_report(pr, one, price)
            assert bits(solution.report_baseline[k]) == bits(want.report.baseline)
            assert bits(solution.report_committed[k]) == bits(want.report.committed)
            assert bits(solution.expected_profit[k]) == bits(want.expected_profit)
            regime = (
                Regime.ABOVE_THRESHOLD
                if solution.above_threshold[k]
                else Regime.BELOW_THRESHOLD
            )
            assert regime is want.regime
            assert_responses_equal(
                solution,
                k,
                reference_not_called(want.report.baseline, one, price),
                reference_called(want.report, one, price),
            )
            assert best_report(pr, one, price) == want

    @settings(max_examples=150, deadline=None)
    @given(st.lists(report_rows(), min_size=1, max_size=12))
    def test_best_responses_bitwise(self, rows):
        params, prices, reports = zip(*rows)
        solution = solve(
            columns(ConsumerParams, params),
            columns(Prices, prices),
            report=columns(Report, reports),
        )
        assert solution.expected_profit is None
        assert solution.above_threshold is None
        for k, (one, price, report) in enumerate(rows):
            want_not_called = reference_not_called(report.baseline, one, price)
            want_called = reference_called(report, one, price)
            assert_responses_equal(solution, k, want_not_called, want_called)
            assert best_response_not_called(report.baseline, one, price) == (
                want_not_called
            )
            assert best_response_called(report, one, price) == want_called

    def test_equal_levels_keep_the_listed_label(self, household, prices):
        # b - p2/g = 2 is both the commitment (V) and the reduced optimum (X)
        # when the report sits at b: the honor label comes first in the list.
        solution = best_response_called(Report(8.0, 2.0), household, prices)
        assert solution == reference_called(Report(8.0, 2.0), household, prices)
        assert solution.label is StrategyCalled.V
        # Reporting b makes the baseline (A) and the report (B) one level.
        assert best_response_not_called(8.0, household, prices).label is (
            StrategyNotCalled.A
        )

    def test_plateau_tie_goes_to_the_smaller_consumption(self, household, prices):
        # Above saturation every level up to the report pays the same.
        solution = best_response_not_called(14.0, household, prices)
        assert solution.consumption == saturation_point(household, prices)
        assert solution.label is StrategyNotCalled.C

    def test_scalar_inputs_broadcast_over_probabilities(self, household, prices):
        probabilities = [0.0, 0.1, 0.46, 0.47, 1.0]
        solution = solve(household, prices, call_probability=np.array(probabilities))
        assert solution.consumption.shape == (5, 2)
        for k, pr in enumerate(probabilities):
            want = reference_best_report(pr, household, prices)
            assert solution.report_baseline[k] == want.report.baseline
            assert solution.expected_profit[k] == want.expected_profit

    def test_needs_exactly_one_of_probability_and_report(self, household, prices):
        with pytest.raises(TypeError):
            solve(household, prices)
        with pytest.raises(TypeError):
            solve(household, prices, call_probability=0.1, report=Report(8.0, 2.0))


class TestKernelErrorsAndWarnings:
    def cap_below_saturation(self):
        return ConsumerParams(baseline=8.0, marginal_utility=0.05, max_consumption=10.0)

    def test_clamp_logged_once_per_clamped_row(self, prices, caplog):
        tight = self.cap_below_saturation()
        rows = columns(ConsumerParams, [tight, tight, tight])
        with caplog.at_level(logging.WARNING):
            solution = solve(rows, prices, call_probability=np.array([0.0, 0.4, 0.3]))
        clamped = [m for m in caplog.messages if "clamped" in m]
        assert clamped == [
            "announced baseline 12.000000 clamped to the cap 10.000000 "
            "(consumption cap below the saturation point?)",
            "announced baseline 10.571429 clamped to the cap 10.000000 "
            "(consumption cap below the saturation point?)",
        ]
        assert solution.report_baseline.tolist() == [8.0, 10.0, 10.0]

    def test_clamp_of_a_valid_cap_prints_both_values_in_full(self, caplog):
        # The cap is one ulp above the saturation point 3.089909981826106,
        # so it passes the cap check; at the threshold the inflated
        # baseline rounds one ulp past it.
        params = ConsumerParams(
            1.5765741455869526, 0.14432336817456848, 3.0899099818261067
        )
        prices = Prices(0.21840972506531187, 0.23825284124321436)
        check_consumption_cap(params, prices)
        with caplog.at_level(logging.WARNING):
            solution = best_report(call_threshold(prices), params, prices)
        assert [m for m in caplog.messages if "clamped" in m] == [
            "announced baseline 3.089909981826107 clamped to the cap "
            "3.0899099818261067"
        ]
        assert solution.report.baseline == params.max_consumption

    def test_each_clamped_row_in_a_batch_gets_its_own_message(self, prices, caplog):
        # A cap below the saturation point keeps the hint; the valid cap one
        # ulp above it prints both values in full, in the same batch.
        valid = ConsumerParams(
            1.5765741455869526, 0.14432336817456848, 3.0899099818261067
        )
        valid_prices = Prices(0.21840972506531187, 0.23825284124321436)
        rows = columns(ConsumerParams, [self.cap_below_saturation(), valid])
        row_prices = columns(Prices, [prices, valid_prices])
        pr = np.array([0.4, call_threshold(valid_prices)])
        with caplog.at_level(logging.WARNING):
            solution = solve(rows, row_prices, call_probability=pr)
        assert [m for m in caplog.messages if "clamped" in m] == [
            "announced baseline 12.000000 clamped to the cap 10.000000 "
            "(consumption cap below the saturation point?)",
            "announced baseline 3.089909981826107 clamped to the cap "
            "3.0899099818261067",
        ]
        assert solution.report_baseline.tolist() == [10.0, 3.0899099818261067]

    def test_unused_inflated_baseline_near_one_warns_nothing(self):
        # p2/g = 1e307 passes the cap check; at pr = 0.999 the inflated
        # baseline p2*pr/(g*(1 - pr)) overflows, but above the threshold
        # it is never used.
        params = ConsumerParams(1.0, 1e-310, 2.0)
        prices = Prices(0.0, 1e-3)
        check_consumption_cap(params, prices)
        with np.errstate(all="raise", under="ignore"):
            solution = solve(params, prices, call_probability=0.999)
        assert solution.report_baseline == 2.0

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda h, p: best_report(1.5, h, p),
             "call probability must lie in [0, 1], got 1.5"),
            (lambda h, p: best_report(float("nan"), h, p),
             "call probability must lie in [0, 1], got nan"),
            (lambda h, p: best_response_not_called(16.5, h, p),
             "reported baseline must lie in [0, 16.0], got 16.5"),
            (lambda h, p: best_response_not_called(-0.5, h, p),
             "reported baseline must lie in [0, 16.0], got -0.5"),
            (lambda h, p: best_response_called(Report(16.5, 2.0), h, p),
             "reported baseline must lie in [0, 16.0], got 16.5"),
            # Not a Report, so not checked on construction.
            (lambda h, p: best_response_called(
                SimpleNamespace(baseline=float("nan"), committed=0.0), h, p),
             "reported baseline must lie in [0, 16.0], got nan"),
        ],
    )
    def test_one_row_messages_match_the_reference(
        self, household, prices, call, message
    ):
        with pytest.raises(ValueError) as got:
            call(household, prices)
        assert str(got.value) == message

    def test_report_error_names_the_first_invalid_row(self, prices):
        # A cap below b - p2/g leaves the commitment above the clamped report.
        bad = ConsumerParams(baseline=20.0, marginal_utility=0.1, max_consumption=5.0)
        with pytest.raises(ValueError) as want:
            reference_best_report(0.5, bad, prices)
        with pytest.raises(ValueError) as got:
            best_report(0.5, bad, prices)
        assert str(got.value) == str(want.value)
        rows = columns(ConsumerParams, [ConsumerParams(8.0, 0.05, 16.0), bad])
        with pytest.raises(ValueError) as many:
            solve(rows, prices, call_probability=np.array([0.1, 0.5]))
        assert str(many.value) == str(want.value)

    def test_row_errors_name_that_rows_value(self, household, prices):
        rows = columns(ConsumerParams, [household, ConsumerParams(8.0, 0.05, 12.0)])
        reports = columns(Report, [Report(9.0, 2.0), Report(13.0, 2.0)])
        with pytest.raises(
            ValueError, match=r"^reported baseline .* \[0, 12.0\], got 13.0$"
        ):
            solve(rows, prices, report=reports)
        with pytest.raises(ValueError, match=r"^call probability .* got -0.25$"):
            solve(rows, prices, call_probability=np.array([0.5, -0.25]))
