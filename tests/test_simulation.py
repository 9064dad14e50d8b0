import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drcontract import (
    Behavior,
    CallSignal,
    ConsumerParams,
    Portfolio,
    PortfolioMember,
    Prices,
    allocate_calls,
    collect_reports,
    run_monte_carlo,
    settle_event,
    utility,
)
from drcontract import simulation
from drcontract.scenario import parse_scenario
from mixed_scenario import MIXED_PRICES, mixed_scenario_text


def left_fold(values):
    """Add ``values`` one at a time in order, starting from 0.0.

    Unlike builtin ``sum``, which is compensated from Python 3.12 on, this
    rounds after every addition on every Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def same_bits(a, b):
    """``a`` and ``b`` are the same float64, telling 0.0 from -0.0."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def single_portfolio(call_probability=0.1, behavior=Behavior.RATIONAL):
    member = PortfolioMember(
        "household",
        ConsumerParams(8.0, 0.05, 16.0),
        call_probability,
    )
    portfolio = Portfolio((member,), Prices(0.26, 0.30))
    return portfolio, {"household": behavior}


class TestPortfolio:
    def test_duplicate_ids_rejected(self):
        member = PortfolioMember("a", ConsumerParams(8.0, 0.05, 16.0), 0.1)
        with pytest.raises(ValueError):
            Portfolio((member, member), Prices(0.26, 0.30))

    def test_cap_assumption_enforced(self):
        member = PortfolioMember("a", ConsumerParams(8.0, 0.05, 13.0), 0.1)
        with pytest.raises(ValueError):
            Portfolio((member,), Prices(0.26, 0.30))

    def test_call_probability_bounds(self):
        with pytest.raises(ValueError):
            PortfolioMember("a", ConsumerParams(8.0, 0.05, 16.0), 1.2)


class TestCollectReports:
    def test_rational_report(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.RATIONAL)
        report = collect_reports(portfolio, behaviors)["household"]
        assert report.baseline == pytest.approx(8 + 2 / 3, abs=1e-9)
        assert report.committed == pytest.approx(2.0, abs=1e-12)

    def test_truthful_report(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.TRUTHFUL)
        report = collect_reports(portfolio, behaviors)["household"]
        assert report.baseline == 8.0
        assert report.committed == pytest.approx(2.0, abs=1e-12)

    def test_naive_gamer_reports_the_cap(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.NAIVE_GAMER)
        report = collect_reports(portfolio, behaviors)["household"]
        assert report.baseline == 16.0
        assert report.committed == pytest.approx(2.0, abs=1e-12)

    def test_missing_behavior_rejected(self):
        portfolio, _ = single_portfolio()
        with pytest.raises(ValueError):
            collect_reports(portfolio, {})


class TestAllocateCalls:
    def test_zero_probability_calls_nobody(self):
        portfolio, behaviors = single_portfolio(0.0, Behavior.TRUTHFUL)
        reports = collect_reports(portfolio, behaviors)
        allocation = allocate_calls(portfolio, reports, 0.0, seed=1)
        assert allocation.signals["household"] == CallSignal.NOT_CALLED
        assert not allocation.under_provisioned
        needy = allocate_calls(portfolio, reports, 1.0, seed=1)
        assert needy.under_provisioned

    def test_certain_probability_calls_everyone(self):
        portfolio, behaviors = single_portfolio(1.0, Behavior.TRUTHFUL)
        reports = collect_reports(portfolio, behaviors)
        allocation = allocate_calls(portfolio, reports, 0.0, seed=1)
        assert allocation.signals["household"] == CallSignal.CALLED
        assert allocation.committed_reduction == pytest.approx(6.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        members = tuple(
            PortfolioMember(f"c{i}", ConsumerParams(8.0, 0.05, 16.0), 0.5)
            for i in range(50)
        )
        portfolio = Portfolio(members, Prices(0.26, 0.30))
        behaviors = {m.consumer_id: Behavior.TRUTHFUL for m in members}
        reports = collect_reports(portfolio, behaviors)
        first = allocate_calls(portfolio, reports, 0.0, seed=77)
        second = allocate_calls(portfolio, reports, 0.0, seed=77)
        assert first == second
        other = allocate_calls(portfolio, reports, 0.0, seed=78)
        assert any(
            first.signals[k] != other.signals[k] for k in first.signals
        )

    def test_negative_target_rejected(self):
        portfolio, behaviors = single_portfolio()
        reports = collect_reports(portfolio, behaviors)
        with pytest.raises(ValueError):
            allocate_calls(portfolio, reports, -1.0, seed=1)

    def test_binomial_statistics_over_seeds(self):
        members = tuple(
            PortfolioMember(f"c{i:04d}", ConsumerParams(8.0, 0.05, 16.0), 0.1)
            for i in range(1000)
        )
        portfolio = Portfolio(members, Prices(0.26, 0.30))
        behaviors = {m.consumer_id: Behavior.TRUTHFUL for m in members}
        reports = collect_reports(portfolio, behaviors)
        counts = []
        for seed in range(200):
            allocation = allocate_calls(portfolio, reports, 0.0, seed=seed)
            counts.append(
                sum(int(s) for s in allocation.signals.values())
            )
        # mean of 200 binomial(1000, 0.1) draws: 100 +- 3*sigma/sqrt(200)
        assert abs(np.mean(counts) - 100.0) <= 2.1


class TestSettleEvent:
    def test_rational_called(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.RATIONAL)
        reports = collect_reports(portfolio, behaviors)
        records, summary = settle_event(
            portfolio, reports, {"household": CallSignal.CALLED}, behaviors
        )
        rec = records[0]
        assert rec.consumption == pytest.approx(2.0, abs=1e-9)
        assert rec.payment == pytest.approx(-1.48, abs=1e-9)
        assert rec.profit == pytest.approx(2.70, abs=1e-9)
        assert summary.called_count == 1
        assert summary.total_reduction == pytest.approx(8 + 2 / 3 - 2, abs=1e-9)
        assert summary.total_payout == pytest.approx(1.48, abs=1e-9)

    def test_truthful_not_called(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.TRUTHFUL)
        reports = collect_reports(portfolio, behaviors)
        records, summary = settle_event(
            portfolio, reports, {"household": CallSignal.NOT_CALLED}, behaviors
        )
        rec = records[0]
        assert rec.consumption == 8.0
        assert rec.payment == pytest.approx(2.08, abs=1e-12)
        assert rec.profit == pytest.approx(1.6, abs=1e-12)
        assert summary.called_count == 0
        assert summary.total_payout == 0.0

    def test_naive_gamer_punished_when_not_called(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.NAIVE_GAMER)
        reports = collect_reports(portfolio, behaviors)
        records, _ = settle_event(
            portfolio, reports, {"household": CallSignal.NOT_CALLED}, behaviors
        )
        rec = records[0]
        assert rec.consumption == 8.0
        assert rec.payment == pytest.approx(4.16, abs=1e-12)
        assert rec.profit == pytest.approx(-0.48, abs=1e-12)

    def test_settlement_conservation(self):
        portfolio, behaviors = single_portfolio(0.4, Behavior.RATIONAL)
        reports = collect_reports(portfolio, behaviors)
        for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED):
            records, _ = settle_event(
                portfolio, reports, {"household": signal}, behaviors
            )
            rec = records[0]
            gained = utility(rec.consumption, portfolio.members[0].params, portfolio.prices)
            assert rec.profit == gained - rec.payment

    def test_allocation_flag_propagates(self):
        portfolio, behaviors = single_portfolio(0.0, Behavior.TRUTHFUL)
        reports = collect_reports(portfolio, behaviors)
        allocation = allocate_calls(portfolio, reports, 5.0, seed=3)
        _, summary = settle_event(portfolio, reports, allocation, behaviors)
        assert summary.under_provisioned

    def test_missing_keys_rejected(self):
        portfolio, behaviors = single_portfolio()
        reports = collect_reports(portfolio, behaviors)
        with pytest.raises(ValueError):
            settle_event(portfolio, reports, {}, behaviors)
        with pytest.raises(ValueError):
            settle_event(portfolio, {}, {"household": CallSignal.CALLED}, behaviors)


class TestMonteCarlo:
    def test_mean_profit_matches_expected_value(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.RATIONAL)
        result = run_monte_carlo(portfolio, behaviors, trials=1000, master_seed=11)
        stats = result.stats[0]
        se = np.sqrt(stats.profit_variance / stats.trials)
        assert abs(stats.mean_profit - 1.7) <= 3 * se

    def test_zero_probability_has_zero_variance(self):
        portfolio, behaviors = single_portfolio(0.0, Behavior.RATIONAL)
        result = run_monte_carlo(portfolio, behaviors, trials=200, master_seed=5)
        stats = result.stats[0]
        assert stats.mean_profit == pytest.approx(1.6, abs=1e-12)
        assert stats.profit_variance == 0.0
        assert stats.call_frequency == 0.0

    def test_certain_call_has_zero_variance(self):
        portfolio, behaviors = single_portfolio(1.0, Behavior.RATIONAL)
        result = run_monte_carlo(portfolio, behaviors, trials=200, master_seed=5)
        stats = result.stats[0]
        assert stats.mean_profit == pytest.approx(4.9, abs=1e-9)
        assert stats.profit_variance <= 1e-24  # identical draws, mean rounding
        assert stats.call_frequency == 1.0

    def test_call_frequency_converges(self):
        portfolio, behaviors = single_portfolio(0.1, Behavior.RATIONAL)
        trials = 10_000
        result = run_monte_carlo(portfolio, behaviors, trials=trials, master_seed=17)
        freq = result.stats[0].call_frequency
        assert abs(freq - 0.1) <= 4 * np.sqrt(0.1 * 0.9 / trials)

    def test_reproducible_bitwise(self):
        portfolio, behaviors = single_portfolio(0.3, Behavior.RATIONAL)
        a = run_monte_carlo(portfolio, behaviors, trials=50, master_seed=9)
        b = run_monte_carlo(portfolio, behaviors, trials=50, master_seed=9)
        assert a.records == b.records
        assert a.stats == b.stats
        assert a.summaries == b.summaries

    def test_rational_beats_naive_gamer_below_threshold(self):
        members = (
            PortfolioMember("smart", ConsumerParams(8.0, 0.05, 16.0), 0.1),
            PortfolioMember("gamer", ConsumerParams(8.0, 0.05, 16.0), 0.1),
        )
        portfolio = Portfolio(members, Prices(0.26, 0.30))
        behaviors = {"smart": Behavior.RATIONAL, "gamer": Behavior.NAIVE_GAMER}
        result = run_monte_carlo(portfolio, behaviors, trials=10_000, master_seed=23)
        by_id = {s.consumer_id: s for s in result.stats}
        assert by_id["smart"].mean_profit >= by_id["gamer"].mean_profit

    def test_trials_validated(self):
        portfolio, behaviors = single_portfolio()
        with pytest.raises(ValueError):
            run_monte_carlo(portfolio, behaviors, trials=0)

    def test_records_bounded_before_any_work(self, monkeypatch):
        portfolio, behaviors = single_portfolio()

        def no_reports(*args):
            raise AssertionError("reports were collected before the bound")

        monkeypatch.setattr(simulation, "collect_reports", no_reports)
        with pytest.raises(ValueError, match="^trials = 10000001 with 1 consumers"):
            run_monte_carlo(portfolio, behaviors, trials=10_000_001)

    def test_per_trial_records_match_single_settlement(self):
        portfolio, behaviors = single_portfolio(0.5, Behavior.RATIONAL)
        result = run_monte_carlo(portfolio, behaviors, trials=5, master_seed=101)
        reports = collect_reports(portfolio, behaviors)
        seeds = np.random.SeedSequence(101).generate_state(5, dtype=np.uint64)
        for t in range(5):
            allocation = allocate_calls(portfolio, reports, 0.0, int(seeds[t]))
            records, summary = settle_event(portfolio, reports, allocation, behaviors)
            assert result.records[t] == records
            assert result.summaries[t] == summary


@pytest.fixture(scope="module")
def mixed():
    scenario = parse_scenario(mixed_scenario_text())
    portfolio = scenario.portfolio()
    result = run_monte_carlo(
        portfolio,
        scenario.behaviors,
        trials=scenario.trials,
        reduction_target=scenario.reduction_target,
        master_seed=scenario.seed,
    )
    reports = collect_reports(portfolio, scenario.behaviors)
    seeds = np.random.SeedSequence(scenario.seed).generate_state(
        scenario.trials, dtype=np.uint64
    )
    settled = []
    for seed in seeds:
        allocation = allocate_calls(
            portfolio, reports, scenario.reduction_target, int(seed)
        )
        records, summary = settle_event(
            portfolio, reports, allocation, scenario.behaviors
        )
        settled.append((allocation, records, summary))
    return scenario, result, reports, settled


class TestColumnarMonteCarlo:
    """run_monte_carlo against drawing and settling each trial alone, on a
    120-consumer portfolio mixing every behavior and both regimes."""

    def test_portfolio_covers_the_cases(self, mixed):
        scenario, result, reports, _ = mixed
        p, p2 = MIXED_PRICES
        threshold = p / (p + p2)
        rational = [
            m for m in scenario.members
            if scenario.behaviors[m.consumer_id] is Behavior.RATIONAL
        ]
        assert len(scenario.members) >= 100
        assert any(m.call_probability > threshold for m in rational)
        assert any(0 < m.call_probability < threshold for m in rational)
        assert set(scenario.behaviors.values()) == set(Behavior)
        assert any(r.committed == 0.0 for r in reports.values())
        flags = {s.under_provisioned for s in result.summaries}
        assert flags == {True, False}

    def test_every_trial_matches_single_settlement(self, mixed):
        scenario, result, _, settled = mixed
        assert len(result.records) == scenario.trials
        for t, (_, records, summary) in enumerate(settled):
            assert result.records[t] == records
            assert list(result.records[t]) == records
            assert result.summaries[t] == summary

    def test_committed_reduction_adds_called_reports_in_order(self, mixed):
        scenario, _, reports, settled = mixed
        for allocation, _, summary in settled:
            committed = 0.0
            for member in scenario.members:
                if allocation.signals[member.consumer_id] == CallSignal.CALLED:
                    report = reports[member.consumer_id]
                    committed += report.baseline - report.committed
            assert allocation.committed_reduction == committed
            assert summary.under_provisioned == (
                committed < scenario.reduction_target
            )

    def test_summary_totals_add_called_records_in_order(self, mixed):
        _, result, _, settled = mixed
        for summary, (_, records, _) in zip(result.summaries, settled):
            called = [r for r in records if r.signal == CallSignal.CALLED]
            assert summary.called_count == len(called)
            assert summary.total_reduction == left_fold(
                max(r.report.baseline - r.consumption, 0.0) for r in called
            )
            assert summary.total_payout == left_fold(-r.payment for r in called)

    def test_stats_match_settled_records(self, mixed):
        scenario, result, _, settled = mixed
        n = len(scenario.members)
        events = [records for _, records, _ in settled]
        profits = np.array([[r.profit for r in records] for records in events]).T
        payments = np.array([[r.payment for r in records] for records in events]).T
        reductions = np.array(
            [
                [
                    max(r.report.baseline - r.consumption, 0.0)
                    if r.signal == CallSignal.CALLED else 0.0
                    for r in records
                ]
                for records in events
            ]
        ).T
        called = np.array(
            [[r.signal == CallSignal.CALLED for r in records] for records in events]
        ).T
        assert len(result.stats) == n
        for k, stats in enumerate(result.stats):
            assert stats.consumer_id == scenario.members[k].consumer_id
            assert stats.behavior is scenario.behaviors[stats.consumer_id]
            assert stats.call_frequency == float(called[k].mean())
            assert stats.mean_profit == float(profits[k].mean())
            assert stats.profit_variance == float(profits[k].var(ddof=1))
            assert stats.mean_payment == float(payments[k].mean())
            assert stats.mean_reduction == float(reductions[k].mean())

    def test_kernel_runs_once_per_portfolio(self, mixed, monkeypatch):
        scenario, _, reports, _ = mixed
        calls = []
        kernel = simulation.solve

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(simulation, "solve", counted)
        portfolio = scenario.portfolio()
        assert len(portfolio.members) == 120
        run_monte_carlo(portfolio, scenario.behaviors, trials=3)
        assert len(calls) == 2  # collect_reports, then _settle
        calls.clear()
        signals = {m.consumer_id: CallSignal.CALLED for m in portfolio.members}
        settle_event(portfolio, reports, signals, scenario.behaviors)
        assert len(calls) == 1

    def test_records_are_lazy_views(self, mixed):
        scenario, result, _, settled = mixed
        n = len(scenario.members)
        event = result.records[3]
        assert len(event) == n
        assert event[-1] == settled[3][1][-1]
        assert event[2:5] == settled[3][1][2:5]
        with pytest.raises(IndexError):
            event[n]
        assert event != result.records[4]
        assert result.outcomes.consumption.shape == (n, 2)
        assert result.called.shape == (n, scenario.trials)

    def test_statistics_hold_one_trial_array_at_a_time(self):
        # Each (n, trials) float array is freed before the next is built, so
        # the traced peak stays near one of them (three alive at once, or
        # numpy's var temporary beside its input, would pass 2).
        consumers, trials = 500, 2000
        scenario = parse_scenario(mixed_scenario_text(consumers, trials))
        portfolio = scenario.portfolio()
        tracemalloc.start()
        try:
            run_monte_carlo(portfolio, scenario.behaviors, trials, master_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * consumers * trials * 8

    def test_negative_or_nan_target_rejected(self, mixed):
        scenario, *_ = mixed
        for target in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="reduction target"):
                run_monte_carlo(
                    scenario.portfolio(), scenario.behaviors, trials=2,
                    reduction_target=target,
                )


# Under these prices a truthful consumer with baseline 12 and marginal utility
# 0.125 consumes its commitment 8 when called and pays exactly
# 0.25 * 8 - 0.5 * (12 - 8) = 0.0, so its payout is -0.0.
ZERO_PAY_PRICES = Prices(0.25, 0.5)


def zero_pay_member(consumer_id, call_probability, cap=20.0):
    return PortfolioMember(
        consumer_id, ConsumerParams(12.0, 0.125, cap), call_probability
    )


@st.composite
def small_portfolios(draw):
    """A portfolio of 1 to 13 consumers of any behavior, some of which pay
    exactly 0.0 when called, and its behaviors."""
    prices = draw(st.sampled_from([ZERO_PAY_PRICES, Prices(0.26, 0.30)]))
    members, behaviors = [], {}
    for k in range(draw(st.sampled_from([1, 2, 9, 13]))):
        probability = draw(
            st.sampled_from([0.0, 0.02, 0.5, 1.0])
            | st.floats(0.0, 1.0, allow_subnormal=False)
        )
        cap_margin = draw(st.floats(0.5, 10.0))
        if prices == ZERO_PAY_PRICES and draw(st.booleans()):
            members.append(zero_pay_member(f"z{k}", probability, 14.0 + cap_margin))
            behaviors[f"z{k}"] = Behavior.TRUTHFUL
            continue
        baseline = draw(st.floats(1.0, 20.0))
        gamma = draw(st.floats(0.01, 0.2))
        cap = baseline + prices.energy_price / gamma + cap_margin
        members.append(
            PortfolioMember(f"c{k}", ConsumerParams(baseline, gamma, cap), probability)
        )
        behaviors[f"c{k}"] = draw(st.sampled_from(list(Behavior)))
    return Portfolio(tuple(members), prices), behaviors


class TestTotalsAndStatsMatchLoops:
    """run_monte_carlo's column reductions and sums against per-row numpy
    statistics and explicit member-order loops, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        small_portfolios(),
        st.sampled_from([1, 2, 3, 7, 300]),
        st.integers(0, 2**32),
        st.sampled_from([0.0, 5.0, 40.0]),
    )
    # One member that pays 0.0 whenever it is called: every payout is -0.0.
    @example(
        (Portfolio((zero_pay_member("z", 1.0),), ZERO_PAY_PRICES),
         {"z": Behavior.TRUTHFUL}),
        3, 0, 0.0,
    )
    # Nobody is ever called.
    @example(
        (Portfolio((zero_pay_member("z", 0.0),), ZERO_PAY_PRICES),
         {"z": Behavior.TRUTHFUL}),
        2, 1, 1.0,
    )
    def test_run_matches_loops(self, case, trials, seed, target):
        portfolio, behaviors = case
        members = portfolio.members
        result = run_monte_carlo(
            portfolio, behaviors, trials, reduction_target=target, master_seed=seed
        )
        events = [list(records) for records in result.records]

        for k, stats in enumerate(result.stats):
            row = [records[k] for records in events]
            called = np.array([r.signal == CallSignal.CALLED for r in row])
            profits = np.array([r.profit for r in row])
            payments = np.array([r.payment for r in row])
            reductions = np.array(
                [
                    max(r.report.baseline - r.consumption, 0.0)
                    if r.signal == CallSignal.CALLED else 0.0
                    for r in row
                ]
            )
            variance = profits.var(ddof=1) if trials > 1 else 0.0
            assert stats.consumer_id == members[k].consumer_id
            assert same_bits(stats.call_frequency, called.mean())
            assert same_bits(stats.mean_profit, profits.mean())
            assert same_bits(stats.profit_variance, variance)
            assert same_bits(stats.mean_payment, payments.mean())
            assert same_bits(stats.mean_reduction, reductions.mean())

        reports = collect_reports(portfolio, behaviors)
        seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
        for records, summary, trial_seed in zip(events, result.summaries, seeds):
            called = [r for r in records if r.signal == CallSignal.CALLED]
            assert summary.called_count == len(called)
            assert same_bits(
                summary.total_reduction,
                left_fold(max(r.report.baseline - r.consumption, 0.0) for r in called),
            )
            assert same_bits(summary.total_payout, left_fold(-r.payment for r in called))

            allocation = allocate_calls(portfolio, reports, target, int(trial_seed))
            assert [allocation.signals[m.consumer_id] for m in members] == [
                r.signal for r in records
            ]
            committed = left_fold(
                reports[r.consumer_id].baseline - reports[r.consumer_id].committed
                for r in called
            )
            assert same_bits(allocation.committed_reduction, committed)
            assert summary.under_provisioned == (committed < target)
            _, alone = settle_event(portfolio, reports, allocation, behaviors)
            assert all(
                same_bits(a, b)
                for a, b in zip(
                    (alone.total_reduction, alone.total_payout),
                    (summary.total_reduction, summary.total_payout),
                )
            )
