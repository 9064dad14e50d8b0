import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drcontract import (
    Behavior,
    CallSignal,
    ConsumerParams,
    MonteCarloResult,
    Portfolio,
    PortfolioMember,
    Prices,
    Report,
    allocate_calls,
    collect_reports,
    run_monte_carlo,
    settle_event,
    utility,
)
from drcontract import oracle, simulation, strategy
from drcontract.core import FrozenRecord, columns
from drcontract.scenario import load_scenario, parse_scenario
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

    def test_payoff_terms_checked(self):
        big = PortfolioMember("big", ConsumerParams(1e200, 1.0, 2e200), 0.1)
        with pytest.raises(ValueError, match=r"^payoff term saturation_point\^2 = "):
            Portfolio((big,), Prices(0.26, 0.30))

    def test_call_probability_bounds(self):
        with pytest.raises(ValueError):
            PortfolioMember("a", ConsumerParams(8.0, 0.05, 16.0), 1.2)

    def test_columns_follow_the_members_and_are_read_only(self):
        portfolio, _ = single_portfolio(0.25)
        assert portfolio.consumer_ids == ("household",)
        assert portfolio.params.max_consumption.tolist() == [16.0]
        assert portfolio.call_probabilities.tolist() == [0.25]
        for column in (portfolio.params.baseline, portfolio.call_probabilities):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_tuple_gives_the_columns_of_the_scenario(self):
        scenario = parse_scenario(mixed_scenario_text())
        loaded = scenario.portfolio()
        built = Portfolio(tuple(scenario.members), scenario.prices)
        assert built.consumer_ids == loaded.consumer_ids
        for name in ("baseline", "marginal_utility", "max_consumption"):
            want = getattr(loaded.params, name)
            got = getattr(built.params, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert built.call_probabilities.tobytes() == loaded.call_probabilities.tobytes()
        assert built == loaded
        assert built == scenario.members
        assert hash(built) == hash(loaded)
        copied = pickle.loads(pickle.dumps(loaded))
        assert copied == loaded
        assert not copied.params.baseline.flags.writeable

    def test_members_view_of_a_tuple(self):
        members = tuple(
            PortfolioMember(cid, ConsumerParams(8.0, 0.05, cap), 0.1)
            for cid, cap in (("a", 16.0), ("b", 17.0))
        )
        view = Portfolio(members, Prices(0.26, 0.30))
        assert len(view) == 2
        assert view[1] == members[1] and view[-2] == members[0]
        assert view[::-1] == members[::-1]
        assert list(view) == list(members)
        with pytest.raises(IndexError):
            view[2]
        with pytest.raises(ValueError):
            view.params.max_consumption[0] = 20.0

    def test_members_view_checks_its_call_probabilities(self):
        params = ConsumerParams(np.array([8.0, 8.0]), np.array([0.05] * 2),
                                np.array([16.0] * 2))
        with pytest.raises(ValueError) as exc:
            Portfolio.of_columns(
                ("a", "b"), params, np.array([0.5, 1.5]), Prices(0.26, 0.30)
            )
        assert str(exc.value) == "call probability must lie in [0, 1], got 1.5"

    def test_overflowing_saturation_point_reads_inf_without_a_warning(self):
        # 0.26 / 1e-320 overflows; the warnings filter turns numpy's warning
        # into an error, so only the cap rule's own message may come out.
        member = PortfolioMember("a", ConsumerParams(8.0, 1e-320, 16.0), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"= inf$"):
                Portfolio((member,), Prices(0.26, 0.30))

    def test_of_columns_checks_ids_and_caps_and_locks_its_columns(self):
        # Its call probabilities: test_members_view_checks_its_call_probabilities.
        def of_columns(ids=("a", "b"), cap=16.0):
            params = ConsumerParams(
                np.array([8.0, 8.0]), np.array([0.05] * 2), np.array([16.0, cap])
            )
            return Portfolio.of_columns(
                ids, params, np.array([0.5, 0.5]), Prices(0.26, 0.30)
            )

        with pytest.raises(ValueError, match="^consumer ids must be unique$"):
            of_columns(ids=("a", "a"))
        with pytest.raises(ValueError, match="^max_consumption=13.0 must exceed"):
            of_columns(cap=13.0)
        portfolio = of_columns()
        for column in (*vars(portfolio.params).values(), portfolio.call_probabilities):
            assert not column.flags.writeable

    def test_not_equal_to_its_members(self):
        portfolio, _ = single_portfolio()
        members = tuple(portfolio)
        assert portfolio != members and members != portfolio
        assert portfolio != Portfolio(members, Prices(0.25, 0.30))

    def test_first_member_under_the_cap_names_itself(self):
        members = tuple(
            PortfolioMember(cid, ConsumerParams(8.0, 0.05, cap), 0.1)
            for cid, cap in (("ok", 16.0), ("a", 13.0), ("b", 12.0))
        )
        with pytest.raises(ValueError) as exc:
            Portfolio(members, Prices(0.26, 0.30))
        assert str(exc.value) == (
            "max_consumption=13.0 must exceed the saturation point "
            "baseline + p/gamma = 13.2"
        )


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
            gained = utility(rec.consumption, portfolio[0].params, portfolio.prices)
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


class TestLookupMessages:
    """Every public function names the first member, in portfolio order,
    that a mapping leaves out or gives a bad value."""

    @staticmethod
    def two_members():
        members = tuple(
            PortfolioMember(cid, ConsumerParams(8.0, 0.05, 16.0), 0.5)
            for cid in ("a", "b")
        )
        portfolio = Portfolio(members, Prices(0.26, 0.30))
        behaviors = {"a": Behavior.RATIONAL, "b": Behavior.TRUTHFUL}
        reports = collect_reports(portfolio, behaviors)
        signals = {"a": CallSignal.CALLED, "b": CallSignal.NOT_CALLED}
        return portfolio, behaviors, reports, signals

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p, bh, rp, sg: collect_reports(p, {"a": bh["a"]}),
             "no behavior defined for consumer 'b'"),
            (lambda p, bh, rp, sg: allocate_calls(p, {"a": rp["a"]}, 0.0, 1),
             "no report for consumer 'b'"),
            (lambda p, bh, rp, sg: settle_event(p, rp, {"a": sg["a"]}, bh),
             "no call signal for consumer 'b'"),
            (lambda p, bh, rp, sg: settle_event(p, {"a": rp["a"]}, sg, bh),
             "no report for consumer 'b'"),
            (lambda p, bh, rp, sg: settle_event(p, rp, sg, {"a": bh["a"]}),
             "no behavior defined for consumer 'b'"),
            (lambda p, bh, rp, sg: run_monte_carlo(p, {"a": bh["a"]}, trials=2),
             "no behavior defined for consumer 'b'"),
            (lambda p, bh, rp, sg: settle_event(p, rp, {**sg, "b": 5}, bh),
             "consumer 'b': 5 is not a valid CallSignal"),
            (lambda p, bh, rp, sg: allocate_calls(
                p, {**rp, "b": Report(17.0, 2.0)}, 0.0, 1),
             "consumer 'b': reported baseline must lie in [0, 16.0], got 17.0"),
            (lambda p, bh, rp, sg: settle_event(
                p, {**rp, "b": Report(17.0, 2.0)}, sg, bh),
             "consumer 'b': reported baseline must lie in [0, 16.0], got 17.0"),
            (lambda p, bh, rp, sg: allocate_calls(p, {**rp, "b": (8.0, 2.0)}, 0.0, 1),
             "consumer 'b': (8.0, 2.0) is not a Report"),
        ],
        ids=[
            "collect_reports-behavior",
            "allocate_calls-report",
            "settle_event-signal",
            "settle_event-report",
            "settle_event-behavior",
            "run_monte_carlo-behavior",
            "settle_event-bad-signal",
            "allocate_calls-report-over-cap",
            "settle_event-report-over-cap",
            "allocate_calls-not-a-report",
        ],
    )
    def test_missing_entry_is_named(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(*self.two_members())
        assert str(exc.value) == message


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
        monkeypatch.setattr(simulation, "_reports", no_reports)
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
        assert len(portfolio) == 120
        run_monte_carlo(portfolio, scenario.behaviors, trials=3)
        assert len(calls) == 2  # collect_reports, then _settle
        calls.clear()
        signals = {m.consumer_id: CallSignal.CALLED for m in portfolio}
        settle_event(portfolio, reports, signals, scenario.behaviors)
        assert len(calls) == 1

    def test_inputs_become_columns_once_per_run(self, mixed, monkeypatch):
        scenario, *_ = mixed
        calls = []
        build = simulation.columns

        def counted(cls, values):
            calls.append(cls)
            return build(cls, values)

        monkeypatch.setattr(simulation, "columns", counted)
        # A scenario's portfolio runs on the columns the loader read.
        run_monte_carlo(scenario.portfolio(), scenario.behaviors, trials=3)
        assert calls == []
        # A portfolio of member objects builds its columns once, and keeps
        # them for every run.
        portfolio = Portfolio(tuple(scenario.members), scenario.prices)
        assert calls == [ConsumerParams]
        run_monte_carlo(portfolio, scenario.behaviors, trials=3)
        run_monte_carlo(portfolio, scenario.behaviors, trials=3)
        assert calls == [ConsumerParams]

    def test_collect_reports_equals_the_run_report_columns(self, mixed):
        scenario, result, reports, _ = mixed
        ids = [m.consumer_id for m in scenario.members]
        assert list(reports) == ids
        assert result.outcomes.consumer_ids == tuple(ids)
        for name in ("baseline", "committed"):
            column = getattr(result.outcomes.report, name)
            want = np.array([getattr(reports[cid], name) for cid in ids])
            assert column.dtype == want.dtype
            assert column.tobytes() == want.tobytes()

    def test_run_resolves_behaviors_once_into_one_report(self, mixed, monkeypatch):
        scenario, *_ = mixed
        resolved, built = [], []
        resolve, report = simulation._behaviors, simulation.Report

        def counted_resolve(*args):
            resolved.append(args)
            return resolve(*args)

        def counted_report(*args):
            built.append(args)
            return report(*args)

        def refuse(*args):
            raise AssertionError("the run built the id-keyed reports")

        monkeypatch.setattr(simulation, "_behaviors", counted_resolve)
        monkeypatch.setattr(simulation, "Report", counted_report)
        monkeypatch.setattr(simulation, "collect_reports", refuse)
        run_monte_carlo(scenario.portfolio(), scenario.behaviors, trials=3)
        assert len(resolved) == 1
        assert len(built) == 1
        assert built[0][0].shape == (len(scenario.members),)

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

    def test_records_and_summaries_are_views(self, mixed):
        scenario, result, _, settled = mixed
        records = [r for _, r, _ in settled]
        summaries = [s for _, _, s in settled]
        assert len(result.records) == len(result.summaries) == scenario.trials
        assert result.records[-1] == records[-1]
        assert result.summaries[-1] == summaries[-1]
        assert result.records[2:5] == records[2:5]
        assert result.summaries[2:5] == summaries[2:5]
        assert isinstance(result.summaries[2:5], list)
        assert result.records == records and records == result.records
        assert result.summaries == summaries and summaries == result.summaries
        assert result.summaries != summaries[:-1]
        with pytest.raises(IndexError):
            result.summaries[scenario.trials]
        copied = pickle.loads(pickle.dumps(result))
        assert copied == result
        assert copied.records == records and copied.summaries == summaries

    @pytest.mark.parametrize(
        "duplicate",
        [
            lambda result: result,
            lambda result: pickle.loads(pickle.dumps(result)),
            copy.copy,
            copy.deepcopy,
        ],
    )
    def test_result_arrays_are_read_only(self, mixed, duplicate):
        _, run, _, settled = mixed
        result = duplicate(run)
        assert hash(result) == hash(run)
        with pytest.raises(TypeError):
            result.stats[0] = result.stats[0]
        outcomes = result.outcomes
        with pytest.raises(ValueError):
            result.called[0, 0] = not result.called[0, 0]
        for array in (
            outcomes.consumption, outcomes.payment, outcomes.profit,
            outcomes.report.baseline, outcomes.report.committed,
        ):
            with pytest.raises(ValueError):
                array[0] = -1.0
        for t, (_, records, summary) in enumerate(settled):
            called = sum(int(r.signal) for r in result.records[t])
            assert called == result.summaries[t].called_count == summary.called_count
            assert result.records[t] == records

    def test_outcome_table_holds_its_arrays_read_only(self):
        arrays = [np.zeros((2, 2)) for _ in range(3)]
        report = Report(np.array([2.0, 3.0]), np.array([1.0, 1.0]))
        table = simulation.OutcomeTable(("a", "b"), report, *arrays)
        assert isinstance(table, FrozenRecord)
        assert not isinstance(table, tuple)
        for array in (table.consumption, table.payment, table.profit):
            assert array.flags.writeable is False
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(AttributeError):
            table.profit = np.ones((2, 2))

    def test_result_holds_under_100_bytes_per_trial(self):
        # One call flag per consumer and trial, and each trial's count, two
        # totals and flag: no object per trial.
        scenario = load_scenario(None)
        portfolio = scenario.portfolio()
        trials = 5000
        run_monte_carlo(portfolio, scenario.behaviors, 2)  # numpy.random's import
        tracemalloc.start()
        try:
            result = run_monte_carlo(
                portfolio, scenario.behaviors, trials, master_seed=3
            )
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(portfolio) == 1
        assert len(result.records) == trials
        assert held < 100 * trials

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

    @pytest.mark.parametrize("consumers, trials", [(2000, 250), (500, 2000)])
    def test_working_set_is_the_call_flags_and_one_block(self, consumers, trials):
        # The run holds one bool flag per consumer and trial; every float
        # pass over consumers and trials goes one block of members at a time.
        scenario = parse_scenario(mixed_scenario_text(consumers, trials))
        portfolio = scenario.portfolio()
        run_monte_carlo(portfolio, scenario.behaviors, 2)  # numpy.random's import
        tracemalloc.start()
        try:
            run_monte_carlo(portfolio, scenario.behaviors, trials, master_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < consumers * trials + 2 * 2**20

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
        members = portfolio
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


def blocked_portfolio(trials):
    """A portfolio of every behavior under ``ZERO_PAY_PRICES`` that fills
    three member blocks at ``trials`` and part of a fourth; every fifth
    member is truthful and pays exactly 0.0 when called."""
    rows = simulation._block_rows(trials)
    rng = np.random.default_rng(23)
    members, behaviors = [], {}
    for k in range(3 * rows + rows // 3):
        probability = float(rng.uniform(0.0, 1.0))
        if k % 5 == 0:
            members.append(zero_pay_member(f"z{k}", probability))
            behaviors[f"z{k}"] = Behavior.TRUTHFUL
            continue
        baseline, gamma = rng.uniform(1.0, 20.0), rng.uniform(0.01, 0.2)
        cap = baseline + ZERO_PAY_PRICES.energy_price / gamma + rng.uniform(0.5, 10.0)
        members.append(PortfolioMember(
            f"c{k}", ConsumerParams(float(baseline), float(gamma), float(cap)),
            probability,
        ))
        behaviors[f"c{k}"] = list(Behavior)[k % 3]
    return Portfolio(tuple(members), ZERO_PAY_PRICES), behaviors


class TestMemberBlocks:
    """A run whose members span several blocks: every total adds the called
    members one at a time in portfolio order from 0.0, each member's
    statistics are those of its row alone, and a trial settled alone gives
    the run's records and summary."""

    TRIALS, SEED = 400, 77

    @pytest.fixture(scope="class")
    def run(self):
        portfolio, behaviors = blocked_portfolio(self.TRIALS)
        reports = collect_reports(portfolio, behaviors)
        seeds = np.random.SeedSequence(self.SEED).generate_state(
            self.TRIALS, dtype=np.uint64
        )
        report = columns(Report, list(reports.values()))
        called, committed = simulation._draw_calls(portfolio, report, seeds)
        target = float(np.median(committed))
        result = run_monte_carlo(
            portfolio, behaviors, self.TRIALS, reduction_target=target,
            master_seed=self.SEED,
        )
        return portfolio, behaviors, reports, seeds, target, committed, result

    def test_portfolio_spans_blocks_and_pays_zero(self, run):
        portfolio, behaviors, reports, _, _, _, result = run
        rows = simulation._block_rows(self.TRIALS)
        assert len(portfolio) > 3 * rows and len(portfolio) % rows
        assert set(behaviors.values()) == set(Behavior)
        everyone = {cid: CallSignal.CALLED for cid in portfolio.consumer_ids}
        records, _ = settle_event(portfolio, reports, everyone, behaviors)
        assert sum(same_bits(-r.payment, -0.0) for r in records) >= 10
        assert {s.under_provisioned for s in result.summaries} == {True, False}

    def test_committed_and_summary_totals_add_in_portfolio_order(self, run):
        portfolio, behaviors, reports, _, target, committed, result = run
        everyone = {cid: CallSignal.CALLED for cid in portfolio.consumer_ids}
        when_called, _ = settle_event(portfolio, reports, everyone, behaviors)
        commitments = [r.baseline - r.committed for r in reports.values()]
        reductions = [
            max(r.report.baseline - r.consumption, 0.0) for r in when_called
        ]
        payouts = [-r.payment for r in when_called]
        for t, summary in enumerate(result.summaries):
            flags = result.called[:, t].tolist()

            def fold(values):
                return float.hex(left_fold(v for v, c in zip(values, flags) if c))

            assert float.hex(float(committed[t])) == fold(commitments)
            assert summary.under_provisioned == (committed[t] < target)
            assert float.hex(summary.total_reduction) == fold(reductions)
            assert float.hex(summary.total_payout) == fold(payouts)
            assert summary.called_count == sum(flags)

    def test_stats_are_those_of_each_row_alone(self, run):
        *_, result = run
        table = result.outcomes
        reduction = np.maximum(table.report.baseline - table.consumption[:, 1], 0.0)
        for k, stats in enumerate(result.stats):
            flags = result.called[k].copy()
            profits = np.where(flags, table.profit[k, 1], table.profit[k, 0])
            payments = np.where(flags, table.payment[k, 1], table.payment[k, 0])
            assert same_bits(stats.call_frequency, flags.mean())
            assert same_bits(stats.mean_profit, profits.mean())
            assert same_bits(stats.profit_variance, profits.var(ddof=1))
            assert same_bits(stats.mean_payment, payments.mean())
            assert same_bits(
                stats.mean_reduction, np.where(flags, reduction[k], 0.0).mean()
            )

    @pytest.mark.parametrize("t", [0, 271])
    def test_trial_settled_alone_equals_the_run(self, run, t):
        portfolio, behaviors, reports, seeds, target, committed, result = run
        allocation = allocate_calls(portfolio, reports, target, int(seeds[t]))
        assert same_bits(allocation.committed_reduction, committed[t])
        records, summary = settle_event(portfolio, reports, allocation, behaviors)
        assert result.records[t] == records
        assert result.summaries[t] == summary
        assert float.hex(summary.total_reduction) == float.hex(
            result.summaries[t].total_reduction
        )
        assert float.hex(summary.total_payout) == float.hex(
            result.summaries[t].total_payout
        )


def huge_portfolio(n, cap, call_probability, incentive):
    """``n`` members whose caps, and so their reports and payouts, are huge."""
    members = [
        PortfolioMember(f"c{k}", ConsumerParams(1.0, 1.0, cap), call_probability)
        for k in range(n)
    ]
    behaviors = {m.consumer_id: Behavior.RATIONAL for m in members}
    return Portfolio(members, Prices(0.0, incentive)), behaviors


class TestNonFiniteRefused:
    """Statistics and event totals that overflow are refused, naming the
    consumer or trial and the CSV column; the committed reduction, only
    compared with the target, is kept."""

    def test_result_holds_no_copy_of_its_arguments(self):
        assert list(MonteCarloResult._fields) == [
            "stats", "summaries", "records", "outcomes", "called",
        ]

    def test_overflowing_variance_refused(self):
        portfolio, behaviors = huge_portfolio(1, 1e150, 0.5, 1e10)
        with pytest.raises(ValueError) as exc:
            run_monte_carlo(portfolio, behaviors, trials=4, master_seed=42)
        assert str(exc.value) == (
            "consumer 'c0': profit_variance is not finite (inf); the "
            "scenario's magnitudes overflow 64-bit floats"
        )

    def test_opposite_overflows_refused(self):
        # A naive gamer loses about 1.1e307 when not called and earns as much
        # when called, so a mean's pairwise halves overflow to -inf and inf.
        member = PortfolioMember("c0", ConsumerParams(1.0, 1.0, 1.1e297), 0.5)
        portfolio = Portfolio((member,), Prices(1e10, 1e10))
        with pytest.raises(ValueError) as exc:
            run_monte_carlo(
                portfolio, {"c0": Behavior.NAIVE_GAMER}, trials=1000, master_seed=5
            )
        assert str(exc.value) == (
            "consumer 'c0': mean_profit is not finite (nan); the scenario's "
            "magnitudes overflow 64-bit floats"
        )

    def test_overflowing_totals_refused_by_run_and_settlement(self):
        portfolio, behaviors = huge_portfolio(20, 1.1e297, 1.0, 1e10)
        refusal = (
            ": total_payout_usd is not finite (inf); the scenario's "
            "magnitudes overflow 64-bit floats"
        )
        with pytest.raises(ValueError) as exc:
            run_monte_carlo(portfolio, behaviors, trials=2)
        assert str(exc.value) == "trial 0" + refusal
        # A settled event is no trial of a run, so it is named as an event.
        reports = collect_reports(portfolio, behaviors)
        calls = {cid: CallSignal.CALLED for cid in portfolio.consumer_ids}
        with pytest.raises(ValueError) as exc:
            settle_event(portfolio, reports, calls, behaviors)
        assert str(exc.value) == "event" + refusal

    def test_overflowing_committed_reduction_kept(self):
        portfolio, behaviors = huge_portfolio(2, 1.7e308, 1.0, 1e-10)
        reports = collect_reports(portfolio, behaviors)
        allocation = allocate_calls(portfolio, reports, 5.0, seed=1)
        assert allocation.committed_reduction == np.inf
        assert not allocation.under_provisioned


class TestRunInputs:
    """Seeds, trial counts and behavior names are refused before any work,
    each by one check with one message."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        monkeypatch.setattr(simulation, "collect_reports", refuse)
        monkeypatch.setattr(simulation, "_reports", refuse)
        monkeypatch.setattr(simulation, "_draw_calls", refuse)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p, bh: run_monte_carlo(p, bh, trials=2, master_seed=-1),
             "master_seed must be >= 0, got -1"),
            (lambda p, bh: run_monte_carlo(p, bh, trials=0),
             "trials must be >= 1, got 0"),
            (lambda p, bh: run_monte_carlo(p, bh, trials=-5, master_seed=-1),
             "trials must be >= 1, got -5"),
            (lambda p, bh: run_monte_carlo(p, bh, trials=2, reduction_target=-1.0),
             "reduction target must be >= 0, got -1.0"),
            (lambda p, bh: run_monte_carlo(
                p, bh, trials=2, reduction_target=float("nan")),
             "reduction target must be >= 0, got nan"),
            (lambda p, bh: allocate_calls(p, {"household": Report(9.0, 2.0)}, -1.0, 3),
             "reduction target must be >= 0, got -1.0"),
            (lambda p, bh: allocate_calls(p, {"household": Report(9.0, 2.0)}, 0.0, 1.5),
             "seed must be an integer, got 1.5"),
            (lambda p, bh: run_monte_carlo(p, bh, 3, master_seed=1.5),
             "master_seed must be an integer, got 1.5"),
            (lambda p, bh: run_monte_carlo(p, bh, 2.5),
             "trials must be an integer, got 2.5"),
            (lambda p, bh: run_monte_carlo(p, bh, True),
             "trials must be an integer, got True"),
        ],
    )
    def test_monte_carlo_inputs_refused_before_any_work(self, no_work, call, message):
        with pytest.raises(ValueError) as exc:
            call(*single_portfolio())
        assert str(exc.value) == message

    def test_negative_allocation_seed_refused_before_any_draw(self, no_work):
        portfolio, _ = single_portfolio()
        reports = {"household": Report(9.0, 2.0)}
        with pytest.raises(ValueError) as exc:
            allocate_calls(portfolio, reports, 0.0, seed=-3)
        assert str(exc.value) == "seed must be >= 0, got -3"

    @pytest.mark.parametrize(
        "check, message",
        [
            (lambda: simulation.check_seed(-5, "key 'seed' in [simulation]"),
             "key 'seed' in [simulation] must be >= 0, got -5"),
            (lambda: simulation.check_record_count(3, 0, "--trials"),
             "--trials must be >= 1, got 0"),
            (lambda: simulation.check_reduction_target(-2.5, "--target"),
             "--target must be >= 0, got -2.5"),
        ],
    )
    def test_checks_name_their_input(self, check, message):
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == message

    def test_seed_zero_and_one_trial_accepted(self):
        simulation.check_seed(0)
        simulation.check_record_count(1, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, bh, rp, sg: collect_reports(p, bh),
            lambda p, bh, rp, sg: settle_event(p, rp, sg, bh),
            lambda p, bh, rp, sg: run_monte_carlo(p, bh, trials=2),
        ],
        ids=["collect_reports", "settle_event", "run_monte_carlo"],
    )
    def test_unknown_behavior_names_the_consumer(self, call):
        portfolio, behaviors, reports, signals = TestLookupMessages.two_members()
        behaviors = {"a": Behavior.RATIONAL, "b": "bogus"}
        with pytest.raises(ValueError) as exc:
            call(portfolio, behaviors, reports, signals)
        assert str(exc.value) == (
            "consumer 'b': unknown behavior 'bogus'; expected one of "
            "['rational', 'truthful', 'naive_gamer']"
        )

    def test_behavior_names_are_accepted_as_strings(self):
        portfolio, _ = single_portfolio()
        by_name = run_monte_carlo(portfolio, {"household": "truthful"}, trials=3)
        by_enum = run_monte_carlo(
            portfolio, {"household": Behavior.TRUTHFUL}, trials=3
        )
        assert by_name == by_enum


@pytest.mark.parametrize(
    "cls, names",
    [
        (strategy.Stage2Solution, ("consumption", "label", "payoff")),
        (strategy.Stage1Solution, ("report", "expected_profit", "regime")),
        (oracle.CasePayoff, ("case_id", "payoff", "feasible")),
        (simulation.CallAllocation,
         ("signals", "committed_reduction", "under_provisioned")),
        (simulation.EventRecord,
         ("consumer_id", "signal", "report", "consumption", "payment", "profit")),
        (simulation.EventSummary,
         ("called_count", "total_reduction", "total_payout", "under_provisioned")),
        (simulation.ConsumerStats,
         ("consumer_id", "behavior", "trials", "call_frequency", "mean_profit",
          "profit_variance", "mean_payment", "mean_reduction")),
    ],
)
def test_result_records_are_named_tuples(cls, names):
    assert issubclass(cls, tuple)
    assert cls._fields == names
    record = cls(*range(len(names)))
    assert record == cls(*range(len(names)))
    assert hash(record) == hash(cls(*range(len(names))))
    assert repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={k}" for k, n in enumerate(names)) + ")"
    )
    with pytest.raises(AttributeError):
        setattr(record, names[0], -1)
