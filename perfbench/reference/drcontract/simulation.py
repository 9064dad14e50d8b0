"""Contract timeline simulation over a portfolio of consumers.

One event runs the full timeline: consumers report, the aggregator draws
call signals honoring each consumer's contractual probability, consumers
choose consumption per their behavior model, and payments settle. Monte
Carlo repetition derives one integer seed per trial from the master seed via
``numpy.random.SeedSequence(master_seed).generate_state(trials)``, so trial
t is reproducible in isolation and results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_consumption_cap,
    ideal_consumption,
    payment_called,
    payment_not_called,
    utility,
)
from .strategy import best_report, best_response_called, best_response_not_called

__all__ = [
    "Behavior",
    "CallAllocation",
    "ConsumerStats",
    "EventRecord",
    "EventSummary",
    "MonteCarloResult",
    "Portfolio",
    "PortfolioMember",
    "allocate_calls",
    "collect_reports",
    "run_monte_carlo",
    "settle_event",
]


class Behavior(str, Enum):
    """How a consumer decides its report and consumption."""

    RATIONAL = "rational"  # optimal report and best responses
    TRUTHFUL = "truthful"  # true baseline, ideal consumption
    NAIVE_GAMER = "naive_gamer"  # reports the cap, consumes the baseline


@dataclass(frozen=True)
class PortfolioMember:
    consumer_id: str
    params: ConsumerParams
    call_probability: float

    def __post_init__(self) -> None:
        if not 0 <= self.call_probability <= 1:
            raise ValueError(
                f"call probability must lie in [0, 1], got {self.call_probability}"
            )


@dataclass(frozen=True)
class Portfolio:
    """Ordered collection of consumers under one price pair."""

    members: tuple[PortfolioMember, ...]
    prices: Prices

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        ids = [m.consumer_id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError("consumer ids must be unique")
        for member in self.members:
            check_consumption_cap(member.params, self.prices)


@dataclass(frozen=True)
class CallAllocation:
    """Drawn call signals plus the reduction the called reports commit to."""

    signals: dict[str, CallSignal]
    committed_reduction: float
    under_provisioned: bool


@dataclass(frozen=True)
class EventRecord:
    """Per-consumer outcome of one event."""

    consumer_id: str
    signal: CallSignal
    report: Report
    consumption: float
    payment: float
    profit: float


@dataclass(frozen=True)
class EventSummary:
    called_count: int
    total_reduction: float
    total_payout: float
    under_provisioned: bool


@dataclass(frozen=True)
class ConsumerStats:
    consumer_id: str
    behavior: Behavior
    trials: int
    call_frequency: float
    mean_profit: float
    profit_variance: float
    mean_payment: float
    mean_reduction: float


@dataclass(frozen=True)
class MonteCarloResult:
    stats: list[ConsumerStats]
    summaries: list[EventSummary]
    records: list[list[EventRecord]]
    trials: int
    master_seed: int


def collect_reports(
    portfolio: Portfolio, behaviors: Mapping[str, Behavior]
) -> dict[str, Report]:
    """Stage-1 reports for every consumer, per its behavior model."""
    reports: dict[str, Report] = {}
    for member in portfolio.members:
        behavior = _behavior_for(behaviors, member.consumer_id)
        params = member.params
        committed = ideal_consumption(params, portfolio.prices, CallSignal.CALLED)
        if behavior is Behavior.RATIONAL:
            reports[member.consumer_id] = best_report(
                member.call_probability, params, portfolio.prices
            ).report
        elif behavior is Behavior.TRUTHFUL:
            reports[member.consumer_id] = Report(params.baseline, committed)
        else:
            reports[member.consumer_id] = Report(params.max_consumption, committed)
    return reports


def allocate_calls(
    portfolio: Portfolio,
    reports: Mapping[str, Report],
    reduction_target: float,
    seed: int,
) -> CallAllocation:
    """Draw one independent Bernoulli call signal per consumer.

    Each consumer's marginal probability is exactly its contractual one;
    probabilities are never adjusted to hit the reduction target. If the
    called consumers' committed reductions sum to less than the target, the
    allocation is flagged under-provisioned rather than re-drawn, since any
    conditioning would break the probability each consumer optimized
    against.
    """
    if reduction_target < 0:
        raise ValueError(f"reduction target must be >= 0, got {reduction_target}")
    rng = np.random.default_rng(seed)
    draws = rng.random(len(portfolio.members))
    signals: dict[str, CallSignal] = {}
    committed = 0.0
    for member, u in zip(portfolio.members, draws):
        called = bool(u < member.call_probability)
        signals[member.consumer_id] = (
            CallSignal.CALLED if called else CallSignal.NOT_CALLED
        )
        if called:
            report = reports[member.consumer_id]
            committed += report.baseline - report.committed
    return CallAllocation(
        signals=signals,
        committed_reduction=committed,
        under_provisioned=committed < reduction_target,
    )


def _behavior_for(behaviors: Mapping[str, Behavior], consumer_id: str) -> Behavior:
    try:
        return Behavior(behaviors[consumer_id])
    except KeyError:
        raise ValueError(f"no behavior defined for consumer {consumer_id!r}") from None


def _signal_for(signals: Mapping[str, CallSignal], consumer_id: str) -> CallSignal:
    try:
        return CallSignal(signals[consumer_id])
    except KeyError:
        raise ValueError(f"no call signal for consumer {consumer_id!r}") from None


def _outcome(
    params: ConsumerParams,
    prices: Prices,
    report: Report,
    behavior: Behavior,
    signal: CallSignal,
) -> tuple[float, float, float]:
    """Consumption, payment and profit of one consumer for one signal.

    Rational consumers best-respond to their own report. Truthful consumers
    follow the ideal rule. A naive gamer consumes its baseline when not
    called (paying for its inflated report), but best-responds once called,
    since even a naive agent reacts to a realized charge.
    """
    if behavior is Behavior.RATIONAL:
        if signal == CallSignal.NOT_CALLED:
            consumption = best_response_not_called(
                report.baseline, params, prices
            ).consumption
        else:
            consumption = best_response_called(report, params, prices).consumption
    elif behavior is Behavior.TRUTHFUL:
        consumption = ideal_consumption(params, prices, signal)
    else:
        if signal == CallSignal.NOT_CALLED:
            consumption = params.baseline
        else:
            consumption = best_response_called(report, params, prices).consumption
    if signal == CallSignal.NOT_CALLED:
        payment = payment_not_called(consumption, report.baseline, prices)
    else:
        payment = payment_called(consumption, report, prices)
    profit = utility(consumption, params, prices) - payment
    return consumption, payment, profit


def _summarize(records: list[EventRecord], under_provisioned: bool) -> EventSummary:
    called = [r for r in records if r.signal == CallSignal.CALLED]
    return EventSummary(
        called_count=len(called),
        total_reduction=sum(
            max(r.report.baseline - r.consumption, 0.0) for r in called
        ),
        total_payout=sum(-r.payment for r in called),
        under_provisioned=under_provisioned,
    )


def settle_event(
    portfolio: Portfolio,
    reports: Mapping[str, Report],
    calls: CallAllocation | Mapping[str, CallSignal],
    behaviors: Mapping[str, Behavior],
) -> tuple[list[EventRecord], EventSummary]:
    """Observe consumption and settle payments for one event.

    ``calls`` may be a :class:`CallAllocation` or a plain id-to-signal
    mapping (in which case the summary's under-provisioned flag is False).
    """
    if isinstance(calls, CallAllocation):
        signals: Mapping[str, CallSignal] = calls.signals
        under = calls.under_provisioned
    else:
        signals = calls
        under = False
    records = []
    for member in portfolio.members:
        cid = member.consumer_id
        try:
            report = reports[cid]
        except KeyError:
            raise ValueError(f"no report for consumer {cid!r}") from None
        signal = _signal_for(signals, cid)
        behavior = _behavior_for(behaviors, cid)
        consumption, payment, profit = _outcome(
            member.params, portfolio.prices, report, behavior, signal
        )
        records.append(
            EventRecord(cid, signal, report, consumption, payment, profit)
        )
    return records, _summarize(records, under)


def run_monte_carlo(
    portfolio: Portfolio,
    behaviors: Mapping[str, Behavior],
    trials: int,
    reduction_target: float = 0.0,
    master_seed: int = 0,
) -> MonteCarloResult:
    """Run independent events and aggregate per-consumer statistics.

    Reports are collected once (the stage-1 decision does not depend on the
    draw); each trial then draws signals with its own derived seed and
    settles. Per-consumer outcomes for each signal are precomputed, so the
    records of trial t are bitwise identical to settling that trial alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    reports = collect_reports(portfolio, behaviors)
    outcomes = {
        member.consumer_id: {
            signal: _outcome(
                member.params,
                portfolio.prices,
                reports[member.consumer_id],
                _behavior_for(behaviors, member.consumer_id),
                signal,
            )
            for signal in (CallSignal.NOT_CALLED, CallSignal.CALLED)
        }
        for member in portfolio.members
    }
    seeds = np.random.SeedSequence(master_seed).generate_state(
        trials, dtype=np.uint64
    )
    n = len(portfolio.members)
    profits = np.empty((n, trials))
    payments = np.empty((n, trials))
    reductions = np.zeros((n, trials))
    called = np.zeros((n, trials), dtype=bool)
    all_records: list[list[EventRecord]] = []
    summaries: list[EventSummary] = []
    for t in range(trials):
        allocation = allocate_calls(
            portfolio, reports, reduction_target, int(seeds[t])
        )
        records = []
        for k, member in enumerate(portfolio.members):
            cid = member.consumer_id
            signal = allocation.signals[cid]
            consumption, payment, profit = outcomes[cid][signal]
            records.append(
                EventRecord(cid, signal, reports[cid], consumption, payment, profit)
            )
            profits[k, t] = profit
            payments[k, t] = payment
            if signal == CallSignal.CALLED:
                called[k, t] = True
                reductions[k, t] = max(reports[cid].baseline - consumption, 0.0)
        all_records.append(records)
        summaries.append(_summarize(records, allocation.under_provisioned))
    stats = [
        ConsumerStats(
            consumer_id=member.consumer_id,
            behavior=_behavior_for(behaviors, member.consumer_id),
            trials=trials,
            call_frequency=float(called[k].mean()),
            mean_profit=float(profits[k].mean()),
            profit_variance=float(profits[k].var(ddof=1)) if trials > 1 else 0.0,
            mean_payment=float(payments[k].mean()),
            mean_reduction=float(reductions[k].mean()),
        )
        for k, member in enumerate(portfolio.members)
    ]
    return MonteCarloResult(
        stats=stats,
        summaries=summaries,
        records=all_records,
        trials=trials,
        master_seed=master_seed,
    )
