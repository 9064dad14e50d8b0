"""Contract timeline simulation over a portfolio of consumers.

One event runs the full timeline: consumers report, the aggregator draws
call signals honoring each consumer's contractual probability, consumers
choose consumption per their behavior model, and payments settle. Monte
Carlo repetition derives one integer seed per trial from the master seed via
``numpy.random.SeedSequence(master_seed).generate_state(trials)``, so trial
t is reproducible in isolation and results do not depend on execution order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_consumption_cap,
    columns,
    ideal_consumption,
    payment_called,
    payment_not_called,
    utility,
)
from .strategy import solve
# Not called here: the scalar solvers stay bound in this module because the
# benchmark's tracer (perfbench/spans.py) looks them up by these names.
from .strategy import (  # noqa: F401
    best_report,
    best_response_called,
    best_response_not_called,
)

__all__ = [
    "MAX_RECORDS",
    "Behavior",
    "CallAllocation",
    "ConsumerStats",
    "EventRecord",
    "EventSummary",
    "MonteCarloResult",
    "OutcomeTable",
    "Portfolio",
    "PortfolioMember",
    "TrialRecords",
    "allocate_calls",
    "check_record_count",
    "collect_reports",
    "run_monte_carlo",
    "settle_event",
]


# A Monte Carlo run holds a few arrays with one entry per consumer and trial
# (about 25 bytes per record) and a few objects per trial; a larger run is
# almost certainly a typo.
MAX_RECORDS = 10**7


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


class TrialRecords(Sequence):
    """The records of one Monte Carlo trial, built one at a time on access.

    Holds only a view of the trial's call flags, so its length is known
    without building any record. It compares equal to any sequence of the
    same :class:`EventRecord` values, such as the list :func:`settle_event`
    returns for the same trial.
    """

    __slots__ = ("_table", "_called")

    def __init__(self, table: OutcomeTable, called: np.ndarray) -> None:
        self._table = table
        self._called = called

    def __len__(self) -> int:
        return self._called.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        return self._table.record(index, bool(self._called[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Consumption, payment and profit of every consumer under each signal.

    Row k is portfolio member k; column s of each ``(n, 2)`` array is the
    outcome under ``CallSignal(s)``.
    """

    consumer_ids: tuple[str, ...]
    reports: tuple[Report, ...]
    consumption: np.ndarray
    payment: np.ndarray
    profit: np.ndarray

    def record(self, k: int, called: bool) -> EventRecord:
        s = int(called)
        return EventRecord(
            self.consumer_ids[k],
            CallSignal(s),
            self.reports[k],
            float(self.consumption[k, s]),
            float(self.payment[k, s]),
            float(self.profit[k, s]),
        )


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of :func:`run_monte_carlo`, kept as columns.

    ``called[k, t]`` is True when member k was called in trial t, and
    ``outcomes`` gives each member's outcome under either signal, so trial
    t's records are ``outcomes`` picked by ``called[:, t]``. ``records[t]``
    presents them as :class:`EventRecord` values, built on access.
    """

    stats: list[ConsumerStats]
    summaries: list[EventSummary]
    records: list[TrialRecords]
    trials: int
    master_seed: int
    outcomes: OutcomeTable = field(compare=False)
    called: np.ndarray = field(compare=False)


def collect_reports(
    portfolio: Portfolio, behaviors: Mapping[str, Behavior]
) -> dict[str, Report]:
    """Stage-1 reports for every consumer, per its behavior model.

    Rational consumers report the closed-form optimum, truthful ones their
    true baseline and naive gamers the cap; all commit to the reduced
    optimum (b - p2/g)+, which is the rational commitment too.
    """
    members = portfolio.members
    rational, truthful = _behavior_masks(members, behaviors)
    params = columns(ConsumerParams, [m.params for m in members])
    probabilities = np.array([m.call_probability for m in members], dtype=float)
    best = solve(params, portfolio.prices, call_probability=probabilities)
    announced = np.where(
        rational,
        best.report_baseline,
        np.where(truthful, params.baseline, params.max_consumption),
    )
    return {
        member.consumer_id: Report(baseline, committed)
        for member, baseline, committed in zip(
            members, announced.tolist(), best.report_committed.tolist()
        )
    }


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
    called, committed = _draw_calls(portfolio, reports, reduction_target, [seed])
    return CallAllocation(
        signals={
            member.consumer_id: CallSignal(int(c))
            for member, c in zip(portfolio.members, called[:, 0].tolist())
        },
        committed_reduction=float(committed[0]),
        under_provisioned=bool(committed[0] < reduction_target),
    )


def _draw_calls(
    portfolio: Portfolio,
    reports: Mapping[str, Report],
    reduction_target: float,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """Call flags of every member in every trial, shape ``(n, len(seeds))``,
    and the reduction the called reports commit to in each trial.

    Trial t draws ``default_rng(seeds[t]).random(n)`` and calls member k when
    its draw lies below its call probability. The committed reduction is
    summed in portfolio order, one called member at a time from 0.0, so a
    trial gives the same bits alone or in a batch.
    """
    if not reduction_target >= 0:
        raise ValueError(f"reduction target must be >= 0, got {reduction_target}")
    members = portfolio.members
    probs = np.array([m.call_probability for m in members], dtype=float)
    announced = [
        report.baseline - report.committed
        for report in (_report_for(reports, m.consumer_id) for m in members)
    ]
    called = np.empty((len(members), len(seeds)), dtype=bool)
    for t, seed in enumerate(seeds):
        called[:, t] = np.random.default_rng(int(seed)).random(len(members)) < probs
    committed = np.zeros(len(seeds))
    for flags, reduction in zip(called, announced):
        committed[flags] += reduction
    return called, committed


def _behavior_for(behaviors: Mapping[str, Behavior], consumer_id: str) -> Behavior:
    try:
        return Behavior(behaviors[consumer_id])
    except KeyError:
        raise ValueError(f"no behavior defined for consumer {consumer_id!r}") from None


def _behavior_masks(
    members: Sequence[PortfolioMember], behaviors: Mapping[str, Behavior]
) -> tuple[np.ndarray, np.ndarray]:
    """Which members are rational and which truthful; the rest are naive
    gamers."""
    kinds = [_behavior_for(behaviors, m.consumer_id) for m in members]
    return (
        np.array([k is Behavior.RATIONAL for k in kinds], dtype=bool),
        np.array([k is Behavior.TRUTHFUL for k in kinds], dtype=bool),
    )


def _report_for(reports: Mapping[str, Report], consumer_id: str) -> Report:
    try:
        return reports[consumer_id]
    except KeyError:
        raise ValueError(f"no report for consumer {consumer_id!r}") from None


def _signal_for(signals: Mapping[str, CallSignal], consumer_id: str) -> CallSignal:
    try:
        return CallSignal(signals[consumer_id])
    except KeyError:
        raise ValueError(f"no call signal for consumer {consumer_id!r}") from None


def _settle(
    portfolio: Portfolio,
    reports: Mapping[str, Report],
    behaviors: Mapping[str, Behavior],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consumption, payment and profit of each member under each signal.

    Row k of each ``(n, 2)`` array is member k; column s is its outcome
    under ``CallSignal(s)``. Rational consumers best-respond to their own
    report. Truthful consumers follow the ideal rule. A naive gamer consumes
    its baseline when not called (paying for its inflated report), but
    best-responds once called, since even a naive agent reacts to a
    realized charge.
    """
    prices = portfolio.prices
    members = portfolio.members
    report = columns(Report, [_report_for(reports, m.consumer_id) for m in members])
    rational, truthful = _behavior_masks(members, behaviors)
    params = columns(ConsumerParams, [m.params for m in members])
    best = solve(params, prices, report=report)
    not_called = np.where(rational, best.consumption[:, 0], params.baseline)
    called = np.where(
        truthful,
        ideal_consumption(params, prices, CallSignal.CALLED),
        best.consumption[:, 1],
    )
    payment = (
        payment_not_called(not_called, report.baseline, prices),
        payment_called(called, report, prices),
    )
    profit = [
        utility(q, params, prices) - paid
        for q, paid in zip((not_called, called), payment)
    ]
    return (
        np.stack([not_called, called], axis=-1),
        np.stack(payment, axis=-1),
        np.stack(profit, axis=-1),
    )


def _summarize(
    called: np.ndarray,
    reduction: np.ndarray,
    payout: np.ndarray,
    under_provisioned: bool,
) -> EventSummary:
    """Totals over the called members of one event.

    ``reduction`` and ``payout`` hold each member's reduction below its
    reported baseline and its payout when called; they are added with the
    builtin ``sum`` in portfolio order.
    """
    return EventSummary(
        called_count=int(np.count_nonzero(called)),
        total_reduction=sum(reduction[called].tolist()),
        total_payout=sum(payout[called].tolist()),
        under_provisioned=bool(under_provisioned),
    )


def _reduction(reports: tuple[Report, ...], consumption: np.ndarray) -> np.ndarray:
    """Each member's consumption below its reported baseline, floored at 0."""
    baselines = np.array([r.baseline for r in reports], dtype=float)
    return np.maximum(baselines - consumption, 0.0)


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
    members = portfolio.members
    drawn = [_signal_for(signals, m.consumer_id) for m in members]
    picked = (np.arange(len(members)), np.array(drawn, dtype=np.intp))
    consumption, payment, profit = (
        outcome[picked] for outcome in _settle(portfolio, reports, behaviors)
    )
    member_reports = tuple(reports[m.consumer_id] for m in members)
    records = [
        EventRecord(member.consumer_id, signal, report, q, paid, gained)
        for member, signal, report, q, paid, gained in zip(
            members,
            drawn,
            member_reports,
            consumption.tolist(),
            payment.tolist(),
            profit.tolist(),
        )
    ]
    called = np.array(drawn, dtype=bool)
    reduction = _reduction(member_reports, consumption)
    return records, _summarize(called, reduction, -payment, under)


def check_record_count(consumers: int, trials: int, name: str = "trials") -> None:
    """Refuse a Monte Carlo run of more than :data:`MAX_RECORDS` records
    (consumers x trials); ``name`` is the input that set the trial count."""
    if consumers * trials > MAX_RECORDS:
        raise ValueError(
            f"{name} = {trials} with {consumers} consumers gives "
            f"{consumers * trials} event records, over the limit of "
            f"{MAX_RECORDS}; use fewer trials"
        )


def run_monte_carlo(
    portfolio: Portfolio,
    behaviors: Mapping[str, Behavior],
    trials: int,
    reduction_target: float = 0.0,
    master_seed: int = 0,
) -> MonteCarloResult:
    """Run independent events and aggregate per-consumer statistics.

    Reports are collected once (the stage-1 decision does not depend on the
    draw), and so is each consumer's outcome under either signal; a trial
    then only draws who is called with its own derived seed. Trial t's
    records and summary are bitwise identical to drawing and settling that
    trial alone with :func:`allocate_calls` and :func:`settle_event`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    members = portfolio.members
    check_record_count(len(members), trials)
    reports = collect_reports(portfolio, behaviors)
    consumption, payment, profit = _settle(portfolio, reports, behaviors)
    table = OutcomeTable(
        consumer_ids=tuple(m.consumer_id for m in members),
        reports=tuple(reports[m.consumer_id] for m in members),
        consumption=consumption,
        payment=payment,
        profit=profit,
    )
    seeds = np.random.SeedSequence(master_seed).generate_state(
        trials, dtype=np.uint64
    )
    called, committed = _draw_calls(portfolio, reports, reduction_target, seeds)
    under = committed < reduction_target
    reduction = _reduction(table.reports, table.consumption[:, 1])
    payout = -table.payment[:, 1]
    summaries = [
        _summarize(called[:, t], reduction, payout, under[t]) for t in range(trials)
    ]
    profits = np.where(called, table.profit[:, 1:], table.profit[:, :1])
    payments = np.where(called, table.payment[:, 1:], table.payment[:, :1])
    reductions = np.where(called, reduction[:, None], 0.0)
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
        for k, member in enumerate(members)
    ]
    return MonteCarloResult(
        stats=stats,
        summaries=summaries,
        records=[TrialRecords(table, called[:, t]) for t in range(trials)],
        trials=trials,
        master_seed=master_seed,
        outcomes=table,
        called=called,
    )
