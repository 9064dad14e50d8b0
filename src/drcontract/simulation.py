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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_call_probability,
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
    "check_reduction_target",
    "check_seed",
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

    @classmethod
    def _missing_(cls, value):
        raise ValueError(
            f"unknown behavior {value!r}; expected one of {[b.value for b in cls]}"
        )


@dataclass(frozen=True)
class PortfolioMember:
    consumer_id: str
    params: ConsumerParams
    call_probability: float

    def __post_init__(self) -> None:
        check_call_probability(self.call_probability)


@dataclass(frozen=True)
class Portfolio:
    """Ordered collection of consumers under one price pair, whose ids,
    parameters and call probabilities are also held as read-only columns
    (entry k for member k), each built once on first use."""

    members: tuple[PortfolioMember, ...]
    prices: Prices

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if len(set(self.consumer_ids)) != len(self.members):
            raise ValueError("consumer ids must be unique")
        check_consumption_cap(self.params, self.prices)

    @cached_property
    def consumer_ids(self) -> tuple[str, ...]:
        return tuple(m.consumer_id for m in self.members)

    @cached_property
    def params(self):
        """The members' :class:`ConsumerParams` as :func:`columns`."""
        params = columns(ConsumerParams, [m.params for m in self.members])
        for column in vars(params).values():
            column.flags.writeable = False
        return params

    @cached_property
    def call_probabilities(self) -> np.ndarray:
        probs = np.array([m.call_probability for m in self.members], dtype=float)
        probs.flags.writeable = False
        return probs


class CallAllocation(NamedTuple):
    """Drawn call signals plus the reduction the called reports commit to."""

    signals: dict[str, CallSignal]
    committed_reduction: float
    under_provisioned: bool


class EventRecord(NamedTuple):
    """Per-consumer outcome of one event."""

    consumer_id: str
    signal: CallSignal
    report: Report
    consumption: float
    payment: float
    profit: float


class EventSummary(NamedTuple):
    called_count: int
    total_reduction: float
    total_payout: float
    under_provisioned: bool


class ConsumerStats(NamedTuple):
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
    outcome under ``CallSignal(s)``. ``report`` holds the members' reports
    as :func:`columns`.
    """

    consumer_ids: tuple[str, ...]
    report: object
    consumption: np.ndarray
    payment: np.ndarray
    profit: np.ndarray

    def record(self, k: int, called: bool) -> EventRecord:
        s = int(called)
        return EventRecord(
            self.consumer_ids[k],
            CallSignal(s),
            Report(float(self.report.baseline[k]), float(self.report.committed[k])),
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
    _, *masks = _behaviors(portfolio, behaviors)
    report = _reports(portfolio, *masks)
    return dict(zip(
        portfolio.consumer_ids,
        map(Report, report.baseline.tolist(), report.committed.tolist()),
    ))


def _reports(portfolio: Portfolio, rational, truthful) -> Report:
    """The reports of :func:`collect_reports`, as :func:`columns`."""
    params = portfolio.params
    best = solve(params, portfolio.prices, call_probability=portfolio.call_probabilities)
    announced = np.where(
        rational,
        best.report_baseline,
        np.where(truthful, params.baseline, params.max_consumption),
    )
    return Report(announced, best.report_committed)


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
    check_seed(seed)
    check_reduction_target(reduction_target)
    report = columns(Report, _by_id(reports, portfolio, "report"))
    called, committed = _draw_calls(portfolio, report, reduction_target, [seed])
    return CallAllocation(
        signals={
            cid: CallSignal(int(c))
            for cid, c in zip(portfolio.consumer_ids, called[:, 0].tolist())
        },
        committed_reduction=float(committed[0]),
        under_provisioned=bool(committed[0] < reduction_target),
    )


def _draw_calls(
    portfolio: Portfolio, report, reduction_target: float, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Call flags of every member in every trial, shape ``(n, len(seeds))``,
    and the reduction the called reports (``report``, as :func:`columns`)
    commit to in each trial.

    Trial t draws ``default_rng(seeds[t]).random(n)`` and calls member k when
    its draw lies below its call probability. The committed reduction is a
    :func:`_called_totals` sum, so a trial gives the same bits alone or in a
    batch.
    """
    probs = portfolio.call_probabilities
    called = np.empty((probs.size, len(seeds)), dtype=bool)
    for t, seed in enumerate(seeds):
        called[:, t] = np.random.default_rng(int(seed)).random(probs.size) < probs
    return called, _called_totals(called, report.baseline - report.committed)


def _called_totals(called: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per trial t, the sum of ``values[k]`` over the members k with
    ``called[k, t]``, added one at a time in portfolio order from +0.0.

    ``np.add.accumulate`` always adds in order; ``np.sum`` would add pairwise
    when there is one trial, so a trial alone would differ from a batch.
    """
    totals = np.zeros((len(values) + 1, called.shape[1]))
    np.copyto(totals[1:], np.asarray(values, dtype=float)[:, None], where=called)
    np.add.accumulate(totals, axis=0, out=totals)
    return totals[-1].copy()


def _by_id(mapping: Mapping, portfolio: Portfolio, what: str) -> list:
    """The values of ``mapping`` for the portfolio's members, in order."""
    try:
        return [mapping[cid] for cid in portfolio.consumer_ids]
    except KeyError as exc:
        raise ValueError(f"no {what} for consumer {exc.args[0]!r}") from None


def _behaviors(portfolio: Portfolio, behaviors: Mapping) -> tuple:
    """The :class:`Behavior` of each member, in portfolio order, then which
    members are rational and which truthful, as bool columns."""
    kinds = []
    for cid, kind in zip(
        portfolio.consumer_ids, _by_id(behaviors, portfolio, "behavior defined")
    ):
        try:
            kinds.append(Behavior(kind))
        except ValueError as exc:
            raise ValueError(f"consumer {cid!r}: {exc}") from None
    rational = np.array([k is Behavior.RATIONAL for k in kinds], dtype=bool)
    truthful = np.array([k is Behavior.TRUTHFUL for k in kinds], dtype=bool)
    return kinds, rational, truthful


def _settle(portfolio: Portfolio, report, rational, truthful) -> OutcomeTable:
    """Consumption, payment and profit of each member under each signal,
    given the members' reports as :func:`columns` and behavior masks.

    Rational consumers best-respond to their own report. Truthful consumers
    follow the ideal rule. A naive gamer consumes its baseline when not
    called (paying for its inflated report), but best-responds once called,
    since even a naive agent reacts to a realized charge.
    """
    prices = portfolio.prices
    params = portfolio.params
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
    return OutcomeTable(
        consumer_ids=portfolio.consumer_ids,
        report=report,
        consumption=np.stack([not_called, called], axis=-1),
        payment=np.stack(payment, axis=-1),
        profit=np.stack(profit, axis=-1),
    )


def _summarize(
    table: OutcomeTable, called: np.ndarray, under_provisioned: np.ndarray
) -> list[EventSummary]:
    """Totals over the called members of each event: column t of ``called``
    and entry t of ``under_provisioned`` describe event t.

    Each member's reduction and payout when called are added in portfolio
    order from +0.0 (:func:`_called_totals`), the same on any Python version.
    """
    return [
        EventSummary(count, reduced, paid, under)
        for count, reduced, paid, under in zip(
            np.count_nonzero(called, axis=0).tolist(),
            _called_totals(called, _reduction(table)).tolist(),
            _called_totals(called, -table.payment[:, 1]).tolist(),
            under_provisioned.tolist(),
        )
    ]


def _reduction(table: OutcomeTable) -> np.ndarray:
    """Each member's consumption when called below its reported baseline,
    floored at 0."""
    return np.maximum(table.report.baseline - table.consumption[:, 1], 0.0)


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
    called = np.array(
        [CallSignal(s) for s in _by_id(signals, portfolio, "call signal")],
        dtype=bool,
    )
    report = columns(Report, _by_id(reports, portfolio, "report"))
    _, *masks = _behaviors(portfolio, behaviors)
    table = _settle(portfolio, report, *masks)
    summary = _summarize(table, called[:, None], np.array([under]))[0]
    return list(TrialRecords(table, called)), summary


def check_record_count(consumers: int, trials: int, name: str = "trials") -> None:
    """Refuse a Monte Carlo run of no trials or over :data:`MAX_RECORDS`
    records (consumers x trials); ``name`` is the input that set the trials."""
    if trials < 1:
        raise ValueError(f"{name} must be >= 1, got {trials}")
    if consumers * trials > MAX_RECORDS:
        raise ValueError(
            f"{name} = {trials} with {consumers} consumers gives "
            f"{consumers * trials} event records, over the limit of "
            f"{MAX_RECORDS}; use fewer trials"
        )


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a negative seed, which numpy cannot seed a generator with;
    ``name`` is the input that set it."""
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


def check_reduction_target(target: float, name: str = "reduction target") -> None:
    """Refuse a negative or NaN reduction target; ``name`` is the input that
    set it."""
    if not target >= 0:
        raise ValueError(f"{name} must be >= 0, got {target}")


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
    check_record_count(len(portfolio.members), trials)
    check_seed(master_seed, "master_seed")
    check_reduction_target(reduction_target)
    kinds, rational, truthful = _behaviors(portfolio, behaviors)
    report = _reports(portfolio, rational, truthful)
    table = _settle(portfolio, report, rational, truthful)
    seeds = np.random.SeedSequence(master_seed).generate_state(
        trials, dtype=np.uint64
    )
    called, committed = _draw_calls(portfolio, report, reduction_target, seeds)
    summaries = _summarize(table, called, committed < reduction_target)
    # Member k's statistics reduce row k of (n, trials) arrays, built one at a
    # time; a C-contiguous row is summed pairwise, like the row alone.
    profits = np.where(called, table.profit[:, 1:], table.profit[:, :1])
    mean_profit = profits.mean(axis=1)
    # The steps of profits.var(axis=1, ddof=1), in place of its temporary.
    profits -= mean_profit[:, None]
    profits *= profits
    variance = profits.sum(axis=1) / max(trials - 1, 1)
    del profits
    mean_payment = np.where(
        called, table.payment[:, 1:], table.payment[:, :1]
    ).mean(axis=1)
    mean_reduction = np.where(called, _reduction(table)[:, None], 0.0).mean(axis=1)
    per_member = np.column_stack(
        [called.mean(axis=1), mean_profit, variance, mean_payment, mean_reduction]
    )
    stats = [
        ConsumerStats(cid, kind, trials, *row)
        for cid, kind, row in zip(table.consumer_ids, kinds, per_member.tolist())
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
