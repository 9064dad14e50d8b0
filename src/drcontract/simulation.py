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
from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (
    CallSignal,
    ConsumerParams,
    FrozenRecord,
    Prices,
    Report,
    check_call_probability,
    check_consumption_cap,
    columns,
    ideal_consumption,
    payment_called,
    payment_not_called,
    require,
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
    "STATS_COLUMNS",
    "SUMMARY_COLUMNS",
    "allocate_calls",
    "check_record_count",
    "check_reduction_target",
    "check_seed",
    "collect_reports",
    "run_monte_carlo",
    "settle_event",
]


# A Monte Carlo run holds one call flag per consumer and trial and about 25
# bytes per trial, and works through its floats one block of members at a
# time (_BLOCK_ELEMENTS); a larger run is almost certainly a typo.
MAX_RECORDS = 10**7

# The floats of one (members, trials) block: about 256 KB, so beside its call
# flags a run's working set does not grow with its consumers. A member's row
# of trials is never split, which would change the bits of its pairwise sums.
_BLOCK_ELEMENTS = 2**15


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


# Each Behavior by its value; a Behavior hashes and compares as its value, so
# one lookup resolves either.
_BEHAVIORS = {kind.value: kind for kind in Behavior}


class PortfolioMember(FrozenRecord):
    """One consumer of a :class:`Portfolio`: its id, its private type and the
    probability that the aggregator calls it."""

    _fields = ("consumer_id", "params", "call_probability")

    def __init__(
        self, consumer_id: str, params: ConsumerParams, call_probability: float
    ) -> None:
        check_call_probability(call_probability)
        self._store(consumer_id, params, call_probability)


class Portfolio(FrozenRecord, Sequence):
    """Ordered collection of consumers under one price pair, held as
    read-only columns, entry k for member k: ``consumer_ids``, ``params``
    (:class:`ConsumerParams` of float arrays) and ``call_probabilities``.

    ``Portfolio(members, prices)`` takes any sequence of
    :class:`PortfolioMember` and makes its columns with :func:`columns`;
    :meth:`of_columns` takes the columns themselves. Either way the ids must
    be unique, the call probabilities are checked as each member's is, and
    the members as :func:`check_consumption_cap` checks them.

    ``portfolio[k]`` builds that :class:`PortfolioMember` on access, and a
    slice gives a tuple of them. Two portfolios are equal, and hash alike,
    when their members and prices are. A portfolio pickles and copies
    through :meth:`of_columns`, and ``_replace`` rebuilds through it too, so
    a changed portfolio is checked again.
    """

    _fields = ("consumer_ids", "params", "call_probabilities", "prices")

    def __init__(self, members: Sequence[PortfolioMember], prices: Prices) -> None:
        members = tuple(members)
        self._hold(
            tuple(m.consumer_id for m in members),
            columns(ConsumerParams, [m.params for m in members]),
            np.array([m.call_probability for m in members], dtype=float),
            prices,
        )

    @classmethod
    def of_columns(cls, consumer_ids: Sequence[str], params: ConsumerParams,
                   call_probabilities: np.ndarray, prices: Prices) -> Portfolio:
        """The portfolio whose member k is entry k of each column."""
        portfolio = object.__new__(cls)
        portfolio._hold(tuple(consumer_ids), params, call_probabilities, prices)
        return portfolio

    def _hold(self, consumer_ids, params, call_probabilities, prices) -> None:
        if len(set(consumer_ids)) != len(consumer_ids):
            raise ValueError("consumer ids must be unique")
        check_call_probability(call_probabilities)
        # A saturation point that overflows breaks the cap rule, whose
        # message then reads inf, as a Python float gives it.
        with np.errstate(over="ignore"):
            check_consumption_cap(params, prices)
        self._store(consumer_ids, params, call_probabilities, prices)

    def __len__(self) -> int:
        return len(self.consumer_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(len(self))[index])
        cid = self.consumer_ids[index]
        params = self.params
        return PortfolioMember(
            cid,
            ConsumerParams(
                float(params.baseline[index]),
                float(params.marginal_utility[index]),
                float(params.max_consumption[index]),
            ),
            float(self.call_probabilities[index]),
        )

    def _key(self) -> tuple:
        return tuple(self), self.prices

    def __reduce__(self):
        return self.of_columns, super().__reduce__()[1]


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


# The CSV headers of the summaries and stats that simulate writes.
SUMMARY_COLUMNS = (
    "trial", "called_count", "total_reduction_kwh", "total_payout_usd",
    "under_provisioned",
)
STATS_COLUMNS = (
    "consumer_id", "behavior", "trials", "call_frequency", "mean_profit",
    "profit_variance", "mean_payment", "mean_reduction_kwh",
)


class ConsumerStats(NamedTuple):
    consumer_id: str
    behavior: Behavior
    trials: int
    call_frequency: float
    mean_profit: float
    profit_variance: float
    mean_payment: float
    mean_reduction: float


class _Rows(Sequence):
    """A read-only sequence of ``n`` rows whose item k is ``row(k)``, built on
    access; a slice gives a list. It equals any sequence of the same items."""

    __slots__ = ("_n", "_row")

    def __init__(self, n: int, row) -> None:
        self._n = n
        self._row = row

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(k) for k in range(self._n)[index]]
        return self._row(range(self._n)[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class OutcomeTable(FrozenRecord):
    """Consumption, payment and profit of every consumer under each signal.

    Row k is portfolio member k; column s of each read-only ``(n, 2)`` array
    is the outcome under ``CallSignal(s)``. ``report`` holds the members'
    reports as :func:`columns`.
    """

    _fields = ("consumer_ids", "report", "consumption", "payment", "profit")

    def records(self, called: np.ndarray, t: int) -> _Rows:
        """The records of event t, whose call flags are ``called[:, t]``."""
        return _Rows(len(called), partial(self.record, called[:, t]))

    def record(self, called: np.ndarray, k: int) -> EventRecord:
        """Member k's record in the event whose call flags are ``called``."""
        s = int(called[k])
        return EventRecord(
            self.consumer_ids[k],
            CallSignal(s),
            Report(float(self.report.baseline[k]), float(self.report.committed[k])),
            float(self.consumption[k, s]),
            float(self.payment[k, s]),
            float(self.profit[k, s]),
        )


class MonteCarloResult(FrozenRecord):
    """Outcome of :func:`run_monte_carlo`, kept as columns.

    ``called[k, t]`` is True when member k was called in trial t, and
    ``outcomes`` gives each member's outcome under either signal. ``records``
    and ``summaries`` are read-only views, one item per trial built on access
    from those columns and the run's per-trial totals: trial t's
    :class:`EventRecord` values and its :class:`EventSummary`. ``stats`` is
    a tuple, one row per member. A result pickles. ``called`` and the
    outcome arrays are read-only, in a copy or an unpickled result too. Two
    results are equal, and hash alike, when their stats, summaries and
    records are.
    """

    _fields = ("stats", "summaries", "records", "outcomes", "called")

    def _key(self) -> tuple:
        return self.stats, self.summaries, self.records


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
    against. A report above its member's cap is refused, as
    :func:`settle_event` refuses it.
    """
    check_seed(seed)
    check_reduction_target(reduction_target)
    report = _report_columns(portfolio, reports)
    called, committed = _draw_calls(portfolio, report, [seed])
    return CallAllocation(
        signals={
            cid: CallSignal(int(c))
            for cid, c in zip(portfolio.consumer_ids, called[:, 0].tolist())
        },
        committed_reduction=float(committed[0]),
        under_provisioned=bool(committed[0] < reduction_target),
    )


def _draw_calls(portfolio: Portfolio, report, seeds) -> tuple[np.ndarray, np.ndarray]:
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
    committed = _called_totals(called, report.baseline - report.committed)
    return called, committed


def _called_totals(called: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per trial t, the sum of ``values[k]`` over the members k with
    ``called[k, t]``, added one at a time in portfolio order from +0.0.

    Each member adds ``called[k, t] * values[k]``. That is ``values[k]``
    when it is called and ±0.0 when not, which leaves a total that starts
    at +0.0 unchanged; so every value must be finite, as the portfolio's
    checks and the report caps make it (``inf * 0`` is nan).
    ``np.add.accumulate`` always adds in order; ``np.sum`` would add pairwise
    when there is one trial, so a trial alone would differ from a batch. The
    members go a block at a time, and the first row of each block carries
    the totals of the blocks before it.
    """
    values = np.asarray(values, dtype=float)
    n, trials = called.shape
    rows = _block_rows(trials)
    block = np.zeros((min(rows, n) + 1, trials))
    # Only the accumulate can overflow. A total that does is kept: each
    # caller compares it with a target or refuses it.
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            part = block[: min(rows, n - lo) + 1]
            np.multiply(called[lo:lo + rows], values[lo:lo + rows, None], out=part[1:])
            np.add.accumulate(part, axis=0, out=part)
            part[0] = part[-1]
    return block[0].copy()


def _block_rows(trials: int) -> int:
    """How many members' rows of ``trials`` floats fill a block of about
    :data:`_BLOCK_ELEMENTS`; at least one."""
    return max(1, _BLOCK_ELEMENTS // trials)


def _report_columns(portfolio: Portfolio, reports: Mapping) -> Report:
    """The members' reports, in portfolio order, as :func:`columns`. A
    value that is not a :class:`Report`, or whose baseline is above the
    member's cap, is refused in the member's name."""
    given = _by_id(reports, portfolio, "report")
    caps = portfolio.params.max_consumption.tolist()
    return columns(Report, [
        _member(partial(_capped, cap), cid, report)
        for cid, report, cap in zip(portfolio.consumer_ids, given, caps)
    ])


def _capped(cap: float, report) -> Report:
    """``report``, if it is a :class:`Report` whose baseline is at most ``cap``."""
    require(isinstance(report, Report), "{!r} is not a Report", report)
    require(report.baseline <= cap, "reported baseline must lie in [0, {}], got {}",
            cap, report.baseline)
    return report


def _by_id(mapping: Mapping, portfolio: Portfolio, what: str) -> list:
    """The values of ``mapping`` for the portfolio's members, in order."""
    try:
        return [mapping[cid] for cid in portfolio.consumer_ids]
    except KeyError as exc:
        raise ValueError(f"no {what} for consumer {exc.args[0]!r}") from None


def _behaviors(portfolio: Portfolio, behaviors: Mapping) -> tuple:
    """The :class:`Behavior` of each member, in portfolio order, then which
    members are rational and which truthful, as bool columns."""
    given = _by_id(behaviors, portfolio, "behavior defined")
    try:
        kinds = [_BEHAVIORS[kind] for kind in given]
    except (KeyError, TypeError):
        ids = portfolio.consumer_ids
        kinds = [_member(Behavior, cid, kind) for cid, kind in zip(ids, given)]
    rational, truthful = (
        np.array([k is kind for k in kinds], dtype=bool)
        for kind in (Behavior.RATIONAL, Behavior.TRUTHFUL)
    )
    return kinds, rational, truthful


def _member(kind, cid: str, value):
    """``kind(value)``, refused in the name of consumer ``cid``: ``kind`` is
    an enum or a check that raises ``ValueError``."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ValueError(f"consumer {cid!r}: {exc}") from None


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
    table: OutcomeTable, called: np.ndarray, under_provisioned: np.ndarray, label
) -> _Rows:
    """Totals over the called members of each event: column t of ``called``
    and entry t of ``under_provisioned`` describe event t.

    Each member's reduction and payout when called are added in portfolio
    order from +0.0 (:func:`_called_totals`), the same on any Python version.
    The first event whose totals are not finite is refused, named by
    ``label(t)``.
    """
    totals = np.stack([
        _called_totals(called, _reduction(table)),
        _called_totals(called, -table.payment[:, 1]),
    ], axis=1)
    _check_finite(totals, label, SUMMARY_COLUMNS[2:4])
    return _Rows(len(totals), partial(
        _summary, np.count_nonzero(called, axis=0), totals, under_provisioned
    ))


def _summary(counts, totals, under, t: int) -> EventSummary:
    """Event t's summary, read from the columns of :func:`_summarize`."""
    return EventSummary(counts.item(t), *totals[t].tolist(), under.item(t))


def _check_finite(values: np.ndarray, label, columns) -> None:
    """Refuse the first row k of ``values`` with an entry that is not
    finite, naming it ``label(k)`` and the first such entry's column."""
    bad = np.logical_not(np.isfinite(values))
    if bad.any():
        k, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"{label(k)}: {columns[j]} is not finite "
            f"({float(values[k, j])}); the scenario's magnitudes overflow "
            f"64-bit floats"
        )


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
    given = _by_id(signals, portfolio, "call signal")
    called = np.array([
        _member(CallSignal, cid, s) for cid, s in zip(portfolio.consumer_ids, given)
    ], dtype=bool)[:, None]
    report = _report_columns(portfolio, reports)
    _, *masks = _behaviors(portfolio, behaviors)
    table = _settle(portfolio, report, *masks)
    summary = _summarize(table, called, np.array([under]), lambda t: "event")[0]
    return list(table.records(called, 0)), summary


def check_record_count(consumers: int, trials: int, name: str = "trials") -> None:
    """Refuse a Monte Carlo run whose trial count is not an integer, is
    below 1 or gives over :data:`MAX_RECORDS` records (consumers x trials);
    ``name`` is the input that set the trials."""
    _check_integer(trials, name)
    if trials < 1:
        raise ValueError(f"{name} must be >= 1, got {trials}")
    if consumers * trials > MAX_RECORDS:
        raise ValueError(
            f"{name} = {trials} with {consumers} consumers gives "
            f"{consumers * trials} event records, over the limit of "
            f"{MAX_RECORDS}; use fewer trials"
        )


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed that is not an integer or is negative, which numpy
    cannot seed a generator with; ``name`` is the input that set it."""
    _check_integer(seed, name)
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


def _check_integer(value, name: str) -> None:
    """Refuse a ``value`` that is not a Python or numpy integer; a ``bool``
    is refused too. ``name`` is the input that set it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")


def check_reduction_target(target: float, name: str = "reduction target") -> None:
    """Refuse a reduction target that is not a real number (a ``bool``
    included), is negative or is NaN; ``name`` is the input that set it."""
    if isinstance(target, bool) or not isinstance(
        target, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{name} must be a number, got {target!r}")
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
    check_record_count(len(portfolio), trials)
    check_seed(master_seed, "master_seed")
    check_reduction_target(reduction_target)
    kinds, rational, truthful = _behaviors(portfolio, behaviors)
    report = _reports(portfolio, rational, truthful)
    table = _settle(portfolio, report, rational, truthful)
    seeds = np.random.SeedSequence(master_seed).generate_state(
        trials, dtype=np.uint64
    )
    called, committed = _draw_calls(portfolio, report, seeds)
    under = committed < reduction_target
    summaries = _summarize(table, called, under, "trial {}".format)
    # Member k's statistics reduce row k of (members, trials) arrays built
    # for one block of members at a time (_block_rows); a C-contiguous row is
    # summed pairwise, like the row alone, in a block of any size. Halves of
    # a row that overflow to opposite infinities sum to nan.
    rows = _block_rows(trials)
    per_stat = np.empty((len(STATS_COLUMNS) - 3, len(portfolio)))
    frequency, mean_profit, variance, mean_payment, mean_reduction = per_stat
    with np.errstate(over="ignore", invalid="ignore"):
        reduction = _reduction(table)
        for lo in range(0, len(portfolio), rows):
            block = slice(lo, lo + rows)
            flags = called[block]
            frequency[block] = flags.mean(axis=1)
            profits = np.where(
                flags, table.profit[block, 1:], table.profit[block, :1]
            )
            mean_profit[block] = profits.mean(axis=1)
            # The steps of profits.var(axis=1, ddof=1), in place of its temporary.
            profits -= mean_profit[block, None]
            profits *= profits
            variance[block] = profits.sum(axis=1) / max(trials - 1, 1)
            del profits
            mean_payment[block] = np.where(
                flags, table.payment[block, 1:], table.payment[block, :1]
            ).mean(axis=1)
            mean_reduction[block] = np.where(
                flags, reduction[block, None], 0.0
            ).mean(axis=1)
    per_member = per_stat.T
    ids = table.consumer_ids
    _check_finite(per_member, lambda k: f"consumer {ids[k]!r}", STATS_COLUMNS[3:])
    stats = tuple(
        ConsumerStats(cid, kind, trials, *row)
        for cid, kind, row in zip(ids, kinds, per_member.tolist())
    )
    return MonteCarloResult(
        stats=stats,
        summaries=summaries,
        records=_Rows(trials, partial(table.records, called)),
        outcomes=table,
        called=called,
    )
