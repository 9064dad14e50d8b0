"""Command-line front end: sweeps, verification runs, event simulation.

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
Plots are never rendered; CSV is the output contract (fixed column order,
9 significant digits, LF line endings), so every figure can be reproduced
from a sweep or simulation file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import repeat

import numpy as np

from . import __version__
from .core import (
    CallSignal,
    ConsumerParams,
    Prices,
    Report,
    check_call_probability,
    check_consumption_cap,
)
from .oracle import (
    grid_best_reports,
    grid_best_responses,
    max_feasible_case_payoff,
    report_axis,
)
from .scenario import (
    DEFAULT_TRIALS,
    MAX_SWEEP_STEPS,
    SWEEPABLE_PARAMS,
    Scenario,
    ScenarioError,
    SweepSpec,
    load_scenario,
    sweep_over,
)
from .simulation import (
    STATS_COLUMNS,
    SUMMARY_COLUMNS,
    MonteCarloResult,
    PortfolioMember,
    check_record_count,
    run_monte_carlo,
)
from .strategy import (
    best_report,
    call_threshold,
    expected_profit,
    planned_consumption,
    solve,
)
# Not called here: these stay bound in this module because the benchmark's
# tracer (perfbench/spans.py) looks them up by these names.
from .oracle import grid_best_report, grid_best_response  # noqa: F401
from .strategy import best_response_called, best_response_not_called  # noqa: F401

# verify holds every draw as seven numbers, plus a few per signal, for one
# blocked pass; the grid search's working memory is per block of draws, not
# per draw. More draws are almost certainly a typo.
MAX_DRAWS = 10**5

SWEEP_HEADER = (
    "swept_param,value,b_hat_star,q_hat_star,q_star_r0,q_star_r1,"
    "expected_profit,normalized_baseline,regime"
)
RECORDS_HEADER = "trial,consumer_id,r,b_hat,q_hat,q_actual,payment,profit"
SUMMARIES_HEADER = ",".join(SUMMARY_COLUMNS)
STATS_HEADER = ",".join(STATS_COLUMNS)


# The files simulate writes beside its records, at <stem>.<suffix>.csv.
_SIBLINGS = ("summaries", "stats")


# The CSV rows as % templates; "%.9g" gives the digits of f"{v:.9g}".
_SWEEP_ROW = "%s,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s"
_RECORD_ROW = "%s,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n"  # after the trial column
_SUMMARY_ROW = "%d,%d,%.9g,%.9g,%s"
_STATS_ROW = "%s,%s,%d,%.9g,%.9g,%.9g,%.9g,%.9g"


def _check_out(args) -> None:
    """Refuse an output path that is a directory or in a missing one: the
    ``--out`` path and, for simulate, its summaries and stats siblings."""
    if args.out is None:
        return
    paths = [args.out]
    if args.command == "simulate":
        paths += [_sibling_path(args.out, suffix) for suffix in _SIBLINGS]
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"cannot write output file {path!r}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"cannot write output file {path!r}: no such directory")


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    """Write text chunks one by one to ``path``, or to stdout when None."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write output file {path!r}: {exc.strerror}") from None


def _write_lines(path: str | None, lines: list[str]) -> None:
    _write_chunks(path, ["\n".join(lines) + "\n"])


def _log_run(scenario: Scenario) -> None:
    print(
        f"scenario_hash={scenario.source_hash} seed={scenario.seed} "
        f"version={__version__}",
        file=sys.stderr,
    )


def _given(args, *names: str) -> dict:
    """The flags among ``names`` that were given, by name."""
    flags = vars(args)
    return {name: flags[name] for name in names if flags.get(name) is not None}


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi], unbounded above when hi is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite(positive: bool = False):
    """argparse type: a finite float, also > 0 when ``positive``."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or (positive and value <= 0):
            kind = "a finite number > 0" if positive else "a finite number"
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1 (validation)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="drcontract",
        description="Probability-of-call demand-response contract toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario", metavar="PATH", help="scenario file (default: bundled scenario)"
    )
    common.add_argument(
        "--seed", type=_int_in(0), help="override the scenario seed (>= 0)"
    )
    common.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="evaluate closed forms over a parameter range"
    )
    p_sweep.add_argument("--param", choices=SWEEPABLE_PARAMS, help="swept parameter")
    p_sweep.add_argument(
        "--from", dest="start", type=_finite(),
        help="sweep start; give a negative value after '=', as in --from=-1e-3",
    )
    p_sweep.add_argument(
        "--to", dest="stop", type=_finite(),
        help="sweep end; give a negative value after '=', as in --to=-1e-3",
    )
    p_sweep.add_argument(
        "--steps",
        type=_int_in(1, MAX_SWEEP_STEPS),
        help=f"number of sweep points (1 to {MAX_SWEEP_STEPS})",
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="closed form vs oracle consistency suites"
    )
    p_verify.add_argument(
        "--grid-step", type=_finite(positive=True), help="oracle grid step in kWh (> 0)"
    )
    p_verify.add_argument(
        "--draws",
        type=_int_in(1, MAX_DRAWS),
        default=500,
        help=f"random parameter draws (1 to {MAX_DRAWS}, default 500)",
    )
    p_verify.add_argument(
        "--literal-above-threshold",
        action="store_true",
        help="use the uncorrected above-threshold expected-profit variant "
        "(demonstrates its discontinuity; the run fails)",
    )

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo event simulation"
    )
    p_sim.add_argument(
        "--trials", type=_int_in(1), help="override the scenario trial count (>= 1)"
    )
    return parser


def _sweep_row(param: str, value: float, call_probability: float,
               params: ConsumerParams, prices: Prices) -> str:
    solution = best_report(call_probability, params, prices)
    q_r0 = planned_consumption(call_probability, CallSignal.NOT_CALLED, params, prices)
    q_r1 = planned_consumption(call_probability, CallSignal.CALLED, params, prices)
    profit = expected_profit(call_probability, params, prices)
    report = solution.report
    return _SWEEP_ROW % (
        param, value, report.baseline, report.committed, q_r0, q_r1, profit,
        report.baseline / params.baseline, solution.regime.value,
    )


def _sweep_points(
    spec: SweepSpec, member: PortfolioMember, prices: Prices
) -> list[tuple[float, float, ConsumerParams]]:
    """Each swept value with the call probability and parameters it gives
    ``member``, all checked by their owners before any point is solved."""
    name = "call probability" if spec.param == "p_r" else "marginal utility"
    points = []
    for value in spec.values():
        try:
            if spec.param == "p_r":
                check_call_probability(value)
                point = (value, value, member.params)
            else:
                params = member.params._replace(marginal_utility=value)
                check_consumption_cap(params, prices)
                point = (value, member.call_probability, params)
        except ValueError as exc:
            raise ScenarioError(f"swept {name} {value}: {exc}") from None
        points.append(point)
    return points


def cmd_sweep(args, scenario: Scenario) -> int:
    ranges = _given(args, "start", "stop", "steps")
    spec = sweep_over(args.param, scenario.sweep, **ranges)
    member = scenario.members[0]
    if math.isinf(member.params.max_consumption / member.params.baseline):
        raise ScenarioError(
            f"[consumer.{member.consumer_id}]: max_consumption_kwh / baseline_kwh "
            f"must be finite, as it bounds sweep's normalized_baseline"
        )
    points = _sweep_points(spec, member, scenario.prices)
    _log_run(scenario)
    lines = [SWEEP_HEADER] + [
        _sweep_row(spec.param, value, call_probability, params, scenario.prices)
        for value, call_probability, params in points
    ]
    _write_lines(args.out, lines)
    return 0


def _draw_instances(rng, draws: int) -> np.ndarray:
    """``draws`` random instances for the stage-2 suite, one row each.

    A row holds the fields of ConsumerParams, Prices and Report in that
    order. Each row's seven uniforms ``lo + (hi - lo) * u`` take ``u`` from
    the stream in the order that one ``rng.uniform`` call per field would.
    """
    u = iter(rng.random((draws, 7)).T)

    def uniform(lo, hi):
        return lo + (hi - lo) * next(u)

    baseline = uniform(1.0, 20.0)
    gamma = uniform(0.01, 0.2)
    p = uniform(0.05, 0.5)
    p2 = uniform(p, 2 * p)
    max_consumption = baseline + p / gamma + uniform(1.0, 10.0)
    reported = uniform(0.0, max_consumption)
    committed = uniform(0.0, reported)
    return np.stack(
        [baseline, gamma, max_consumption, p, p2, reported, committed], axis=1
    )


def _instance(numbers) -> tuple[ConsumerParams, Prices, Report]:
    """The objects of one drawn row's seven numbers, or of every drawn row
    from the seven columns (the rows transposed)."""
    return ConsumerParams(*numbers[:3]), Prices(*numbers[3:5]), Report(*numbers[5:])


def _verdict(title: str, *measures) -> tuple[bool, str]:
    """One suite's verdict and report line. Each measure is a ``{:.3g}``
    template, its deviations (an array or a float) and its bound; the suite
    passes when every |deviation| is at most its bound (a NaN fails), and
    each template shows the largest |deviation|, exact in any order."""
    ok, shown = True, []
    for template, deviations, bound in measures:
        worst = float(np.abs(deviations).max())
        ok = ok and worst <= bound
        shown.append(template.format(worst))
    return ok, f"{title}: {', '.join(shown)} -> {'PASS' if ok else 'FAIL'}"


def run_verification(
    scenario: Scenario, draws: int, literal_above_threshold: bool = False
) -> tuple[bool, list[str]]:
    """Run all consistency suites at the scenario's grid step and seed;
    return whether every tolerance holds, and the report lines.

    Every grid bound is refused before any suite runs: the first
    consumer's two-stage axis first, then, after the draws, the stage-2
    bounds of the drawn rows.
    """
    step, seed = scenario.grid_step, scenario.seed
    member = scenario.members[0]
    report_axis(member.params, scenario.prices, step)
    # Every instance is drawn at once; the constructors check the columns.
    drawn = _draw_instances(np.random.default_rng(seed), draws)
    params, prices, report = _instance(drawn.T)
    closed = solve(params, prices, report=report)
    signals = (CallSignal.NOT_CALLED, CallSignal.CALLED)
    oracle_q, oracle_payoff = grid_best_responses(report, signals, params, prices, step)
    cases = np.stack(
        [max_feasible_case_payoff(report, s, params, prices) for s in signals],
        axis=1,
    )
    payoff_dev = np.abs(closed.payoff - oracle_payoff)
    case_dev = np.abs(cases - oracle_payoff)
    verdicts = [
        _verdict(
            f"stage-2 closed form vs grid oracle ({draws} draws x 2 signals)",
            ("max payoff dev {:.3g}", payoff_dev, 1e-6),
            ("max q dev {:.3g} kWh", closed.consumption - oracle_q, 2 * step),
        ),
        _verdict(
            "analytic case table vs grid oracle", ("max dev {:.3g}", case_dev, 1e-9)
        ),
    ]
    # The worst draw is the first (draw, signal) with the largest deviation.
    worst_dev = np.maximum(payoff_dev, case_dev)
    k, s = np.unravel_index(np.argmax(worst_dev), worst_dev.shape)
    if not all(ok for ok, _ in verdicts) and worst_dev[k, s] > 0:
        worst = (*_instance(drawn[k].tolist()), int(s))
        # This line names the draw; it passes or fails nothing.
        verdicts.append((True, f"offending draw (seed={seed}): {worst}"))

    threshold = call_threshold(scenario.prices)
    for consumer in scenario.members:
        at, just_above = (
            expected_profit(p_r, consumer.params, scenario.prices,
                            literal_above_threshold=literal_above_threshold)
            for p_r in (threshold, float(np.nextafter(threshold, 1.0)))
        )
        verdicts.append(_verdict(
            f"expected-profit continuity at threshold ({consumer.consumer_id})",
            ("|jump| {:.3g}", just_above - at, 1e-9),
        ))

    probabilities = [k / 10 for k in range(11)]
    oracle = grid_best_reports(probabilities, member.params, scenario.prices, step)
    two_stage = solve(member.params, scenario.prices, call_probability=probabilities)
    verdicts.append(_verdict(
        f"two-stage oracle vs closed form (11 call probabilities, "
        f"{member.consumer_id})",
        ("max baseline dev {:.3g} kWh",
         two_stage.report_baseline - [o.report.baseline for o in oracle], 2 * step),
        ("max profit dev {:.3g}",
         two_stage.expected_profit - [o.expected_profit for o in oracle], 1e-4),
    ))
    return all(ok for ok, _ in verdicts), [line for _, line in verdicts]


def cmd_verify(args, scenario: Scenario) -> int:
    # The header follows the suites, so a refused grid prints only the one
    # drcontract: line, as sweep and simulate refuse theirs.
    ok, lines = run_verification(
        scenario, args.draws, literal_above_threshold=args.literal_above_threshold
    )
    _log_run(scenario)
    lines.append("VERIFY " + ("PASS" if ok else "FAIL"))
    _write_lines(args.out, lines)
    return 0 if ok else 2


def _sibling_path(out: str, suffix: str) -> str:
    stem = out[:-4] if out.endswith(".csv") else out
    return f"{stem}.{suffix}.csv"


def _record_chunks(result: MonteCarloResult) -> Iterator[str]:
    """The records CSV: the header, then one chunk of rows per trial.

    Each consumer's row after the trial column is formatted once per signal
    by :data:`_RECORD_ROW`, into one array per signal; trial t's chunk picks
    one per consumer by ``result.called[:, t]``. Every row ends in a
    newline, so joining them with the trial prefix puts the prefix in front
    of each row.
    """
    table = result.outcomes
    report = table.report
    not_called, called = (
        np.array([
            _RECORD_ROW % cells
            for cells in zip(
                table.consumer_ids,
                repeat(s),
                report.baseline.tolist(),
                report.committed.tolist(),
                table.consumption[:, s].tolist(),
                table.payment[:, s].tolist(),
                table.profit[:, s].tolist(),
            )
        ], dtype=object)
        for s in (0, 1)
    )
    yield RECORDS_HEADER + "\n"
    # Each trial's flags are read in place, a strided column of result.called.
    for t, flags in enumerate(result.called.T):
        prefix = f"{t},"
        yield prefix + prefix.join(np.where(flags, called, not_called).tolist())


def _summary_lines(result: MonteCarloResult) -> list[str]:
    """The summaries CSV, one line per trial."""
    return [SUMMARIES_HEADER] + [
        _SUMMARY_ROW % (t, *s[:3], "true" if s.under_provisioned else "false")
        for t, s in enumerate(result.summaries)
    ]


def _stats_lines(result: MonteCarloResult) -> list[str]:
    """The stats CSV, one line per consumer."""
    return [STATS_HEADER] + [
        _STATS_ROW % (s.consumer_id, s.behavior.value, *s[2:]) for s in result.stats
    ]


def cmd_simulate(args, scenario: Scenario) -> int:
    # A trials key was checked on load, so only the flag or the default can
    # fail here.
    source = (
        "--trials" if args.trials is not None
        else f"key 'trials' in [simulation] (default {DEFAULT_TRIALS})"
    )
    check_record_count(len(scenario.members), scenario.trials, source)
    _log_run(scenario)
    result = run_monte_carlo(
        scenario.portfolio(),
        scenario.behaviors,
        trials=scenario.trials,
        reduction_target=scenario.reduction_target,
        master_seed=scenario.seed,
    )
    _write_chunks(args.out, _record_chunks(result))
    for suffix, lines in zip(_SIBLINGS, (_summary_lines(result), _stats_lines(result))):
        _write_lines(args.out and _sibling_path(args.out, suffix), lines)
    print(
        f"reproduce with seed={scenario.seed} trials={scenario.trials}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"sweep": cmd_sweep, "verify": cmd_verify, "simulate": cmd_simulate}
    try:
        _check_out(args)
        scenario = load_scenario(args.scenario)._replace(
            **_given(args, "seed", "grid_step", "trials")
        )
        return handlers[args.command](args, scenario)
    except ValueError as exc:  # ScenarioError included
        print(f"drcontract: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
