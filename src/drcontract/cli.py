"""Command-line front end: sweeps, verification runs, event simulation.

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
Plots are never rendered; CSV is the output contract (fixed column order,
9 significant digits, LF line endings), so every figure can be reproduced
from a sweep or simulation file.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import __version__
from .core import CallSignal, ConsumerParams, Prices, Report, check_consumption_cap
from .oracle import GridSpec, grid_best_reports, grid_best_responses, max_feasible_case_payoff
from .scenario import (
    DEFAULT_TRIALS,
    MAX_SWEEP_STEPS,
    Scenario,
    ScenarioError,
    SweepSpec,
    default_sweep,
    load_scenario,
)
from .simulation import MonteCarloResult, check_record_count, run_monte_carlo
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
SUMMARIES_HEADER = (
    "trial,called_count,total_reduction_kwh,total_payout_usd,under_provisioned"
)
STATS_HEADER = (
    "consumer_id,behavior,trials,call_frequency,mean_profit,profit_variance,"
    "mean_payment,mean_reduction_kwh"
)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    """Write text chunks one by one to ``path``, or to stdout when None."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _write_lines(path: str | None, lines: list[str]) -> None:
    _write_chunks(path, ["\n".join(lines) + "\n"])


def _log_run(scenario: Scenario, seed: int) -> None:
    print(
        f"scenario_hash={scenario.source_hash} seed={seed} version={__version__}",
        file=sys.stderr,
    )


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
    p_sweep.add_argument("--param", choices=("p_r", "gamma"), help="swept parameter")
    p_sweep.add_argument("--from", dest="start", type=_finite(), help="sweep start")
    p_sweep.add_argument("--to", dest="stop", type=_finite(), help="sweep end")
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


def _sweep_spec(scenario: Scenario, args) -> SweepSpec:
    base = scenario.sweep
    if args.param is not None and (base is None or base.param != args.param):
        base = default_sweep(args.param)
    if base is None:
        base = default_sweep("p_r")
    return SweepSpec(
        param=base.param,
        start=args.start if args.start is not None else base.start,
        stop=args.stop if args.stop is not None else base.stop,
        steps=args.steps if args.steps is not None else base.steps,
    )


def _sweep_row(param: str, value: float, call_probability: float,
               params: ConsumerParams, prices: Prices) -> str:
    solution = best_report(call_probability, params, prices)
    q_r0 = planned_consumption(call_probability, CallSignal.NOT_CALLED, params, prices)
    q_r1 = planned_consumption(call_probability, CallSignal.CALLED, params, prices)
    profit = expected_profit(call_probability, params, prices)
    cells = [
        param,
        _fmt(value),
        _fmt(solution.report.baseline),
        _fmt(solution.report.committed),
        _fmt(q_r0),
        _fmt(q_r1),
        _fmt(profit),
        _fmt(solution.report.baseline / params.baseline),
        solution.regime.value,
    ]
    return ",".join(cells)


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    _log_run(scenario, seed)
    spec = _sweep_spec(scenario, args)
    member = scenario.members[0]
    lines = [SWEEP_HEADER]
    for value in spec.values():
        if spec.param == "p_r":
            if not 0 <= value <= 1:
                raise ScenarioError(f"swept call probability {value} outside [0, 1]")
            lines.append(
                _sweep_row("p_r", value, value, member.params, scenario.prices)
            )
        else:
            if value <= 0:
                raise ScenarioError(f"swept marginal utility {value} must be > 0")
            params = replace(member.params, marginal_utility=value)
            check_consumption_cap(params, scenario.prices)
            lines.append(
                _sweep_row(
                    "gamma", value, member.call_probability, params, scenario.prices
                )
            )
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


def _instance(numbers: np.ndarray) -> tuple[ConsumerParams, Prices, Report]:
    """The objects of one drawn row; their constructors check it."""
    numbers = numbers.tolist()
    return ConsumerParams(*numbers[:3]), Prices(*numbers[3:5]), Report(*numbers[5:])


def run_verification(
    scenario: Scenario,
    grid_step: float,
    draws: int,
    seed: int,
    literal_above_threshold: bool = False,
    echo=print,
) -> bool:
    """Run all consistency suites; return True when every tolerance holds."""
    ok = True
    # The two-stage oracle runs first, so that a grid too fine for its
    # quadratic search is refused before any draw; it is reported last.
    member = scenario.members[0]
    probabilities = [k / 10 for k in range(11)]
    report_grid = GridSpec.cover(member.params.max_consumption, grid_step)
    oracle_reports = grid_best_reports(
        probabilities, member.params, scenario.prices, report_grid
    )
    # Every instance is drawn at once and checked as the constructors of its
    # three objects would check it; the first bad row is rebuilt to raise
    # their error.
    drawn = _draw_instances(np.random.default_rng(seed), draws)
    b, g, q_max, p, p2, reported, committed = drawn.T
    valid = (
        np.isfinite(drawn[:, :5]).all(axis=1)
        & (b > 0) & (g > 0) & (q_max > 0)
        & (p >= 0) & (p2 >= p) & (p2 > 0)
        & (0 <= committed) & (committed <= reported)
    )
    if not valid.all():
        _instance(drawn[np.argmin(valid)])
    params = SimpleNamespace(baseline=b, marginal_utility=g, max_consumption=q_max)
    prices = SimpleNamespace(energy_price=p, incentive_price=p2)
    report = SimpleNamespace(baseline=reported, committed=committed)
    closed = solve(params, prices, report=report)
    signals = (CallSignal.NOT_CALLED, CallSignal.CALLED)
    oracle_q, oracle_payoff = grid_best_responses(
        report, signals, params, prices, GridSpec.cover(q_max.max(), grid_step)
    )
    cases = np.stack(
        [max_feasible_case_payoff(report, s, params, prices) for s in signals],
        axis=1,
    )
    payoff_dev = np.abs(closed.payoff - oracle_payoff)
    case_dev = np.abs(cases - oracle_payoff)
    max_payoff_dev = float(payoff_dev.max())
    max_q_dev = float(np.abs(closed.consumption - oracle_q).max())
    max_case_dev = float(case_dev.max())
    # The worst draw is the first (draw, signal) with the largest deviation.
    worst_dev = np.maximum(payoff_dev, case_dev)
    k, s = np.unravel_index(np.argmax(worst_dev), worst_dev.shape)
    worst = (*_instance(drawn[k]), int(s)) if worst_dev[k, s] > 0 else None
    stage2_ok = max_payoff_dev <= 1e-6 and max_q_dev <= 2 * grid_step
    cases_ok = max_case_dev <= 1e-9
    echo(
        f"stage-2 closed form vs grid oracle ({draws} draws x 2 signals): "
        f"max payoff dev {max_payoff_dev:.3g}, max q dev {max_q_dev:.3g} kWh "
        f"-> {'PASS' if stage2_ok else 'FAIL'}"
    )
    echo(
        f"analytic case table vs grid oracle: max dev {max_case_dev:.3g} "
        f"-> {'PASS' if cases_ok else 'FAIL'}"
    )
    if not (stage2_ok and cases_ok) and worst is not None:
        echo(f"offending draw (seed={seed}): {worst}")
    ok = ok and stage2_ok and cases_ok

    for consumer in scenario.members:
        threshold = call_threshold(scenario.prices)
        at = expected_profit(
            threshold, consumer.params, scenario.prices,
            literal_above_threshold=literal_above_threshold,
        )
        just_above = expected_profit(
            float(np.nextafter(threshold, 1.0)), consumer.params, scenario.prices,
            literal_above_threshold=literal_above_threshold,
        )
        jump = abs(just_above - at)
        cont_ok = jump <= 1e-9
        echo(
            f"expected-profit continuity at threshold ({consumer.consumer_id}): "
            f"|jump| {jump:.3g} -> {'PASS' if cont_ok else 'FAIL'}"
        )
        ok = ok and cont_ok

    closed_reports = solve(
        member.params, scenario.prices, call_probability=np.array(probabilities)
    )
    max_b_dev = 0.0
    max_e_dev = 0.0
    for baseline, profit, oracle in zip(
        closed_reports.report_baseline.tolist(),
        closed_reports.expected_profit.tolist(),
        oracle_reports,
    ):
        max_b_dev = max(max_b_dev, abs(baseline - oracle.report.baseline))
        max_e_dev = max(max_e_dev, abs(profit - oracle.expected_profit))
    report_ok = max_b_dev <= 2 * grid_step and max_e_dev <= 1e-4
    echo(
        f"two-stage oracle vs closed form (11 call probabilities, "
        f"{member.consumer_id}): max baseline dev {max_b_dev:.3g} kWh, "
        f"max profit dev {max_e_dev:.3g} -> {'PASS' if report_ok else 'FAIL'}"
    )
    ok = ok and report_ok
    return ok


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    grid_step = args.grid_step if args.grid_step is not None else scenario.grid_step
    _log_run(scenario, seed)
    lines: list[str] = []
    ok = run_verification(
        scenario,
        grid_step,
        args.draws,
        seed,
        literal_above_threshold=args.literal_above_threshold,
        echo=lines.append,
    )
    lines.append("VERIFY " + ("PASS" if ok else "FAIL"))
    _write_lines(args.out, lines)
    return 0 if ok else 2


def _sibling_path(out: str, suffix: str) -> str:
    stem = out[:-4] if out.endswith(".csv") else out
    return f"{stem}.{suffix}.csv"


def _record_chunks(result: MonteCarloResult) -> Iterator[str]:
    """The records CSV: the header, then one chunk of rows per trial.

    Each consumer's row after the trial column is formatted once per signal,
    into an ``(n, 2)`` array; trial t's chunk picks one per consumer by
    ``result.called[:, t]``. Every row ends in a newline, so joining them
    with the trial prefix puts the prefix in front of each row.
    """
    table = result.outcomes
    rows = [
        [
            ",".join(
                [cid, str(s), _fmt(report.baseline), _fmt(report.committed),
                 _fmt(q[s]), _fmt(paid[s]), _fmt(gained[s])]
            ) + "\n"
            for s in (0, 1)
        ]
        for cid, report, q, paid, gained in zip(
            table.consumer_ids,
            table.reports,
            table.consumption.tolist(),
            table.payment.tolist(),
            table.profit.tolist(),
        )
    ]
    rows = np.array(rows, dtype=object)
    yield RECORDS_HEADER + "\n"
    for t, called in enumerate(result.called.T):
        prefix = f"{t},"
        yield prefix + prefix.join(np.where(called, rows[:, 1], rows[:, 0]).tolist())


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    if args.trials is not None:
        trials, source = args.trials, "--trials"
    else:
        # A trials key was checked on load, so only the default can fail here.
        trials = scenario.trials
        source = f"key 'trials' in [simulation] (default {DEFAULT_TRIALS})"
    check_record_count(len(scenario.members), trials, source)
    _log_run(scenario, seed)
    result = run_monte_carlo(
        scenario.portfolio(),
        scenario.behaviors,
        trials=trials,
        reduction_target=scenario.reduction_target,
        master_seed=seed,
    )
    summaries = [SUMMARIES_HEADER] + [
        f"{t},{s.called_count},{_fmt(s.total_reduction)},{_fmt(s.total_payout)},"
        + ("true" if s.under_provisioned else "false")
        for t, s in enumerate(result.summaries)
    ]
    stats = [STATS_HEADER] + [
        ",".join(
            [s.consumer_id, s.behavior.value, str(s.trials)]
            + [_fmt(v) for v in (s.call_frequency, s.mean_profit, s.profit_variance,
                                 s.mean_payment, s.mean_reduction)]
        )
        for s in result.stats
    ]
    _write_chunks(args.out, _record_chunks(result))
    for suffix, lines in (("summaries", summaries), ("stats", stats)):
        _write_lines(args.out and _sibling_path(args.out, suffix), lines)
    print(f"reproduce with seed={seed} trials={trials}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"sweep": cmd_sweep, "verify": cmd_verify, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"drcontract: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"drcontract: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
