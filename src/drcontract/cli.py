"""Command-line front end: sweeps, verification runs, event simulation.

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
Plots are never rendered; CSV is the output contract (fixed column order,
9 significant digits, LF line endings), so every figure can be reproduced
from a sweep or simulation file.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import __version__
from .core import CallSignal, ConsumerParams, Prices, Report, check_consumption_cap
from .oracle import GridSpec, grid_best_reports, grid_best_responses, max_feasible_case_payoff
from .scenario import (
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

# Each verify draw costs a grid search, and every draw is held (seven numbers)
# for the one closed-form pass; more draws are almost certainly a typo.
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
    p_sweep.add_argument("--from", dest="start", type=float, help="sweep start")
    p_sweep.add_argument("--to", dest="stop", type=float, help="sweep end")
    p_sweep.add_argument(
        "--steps",
        type=_int_in(1, MAX_SWEEP_STEPS),
        help=f"number of sweep points (1 to {MAX_SWEEP_STEPS})",
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="closed form vs oracle consistency suites"
    )
    p_verify.add_argument(
        "--grid-step", type=float, default=None, help="oracle grid step in kWh"
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
    p_sim.add_argument("--trials", type=int, help="override scenario trial count")
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


def _draw_instance(rng) -> tuple[ConsumerParams, Prices, Report]:
    baseline = rng.uniform(1.0, 20.0)
    gamma = rng.uniform(0.01, 0.2)
    p = rng.uniform(0.05, 0.5)
    p2 = rng.uniform(p, 2 * p)
    params = ConsumerParams(
        baseline=baseline,
        marginal_utility=gamma,
        max_consumption=baseline + p / gamma + rng.uniform(1.0, 10.0),
    )
    prices = Prices(energy_price=p, incentive_price=p2)
    reported = rng.uniform(0.0, params.max_consumption)
    report = Report(baseline=reported, committed=rng.uniform(0.0, reported))
    return params, prices, report


def _instance_numbers(params: ConsumerParams, prices: Prices, report: Report):
    """The fields of one drawn instance, in the order of their types."""
    return (
        params.baseline, params.marginal_utility, params.max_consumption,
        prices.energy_price, prices.incentive_price,
        report.baseline, report.committed,
    )


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
    rng = np.random.default_rng(seed)
    # Every instance is drawn first, from the same stream, and solved in one
    # kernel call. Each is kept as a row of its seven numbers, a fraction of
    # the memory of its three objects, and rebuilt for the oracle.
    drawn = np.fromiter(
        (_instance_numbers(*_draw_instance(rng)) for _ in range(draws)),
        dtype=(float, 7),
        count=draws,
    )
    b, g, q_max, p, p2, reported, committed = drawn.T
    closed = solve(
        SimpleNamespace(baseline=b, marginal_utility=g, max_consumption=q_max),
        SimpleNamespace(energy_price=p, incentive_price=p2),
        report=SimpleNamespace(baseline=reported, committed=committed),
    )

    max_payoff_dev = 0.0
    max_q_dev = 0.0
    max_case_dev = 0.0
    worst: tuple | None = None
    signals = (CallSignal.NOT_CALLED, CallSignal.CALLED)
    for k in range(draws):
        numbers = drawn[k].tolist()
        params = ConsumerParams(*numbers[:3])
        prices = Prices(*numbers[3:5])
        report = Report(*numbers[5:])
        grid = GridSpec.cover(params.max_consumption, grid_step)
        oracles = grid_best_responses(report, signals, params, prices, grid)
        for signal, oracle in zip(signals, oracles):
            payoff_dev = abs(float(closed.payoff[k, signal]) - oracle.payoff)
            q_dev = abs(float(closed.consumption[k, signal]) - oracle.consumption)
            case_dev = abs(
                max_feasible_case_payoff(report, signal, params, prices)
                - oracle.payoff
            )
            if max(payoff_dev, case_dev) > max(max_payoff_dev, max_case_dev):
                worst = (params, prices, report, int(signal))
            max_payoff_dev = max(max_payoff_dev, payoff_dev)
            max_q_dev = max(max_q_dev, q_dev)
            max_case_dev = max(max_case_dev, case_dev)
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

    Each consumer's row after the trial column is formatted once per signal;
    trial t's chunk picks one of the two by ``result.called[:, t]``.
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
    yield RECORDS_HEADER + "\n"
    for t in range(result.trials):
        prefix = f"{t},"
        picked = zip(rows, result.called[:, t].tolist())
        yield "".join([prefix + row[called] for row, called in picked])


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    trials = args.trials if args.trials is not None else scenario.trials
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {trials}")
    if args.trials is not None:
        check_record_count(len(scenario.members), trials, "--trials")
    _log_run(scenario, seed)
    result = run_monte_carlo(
        scenario.portfolio(),
        scenario.behaviors,
        trials=trials,
        reduction_target=scenario.reduction_target,
        master_seed=seed,
    )
    summaries = [SUMMARIES_HEADER]
    for trial, summary in enumerate(result.summaries):
        summaries.append(
            ",".join(
                [
                    str(trial),
                    str(summary.called_count),
                    _fmt(summary.total_reduction),
                    _fmt(summary.total_payout),
                    "true" if summary.under_provisioned else "false",
                ]
            )
        )
    stats = [STATS_HEADER]
    for s in result.stats:
        stats.append(
            ",".join(
                [
                    s.consumer_id,
                    s.behavior.value,
                    str(s.trials),
                    _fmt(s.call_frequency),
                    _fmt(s.mean_profit),
                    _fmt(s.profit_variance),
                    _fmt(s.mean_payment),
                    _fmt(s.mean_reduction),
                ]
            )
        )
    _write_chunks(args.out, _record_chunks(result))
    if args.out is not None:
        _write_lines(_sibling_path(args.out, "summaries"), summaries)
        _write_lines(_sibling_path(args.out, "stats"), stats)
    else:
        _write_lines(None, summaries)
        _write_lines(None, stats)
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
