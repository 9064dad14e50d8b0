"""Output checks for the benchmark commands, run outside the timed window.

Each check returns a list of error strings; an empty list means the output
is correct. Numbers are formatted here independently of the CLI code, so a
change to the CLI's formatting shows up as a mismatch.
"""

from __future__ import annotations

import hashlib
import os
import random

from scenario_gen import GeneratedScenario


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def digests(outdir: str) -> dict[str, str]:
    """sha256 of every CSV file the command wrote, keyed by file name."""
    out = {}
    for name in sorted(n for n in os.listdir(outdir) if n.endswith(".csv")):
        h = hashlib.sha256()
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def compare_digests(got: dict[str, str], want: dict[str, str]) -> list[str]:
    if got == want:
        return []
    names = sorted(set(got) | set(want))
    return [
        f"{name}: sha256 {got.get(name, 'missing')[:16]} != expected "
        f"{want.get(name, 'missing')[:16]}"
        for name in names
        if got.get(name) != want.get(name)
    ]


def _read_lines(path: str) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        raise ValueError(f"{os.path.basename(path)} has CR line endings")
    return data.decode("utf-8").split("\n")[:-1]


def check_simulate(
    records_path: str,
    scenario_path: str,
    gen: GeneratedScenario,
    seed: int,
) -> list[str]:
    """Record count is n x trials, and trial 0 and one seeded random trial,
    settled alone through ``allocate_calls`` + ``settle_event``, reproduce
    their CSV rows and summary byte for byte (the seed contract)."""
    import numpy as np
    from drcontract.scenario import load_scenario
    from drcontract.simulation import allocate_calls, collect_reports, settle_event

    stem = records_path[:-4]
    try:
        records = _read_lines(records_path)
        summaries = _read_lines(f"{stem}.summaries.csv")
        stats = _read_lines(f"{stem}.stats.csv")
    except (OSError, ValueError) as exc:
        return [str(exc)]
    n, trials = len(gen.consumers), gen.trials
    errors = []
    for name, lines, rows in (
        ("records", records, n * trials),
        ("summaries", summaries, trials),
        ("stats", stats, n),
    ):
        if len(lines) != rows + 1:
            errors.append(f"{name}: {len(lines) - 1} rows, expected {rows}")
    if errors:
        return errors

    scenario = load_scenario(scenario_path)
    portfolio = scenario.portfolio()
    reports = collect_reports(portfolio, scenario.behaviors)
    seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    for t in sorted({0, random.Random(seed).randrange(trials)}):
        allocation = allocate_calls(
            portfolio, reports, scenario.reduction_target, int(seeds[t])
        )
        settled, summary = settle_event(
            portfolio, reports, allocation, scenario.behaviors
        )
        want = [
            ",".join([
                str(t), rec.consumer_id, str(int(rec.signal)),
                _fmt(rec.report.baseline), _fmt(rec.report.committed),
                _fmt(rec.consumption), _fmt(rec.payment), _fmt(rec.profit),
            ])
            for rec in settled
        ]
        got = records[1 + t * n: 1 + (t + 1) * n]
        bad = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        if bad is not None:
            errors.append(f"trial {t} row {bad}: {got[bad]!r} != {want[bad]!r}")
        want_summary = ",".join([
            str(t), str(summary.called_count), _fmt(summary.total_reduction),
            _fmt(summary.total_payout),
            "true" if summary.under_provisioned else "false",
        ])
        if summaries[1 + t] != want_summary:
            errors.append(
                f"trial {t} summary {summaries[1 + t]!r} != {want_summary!r}"
            )
    return errors


def check_verify(out_path: str, rc: int) -> list[str]:
    """Exit code 0, every suite line PASS, and a final VERIFY PASS."""
    try:
        lines = _read_lines(out_path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    errors = [] if rc == 0 else [f"verify exited {rc}"]
    suites = [line for line in lines if "->" in line]
    if not suites:
        errors.append("verify printed no suite lines")
    errors += [f"suite failed: {line}" for line in suites if not line.endswith("-> PASS")]
    if not lines or lines[-1] != "VERIFY PASS":
        errors.append(f"last line {lines[-1] if lines else ''!r} != 'VERIFY PASS'")
    return errors


def check_sweep(
    out_path: str, gen: GeneratedScenario, start: float, stop: float, steps: int
) -> list[str]:
    """b_hat_star never decreases, the regime flips exactly at p/(p + p2),
    and q_star_r1 (the called consumption) never moves."""
    try:
        lines = _read_lines(out_path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != steps:
        return [f"sweep has {len(rows)} rows, expected {steps}"]
    threshold = gen.threshold
    errors = []
    prev_b = float("-inf")
    for i, row in enumerate(rows):
        value = start + (stop - start) * i / (steps - 1)
        if row[0] != "p_r" or row[1] != _fmt(value):
            errors.append(f"row {i}: swept value {row[:2]} != p_r,{_fmt(value)}")
        b_hat = float(row[2])
        if b_hat < prev_b:
            errors.append(f"row {i}: b_hat_star decreased to {row[2]}")
        prev_b = b_hat
        regime = "below_threshold" if value <= threshold else "above_threshold"
        if row[8] != regime:
            errors.append(f"row {i}: regime {row[8]} at p_r={value}, expected {regime}")
        if row[5] != rows[0][5]:
            errors.append(f"row {i}: q_star_r1 {row[5]} != {rows[0][5]}")
        if len(errors) >= 5:
            break
    return errors
