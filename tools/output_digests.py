"""Digests of everything the drcontract CLI prints and writes, over a fixed
matrix of commands, as one JSON object.

Run from the root of a checkout:

    PYTHONPATH=src python tools/output_digests.py > digests.json

Each configuration runs ``drcontract.cli.main`` in-process, in a fresh
temporary working directory, and records the sha256 of every file the
command writes there, its stdout, its stderr and its exit code. Two
checkouts whose outputs are byte-identical print the same JSON, so a
refactor is checked by running this at both and comparing with ``diff``.

``tests/output_digests.json`` holds this output for the current tree, and a
tier-1 test recomputes it and names every configuration that differs. A
change that alters an output regenerates that file,

    PYTHONPATH=src python tools/output_digests.py > tests/output_digests.json

and lists the changed configurations in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from drcontract.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from mixed_scenario import mixed_scenario_text  # noqa: E402

GOOD = """\
[prices]
price_usd_per_kwh = 0.26
incentive_usd_per_kwh = 0.30

[consumer.a]
baseline_kwh = 8.0
marginal_utility_usd_per_kwh2 = 0.05
max_consumption_kwh = 16.0
call_probability = 0.1
"""
CONSUMER = GOOD[GOOD.index("[consumer.a]"):]
# A household with a 0.2 kWh cap: its two-stage axis at steps 1e-5 and
# 6.5e-6 stays under the report-pair bound, while verify's drawn stage-2
# rows, with caps of up to about 80 kWh, do not stay under the stage-2 total
# bound at 1e-5, nor under 10^7 points on the largest row at 6.5e-6.
SMALL_CAP = (
    GOOD.replace("= 8.0", "= 0.1").replace("= 0.05", "= 10").replace("= 16.0", "= 0.2")
)

# A consumer whose payoffs overflow, and prices that overflow any consumer's:
# each breaks only the payoff-term rule.
BIG_CONSUMER = (
    GOOD.replace("= 8.0", "= 1e200").replace("= 0.05", "= 1")
    .replace("= 16.0", "= 2e200")
)
BIG_PRICES = (
    GOOD.replace("= 0.26", "= 1e300").replace("= 0.30", "= 1e300")
    .replace("= 0.05", "= 1e300")
)
# A consumer whose profit variance overflows over the trials, and twenty
# whose payouts overflow when summed over one trial: each passes the loader.
STATS_OVERFLOW = (
    GOOD.replace("= 0.26", "= 0").replace("= 0.30", "= 1e10")
    .replace("= 8.0", "= 1").replace("= 0.05", "= 1").replace("= 16.0", "= 1e150")
    .replace("= 0.1", "= 0.5")
)
PAYOUT_OVERFLOW = STATS_OVERFLOW[:STATS_OVERFLOW.index("[consumer.a]")] + "".join(
    STATS_OVERFLOW[STATS_OVERFLOW.index("[consumer.a]"):]
    .replace("consumer.a", f"consumer.c{k}")
    .replace("= 1e150", "= 1.1e297").replace("= 0.5", "= 1")
    for k in range(20)
)

# One scenario per rule of the loader, each breaking only that rule.
BAD_SCENARIOS = {
    "malformed": GOOD + "just words\n",
    "no-prices": CONSUMER,
    "no-consumer": GOOD[:GOOD.index("[consumer.a]")],
    "missing-key": GOOD.replace("baseline_kwh = 8.0\n", ""),
    "not-a-number": GOOD.replace("= 8.0", "= eight"),
    "not-finite": GOOD.replace("= 0.05", "= inf"),
    "bad-prices": GOOD.replace("= 0.30", "= 0.2"),
    "bad-consumer-id": GOOD.replace("[consumer.a]", "[consumer.a,b]"),
    "bad-params": GOOD.replace("= 0.05", "= 0"),
    "cap-below-saturation": GOOD.replace("= 16.0", "= 13.0"),
    "bad-call-probability": GOOD.replace("= 0.1", "= 1.5"),
    "unknown-behavior": GOOD + "behavior = freeloader\n",
    "trials-not-integer": GOOD + "[simulation]\ntrials = 1.5\n",
    "trials-below-one": GOOD + "[simulation]\ntrials = 0\n",
    "too-many-records": GOOD + "[simulation]\ntrials = 1" + "0" * 400 + "\n",
    "negative-seed": GOOD + "[simulation]\nseed = -5\n",
    "grid-step-not-positive": GOOD + "[simulation]\ngrid_step_kwh = 0\n",
    "negative-reduction-target": GOOD + "[simulation]\nreduction_target_kwh = -1\n",
    "unknown-sweep-param": GOOD + "[sweep]\nparam = q_max\n",
    "sweep-steps-out-of-range": GOOD + "[sweep]\nsteps = 0\n",
    "sweep-range-reversed": GOOD + "[sweep]\nfrom = 0.9\nto = 0.1\n",
    "unknown-key-prices": GOOD.replace(
        "[consumer.a]", "price_usd_per_kwh2 = 0.26\n\n[consumer.a]"
    ),
    "unknown-key-consumer": GOOD + "behaviour = truthful\n",
    "unknown-key-simulation": GOOD + "[simulation]\ntrails = 5\n",
    "unknown-key-sweep": GOOD + "[sweep]\nbehavior = rational\n",
    "unknown-section": GOOD + "[simulaton]\ntrials = 5\n",
}

# Each per-consumer rule broken by the second of three consumers, which the
# loader reads and checks as columns; the message names that section.
PER_CONSUMER_RULES = (
    "missing-key", "not-a-number", "not-finite", "bad-consumer-id", "bad-params",
    "cap-below-saturation", "bad-call-probability", "unknown-behavior",
)
SECOND_OF_THREE = {
    rule: GOOD
    + bad[bad.index("[consumer."):].replace("[consumer.a", "[consumer.b")
    + CONSUMER.replace("consumer.a", "consumer.c")
    for rule, bad in (
        *((rule, BAD_SCENARIOS[rule]) for rule in PER_CONSUMER_RULES),
        ("payoff-overflow", BIG_CONSUMER),
    )
}

# name -> (argv, text of scenario.ini or None)
CONFIGURATIONS: dict[str, tuple[list[str], str | None]] = {
    "simulate-default": (["simulate", "--out", "out.csv"], None),
    **{
        f"simulate-mixed-seed-{seed}": (
            ["simulate", "--scenario", "scenario.ini", "--seed", seed,
             "--out", "out.csv"],
            mixed_scenario_text(),
        )
        for seed in ("5", "77")
    },
    # Two consumers, one of which takes its call probability from [DEFAULT],
    # so configparser reads the scenario.
    "simulate-default-section": (
        ["simulate", "--scenario", "scenario.ini", "--trials", "50",
         "--out", "out.csv"],
        "[DEFAULT]\ncall_probability = 0.3\n\n"
        + GOOD.replace("call_probability = 0.1\n", "")
        + CONSUMER.replace("consumer.a", "consumer.b"),
    ),
    "simulate-mixed-2000x250": (
        ["simulate", "--scenario", "scenario.ini", "--out", "out.csv"],
        mixed_scenario_text(2000, 250),
    ),
    "sweep-default": (["sweep", "--out", "out.csv"], None),
    "sweep-gamma": (
        ["sweep", "--param", "gamma", "--from", "0.033", "--to", "0.2",
         "--steps", "501"],
        None,
    ),
    # Flags over a scenario's own [sweep]: the same parameter keeps its
    # range, another one starts from its default range.
    **{
        f"sweep-flags-over-scenario-{param}": (
            ["sweep", "--scenario", "scenario.ini", "--param", param,
             "--from", "0.05", "--out", "out.csv"],
            GOOD + "[sweep]\nparam = gamma\nto = 0.1\nsteps = 7\n",
        )
        for param in ("gamma", "p_r")
    },
    "sweep-point-breaks-cap": (
        ["sweep", "--scenario", "scenario.ini", "--out", "out.csv"],
        GOOD + "[sweep]\nparam = gamma\nfrom = 0.001\n",
    ),
    "simulate-trials-flag-over-bound": (
        ["simulate", "--scenario", "scenario.ini", "--trials", "100000",
         "--out", "out.csv"],
        mixed_scenario_text(),
    ),
    "simulate-default-trials-over-bound": (
        ["simulate", "--scenario", "scenario.ini", "--out", "out.csv"],
        GOOD + "".join(
            CONSUMER.replace("consumer.a", f"consumer.c{k}") for k in range(10001)
        ),
    ),
    **{
        f"verify-seed-{seed}": (
            ["verify", "--draws", "300", "--grid-step", "0.03", "--seed", seed,
             "--out", "verify.txt"],
            None,
        )
        for seed in ("42", "8604")
    },
    "verify-literal": (
        ["verify", "--draws", "300", "--grid-step", "0.03",
         "--literal-above-threshold", "--out", "verify.txt"],
        None,
    ),
    # Drawn stage-2 rows of up to about 40 000 points, longer than numpy's
    # default ufunc buffer of 8192 elements; at step 0.03 every row is
    # shorter than it.
    "verify-long-rows": (
        ["verify", "--draws", "200", "--grid-step", "0.002", "--seed", "3",
         "--out", "verify.txt"],
        None,
    ),
    # A coarse grid puts many drawn kinks on a grid point or ties them with
    # one, so the stage-2 search's tie rule decides many rows. The two-stage
    # suite is too coarse to pass at this step, so verify exits 2.
    "verify-coarse-grid": (
        ["verify", "--draws", "500", "--grid-step", "0.25", "--seed", "5",
         "--out", "verify.txt"],
        None,
    ),
    # The four bounds on verify's grid work, each refused.
    **{
        f"verify-{bound}-bound": (
            ["verify", "--grid-step", step, "--out", "verify.txt"], None
        )
        for bound, step in (("pair", "1e-4"), ("points", "1e-6"))
    },
    **{
        f"verify-{bound}-bound": (
            ["verify", "--scenario", "scenario.ini", "--grid-step", step,
             "--draws", "500", "--seed", "7", "--out", "verify.txt"],
            SMALL_CAP,
        )
        for bound, step in (("stage2", "1e-5"), ("drawn-points", "6.5e-6"))
    },
    # The payoff-term rule, each refused on load.
    "payoff-overflow-sweep": (
        ["sweep", "--scenario", "scenario.ini", "--steps", "3", "--out", "out.csv"],
        BIG_CONSUMER,
    ),
    "payoff-overflow-simulate": (
        ["simulate", "--scenario", "scenario.ini", "--trials", "3",
         "--out", "out.csv"],
        BIG_CONSUMER,
    ),
    "payoff-overflow-verify": (
        ["verify", "--scenario", "scenario.ini", "--out", "verify.txt"],
        BIG_PRICES,
    ),
    # Statistics and event totals that overflow, each refused after the run.
    "stats-overflow-simulate": (
        ["simulate", "--scenario", "scenario.ini", "--trials", "4",
         "--out", "out.csv"],
        STATS_OVERFLOW,
    ),
    "payout-overflow-simulate": (
        ["simulate", "--scenario", "scenario.ini", "--trials", "2",
         "--out", "out.csv"],
        PAYOUT_OVERFLOW,
    ),
    "unreadable-scenario": (["simulate", "--scenario", "missing.ini"], None),
    **{
        f"bad-second-of-three-{rule}-simulate": (
            ["simulate", "--scenario", "scenario.ini", "--out", "out.csv"], text
        )
        for rule, text in SECOND_OF_THREE.items()
    },
    **{
        f"bad-{rule}-{command}": (
            [command, "--scenario", "scenario.ini", "--out", "out.csv"], text
        )
        for rule, text in BAD_SCENARIOS.items()
        for command in ("sweep", "verify", "simulate")
    },
}


def run(argv: list[str], scenario: str | None) -> dict:
    """The digest of one command run in a fresh working directory."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if scenario is not None:
                Path("scenario.ini").write_text(scenario, encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            files = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(".").iterdir())
                if path.name != "scenario.ini"
            }
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


def digests(names=None) -> dict:
    """Each named configuration's digest; every configuration by default."""
    return {
        name: run(*CONFIGURATIONS[name])
        for name in (CONFIGURATIONS if names is None else names)
    }


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
