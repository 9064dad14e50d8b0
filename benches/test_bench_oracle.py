"""Per-function benchmarks of verify's two oracles, and of verify itself.

Run from the root of a checkout (pytest-benchmark is required):

    PYTHONPATH=src python -m pytest benches

These are not tier-1 tests: ``testpaths`` in pyproject.toml names
``tests`` and ``perfbench`` only, so a plain ``pytest`` run does not collect
them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from drcontract import CallSignal, ConsumerParams, Prices, Report
from drcontract.cli import _draw_instances, main
from drcontract.oracle import grid_best_reports, grid_best_responses
from drcontract.scenario import load_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from mixed_scenario import mixed_scenario_text  # noqa: E402

SIGNALS = (CallSignal.NOT_CALLED, CallSignal.CALLED)


@pytest.fixture(scope="module")
def verify_draws():
    """The 2 000 stage-2 instances verify draws at seed 1."""
    drawn = _draw_instances(np.random.default_rng(1), 2000)
    return (
        Report(*drawn[:, 5:].T),
        ConsumerParams(*drawn[:, :3].T),
        Prices(*drawn[:, 3:5].T),
    )


# Step 0.001 gives rows of up to about 80 000 points, each a block of its own.
@pytest.mark.parametrize("step", [0.1, 0.01, 0.001])
def test_grid_best_responses(benchmark, verify_draws, step):
    report, params, prices = verify_draws
    q, _ = benchmark(grid_best_responses, report, SIGNALS, params, prices, step)
    assert q.shape == (2000, 2)


def test_grid_best_responses_reports_at_cap(benchmark, verify_draws):
    # With every reported baseline at its cap, no row's grid points end
    # before the cap, so this case times what ending them costs when it
    # saves nothing.
    report, params, prices = verify_draws
    at_cap = Report(params.max_consumption, report.committed)
    q, _ = benchmark(grid_best_responses, at_cap, SIGNALS, params, prices, 0.01)
    assert q.shape == (2000, 2)


@pytest.mark.parametrize("step", [0.01, 0.05])
def test_grid_best_reports(benchmark, step):
    scenario = load_scenario(None)
    params = scenario.members[0].params
    probabilities = [k / 10 for k in range(11)]
    solutions = benchmark(
        grid_best_reports, probabilities, params, scenario.prices, step
    )
    assert len(solutions) == 11


def test_verify_end_to_end(benchmark, tmp_path):
    argv = [
        "verify", "--draws", "2000", "--grid-step", "0.01", "--seed", "1",
        "--out", str(tmp_path / "verify.txt"),
    ]
    assert benchmark(main, argv) == 0


def test_verify_many_consumers(benchmark, tmp_path):
    # 20 000 consumers and 500 draws: verify's per-consumer continuity
    # check, not its oracles, takes most of such a run.
    scenario = tmp_path / "mixed.ini"
    scenario.write_text(mixed_scenario_text(consumers=20000))
    argv = [
        "verify", "--scenario", str(scenario), "--draws", "500",
        "--out", str(tmp_path / "verify.txt"),
    ]
    assert benchmark(main, argv) == 0
