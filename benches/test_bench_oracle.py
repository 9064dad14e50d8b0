"""Per-function benchmarks of verify's two oracles, and of verify itself.

Run from the root of a checkout (pytest-benchmark is required):

    PYTHONPATH=src python -m pytest benches

These are not tier-1 tests: ``testpaths`` in pyproject.toml names
``tests`` and ``perfbench`` only, so a plain ``pytest`` run does not collect
them.
"""

import numpy as np
import pytest

from drcontract import CallSignal, ConsumerParams, Prices, Report
from drcontract.cli import _draw_instances, main
from drcontract.oracle import grid_best_reports, grid_best_responses
from drcontract.scenario import load_scenario

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
