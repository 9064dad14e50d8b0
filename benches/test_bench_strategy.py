"""Per-function benchmarks of the closed form, and of sweep, which prints it
point by point.

Run from the root of a checkout (pytest-benchmark is required):

    PYTHONPATH=src python -m pytest benches

These are not tier-1 tests: ``testpaths`` in pyproject.toml names
``tests`` and ``perfbench`` only, so a plain ``pytest`` run does not collect
them.
"""

import numpy as np
import pytest

from drcontract import ConsumerParams, Prices
from drcontract.cli import main
from drcontract.strategy import solve


@pytest.mark.parametrize("rows", [1, 1000, 100_000])
def test_solve_optimal_reports(benchmark, rows):
    params = ConsumerParams(baseline=8.0, marginal_utility=0.05, max_consumption=16.0)
    prices = Prices(energy_price=0.26, incentive_price=0.30)
    probabilities = np.linspace(0.0, 1.0, rows)
    solution = benchmark(solve, params, prices, call_probability=probabilities)
    assert solution.expected_profit.shape == (rows,)


def test_sweep_end_to_end(benchmark, tmp_path):
    # The shape of the benchmark's sweep-dense workload: 10 001 points.
    argv = [
        "sweep", "--from", "0", "--to", "1", "--steps", "10001",
        "--out", str(tmp_path / "sweep.csv"),
    ]
    assert benchmark(main, argv) == 0
