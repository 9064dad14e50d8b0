"""Per-function benchmarks of the payoff primitives on columns.

Run from the root of a checkout (pytest-benchmark is required):

    PYTHONPATH=src python -m pytest benches

These are not tier-1 tests: ``testpaths`` in pyproject.toml names
``tests`` and ``perfbench`` only, so a plain ``pytest`` run does not collect
them.
"""

import numpy as np
import pytest

from drcontract import CallSignal, ConsumerParams, Prices, Report
from drcontract.core import stage2_profit, utility

ROWS = 10**6


@pytest.fixture(scope="module")
def rows():
    """10^6 consumers, prices, reports and consumption levels, one per row,
    from the box of verify's stage-2 suite."""
    rng = np.random.default_rng(1)
    baseline = rng.uniform(1.0, 20.0, ROWS)
    gamma = rng.uniform(0.01, 0.2, ROWS)
    p = rng.uniform(0.05, 0.5, ROWS)
    cap = baseline + p / gamma + rng.uniform(1.0, 10.0, ROWS)
    reported = rng.uniform(0.0, cap)
    return (
        ConsumerParams(baseline, gamma, cap),
        Prices(p, rng.uniform(p, 2 * p)),
        Report(reported, rng.uniform(0.0, reported)),
        rng.uniform(0.0, cap),
    )


def test_utility(benchmark, rows):
    params, prices, _, q = rows
    assert benchmark(utility, q, params, prices).shape == (ROWS,)


@pytest.mark.parametrize("signal", [CallSignal.NOT_CALLED, CallSignal.CALLED])
def test_stage2_profit(benchmark, rows, signal):
    params, prices, report, q = rows
    profit = benchmark(stage2_profit, q, report, signal, params, prices)
    assert profit.shape == (ROWS,)
