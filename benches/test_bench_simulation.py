"""Per-function benchmarks of the simulate path, and of simulate itself.

Run from the root of a checkout (pytest-benchmark is required):

    PYTHONPATH=src python -m pytest benches

These are not tier-1 tests: ``testpaths`` in pyproject.toml names only
``tests``, so a plain ``pytest`` run does not collect them.
"""

import sys
from pathlib import Path

import pytest

from drcontract.cli import _record_chunks, main
from drcontract.scenario import parse_scenario
from drcontract.simulation import collect_reports, run_monte_carlo

# The seeded mixed portfolio the tests share.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from mixed_scenario import mixed_scenario_text  # noqa: E402


@pytest.fixture(scope="module")
def text_2000():
    return mixed_scenario_text(consumers=2000, trials=250)


def test_parse_scenario(benchmark, text_2000):
    scenario = benchmark(parse_scenario, text_2000)
    assert len(scenario.members) == 2000


@pytest.mark.parametrize("consumers, trials", [(2000, 250), (10000, 10)])
def test_run_monte_carlo(benchmark, consumers, trials):
    scenario = parse_scenario(mixed_scenario_text(consumers, trials))
    portfolio = scenario.portfolio()
    result = benchmark(
        run_monte_carlo,
        portfolio,
        scenario.behaviors,
        trials,
        reduction_target=scenario.reduction_target,
        master_seed=scenario.seed,
    )
    assert result.called.shape == (consumers, trials)


def test_collect_reports(benchmark, text_2000):
    scenario = parse_scenario(text_2000)
    portfolio = scenario.portfolio()
    reports = benchmark(collect_reports, portfolio, scenario.behaviors)
    assert len(reports) == 2000


def test_records_csv(benchmark, text_2000):
    scenario = parse_scenario(text_2000)
    result = run_monte_carlo(
        scenario.portfolio(),
        scenario.behaviors,
        250,
        reduction_target=scenario.reduction_target,
        master_seed=scenario.seed,
    )
    text = benchmark(lambda: "".join(_record_chunks(result)))
    assert text.count("\n") == 1 + 2000 * 250


def test_simulate_end_to_end(benchmark, tmp_path, text_2000):
    scenario = tmp_path / "mixed.ini"
    scenario.write_text(text_2000)
    argv = [
        "simulate", "--scenario", str(scenario), "--seed", "1",
        "--out", str(tmp_path / "records.csv"),
    ]
    assert benchmark(main, argv) == 0
