"""Per-function benchmarks of the simulate path, and of simulate itself.

Run from the root of a checkout (pytest-benchmark is required):

    PYTHONPATH=src python -m pytest benches

These are not tier-1 tests: ``testpaths`` in pyproject.toml names
``tests`` and ``perfbench`` only, so a plain ``pytest`` run does not collect
them.
"""

import sys
from pathlib import Path

import pytest

from drcontract.cli import _record_chunks, _stats_lines, _summary_lines, main
from drcontract.scenario import load_scenario, parse_scenario
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


def test_run_monte_carlo_1x100000(benchmark):
    """The trials axis: the bundled one-consumer scenario over 10^5 trials,
    where drawing each trial's calls is most of the run."""
    scenario = load_scenario(None)
    result = benchmark.pedantic(
        run_monte_carlo,
        args=(scenario.portfolio(), scenario.behaviors, 100_000),
        rounds=3,
        iterations=1,
    )
    assert result.called.shape == (1, 100_000)


def test_collect_reports(benchmark, text_2000):
    scenario = parse_scenario(text_2000)
    portfolio = scenario.portfolio()
    reports = benchmark(collect_reports, portfolio, scenario.behaviors)
    assert len(reports) == 2000


@pytest.fixture(scope="module")
def result_2000(text_2000):
    scenario = parse_scenario(text_2000)
    return run_monte_carlo(
        scenario.portfolio(),
        scenario.behaviors,
        250,
        reduction_target=scenario.reduction_target,
        master_seed=scenario.seed,
    )


def test_load_scenario(benchmark, tmp_path, text_2000):
    path = tmp_path / "mixed.ini"
    path.write_text(text_2000)
    scenario = benchmark(load_scenario, str(path))
    assert len(scenario.members) == 2000


def test_records_csv(benchmark, result_2000):
    text = benchmark(lambda: "".join(_record_chunks(result_2000)))
    assert text.count("\n") == 1 + 2000 * 250


def test_summary_lines(benchmark, result_2000):
    assert len(benchmark(_summary_lines, result_2000)) == 1 + 250


def test_stats_lines(benchmark, result_2000):
    assert len(benchmark(_stats_lines, result_2000)) == 1 + 2000


def test_simulate_end_to_end(benchmark, tmp_path, text_2000):
    scenario = tmp_path / "mixed.ini"
    scenario.write_text(text_2000)
    argv = [
        "simulate", "--scenario", str(scenario), "--seed", "1",
        "--out", str(tmp_path / "records.csv"),
    ]
    assert benchmark(main, argv) == 0


def test_simulate_100000x20(benchmark, tmp_path):
    """The consumer axis at scale: one round, since a run takes seconds and
    writes about 130 MB, which is removed afterwards."""
    scenario = tmp_path / "wide.ini"
    scenario.write_text(mixed_scenario_text(consumers=100000, trials=20))
    argv = [
        "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "records.csv"),
    ]
    assert benchmark.pedantic(main, args=(argv,), rounds=1, iterations=1) == 0
    for path in tmp_path.iterdir():
        path.unlink()
