"""Self-tests of the benchmark: python3 -m pytest -q perfbench

They sit outside the repository's own test paths and check the benchmark
rather than drcontract: seeded inputs, self-time arithmetic, the tracer,
and that bad outputs count as failed operations.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from drcontract.cli import main as cli_main  # noqa: E402
from drcontract.scenario import parse_scenario  # noqa: E402
from scenario_gen import generate  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert generate(5, 60, 3).to_ini() == generate(5, 60, 3).to_ini()
    assert generate(5, 60, 3).to_ini() != generate(6, 60, 3).to_ini()


def test_generated_scenario_loads_and_spans_both_regimes():
    gen = generate(9, 90, 4)
    scenario = parse_scenario(gen.to_ini())  # runs check_consumption_cap
    assert len(scenario.members) == 90
    kinds = [b.value for b in scenario.behaviors.values()]
    assert kinds.count("rational") == kinds.count("truthful") == 30
    above = [
        m for m in scenario.members
        if scenario.behaviors[m.consumer_id].value == "rational"
        and m.call_probability > gen.threshold
    ]
    assert above and len(above) < 30


def test_self_time_subtracts_children_leaves_and_overlap_once():
    # root [0, 10] with leaf time 0.5; children a [1, 4] and b [3, 6]
    # overlap on [3, 4]; a has a grandchild [2, 3].
    trace = [
        [0.0, 10.0, -1, 0.5, "cli.main"],
        [1.0, 4.0, 0, 0.0, "strategy.best_report"],
        [3.0, 6.0, 0, 0.0, "oracle.grid_best_report"],
        [2.0, 3.0, 1, 0.25, "core.utility"],
    ]
    assert spans.self_times(trace) == pytest.approx([4.5, 2.0, 3.0, 0.75])


def test_layer_metrics_on_synthetic_trace():
    trace = {
        "spans": [
            [0.0, 10.0, -1, 0.0, "cli.main"],
            [1.0, 5.0, 0, 0.0, "simulation.run_monte_carlo"],
            [2.0, 3.0, 1, 0.5, "strategy.best_report"],
            [6.0, 8.0, 0, 1.0, "oracle.grid_best_report"],
        ],
        "counters": {"simulation.records": 40, "oracle.report_pairs": 100},
        "leaf_calls": {"core.stage2_profit": 7},
        "leaf_s": {"core.stage2_profit": 1.5},
    }
    m = spans.layer_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["simulation.run_monte_carlo_self_s"] == pytest.approx(3.0)
    assert m["simulation.records_per_s"] == pytest.approx(10.0)
    assert m["strategy.self_s"] == pytest.approx(0.5)
    assert m["strategy.calls"] == 1
    assert m["core.self_s"] == pytest.approx(1.5)
    assert m["core.stage2_profit_calls"] == 7
    assert m["oracle.report_pairs_per_s"] == pytest.approx(50.0)
    assert m["oracle.grid_best_response_s"] == 0.0


def test_tracer_survives_missing_targets_and_counts(tmp_path):
    import drcontract.cli

    original = drcontract.cli.best_report
    tracer = spans.Tracer("t")
    tracer.install(targets=spans.SPAN_TARGETS + (("drcontract.cli", "gone"),))
    try:
        out = tmp_path / "sweep.csv"
        root = tracer.span(spans.ROOT, drcontract.cli.main)
        assert root(["sweep", "--steps", "11", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert drcontract.cli.best_report is original
    assert tracer.missing == ["drcontract.cli.gone"]
    m = spans.layer_metrics(
        {"spans": tracer.spans, "counters": tracer.counters,
         "leaf_calls": tracer.leaf_calls, "leaf_s": tracer.leaf_s}
    )
    # per point: best_report, planned_consumption x2, expected_profit
    assert m["strategy.calls"] == 44
    assert m["core.stage2_profit_calls"] == 11 * 7
    assert m["scenario.consumers"] == 1
    assert m["cli.self_s"] > 0


def _simulate(tmp_path, seed=4):
    gen = generate(seed, 30, 4)
    ini = tmp_path / "s.ini"
    ini.write_text(gen.to_ini())
    out = tmp_path / "out" / "records.csv"
    out.parent.mkdir()
    assert cli_main(["simulate", "--scenario", str(ini), "--seed", str(seed),
                     "--out", str(out)]) == 0
    return gen, str(ini), out


def test_simulate_check_catches_a_corrupted_record(tmp_path):
    gen, ini, out = _simulate(tmp_path)
    assert checks.check_simulate(str(out), ini, gen, 4) == []
    before = checks.digests(str(out.parent))
    assert sorted(before) == [
        "records.csv", "records.stats.csv", "records.summaries.csv"
    ]
    lines = out.read_text().split("\n")
    lines[3] = lines[3][:-1] + ("1" if lines[3][-1] != "1" else "2")
    out.write_text("\n".join(lines))
    assert checks.check_simulate(str(out), ini, gen, 4)
    assert checks.compare_digests(checks.digests(str(out.parent)), before)


def test_simulate_check_catches_a_missing_row(tmp_path):
    gen, ini, out = _simulate(tmp_path)
    lines = out.read_text().split("\n")
    out.write_text("\n".join(lines[:-2] + [""]))
    assert checks.check_simulate(str(out), ini, gen, 4)


def test_verify_check_catches_a_failing_run(tmp_path):
    out = tmp_path / "v.txt"
    rc = cli_main(["verify", "--draws", "3", "--literal-above-threshold",
                   "--out", str(out)])
    assert rc == 2
    errors = checks.check_verify(str(out), rc)
    assert any("continuity" in e for e in errors)
    assert any("VERIFY PASS" in e for e in errors)


def test_sweep_check_catches_a_wrong_regime(tmp_path):
    gen = generate(2, 1)
    ini = tmp_path / "one.ini"
    ini.write_text(gen.to_ini())
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--scenario", str(ini), "--from", "0", "--to", "1",
                     "--steps", "101", "--out", str(out)]) == 0
    assert checks.check_sweep(str(out), gen, 0.0, 1.0, 101) == []
    text = out.read_text()
    out.write_text(text.replace("above_threshold", "below_threshold", 1))
    assert any("regime" in e for e in checks.check_sweep(str(out), gen, 0.0, 1.0, 101))


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    return run.Runner(run.Workload("tiny-simulate", "simulate", 30, 4, 120))


def test_corrupted_output_counts_as_failed(runner, monkeypatch):
    assert runner.execute(7) is not None
    assert (runner.attempted, runner.failed) == (1, 0)
    real_child = runner.child

    def corrupting_child(argv, outputs=(), trace=False, run_id=""):
        result = real_child(argv, outputs, trace, run_id)
        with open(outputs[0], "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            last_digit = fh.read(1)
            fh.seek(-2, os.SEEK_END)
            fh.write(b"1" if last_digit != b"1" else b"2")
        return result

    monkeypatch.setattr(runner, "child", corrupting_child)
    assert runner.execute(7) is None
    assert (runner.attempted, runner.failed) == (2, 1)


def test_failing_verify_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    runner = run.Runner(run.Workload("tiny-verify", "verify", 0, 0, 3))
    real_child = runner.child
    monkeypatch.setattr(
        runner, "child",
        lambda argv, *a: real_child(argv + ["--literal-above-threshold"], *a),
    )
    assert runner.execute(7) is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_reference_copy_runs_on_the_same_input(runner):
    ref = runner.reference(7)
    assert ref["rc"] == 0 and ref["bytes_written"] > 0
    assert runner.attempted == 0  # reference runs are not counted


def test_ratio_cancels_a_slowdown_shared_by_a_pair():
    pairs = [(1.0, 2.0), (1.1, 2.0), (0.9, 2.0)]
    slow = [(1.6 * prog, 1.6 * ref) for prog, ref in pairs]
    assert run._ratio(pairs) == pytest.approx(0.5)
    assert run._ratio(pairs + slow) == pytest.approx(0.5)


def test_per_layer_units_match_benchmark_json():
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert spans.UNITS == listed
