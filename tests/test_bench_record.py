import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_ratios_spread_and_wins():
    tool = load_tool()
    assert tool.paired([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5) == {
        "ratio": 1.5, "ratio_q1": 1.0, "ratio_q3": 2.0, "pairs_won": 1, "pairs": 5,
    }
    # Ties count for neither side; a higher value wins where higher is better.
    assert tool.paired([1.0, 2.0, 3.0], [2.0] * 3, "higher")["pairs_won"] == 1


def test_paired_record_alternates_the_checkouts(tmp_path, monkeypatch):
    # Two fake checkouts: "this" reads half of "base" on every measure. Each
    # case, import timing and workload runs once per checkout per pair,
    # "this" first in even pairs, and only the shared cases are paired.
    tool = load_tool()
    this, base = str(tmp_path / "this"), str(tmp_path / "base")
    Path(this).mkdir()
    (Path(this) / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower"},
        {"name": "throughput", "better": "higher"},
    ]}))
    scale = {this: 0.5, base: 1.0}
    calls = []

    def cases(root, case):
        calls.append((case, root))
        return {case: {"min_s": scale[root]}}, {}

    def line(root, workload):
        calls.append((workload, root))
        return {"correct": True, "metrics": {
            "wall_s": {"value": scale[root]}, "throughput": {"value": 1 / scale[root]},
        }}

    monkeypatch.setattr(tool, "case_ids", lambda root: {
        this: ["a", "new"], base: ["a", "old"]
    }[root])
    monkeypatch.setattr(tool, "bench_cases", cases)
    monkeypatch.setattr(tool, "import_seconds", lambda root: (scale[root],) * 2)
    monkeypatch.setattr(tool, "perfbench_line", line)
    monkeypatch.setattr(tool, "WORKLOADS", ("w",))
    monkeypatch.setattr(tool, "PAIRS", 4)
    record = tool.paired_record(this, base)
    order = [this, base, base, this] * 2
    assert calls == [("a", r) for r in order] + [("w", r) for r in order]
    won = {"ratio": 0.5, "ratio_q1": 0.5, "ratio_q3": 0.5, "pairs_won": 4, "pairs": 4}
    assert record["cases"] == {"a": won}
    assert record["import_s"] == record["import_cached_s"] == won
    higher = {**won, "ratio": 2.0, "ratio_q1": 2.0, "ratio_q3": 2.0}
    assert record["perfbench"]["w"] == {
        "correct": True, "wall_s": won, "throughput": higher,
    }
