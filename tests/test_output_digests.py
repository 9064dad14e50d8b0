import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_cover_files_streams_and_exit_codes():
    tool = load_tool()
    names = ["sweep-default", "bad-negative-seed-verify"]
    first = tool.digests(names)
    assert tool.digests(names) == first
    good, bad = (first[name] for name in names)
    assert good["exit"] == 0 and list(good["files"]) == ["out.csv"]
    assert good["stderr"].startswith("scenario_hash=")
    assert bad == {
        "exit": 1,
        "stdout": "",
        "stderr": "drcontract: key 'seed' in [simulation] must be >= 0, got -5\n",
        "files": {},
    }


def test_overflowing_runs_are_refused_with_one_line_and_no_file():
    tool = load_tool()
    names = ["stats-overflow-simulate", "payout-overflow-simulate"]
    for name, digest in tool.digests(names).items():
        header, refusal = digest["stderr"].splitlines()
        assert header.startswith("scenario_hash="), name
        assert refusal.startswith("drcontract: "), name
        assert (digest["exit"], digest["stdout"], digest["files"]) == (1, "", {})


def test_outputs_match_the_checked_in_digests():
    # tests/output_digests.json is this tool's output for the tree whose
    # outputs are current; a change that alters an output regenerates it.
    tool = load_tool()
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = tool.digests()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, "outputs that differ: " + ", ".join(changed)
