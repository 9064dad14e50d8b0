import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


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
