"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "expected one python block in the quick start"
    return blocks[0]


def test_quick_start_runs():
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert namespace["many"].report_baseline.shape == (3,)
