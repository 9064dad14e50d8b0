import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each line that holds code ends in "# code", inside the multi-line string
# too; no other line counts.
SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # code

# A comment-only line.


class Thing:  # code
    """Class docstring."""

    size = (  # code
        1  # code
        + 2  # code
    )  # code

    def method(self):  # code
        """Function docstring,

        with a blank line inside.
        """
        text = """first  # code
second  # code
third"""  # code
        return os.path.join(  # code
            text,  # code
            "x",  # code
        )  # code


async def later():  # code
    """Async function docstring."""
    return 1  # code
'''


def test_code_lines_counts_only_lines_of_code():
    tool = load_tool()
    assert tool.code_lines(SNIPPET) == SNIPPET.count("# code")


def test_code_lines_of_nothing_but_docstrings_and_comments():
    tool = load_tool()
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert tool.code_lines("x = 1\n\n\n") == 1
