import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line

import os  # a trailing comment


class Sample:
    """A class docstring."""

    text = """a string that is not a docstring

    spans four lines, one of them blank,
    and counts on each non-blank one"""

    def method(self):
        """A function docstring
        over two lines."""
        # a comment line

        return os.sep


async def coroutine():
    """An async function docstring."""
    return None
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    # counted: import, class, the three non-blank lines of the string, def,
    # return, async def and its return
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE, encoding="utf-8")
    empty = tmp_path / "empty.py"
    empty.write_text('"""Only a docstring."""\n', encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(sample), str(empty)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [f"     9  {sample}", f"     0  {empty}", "     9  total"]
