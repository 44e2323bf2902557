"""The README's API quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text.split("## Quick start (API)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_api_quick_start_prints_its_comments():
    block = quick_start_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["(0, 1, 2, 3, 4, 8, 13, 15) 29/128", "True"]
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(comments) == len(printed)
    for comment, line in zip(comments, printed):
        assert comment.startswith(line)
