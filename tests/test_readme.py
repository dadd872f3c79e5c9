"""The README's library quickstart runs as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_quickstart_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "0.149 [(0, 40.0), (500, 20.0), (1000, 10.0)]\n"
