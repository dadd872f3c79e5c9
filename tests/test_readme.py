"""The README's library quickstart runs as written, and its CLI section names the CLI's options."""

import argparse
import contextlib
import io
import os
import re

from pada.cli import _parser

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_quickstart_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "0.149 [(0, 40.0), (500, 20.0), (1000, 10.0)]\n"


def test_readme_cli_section_names_exactly_the_cli_options():
    # a flag the CLI drops cannot linger in the docs, nor a new one go undocumented
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for command in sub.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named == options
