"""The demos run as a reader runs them, on every Python and numpy the tests run on."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0[1-5]_*.py")))


def test_the_numbered_demos_are_found():
    assert [os.path.basename(d)[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_a_demo_exits_0_and_writes_nothing_to_stderr(demo):
    # -X dev reports leaked file handles and other warnings; one found at
    # garbage collection only prints to stderr and keeps exit code 0, and a
    # demo prints nothing there, so any stderr output fails
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-X", "dev", demo], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
