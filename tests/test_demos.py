"""The demo scripts print exactly their recorded output.

Each demo under demos/ runs in a fresh interpreter, with and without -O
(which strips bare asserts), and its stdout must match tests/golden/ byte
for byte; demo 04 prints real_roots output, so this pins the floats of the
root isolation too.  To record a golden file after an intended change:

    PYTHONPATH=src python demos/<name>.py > tests/golden/<name>.out
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_unchanged(name, flags):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable] + flags + [os.path.join(ROOT, "demos", name + ".py")],
        cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    with open(os.path.join(ROOT, "tests", "golden", name + ".out"), "rb") as fh:
        assert done.stdout == fh.read()
