import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worked_example_prints_the_pinned_walk():
    # the printed walk of demo 01 is part of the documentation, so any
    # drift in a step's siftees, marks or partitions must be deliberate
    env = dict(os.environ, PYTHONPATH="src")
    child = subprocess.run([sys.executable, "demos/01_worked_example.py"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == (ROOT / "tests" / "golden" / "01_worked_example.txt").read_text()
