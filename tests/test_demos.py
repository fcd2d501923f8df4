"""Every script under demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    # Run from a scratch directory: a demo may write a figure to the cwd.
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
