"""The demo scripts run to completion against the current library.

Each demo runs as its own process with only `src` on PYTHONPATH, so a
change to the public model API that breaks a demo fails here rather than
silently. `demos/adaptation_gain.py` is left out: it trains full
experiments and takes about 24 s on a 2-core machine, while these three
take about 1.5 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["quickstart.py", "file_formats.py", "metric_subproblem.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
