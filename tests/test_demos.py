"""The demo scripts run to completion against the current library.

Each demo runs as its own process with only `src` on PYTHONPATH, so a
change to the public model API or the command line that breaks a demo
fails here rather than silently. `demos/adaptation_gain.py` is left out:
it trains full experiments and takes about 24 s on a 2-core machine,
while the other four take about 2.5 s together.
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


def test_cli_workflow_runs(tmp_path):
    # the shell demo calls `hfa`; a shim on PATH stands in for the installed script
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "hfa"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m hfa.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["sh", str(REPO / "demos" / "cli_workflow.sh")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "row,predicted_class" in proc.stdout and "summary" in proc.stdout
