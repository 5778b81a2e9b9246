"""Smoke test: every demo script runs to completion from a clean directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("dlp_landscape.py", "kronecker_wall_crossing.py", "stability_intervals.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if name == "dlp_landscape.py":
        with open(tmp_path / "dlp_grid_f0.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "eps,phi,delta"
        assert len(lines) == 1 + 25 * 25
