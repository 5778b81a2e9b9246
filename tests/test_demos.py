"""Smoke tests: every demo script runs to completion from a clean directory,
and the README's library quick start gives the values it shows."""

import ast
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


def test_readme_quick_start():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    env, shown = {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), env)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), env)
        # the value is commented on the expression's line or on the next one
        line = lines[node.end_lineno - 1]
        if "#" not in line:
            line = lines[node.end_lineno]
        assert repr(value) == line.split("#", 1)[1].strip()
        shown.append(value)
    Q = env["Q"]
    assert shown == ["EMPTY", [(2, Q(5, 8)), (11, Q(65, 121))], (Q(4, 7), Q(7, 4)), Q(3, 5)]
