"""Demo scripts keep working against the public API."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "geoctrl":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def _run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_leaf_demo_runs():
    out = _run_demo("02_leaves_and_shifted_drifts.py")
    assert "every transported drift pushes forward" in out


def test_steering_demo_runs_every_estimator():
    out = _run_demo("07_steering_costs.py")
    assert "best found cost 1.534" in out
    assert "l(0.0, 0.5) = 1.590" in out
    assert "l(0.0, 1.0) = 1.586" in out
