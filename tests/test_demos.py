"""The demos stay in step with the current API.

The quick demos run to completion. Demos 04 and 05 train for tens of
seconds and the MovieLens reproduction needs a ratings file, so they stay
out of the suite: CI runs 04 and 05 in one step, and the reproduction for
one epoch on a generated 2,400-line ratings file in another. Every demo's
imports from rlbl are resolved instead.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_data_and_ingestion.py",
    "02_forward_dynamics.py",
    "03_time_interpolation.py",
    "06_gradient_check.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rlbl":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rlbl":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{demo}: {node.module} has no {missing}"
