"""The quick demos run to completion against the current API.

Demos 04 and 05 train for tens of seconds and stay out of the suite.
"""

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
