"""Smoke tests: both study scripts run end to end on a short horizon."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CURVES = ["curve_A.csv", "curve_B.csv", "curve_C.csv"]


@pytest.mark.parametrize(
    "script, outputs",
    [
        ("run_permutation_study.py", ["sweep.csv", *CURVES]),
        ("run_thermal_study.py", ["sweep_scores.csv", *CURVES]),
    ],
)
def test_script_writes_its_outputs(tmp_path, script, outputs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--t-end", "20", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
