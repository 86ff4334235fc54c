"""Both study scripts run end to end on a short horizon, the scores they
print agree with the dense-state oracles, and their defaults are the
package's."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dspqsl import dsp_core, optimizer, rydberg
from dspqsl.cli import RunConfig
from helpers import dissipated_heat, enumerate_permutations_reference, pareto_mask_reference

ROOT = Path(__file__).resolve().parents[1]
CURVES = ["curve_A.csv", "curve_B.csv", "curve_C.csv"]


@pytest.fixture(scope="module")
def run_script(tmp_path_factory):
    """Run a script once per module with `--t-end 20`; gives (outdir, stdout)."""
    runs = {}

    def run(script):
        if script not in runs:
            outdir = tmp_path_factory.mktemp(Path(script).stem)
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
                 "--t-end", "20", "--outdir", str(outdir)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs[script] = outdir, proc.stdout
        return runs[script]

    return run


@pytest.mark.parametrize(
    "script, outputs",
    [
        ("run_permutation_study.py", ["sweep.csv", *CURVES]),
        ("run_thermal_study.py", ["sweep_scores.csv", *CURVES]),
    ],
)
def test_script_writes_its_outputs(run_script, script, outputs):
    outdir, _ = run_script(script)
    for name in outputs:
        assert (outdir / name).stat().st_size > 0


def test_thermal_heats_match_the_dense_oracle(run_script, model):
    # The script's defaults: beta = 20 on the demo model (gamma = 0.03).
    _, stdout = run_script("run_thermal_study.py")
    lam = rydberg.thermal_populations(20.0, model.eigensystem.eigenvalues)
    heats = {}
    for label in "ABC":
        arranged = optimizer.apply_permutation(lam, optimizer.named_permutation(label, lam, model))
        rho0 = dsp_core.state_from_populations(model.eigensystem, arranged)
        heats[label] = dissipated_heat(model, rho0)
    expected = "heats: " + ", ".join(f"Q({k}) = {v:+.6e}" for k, v in heats.items())
    assert expected in stdout.splitlines()


def test_pareto_front_size_matches_the_oracle(run_script, model, demo_pops):
    _, stdout = run_script("run_permutation_study.py")
    front = pareto_mask_reference(enumerate_permutations_reference(demo_pops, model))
    assert f"pareto front size: {int(front.sum())} of 720" in stdout.splitlines()


@pytest.mark.parametrize(
    "script, own", [("run_permutation_study", ()), ("run_thermal_study", ("beta",))]
)
def test_defaults_are_the_packages(monkeypatch, script, own):
    # In process: the thermal study imports its sibling from scripts/.
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    args = importlib.import_module(script).parser().parse_args([])
    defaults = RunConfig()
    assert set(vars(args)) == {"gamma", "t_end", "stride", "outdir", *own}
    assert args.gamma == defaults.rydberg_params.gamma
    assert (args.t_end, args.stride) == (defaults.t_end, defaults.stride)
    for key in own:
        assert getattr(args, key) == getattr(defaults, key)
