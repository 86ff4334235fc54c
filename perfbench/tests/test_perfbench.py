"""Tests of the benchmark itself: tiny smoke passes, caught corruption,
metric names, and the reference computations the checks rely on.

Run from the repository root: `python -m pytest -q perfbench/tests`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dspqsl import cli, lindblad, optimizer, rydberg  # noqa: E402

REQUIRED_LAYER_METRICS = {
    "qmat": ["eigensystem_s", "eigensystem_calls", "eigensystem_ms.d16", "eigensystem_ms.d32",
             "eigensystem_ms.d64", "validate_s", "validate_calls"],
    "lindblad": ["rhs_matrix_s", "evolve_s", "evolve_batch_s", "state_steps", "records",
                 "us_per_state_step", "flops_computed", "bytes_computed"],
    "dsp_core": ["state_prep_s", "qsl_s", "conditions_s"],
    "optimizer": ["enumerate_s", "pareto_s", "select_s", "perms_attempted",
                  "arrangements_distinct", "distinct_ratio"],
    "rydberg": ["build_model_s"],
    "cli": ["parse_config_s", "load_model_s", "command_self_s", "write_csv_s", "csv_rows",
            "csv_bytes"],
}


def _run_tiny(name, trace, tmp_path, seed=3):
    return bench.run_workload(name, seed, 0.05, trace, ROOT,
                              params=workloads.TINY[name], out_dir=tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_of_every_workload(name, trace, tmp_path):
    record = _run_tiny(name, trace, tmp_path)
    assert record["correct"], record["extra"]["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 2
    expected = tracer.LAYER_METRICS if trace else bench.END_TO_END
    assert {m: v["unit"] for m, v in record["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in record["metrics"].values())
    if trace:
        layer_self = [record["metrics"][f"{layer}.self_s"]["value"] for layer in tracer.LAYERS]
        assert sum(layer_self) > 0
        assert (tmp_path / f"{name}-seed3-spans.json").is_file()
    else:
        assert all(v["value"] > 0 for v in record["metrics"].values())


def _truncating_write_csv(original):
    def write_csv(path, header, rows):
        original(path, header, list(rows)[:-1])
    return write_csv


def _shifted_evolve_batch(original):
    def evolve_batch(*args, **kwargs):
        batch = original(*args, **kwargs)
        batch.fidelities[:, -1] += 1e-6
        return batch
    return evolve_batch


@pytest.mark.parametrize("name, module, attr, corrupt", [
    ("simulate_abc", cli, "write_csv", _truncating_write_csv),
    ("sweep_d7", cli, "write_csv", _truncating_write_csv),
    ("sweep_720", lindblad, "evolve_batch", _shifted_evolve_batch),
])
def test_corrupted_output_is_counted(name, module, attr, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    record = _run_tiny(name, False, tmp_path)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]
    assert record["extra"]["failed_frac"] == 1.0
    assert record["extra"]["failures"]


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for layer, names in REQUIRED_LAYER_METRICS.items():
        for metric in names:
            assert f"{layer}.{metric}" in tracer.LAYER_METRICS
        assert f"{layer}.self_s" in tracer.LAYER_METRICS
        assert f"{layer}.src_lines" in tracer.LAYER_METRICS
    assert "trace_overhead_frac" in tracer.LAYER_METRICS


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(100))
    value, pct = bench.tail(samples)
    assert pct == 90 and sum(s > value for s in samples) == 10
    value, pct = bench.tail(list(range(37)))
    assert sum(s > value for s in range(37)) >= 10 and pct == 72


def test_self_time_subtracts_direct_children():
    spans = [
        tracer.Span(0, "op", 0.0, 10.0, None, 0),
        tracer.Span(1, "cli.cmd_sweep", 1.0, 9.0, 0, 0),
        tracer.Span(2, "optimizer.enumerate_permutations", 2.0, 5.0, 1, 0),
        tracer.Span(3, "dsp_core.coefficient_a", 2.5, 3.0, 2, 0),
        tracer.Span(4, "cli.write_csv", 6.0, 8.0, 1, 0),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 2.5, 3: 0.5, 4: 2.0}
    metrics = tracer.layer_metrics(spans, passes=1)
    assert metrics["optimizer.enumerate_s"] == 2.5
    assert metrics["cli.self_s"] == 5.0
    assert metrics["cli.command_self_s"] == 3.0


def test_sort_and_scan_front_matches_the_quadratic_mask():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        t = rng.integers(0, 6, size=n).astype(float)
        q = rng.integers(0, 6, size=n).astype(float)
        reports = [optimizer.PermutationReport((i,), (0.0,), 0.0, t[i], 0.0, q[i], 0.0, 0.0)
                   for i in range(n)]
        assert np.array_equal(reference.pareto_sort_scan(t, q), optimizer.pareto_mask(reports))


def test_reference_propagator_tracks_the_integrator():
    model = rydberg.build_model()
    rho0 = np.diag([0.2, 0.15, 0.1, 0.4, 0.08, 0.07]).astype(complex)
    traj = lindblad.evolve(model, rho0, t_end=40.0, stride=200)
    prop = reference.Propagator(model)
    for t, rho in zip(traj.times, traj.states):
        assert np.max(np.abs(prop.at(float(t)) @ rho0.reshape(-1) - rho.reshape(-1))) < 1e-10


def test_reference_counts_and_projectors():
    assert reference.multinomial([1, 1, 1, 2, 2, 3, 3]) == 210
    assert reference.multinomial(range(7)) == 5040
    model = rydberg.build_model()
    projectors = reference.eigenprojectors(model.h_s, model.target, model.target_index)
    assert np.allclose(sum(projectors), np.eye(model.dim))
    for k, proj in enumerate(projectors, start=1):
        vec = model.eigensystem.vector(k)
        assert np.isclose(np.real(vec.conj() @ proj @ vec), 1.0)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_720", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
