"""End-to-end acceptance checks at their contract tolerances.

Each test prints one `criterion N (<name>): PASS|FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to watch them. The trajectory
criteria integrate all 720 demo arrangements to t = 5000 (plus halved-step
reruns), as the superposition of the six eigenprojector trajectories.
"""

import math
import time

import numpy as np
import pytest

from dspqsl import dsp_core, lindblad, optimizer, rydberg
from helpers import dark_state_model, dissipated_heat, qsl_time, random_distinct_simplex

GAMMA = 0.03
T_END = 5000.0


def report(number: int, name: str, ok: bool) -> bool:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def demo_reports(model, demo_pops):
    return optimizer.enumerate_permutations(demo_pops, model)


@pytest.fixture(scope="module")
def demo_sweep(model, demo_reports):
    states = np.stack(
        [
            dsp_core.state_from_populations(model.eigensystem, np.array(r.arrangement))
            for r in demo_reports
        ]
    )
    return lindblad.evolve_batch(model, states, t_end=T_END, stride=20)


@pytest.fixture(scope="module")
def demo_sweep_halved(model, demo_reports):
    states = np.stack(
        [
            dsp_core.state_from_populations(model.eigensystem, np.array(r.arrangement))
            for r in demo_reports
        ]
    )
    half = lindblad.default_step(model) / 2.0
    n_steps = int(round(T_END / half))
    return lindblad.evolve_batch(model, states, t_end=T_END, step=half, stride=n_steps)


@pytest.fixture(scope="module")
def thermal_arrangements(model):
    lam = rydberg.thermal_populations(20.0, model.eigensystem.eigenvalues)
    return {
        "A": optimizer.apply_permutation(lam, optimizer.optimal_permutation(lam, model)),
        "B": np.sort(lam),
        "C": np.sort(lam)[::-1],
    }


@pytest.fixture(scope="module")
def thermal_batch(model, thermal_arrangements):
    states = np.stack(
        [
            dsp_core.state_from_populations(model.eigensystem, arr)
            for arr in thermal_arrangements.values()
        ]
    )
    return lindblad.evolve_batch(model, states, t_end=T_END, stride=20)


@pytest.fixture(scope="module")
def thermal_batch_halved(model, thermal_arrangements):
    states = np.stack(
        [
            dsp_core.state_from_populations(model.eigensystem, arr)
            for arr in thermal_arrangements.values()
        ]
    )
    half = lindblad.default_step(model) / 2.0
    n_steps = int(round(T_END / half))
    return lindblad.evolve_batch(model, states, t_end=T_END, step=half, stride=n_steps)


def locate(demo_reports, arrangement) -> int:
    key = tuple(float(v) for v in arrangement)
    for k, rep in enumerate(demo_reports):
        if rep.arrangement == key:
            return k
    raise AssertionError(f"arrangement {key} not enumerated")


def test_criterion_1_dark_state_conditions(model):
    rep = dsp_core.verify_dsp_conditions(model)
    ok = rep.eigen_residual < 1e-12 and all(r < 1e-12 for r in rep.jump_residuals)
    assert report(1, "dark-state conditions", ok), rep


def test_criterion_2_speed_coefficient():
    rng = np.random.default_rng(42)
    gammas = [GAMMA, *rng.uniform(0.005, 0.2, size=3)]
    worst = 0.0
    for gamma in gammas:
        m = rydberg.build_model(rydberg.RydbergParams(gamma=gamma))
        expected = math.sqrt(2.0) * gamma / 4.0
        worst = max(worst, abs(dsp_core.coefficient_a(m) - expected) / expected)
    ok = worst < 1e-12
    assert report(2, "speed coefficient", ok), f"worst relative error {worst:.3e}"


def test_criterion_3_spectrum(model):
    s = math.hypot(2 * 0.01, 0.02)
    closed_form = np.array([-s, -0.02, 0.0, 0.0, 0.02, s])
    spectrum_err = float(np.max(np.abs(model.eigensystem.eigenvalues - closed_form)))
    overlap = abs(model.eigensystem.vector(4).conj() @ model.target) ** 2
    ok = spectrum_err < 1e-10 and abs(overlap - 1.0) < 1e-10
    assert report(3, "spectrum and target slot", ok), (spectrum_err, overlap)


def test_criterion_4_qsl_values(model, demo_pops):
    expectations = {
        tuple(demo_pops): 4 * math.sqrt(0.6),
        tuple(np.sort(demo_pops)): 4 * math.sqrt(0.85),
        tuple(np.sort(demo_pops)[::-1]): 4 * math.sqrt(0.9),
    }
    worst = 0.0
    for arrangement, expected in expectations.items():
        rho0 = dsp_core.state_from_populations(model.eigensystem, np.array(arrangement))
        value = qsl_time(model, rho0).t_qsl * GAMMA
        worst = max(worst, abs(value - expected))
    ok = worst < 1e-9
    assert report(4, "qsl values", ok), f"worst absolute error {worst:.3e}"


def test_criterion_5_heat_values(model, demo_pops):
    # Independent oracle: populations dotted with the LAPACK spectrum.
    oracle_energies = np.linalg.eigvalsh(model.h_s)
    cases = {
        "optimal": tuple(demo_pops),
        "ascending": tuple(np.sort(demo_pops)),
        "passive": tuple(np.sort(demo_pops)[::-1]),
    }
    worst = 0.0
    values = {}
    for name, arrangement in cases.items():
        rho0 = dsp_core.state_from_populations(model.eigensystem, np.array(arrangement))
        value = dissipated_heat(model, rho0)
        expected = float(np.dot(arrangement, oracle_energies)) - oracle_energies[3]
        worst = max(worst, abs(value - expected))
        values[name] = value
    ok = (
        worst < 1e-6
        and values["optimal"] < 0.0
        and abs(values["optimal"] - (-5.077e-3)) < 1e-6
        and abs(values["ascending"] - 1.17338e-2) < 1e-6
        and abs(values["passive"] - (-1.17338e-2)) < 1e-6
    )
    assert report(5, "heat values", ok), (worst, values)


def test_criterion_6_optimization_equivalence(model, demo_pops, demo_reports):
    start = time.monotonic()
    winner = optimizer.lexicographic_select(demo_reports)
    ok = winner.arrangement == tuple(demo_pops)
    rng = np.random.default_rng(2024)
    for n in (4, 5, 6):
        for _ in range(50):
            energies = np.sort(rng.uniform(-1.0, 1.0, size=n))
            n_star = int(rng.integers(1, n + 1))
            synthetic = dark_state_model(energies, target_index=n_star)
            lam = random_distinct_simplex(rng, n)
            reports = optimizer.enumerate_permutations(lam, synthetic)
            brute = optimizer.lexicographic_select(reports)
            analytic = optimizer.apply_permutation(
                lam, optimizer.optimal_permutation(lam, synthetic)
            )
            ok = ok and brute.arrangement == tuple(analytic)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert report(6, "optimization equivalence", ok), f"elapsed {elapsed:.2f}s"


def test_criterion_7_passive_state(model, demo_pops, demo_reports):
    passive = optimizer.apply_permutation(
        demo_pops, optimizer.passive_permutation(demo_pops)
    )
    q_min = min(r.heat for r in demo_reports)
    passive_report = demo_reports[locate(demo_reports, passive)]
    slot = model.target_index - 1
    ok = passive_report.heat == q_min and passive[slot] < demo_pops.max()
    assert report(7, "passive state", ok), (passive_report.heat, q_min)


def test_criterion_8_trajectory_qsl_inequality(model, demo_reports, demo_sweep):
    a = dsp_core.coefficient_a(model)
    margins = dsp_core.qsl_margins(demo_sweep.times, demo_sweep.fidelities, a)
    worst_margin = float(margins.min())
    ordering = all(r.t_qsl >= r.t_qsl_2 for r in demo_reports)
    ok = worst_margin >= -1e-9 and ordering
    assert report(8, "trajectory qsl inequality", ok), worst_margin


def test_criterion_9_convergence_ordering(model, demo_pops, demo_reports, demo_sweep):
    def t99(row):
        hits = np.nonzero(demo_sweep.fidelities[row] >= 0.99)[0]
        assert hits.size, f"trajectory {row} never reaches 0.99"
        return float(demo_sweep.times[hits[0]])

    row_a = locate(demo_reports, demo_pops)
    row_b = locate(demo_reports, np.sort(demo_pops))
    row_c = locate(demo_reports, np.sort(demo_pops)[::-1])
    final_a = float(demo_sweep.fidelities[row_a, -1])
    ok = t99(row_a) < t99(row_b) and t99(row_a) < t99(row_c) and final_a >= 0.999
    assert report(9, "convergence ordering", ok), (
        t99(row_a), t99(row_b), t99(row_c), final_a,
    )


def test_criterion_10_thermal_coincidence(model, thermal_arrangements, thermal_batch):
    labels = list(thermal_arrangements)
    fid = {label: thermal_batch.fidelities[k] for k, label in enumerate(labels)}
    sup_diff = float(np.max(np.abs(fid["B"] - fid["C"])))
    heats = {
        label: dissipated_heat(
            model,
            dsp_core.state_from_populations(model.eigensystem, arr),
        )
        for label, arr in thermal_arrangements.items()
    }
    ok = sup_diff < 1e-2 and abs(heats["B"] - heats["C"]) > 1e-4
    assert report(10, "thermal coincidence", ok), (sup_diff, heats)


def test_criterion_11_conservation_and_convergence(
    demo_sweep, demo_sweep_halved, thermal_batch, thermal_batch_halved
):
    ok = True
    for batch in (demo_sweep, thermal_batch):
        ok = ok and float(batch.max_trace_dev.max()) < 1e-8
        ok = ok and float(batch.max_herm_defect.max()) < 1e-9
        ok = ok and float(batch.min_eigenvalue.min()) > -1e-8
    halving_demo = float(
        np.max(np.abs(demo_sweep.fidelities[:, -1] - demo_sweep_halved.fidelities[:, -1]))
    )
    halving_thermal = float(
        np.max(np.abs(thermal_batch.fidelities[:, -1] - thermal_batch_halved.fidelities[:, -1]))
    )
    ok = ok and halving_demo < 1e-6 and halving_thermal < 1e-6
    assert report(11, "conservation and step-halving", ok), (
        halving_demo, halving_thermal,
    )
