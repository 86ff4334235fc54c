"""Tests for the master-equation generator and the RK4 integrator."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspqsl import dsp_core, lindblad, qmat, rydberg
from helpers import (
    dark_state_model,
    evolve_batch_direct,
    random_density,
    random_distinct_simplex,
    random_hermitian,
    random_unitary,
    rk4_reference,
)


@pytest.fixture()
def demo_state(model, demo_pops):
    return dsp_core.state_from_populations(model.eigensystem, demo_pops)


class TestLindbladRhs:
    def test_zero_at_fixed_point(self, model):
        out = lindblad.lindblad_rhs(model, model.target_projector)
        assert qmat.frobenius_norm(out) < 1e-12

    @pytest.mark.parametrize("n_star", [1, 2, 3])
    def test_zero_at_fixed_point_for_other_dark_models(self, n_star):
        other = dark_state_model([-0.5, 0.0, 0.7], target_index=n_star, rate=0.4)
        out = lindblad.lindblad_rhs(other, other.target_projector)
        assert qmat.frobenius_norm(out) < 1e-12

    def test_rydberg_excited_projector_by_hand(self, model):
        # rho = |0r><0r|: channels 1 and 2 feed |01> and |00> at gamma/2
        # each; the Hamiltonian rotates |0r> against |01> at omega2.
        p = rydberg.RydbergParams()
        e = np.eye(6, dtype=complex)
        rho = np.outer(e[:, 4], e[:, 4])
        expected = np.zeros((6, 6), dtype=complex)
        expected[1, 1] = p.gamma / 2
        expected[0, 0] = p.gamma / 2
        expected[4, 4] = -p.gamma
        expected[1, 4] = -1j * p.omega2
        expected[4, 1] = 1j * p.omega2
        out = lindblad.lindblad_rhs(model, rho)
        assert qmat.frobenius_norm(out - expected) < 1e-15

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_traceless_and_hermitian(self, seed):
        model = rydberg.build_model()
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 6)
        out = lindblad.lindblad_rhs(model, rho)
        assert abs(np.trace(out)) < 1e-12
        assert qmat.hermiticity_defect(out) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_matches_vectorized_generator(self, seed):
        model = rydberg.build_model()
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 6)
        direct = lindblad.lindblad_rhs(model, rho)
        gen = lindblad.rhs_matrix(model)
        vectorized = (gen @ rho.reshape(-1)).reshape(6, 6)
        assert qmat.frobenius_norm(direct - vectorized) < 1e-14

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError, match="dimension"):
            lindblad.lindblad_rhs(model, np.eye(3) / 3)


class TestModelSpec:
    def test_rejects_non_hermitian_hamiltonian(self, model):
        h = model.h_s.copy()
        h[0, 1] += 1.0
        with pytest.raises(lindblad.ModelError, match="Hermitian"):
            dataclasses.replace(model, h_s=h)

    @pytest.mark.parametrize("rate", [-0.1, np.nan, np.inf])
    def test_rejects_negative_rate(self, model, rate):
        with pytest.raises(lindblad.ModelError, match="rates must be finite and nonnegative"):
            dataclasses.replace(model, rates=[rate] * 4)

    def test_rejects_rate_count_mismatch(self, model):
        with pytest.raises(lindblad.ModelError, match="one rate per"):
            dataclasses.replace(model, rates=[0.1])

    def test_rejects_bad_target_index(self, model):
        with pytest.raises(lindblad.ModelError, match="target_index"):
            dataclasses.replace(model, target_index=7)

    def test_replaced_hamiltonian_gets_its_own_eigenbasis(self, model):
        rng = np.random.default_rng(7)
        h2 = random_hermitian(rng, 6)
        replaced = dataclasses.replace(model, h_s=h2)
        assert np.allclose(replaced.eigensystem.eigenvalues, np.linalg.eigvalsh(h2), atol=1e-12)
        assert not np.allclose(replaced.eigensystem.eigenvalues, model.eigensystem.eigenvalues)

    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_target_index_defaults_to_the_largest_overlap(self, slot):
        # A target tilted off the eigenvector at `slot` overlaps it most.
        target = np.full(3, 0.1, dtype=complex)
        target[slot - 1] = 1.0
        model = lindblad.ModelSpec(np.diag([-1.0, 0.5, 2.0]), [], [], target)
        assert model.target_index == slot
        assert model.target_energy == [-1.0, 0.5, 2.0][slot - 1]

    def test_alignment_check_catches_wrong_target(self, model):
        # |01> has no weight in the zero-energy pair at slots 3-4, so the
        # vector at slot 4 is orthogonal to it.
        e_01 = np.zeros(6)
        e_01[1] = 1.0
        broken = dataclasses.replace(model, target=e_01)
        report = dsp_core.verify_dsp_conditions(broken)
        assert not report.passes
        assert report.alignment_defect == pytest.approx(1.0, abs=1e-12)


class TestDefaultStep:
    def test_rydberg_value(self, model):
        # Dissipative scale 4 * (gamma/2) * 1 = 0.06 dominates the
        # Hamiltonian norm, and 0.1/0.06 still exceeds the 0.05 cap.
        assert lindblad.default_step(model) == 0.05

    def test_free_model_falls_back_to_cap(self):
        free = dark_state_model([0.0, 1.0], target_index=1, rate=0.0)
        free = dataclasses.replace(free, jump_ops=[], rates=[])
        assert lindblad.default_step(free) == 0.05

    def test_zero_hamiltonian_without_rates_falls_back_to_cap(self):
        # No scale at all: the cap, not a division by zero.
        idle = lindblad.ModelSpec(np.zeros((2, 2)), [], [], [1.0, 0.0])
        assert lindblad.default_step(idle) == 0.05


class TestEvolve:
    def test_fixed_point_stays_put(self, model):
        traj = lindblad.evolve(model, model.target_projector, t_end=50.0)
        assert np.max(np.abs(traj.fidelities - 1.0)) < 1e-10

    def test_maximally_mixed_start_and_monotone_approach(self, model):
        traj = lindblad.evolve(model, np.eye(6) / 6, t_end=500.0)
        assert abs(traj.fidelities[0] - 1 / 6) < 1e-12
        assert np.all(np.diff(traj.fidelities) > -1e-9)
        assert traj.fidelities[-1] > traj.fidelities[0]

    def test_record_grid(self, model, demo_state):
        traj = lindblad.evolve(model, demo_state, t_end=10.0, step=0.05, stride=20)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 10.0) < 1e-12
        assert len(traj) == 11
        assert np.all((traj.angles >= 0) & (traj.angles <= np.pi / 2 + 1e-12))

    def test_final_step_recorded_off_stride(self, model, demo_state):
        traj = lindblad.evolve(model, demo_state, t_end=1.5, step=0.05, stride=20)
        # steps 0, 20 and the final step 30
        assert len(traj) == 3
        assert abs(traj.times[-1] - 1.5) < 1e-12

    def test_step_halving_agreement(self, model, demo_state):
        coarse = lindblad.evolve(model, demo_state, t_end=200.0, step=0.05)
        fine = lindblad.evolve(model, demo_state, t_end=200.0, step=0.025)
        assert qmat.frobenius_norm(coarse.final_state - fine.final_state) < 1e-6

    def test_conservation_along_demo_run(self, model, demo_state):
        traj = lindblad.evolve(model, demo_state, t_end=500.0)
        assert traj.trace_devs.max() < 1e-8
        assert traj.herm_defects.max() < 1e-9
        assert traj.min_eigs.min() > -1e-8

    def test_rejects_invalid_initial_state(self, model):
        bad = np.diag([1.1, -0.1, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="valid density"):
            lindblad.evolve(model, bad, t_end=10.0)

    def test_rejects_a_state_of_another_dimension(self, model):
        with pytest.raises(ValueError, match=r"\(B, 6, 6\) stack of states, got \(1, 2, 2\)"):
            lindblad.evolve(model, np.eye(2) / 2, t_end=1.0)

    def test_rejects_bad_grid(self, model, demo_state):
        with pytest.raises(ValueError, match="step"):
            lindblad.evolve(model, demo_state, t_end=10.0, step=-0.1)
        with pytest.raises(ValueError, match="t_end"):
            lindblad.evolve(model, demo_state, t_end=0.01, step=0.05)
        with pytest.raises(ValueError, match="stride"):
            lindblad.evolve(model, demo_state, t_end=10.0, stride=0)

    def test_unstable_step_aborts_with_time(self, model, demo_state):
        with pytest.raises(lindblad.IntegrationError) as info:
            lindblad.evolve(model, demo_state, t_end=20000.0, step=200.0, stride=1)
        assert info.value.time > 0
        assert info.value.index is None

    def test_refuses_too_many_records_up_front(self, model, demo_state):
        with pytest.raises(ValueError, match=r"t_end=1000000000\.0, step=0\.05 and stride=20"):
            lindblad.evolve(model, demo_state, t_end=1e9, step=0.05, stride=20)
        with pytest.raises(ValueError, match="records"):
            lindblad.evolve_batch(model, demo_state[None], t_end=float("inf"), step=0.05)

    def test_admits_the_demo_grid_at_stride_one(self):
        assert lindblad.check_grid(5000.0, 0.05, 1) == 100_000
        assert lindblad.check_grid(5000.0, 0.05, 20) == 100_000


def target_fidelities(model, states):
    return np.einsum("i,rij,j->r", model.target.conj(), states, model.target).real


class TestRecordStepperAgainstOracle:
    # 2007 steps of 0.05: the final record is off-stride for strides 7 and 20.
    T_END = 100.35

    @pytest.mark.parametrize("stride", [1, 7, 20])
    def test_evolve_matches_per_step_rk4(self, model, demo_state, stride):
        times, states = rk4_reference(model, demo_state, self.T_END, 0.05, stride)
        traj = lindblad.evolve(model, demo_state, self.T_END, step=0.05, stride=stride)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.states - states)) < 1e-12
        assert np.max(np.abs(traj.fidelities - target_fidelities(model, states))) < 1e-12

    @pytest.mark.parametrize("stride", [1, 7, 20])
    def test_batch_matches_per_step_rk4(self, model, demo_pops, stride):
        stack = np.stack([
            dsp_core.state_from_populations(model.eigensystem, demo_pops),
            dsp_core.state_from_populations(model.eigensystem, np.sort(demo_pops)),
            np.eye(6) / 6,
        ])
        batch = lindblad.evolve_batch(model, stack, self.T_END, step=0.05, stride=stride)
        for b, rho0 in enumerate(stack):
            times, states = rk4_reference(model, rho0, self.T_END, 0.05, stride)
            assert np.array_equal(batch.times, times)
            assert np.max(np.abs(batch.fidelities[b] - target_fidelities(model, states))) < 1e-12

    @pytest.mark.parametrize(
        "step, stride",
        [(60.0, 7), (200.0, 7), (200.0, 20), (200.0, 200)],
        ids=["eigenvalue", "trace", "overflow-in-block", "non-finite"],
    )
    def test_unstable_step_aborts_at_the_oracle_record(self, model, demo_state, step, stride):
        with np.errstate(all="ignore"), pytest.raises(lindblad.IntegrationError) as expected:
            rk4_reference(model, demo_state, 1e6, step, stride)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(lindblad.IntegrationError) as got:
                lindblad.evolve(model, demo_state, 1e6, step=step, stride=stride)
        assert got.value.time == expected.value.time
        check = str(expected.value).split(" beyond")[0].split(" at t")[0]
        assert str(got.value).startswith(check)
        assert got.value.index is None


class TestFrameCovariance:
    """A state given by its populations over the ordered eigenbasis evolves
    the same in every frame: under a diagonal phase similarity D H D^dag, a
    relabelling of the basis, and H -> s H, L -> sqrt(s) L with times / s.
    Eigenvector phases differ between frames, so this pins that no record
    depends on them."""

    @given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0))
    @settings(max_examples=30)
    def test_fidelity_records_agree(self, seed, exponent):
        rng = np.random.default_rng(seed)
        n = 4
        energies = np.cumsum(rng.uniform(0.1, 1.0, n))  # distinct
        target, source = (int(k) + 1 for k in rng.choice(n, size=2, replace=False))
        base = dark_state_model(energies, target_index=target, source_index=source)
        lam = random_distinct_simplex(rng, n)
        s = 10.0**exponent

        def framed(u, scale=1.0):
            return lindblad.ModelSpec(
                h_s=scale * u @ base.h_s @ u.conj().T,
                jump_ops=[math.sqrt(scale) * u @ l @ u.conj().T for l in base.jump_ops],
                rates=base.rates,
                target=u @ base.target,
            )

        def run(model, scale=1.0):
            rho0 = dsp_core.state_from_populations(model.eigensystem, lam)
            return lindblad.evolve(model, rho0, 20.0 / scale, step=0.05 / scale)

        u = random_unitary(rng, n)
        phases = np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))
        relabel = np.eye(n)[rng.permutation(n)]
        ref = run(framed(u))
        for other, scale in ((phases @ u, 1.0), (relabel @ u, 1.0), (u, s)):
            traj = run(framed(other, scale), scale)
            assert np.max(np.abs(traj.fidelities - ref.fidelities)) <= 1e-12
            assert np.max(np.abs(traj.times * scale - ref.times)) <= 1e-12 * ref.times[-1]


def no_generator(model):
    """Stand-in for `lindblad.rhs_matrix` where a stack must be refused first."""
    raise AssertionError("the generator was formed for a refused stack")


class TestEvolveBatch:
    def test_matches_single_trajectory(self, model, demo_state):
        traj = lindblad.evolve(model, demo_state, t_end=200.0)
        batch = lindblad.evolve_batch(model, demo_state[None], t_end=200.0)
        assert np.array_equal(batch.times, traj.times)
        assert np.max(np.abs(batch.fidelities[0] - traj.fidelities)) < 1e-12

    def test_batch_diagnostics_bounded(self, model, demo_pops):
        basis = model.eigensystem
        states = np.stack(
            [
                dsp_core.state_from_populations(basis, demo_pops),
                np.eye(6) / 6,
                model.target_projector,
            ]
        )
        batch = lindblad.evolve_batch(model, states, t_end=300.0)
        assert batch.fidelities.shape[0] == 3
        assert batch.max_trace_dev.max() < 1e-10
        assert batch.max_herm_defect.max() < 1e-10
        assert batch.min_eigenvalue.min() > -1e-10

    def test_rejects_bad_stack(self, model):
        with pytest.raises(ValueError, match="stack"):
            lindblad.evolve_batch(model, np.eye(6), t_end=10.0)
        with pytest.raises(ValueError, match="nonempty"):
            lindblad.evolve_batch(model, np.zeros((0, 6, 6)), t_end=10.0)

    def test_names_the_non_finite_trajectory(self, model, demo_state, monkeypatch):
        bad = demo_state.copy()
        bad[0, 1] = np.nan
        stack = np.stack([demo_state, bad, model.target_projector])
        monkeypatch.setattr(lindblad, "rhs_matrix", no_generator)
        with pytest.raises(ValueError, match="state 1 of the stack is not finite"):
            lindblad.evolve_batch(model, stack, t_end=10.0)


@st.composite
def diagonal_stacks(draw):
    """A model (the demo, or a dark-state model with a degenerate spectrum)
    and 1-4 states diagonal in its eigenbasis, with some populations zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = rydberg.build_model()
    else:
        d = draw(st.integers(2, 6))
        energies = np.sort(rng.choice([-1.0, 0.0, 0.5, 1.0], size=d))
        model = dark_state_model(
            energies, target_index=draw(st.integers(1, d)), rate=draw(st.floats(0.1, 1.0))
        )
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        lam = rng.uniform(size=model.dim) * (rng.uniform(size=model.dim) < 0.6)
        if not lam.any():
            lam[rng.integers(model.dim)] = 1.0
        rows.append(lam / lam.sum())
    return model, np.array(rows)


class TestSuperposedBatchAgainstOracle:
    """`evolve_batch` on eigenbasis-diagonal stacks against the state-by-state
    oracle: exact fields within roundoff, bounds on the side of the gates."""

    # 407 steps of 0.05: the final record is off-stride for strides 7 and 20.
    T_END = 20.35
    # The trace, the Hermiticity defect and, for a state with a zero
    # population, the lowest eigenvalue are roundoff on both paths, which
    # round differently: over 1 300 seeded examples of these inputs the two
    # trace deviations differed by at most 2.0e-14, the direct defect
    # exceeded the bound by at most 2.2e-14 and the bound exceeded the
    # direct eigenvalue by at most 1.6e-16 (the gates are 1e-8, 1e-9, -1e-8).
    TRACE_ROUNDOFF = 5e-14
    HERM_ROUNDOFF = 5e-14
    EIG_ROUNDOFF = 1e-15

    @given(case=diagonal_stacks(), stride=st.sampled_from([1, 7, 20]))
    @settings(max_examples=30)
    def test_matches_oracle_and_bounds_hold(self, case, stride):
        model, populations = case
        stack = np.stack([dsp_core.state_from_populations(model.eigensystem, lam) for lam in populations])
        weights = lindblad._eigenbasis_weights(model, stack)
        assert weights is not None and np.max(np.abs(weights - populations)) < 1e-12

        got = lindblad.evolve_batch(model, stack, self.T_END, step=0.05, stride=stride)
        want = evolve_batch_direct(model, stack, self.T_END, step=0.05, stride=stride)
        assert np.array_equal(got.times, want.times)
        assert np.max(np.abs(got.fidelities - want.fidelities)) < 1e-12
        assert np.max(np.abs(got.max_trace_dev - want.max_trace_dev)) < self.TRACE_ROUNDOFF
        assert np.all(got.max_herm_defect >= want.max_herm_defect - self.HERM_ROUNDOFF)
        assert np.all(got.min_eigenvalue <= want.min_eigenvalue + self.EIG_ROUNDOFF)

    @pytest.mark.parametrize(
        "case, needle",
        [
            ("coherent", "state 0 of the stack is not diagonal"),
            ("negative-weight", "state 1 of the stack is not diagonal"),
            ("mixed-stack", "state 1 of the stack is not diagonal"),
            ("all-zero", "every state of the stack has zero weight"),
        ],
        ids=["coherent", "negative-weight", "mixed-stack", "all-zero"],
    )
    def test_other_stacks_are_refused(self, model, demo_state, monkeypatch, case, needle):
        rng = np.random.default_rng(7)
        vecs = model.eigensystem.vectors
        negative = vecs @ np.diag([1.2, -0.2, 0.0, 0.0, 0.0, 0.0]) @ vecs.conj().T
        stack = {
            "coherent": random_density(rng, 6)[None],
            "negative-weight": np.stack([demo_state, negative]),
            "mixed-stack": np.stack([demo_state, random_density(rng, 6)]),
            "all-zero": np.zeros((2, 6, 6)),
        }[case]
        monkeypatch.setattr(lindblad, "rhs_matrix", no_generator)
        with pytest.raises(ValueError, match=needle):
            lindblad.evolve_batch(model, stack, self.T_END, step=0.05, stride=7)

    @pytest.mark.parametrize("n_batch", [1, 3])
    def test_unstable_step_names_the_oracle_trajectory(self, model, demo_pops, n_batch):
        arrangements = [demo_pops, np.sort(demo_pops), np.array([0.0, 0.0, 0.5, 0.5, 0.0, 0.0])]
        stack = np.stack([
            dsp_core.state_from_populations(model.eigensystem, lam) for lam in arrangements[:n_batch]
        ])
        with pytest.raises(lindblad.IntegrationError) as expected:
            evolve_batch_direct(model, stack, 1e6, step=200.0, stride=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(lindblad.IntegrationError) as got:
                lindblad.evolve_batch(model, stack, 1e6, step=200.0, stride=200)
        assert got.value.time == expected.value.time
        assert got.value.index == expected.value.index
        assert str(got.value) == str(expected.value)


class TestCoherenceDecouplingDiagnostic:
    """The largest eigenbasis coherence along a trajectory started diagonal
    in the eigenbasis: how strongly populations couple back into coherences."""

    def test_zero_at_fixed_point(self, model):
        traj = lindblad.evolve(model, model.target_projector, t_end=50.0)
        assert traj.coherence_maxes.max() < 1e-10

    def test_zero_for_fully_classical_model(self):
        # Diagonal Hamiltonian and diagonal jump operator: populations and
        # coherences never mix.
        base = dark_state_model([0.0, 0.5, 1.0], target_index=1)
        diag_jump = np.diag([0.0, 1.0, 0.5]).astype(complex)
        classical = dataclasses.replace(base, jump_ops=[diag_jump], rates=[0.3])
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        traj = lindblad.evolve(classical, rho0, t_end=100.0)
        assert traj.coherence_maxes.max() < 1e-10

    def test_rydberg_reports_finite_coupling(self, model, demo_state):
        # Populations do leak into coherences for this model; the diagnostic
        # measures how much without asserting a particular value.
        traj = lindblad.evolve(model, demo_state, t_end=200.0)
        assert 0.0 <= traj.coherence_maxes.max() <= 1.0
