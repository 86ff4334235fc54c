"""Tests for the dense Hermitian linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspqsl import dsp_core, lindblad, optimizer, qmat, rydberg
from helpers import (
    charpoly_eigenvalues,
    jacobi_eigensystem,
    random_density,
    random_hermitian,
    random_unitary,
)


class TestHermitianEigensystem:
    def test_identity(self):
        es = qmat.hermitian_eigensystem(np.eye(3))
        assert np.allclose(es.eigenvalues, 1.0, atol=1e-14)
        assert np.allclose(es.vectors.conj().T @ es.vectors, np.eye(3), atol=1e-12)

    def test_real_diagonal_sorted(self):
        es = qmat.hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(es.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_rydberg_hamiltonian_closed_form(self):
        # Exchange-symmetry blocks give +-sqrt(4 w^2 + W2^2), +-W2, 0, 0.
        p = rydberg.RydbergParams(omega2=0.02, omega=0.01)
        h = rydberg.build_hamiltonian(p)
        s = np.hypot(2 * p.omega, p.omega2)
        expected = np.array([-s, -p.omega2, 0.0, 0.0, p.omega2, s])
        es = qmat.hermitian_eigensystem(h)
        assert np.max(np.abs(es.eigenvalues - expected)) < 1e-12
        assert abs(s - 0.028284271247461905) < 1e-15

    def test_rydberg_hamiltonian_charpoly_crosscheck(self):
        h = rydberg.build_hamiltonian(rydberg.RydbergParams())
        es = qmat.hermitian_eigensystem(h)
        # Root-finding on the characteristic polynomial is coarse near the
        # double zero, hence the loose tolerance.
        assert np.max(np.abs(charpoly_eigenvalues(h) - es.eigenvalues)) < 1e-7

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            qmat.hermitian_eigensystem(m)

    def test_convergence_budget(self):
        # The oracle's exhausted budget surfaces as LAPACK's would.
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        with pytest.raises(qmat.ConvergenceError, match="off-diagonal"):
            jacobi_eigensystem(h, max_sweeps=0)

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (lambda vals, vecs: (vals, vecs + 1e-6), "orthonormality"),
            (lambda vals, vecs: (vals + 1e-6, vecs), "residual"),
        ],
        ids=["skewed-vectors", "shifted-values"],
    )
    def test_perturbed_lapack_result_is_refused(self, monkeypatch, perturb, message):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: perturb(*eigh(a)))
        h = random_hermitian(np.random.default_rng(5), 6)
        with pytest.raises(qmat.ConvergenceError, match=message):
            qmat.hermitian_eigensystem(h)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        pair=st.integers(0, 14),
        upper=st.booleans(),
    )
    @settings(max_examples=60)
    def test_matches_jacobi_oracle_with_target_in_a_degenerate_pair(
        self, seed, dim, pair, upper
    ):
        # Spectrum with gaps >= 0.1 except one exact pair; the target is a
        # random combination of the pair's eigenvectors, aimed at one slot.
        rng = np.random.default_rng(seed)
        pair %= dim - 1
        gaps = rng.uniform(0.1, 1.0, size=dim - 1)
        gaps[pair] = 0.0
        values = np.concatenate([[0.0], np.cumsum(gaps)]) - rng.uniform(0.0, dim)
        u = random_unitary(rng, dim)
        h = (u * values) @ u.conj().T
        h = (h + h.conj().T) / 2.0
        phi = qmat.as_ket(u[:, pair:pair + 2] @ (rng.normal(size=2) + 1j * rng.normal(size=2)))
        target_index = pair + 1 + int(upper)

        es = qmat.hermitian_eigensystem(h, target=phi, target_index=target_index)
        ref = jacobi_eigensystem(h, target=phi, target_index=target_index)
        assert np.max(np.abs(es.eigenvalues - ref.eigenvalues)) <= 1e-12 * qmat.frobenius_norm(h)
        overlaps = np.abs(es.vectors.conj().T @ phi) ** 2
        assert int(np.argmax(overlaps)) == target_index - 1
        assert abs(overlaps[target_index - 1] - 1.0) < 1e-12
        assert np.max(np.abs(es.vectors - ref.vectors)) < 1e-10

    def test_degenerate_cluster_shares_one_eigenvalue(self, model):
        # Each solver splits the demo's two zero modes by a different ~1e-18.
        # As one level they get one value, so their Gibbs weights tie and a
        # thermal sweep scores 6!/2 distinct arrangements with either solver.
        for es in (model.eigensystem, jacobi_eigensystem(model.h_s)):
            assert es.eigenvalues[2] == es.eigenvalues[3]
        lam = rydberg.thermal_populations(20.0, model.eigensystem.eigenvalues)
        assert len(optimizer.enumerate_permutations(lam, model)) == 360

    def test_demo_columns_follow_the_tie_robust_phase_convention(self, model):
        # Columns 1-3 and 5-6 each have tied largest components (two or
        # four of them); the first of the tie is the one made real positive.
        # Only column 1 of the closed form starts out with a negative one.
        # Column 4 is the Bell target, which keeps its own phase. Roundoff
        # decides ties differently in the two solvers, so both must agree.
        expected = rydberg.analytic_eigenbasis().vectors * np.array([-1, 1, 1, 1, 1, 1])
        oracle = jacobi_eigensystem(
            model.h_s, target=model.target, target_index=rydberg.TARGET_INDEX
        )
        for es in (model.eigensystem, oracle):
            assert np.max(np.abs(es.vectors - expected)) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        a = qmat.hermitian_eigensystem(h)
        b = qmat.hermitian_eigensystem(h.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)

    def test_degenerate_cluster_targets_requested_slot(self):
        h = np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex)
        phi = qmat.as_ket([0.0, 1.0, 1.0, 0.0])
        es = qmat.hermitian_eigensystem(h, target=phi, target_index=3)
        assert abs(abs(es.vector(3).conj() @ phi) ** 2 - 1.0) < 1e-12
        assert np.allclose(es.eigenvalues, [1.0, 2.0, 2.0, 3.0], atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8))
    @settings(max_examples=100)
    def test_reconstruction_and_ascending_order(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        es = qmat.hermitian_eigensystem(h)
        rebuilt = es.vectors @ np.diag(es.eigenvalues) @ es.vectors.conj().T
        assert qmat.frobenius_norm(rebuilt - h) < 1e-9
        assert np.all(np.diff(es.eigenvalues) >= 0)
        column_residuals = np.linalg.norm(
            h @ es.vectors - es.vectors * es.eigenvalues, axis=0
        )
        assert column_residuals.max() < 1e-10 * max(1.0, qmat.frobenius_norm(h))


class TestFrobeniusNorm:
    def test_zero(self):
        assert qmat.frobenius_norm(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_identity(self, n):
        assert abs(qmat.frobenius_norm(np.eye(n)) - np.sqrt(n)) < 1e-14

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
    @settings(max_examples=50)
    def test_unitary_invariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u = random_unitary(rng, dim)
        v = random_unitary(rng, dim)
        assert abs(qmat.frobenius_norm(u @ m @ v) - qmat.frobenius_norm(m)) < 1e-10


class TestTraceProduct:
    def test_pure_state_purity(self):
        phi = qmat.as_ket([1.0, 1.0j, -0.5])
        rho = np.outer(phi, phi.conj())
        assert abs(qmat.trace_product(rho, rho) - 1.0) < 1e-12

    def test_orthogonal_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(qmat.trace_product(p0, p1)) < 1e-15

    def test_demo_arrangement_overlap(self, model, demo_pops):
        rho0 = dsp_core.state_from_populations(model.eigensystem, demo_pops)
        overlap = qmat.trace_product(rho0, model.target_projector)
        assert abs(overlap - 0.4) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qmat.trace_product(np.eye(2), np.eye(3))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_conjugation_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = qmat.trace_product(a, b)
        rhs = np.conj(qmat.trace_product(b.conj().T, a.conj().T))
        assert abs(lhs - rhs) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_real_for_hermitian_pairs(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert abs(qmat.trace_product(a, b).imag) < 1e-12


class TestValidateDensityMatrix:
    def test_maximally_mixed_passes(self):
        assert qmat.validate_density_matrix(np.eye(4) / 4).passes

    def test_negative_eigenvalue_fails(self):
        report = qmat.validate_density_matrix(np.diag([1.1, -0.1]))
        assert not report.passes
        assert abs(report.min_eigenvalue - (-0.1)) < 1e-12
        assert report.trace_deviation < 1e-15

    def test_long_evolution_end_state_passes(self, model, demo_pops):
        rho0 = dsp_core.state_from_populations(model.eigensystem, demo_pops)
        traj = lindblad.evolve(model, rho0, t_end=1000.0)
        assert qmat.validate_density_matrix(traj.final_state, tol=1e-8).passes

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_density_passes(self, seed):
        rng = np.random.default_rng(seed)
        assert qmat.validate_density_matrix(random_density(rng, 5), tol=1e-10).passes
