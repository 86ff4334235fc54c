"""Tests for the dense Hermitian linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspqsl import dsp_core, lindblad, optimizer, qmat, rydberg
from helpers import (
    analytic_eigenbasis,
    charpoly_eigenvalues,
    degenerate_clusters_reference,
    jacobi_eigensystem,
    random_density,
    random_hermitian,
    random_unitary,
    trace_product,
)


def column_projectors(es, columns):
    """Projectors vv^dag onto the eigenvector columns `columns`, stacked."""
    v = es.vectors[:, columns]
    return np.einsum("ik,jk->kij", v, v.conj())


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

    def test_nan_eigenvalues_are_refused(self, monkeypatch):
        # A NaN residual compares False with any tolerance; the check must not pass it.
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] * np.nan, eigh(a)[1]))
        h = random_hermitian(np.random.default_rng(5), 6)
        with pytest.raises(qmat.ConvergenceError, match="residual nan"):
            qmat.hermitian_eigensystem(h)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        pair=st.integers(0, 14),
        size=st.integers(2, 4),
        upper=st.booleans(),
    )
    @settings(max_examples=60)
    def test_matches_jacobi_oracle_with_target_in_a_degenerate_pair(
        self, seed, dim, pair, size, upper
    ):
        # Spectrum with gaps >= 0.1 except one exact cluster of 2-4 levels
        # (a pair at size 2); the target is a random combination of the
        # cluster's eigenvectors, aimed at its first or last slot.
        rng = np.random.default_rng(seed)
        size = min(size, dim)
        lo = pair % (dim - size + 1)
        hi = lo + size
        gaps = rng.uniform(0.1, 1.0, size=dim - 1)
        gaps[lo:hi - 1] = 0.0
        values = np.concatenate([[0.0], np.cumsum(gaps)]) - rng.uniform(0.0, dim)
        u = random_unitary(rng, dim)
        h = (u * values) @ u.conj().T
        h = (h + h.conj().T) / 2.0
        phi = qmat.as_ket(u[:, lo:hi] @ (rng.normal(size=size) + 1j * rng.normal(size=size)))
        target_index = hi if upper else lo + 1

        es = qmat.hermitian_eigensystem(h, target=phi, target_index=target_index)
        ref = jacobi_eigensystem(h, target=phi, target_index=target_index)
        assert np.max(np.abs(es.eigenvalues - ref.eigenvalues)) <= 1e-12 * qmat.frobenius_norm(h)
        overlaps = np.abs(es.vectors.conj().T @ phi) ** 2
        assert int(np.argmax(overlaps)) == target_index - 1
        assert abs(overlaps[target_index - 1] - 1.0) < 1e-12
        # Columns carry each solver's phases, so they are compared as
        # projectors vv^dag. The rest of the cluster is completed from each
        # solver's own vectors of it, so only its span is solver independent;
        # for a pair that span is the lone partner's projector.
        rest = np.setdiff1d(np.arange(lo, hi), [target_index - 1])
        fixed = np.setdiff1d(np.arange(dim), rest)
        assert np.max(np.abs(column_projectors(es, fixed) - column_projectors(ref, fixed))) < 1e-10
        span, ref_span = es.vectors[:, rest], ref.vectors[:, rest]
        assert np.max(np.abs(span @ span.conj().T - ref_span @ ref_span.conj().T)) < 1e-10

    def test_degenerate_cluster_shares_one_eigenvalue(self, model):
        # Each solver splits the demo's two zero modes by a different ~1e-18.
        # As one level they get one value, so their Gibbs weights tie and a
        # thermal sweep scores 6!/2 distinct arrangements with either solver.
        for es in (model.eigensystem, jacobi_eigensystem(model.h_s)):
            assert es.eigenvalues[2] == es.eigenvalues[3]
        lam = rydberg.thermal_populations(20.0, model.eigensystem.eigenvalues)
        assert len(optimizer.enumerate_permutations(lam, model)) == 360

    @given(st.lists(st.sampled_from([0.0, 1e-10, 0.5, 1.0, 1.0 + 5e-10]), min_size=1, max_size=8))
    def test_clusters_match_the_loop_reference(self, values):
        # Values from a grid with near-ties, so runs often touch either end;
        # the fixed gap clusters the near-ties (1e-10 and 5e-10 apart).
        values = np.sort(values)
        gap = 1e-9
        assert qmat._degenerate_clusters(values, gap) == degenerate_clusters_reference(values, gap)

    def test_demo_column_projectors_match_the_closed_form(self, model):
        # Each column, column 4 (the Bell target) included, spans the same
        # line as the closed form's in either solver; phases are not compared.
        columns = np.arange(model.dim)
        expected = column_projectors(analytic_eigenbasis(), columns)
        oracle = jacobi_eigensystem(
            model.h_s, target=model.target, target_index=rydberg.TARGET_INDEX
        )
        for es in (model.eigensystem, oracle):
            assert np.max(np.abs(column_projectors(es, columns) - expected)) < 1e-12

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_whose_squares_overflow(self):
        m = np.array([[1e300, 2e300j], [-2e300, 4e300]])
        assert abs(qmat.frobenius_norm(m) / (5e300) - 1.0) < 1e-15
        assert qmat.frobenius_norm(np.full((2, 2), 1.7e308)) == np.inf
        assert qmat.hermiticity_defect(np.array([[0.0, 1e300], [0.0, 0.0]])) == 1e300 * np.sqrt(2)

    def test_ordinary_entries_give_numpy_norm(self):
        m = np.random.default_rng(3).normal(size=(6, 6)) * (1 + 1j)
        assert qmat.frobenius_norm(m) == float(np.linalg.norm(m))


class TestTraceProduct:
    def test_pure_state_purity(self):
        phi = qmat.as_ket([1.0, 1.0j, -0.5])
        rho = np.outer(phi, phi.conj())
        assert abs(trace_product(rho, rho) - 1.0) < 1e-12

    def test_orthogonal_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_product(p0, p1)) < 1e-15

    def test_demo_arrangement_overlap(self, model, demo_pops):
        rho0 = dsp_core.state_from_populations(model.eigensystem, demo_pops)
        overlap = trace_product(rho0, model.target_projector)
        assert abs(overlap - 0.4) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(2), np.eye(3))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_conjugation_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = trace_product(a, b)
        rhs = np.conj(trace_product(b.conj().T, a.conj().T))
        assert abs(lhs - rhs) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_real_for_hermitian_pairs(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert abs(trace_product(a, b).imag) < 1e-12


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
        report = qmat.validate_density_matrix(traj.final_state)
        assert report.hermiticity_defect <= 1e-8 and report.trace_deviation <= 1e-8
        assert report.min_eigenvalue >= -1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_density_passes(self, seed):
        rng = np.random.default_rng(seed)
        assert qmat.validate_density_matrix(random_density(rng, 5)).passes
