"""Tests for the two-atom model: operators, spectrum, thermal weights."""

import math

import numpy as np
import pytest

from dspqsl import dsp_core, qmat, rydberg
from helpers import analytic_eigenbasis

IDX = {label: k for k, label in enumerate(rydberg.BASIS_LABELS)}


class TestHamiltonian:
    def test_matrix_elements(self):
        p = rydberg.RydbergParams()
        h = rydberg.build_hamiltonian(p)
        assert h[IDX["00"], IDX["01"]] == p.omega
        assert h[IDX["00"], IDX["10"]] == p.omega
        assert h[IDX["11"], IDX["01"]] == p.omega
        assert h[IDX["10"], IDX["r0"]] == p.omega2
        assert h[IDX["01"], IDX["0r"]] == p.omega2
        assert h[IDX["00"], IDX["11"]] == 0.0
        assert qmat.hermiticity_defect(h) == 0.0

    def test_annihilates_bell_state(self):
        h = rydberg.build_hamiltonian(rydberg.RydbergParams())
        assert np.linalg.norm(h @ rydberg.bell_target()) < 1e-16


class TestJumpOperators:
    def test_transition_structure(self):
        l1, l2, l3, l4 = rydberg.build_jump_ops()
        for op, (dst, src) in zip(
            (l1, l2, l3, l4), (("01", "0r"), ("00", "0r"), ("10", "r0"), ("00", "r0"))
        ):
            expected = np.zeros((6, 6), dtype=complex)
            expected[IDX[dst], IDX[src]] = 1.0
            assert np.array_equal(op, expected)

    def test_support_and_range(self):
        # Columns outside the Rydberg doublet vanish; images stay in the
        # span of |00>, |01>, |10>.
        ground = [IDX["00"], IDX["01"], IDX["10"]]
        rydberg_levels = [IDX["0r"], IDX["r0"]]
        for op in rydberg.build_jump_ops():
            for k in range(6):
                col = op[:, k]
                if k in rydberg_levels:
                    outside = np.delete(col, ground)
                    assert np.linalg.norm(outside) == 0.0
                else:
                    assert np.linalg.norm(col) == 0.0

    def test_rates_are_half_gamma(self, model):
        assert model.rates == [0.015] * 4


class TestModelAssembly:
    def test_dark_state_conditions(self, model):
        report = dsp_core.verify_dsp_conditions(model)
        assert report.eigen_residual < 1e-12
        assert all(r < 1e-12 for r in report.jump_residuals)

    def test_pump_operator_identity(self, model):
        # sum_mu gamma_mu L^dag rho_f L = (gamma/4)(|0r><0r| + |r0><r0|)
        gamma = 0.03
        rho_f = model.target_projector
        acc = np.zeros((6, 6), dtype=complex)
        for g, l in zip(model.rates, model.jump_ops):
            acc += g * (l.conj().T @ rho_f @ l)
        expected = np.zeros((6, 6), dtype=complex)
        expected[IDX["0r"], IDX["0r"]] = gamma / 4
        expected[IDX["r0"], IDX["r0"]] = gamma / 4
        assert qmat.frobenius_norm(acc - expected) < 1e-16
        assert abs(qmat.frobenius_norm(acc) - math.sqrt(2) * gamma / 4) < 1e-16

    @pytest.mark.parametrize("gamma", [0.03, 0.011, 0.2, 1.7])
    def test_speed_coefficient_tracks_gamma(self, gamma):
        model = rydberg.build_model(rydberg.RydbergParams(gamma=gamma))
        expected = math.sqrt(2) * gamma / 4
        assert abs(dsp_core.coefficient_a(model) - expected) < 1e-12 * expected

    def test_target_slot(self, model):
        assert model.target_index == 4
        overlap = model.eigensystem.vector(4).conj() @ model.target
        assert abs(abs(overlap) ** 2 - 1.0) < 1e-12

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rydberg.RydbergParams(gamma=-0.1)

    def test_zero_gamma_model_builds(self):
        model = rydberg.build_model(rydberg.RydbergParams(gamma=0.0))
        assert dsp_core.coefficient_a(model) == 0.0


class TestAnalyticEigenbasis:
    def test_matches_numerical_eigenvalues(self, model):
        analytic = analytic_eigenbasis()
        assert np.max(np.abs(analytic.eigenvalues - model.eigensystem.eigenvalues)) < 1e-10

    def test_closed_form_values(self):
        analytic = analytic_eigenbasis()
        s = math.hypot(0.02, 0.02)
        assert np.allclose(analytic.eigenvalues, [-s, -0.02, 0.0, 0.0, 0.02, s], atol=1e-15)

    def test_bell_state_sits_at_slot_four(self):
        analytic = analytic_eigenbasis()
        assert abs(abs(analytic.vector(4).conj() @ rydberg.bell_target()) - 1.0) < 1e-14

    def test_orthonormal(self):
        v = analytic_eigenbasis().vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-12

    @pytest.mark.parametrize(
        "params",
        [
            rydberg.RydbergParams(),
            rydberg.RydbergParams(omega2=0.07, omega=0.013),
            rydberg.RydbergParams(omega2=0.0, omega=0.01),
            rydberg.RydbergParams(omega2=0.02, omega=0.0),
        ],
    )
    def test_columns_are_eigenvectors(self, params):
        h = rydberg.build_hamiltonian(params)
        es = analytic_eigenbasis(params)
        residual = h @ es.vectors - es.vectors * es.eigenvalues
        assert np.max(np.abs(residual)) < 1e-15

    def test_degenerate_cluster_spans_agree(self, model):
        analytic = analytic_eigenbasis()
        numeric = model.eigensystem
        groups = {}
        for k, e in enumerate(analytic.eigenvalues):
            groups.setdefault(round(float(e), 12), []).append(k)
        for indices in groups.values():
            pa = sum(
                np.outer(analytic.vectors[:, k], analytic.vectors[:, k].conj())
                for k in indices
            )
            pn = sum(
                np.outer(numeric.vectors[:, k], numeric.vectors[:, k].conj())
                for k in indices
            )
            assert qmat.frobenius_norm(pa - pn) < 1e-10

    def test_rejects_fully_degenerate_params(self):
        with pytest.raises(ValueError, match="zero"):
            analytic_eigenbasis(rydberg.RydbergParams(omega2=0.0, omega=0.0))


class TestThermalPopulations:
    def test_infinite_temperature_is_uniform(self):
        energies = [-0.3, -0.1, 0.0, 0.2]
        lam = rydberg.thermal_populations(0.0, energies)
        assert np.allclose(lam, 0.25, atol=1e-15)

    def test_low_temperature_concentrates_on_ground(self):
        with np.errstate(over="raise"):
            lam = rydberg.thermal_populations(1e6, [-0.028, 0.0, 0.028])
        assert lam[0] > 1.0 - 1e-12
        assert np.all(np.isfinite(lam))

    def test_rydberg_spectrum_gibbs_weights(self):
        energies = analytic_eigenbasis().eigenvalues
        lam = rydberg.thermal_populations(20.0, energies)
        s = math.hypot(0.02, 0.02)
        manual = np.exp(-20.0 * np.array([-s, -0.02, 0.0, 0.0, 0.02, s]))
        manual /= manual.sum()
        assert np.max(np.abs(lam - manual)) < 1e-15
        # exactly degenerate zero energies share one weight
        assert lam[2] == lam[3]
        assert abs(lam.sum() - 1.0) < 1e-14

    def test_rejects_non_finite_beta(self):
        with pytest.raises(ValueError, match="finite"):
            rydberg.thermal_populations(float("inf"), [0.0, 1.0])
