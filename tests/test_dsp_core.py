"""Tests for the scalar functionals: bounds, heat, entropy, splitting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspqsl import dsp_core, lindblad, optimizer, qmat, rydberg
from helpers import (
    dark_state_model,
    dissipated_heat,
    qsl_time,
    random_density,
    random_distinct_simplex,
    random_unitary,
    to_eigenbasis,
    trace_product,
)

GAMMA = 0.03
SPECTRAL_SPAN = math.hypot(2 * 0.01, 0.02)  # sqrt(4 w^2 + W2^2) at defaults


@pytest.fixture()
def demo_state(model, demo_pops):
    return dsp_core.state_from_populations(model.eigensystem, demo_pops)


def arranged_state(model, arrangement):
    return dsp_core.state_from_populations(model.eigensystem, np.asarray(arrangement))


class TestVerifyDspConditions:
    def test_rydberg_bell_state_passes(self, model):
        report = dsp_core.verify_dsp_conditions(model)
        assert report.passes
        assert report.eigen_residual < 1e-12
        assert all(r < 1e-12 for r in report.jump_residuals)

    def test_wrong_target_fails_on_jump_residual(self, model):
        e_0r = np.zeros(6)
        e_0r[4] = 1.0
        broken = dataclasses.replace(model, target=e_0r)
        report = dsp_core.verify_dsp_conditions(broken)
        assert not report.passes
        # channel |01><0r| maps |0r> to |01>, so its residual is exactly 1
        assert abs(report.jump_residuals[0] - 1.0) < 1e-12

    def test_unitary_limit_passes(self, model):
        zeros = [np.zeros((6, 6), dtype=complex)] * 4
        unitary = dataclasses.replace(model, jump_ops=zeros)
        assert dsp_core.verify_dsp_conditions(unitary).passes


class TestUnitCovariance:
    """H -> s H and L -> sqrt(s) L scale the generator by s: the verdict
    stays, the bounds scale by 1/s and the heat by s. The heat is a sum of
    energies that may cancel, so its roundoff is judged on the largest one."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), exponent=st.floats(-3.0, 3.0))
    @settings(max_examples=30)
    def test_verdict_bounds_and_heat_follow_the_scale(self, seed, n, exponent):
        rng = np.random.default_rng(seed)
        energies = np.cumsum(rng.uniform(0.1, 1.0, n))  # distinct
        target, source = (int(k) + 1 for k in rng.choice(n, size=2, replace=False))
        base = dark_state_model(energies, target_index=target, source_index=source)
        u = random_unitary(rng, n)
        lam = random_distinct_simplex(rng, n)
        s = 10.0**exponent

        def framed(scale):
            return lindblad.ModelSpec(
                h_s=scale * u @ base.h_s @ u.conj().T,
                jump_ops=[math.sqrt(scale) * u @ l @ u.conj().T for l in base.jump_ops],
                rates=base.rates,
                target=u @ base.target,
            )

        one, scaled = framed(1.0), framed(s)
        assert dsp_core.verify_dsp_conditions(scaled).passes
        assert dsp_core.verify_dsp_conditions(one).passes
        reports = optimizer.front_candidates(lam, one), optimizer.front_candidates(lam, scaled)
        for r1, rs in zip(*reports, strict=True):
            assert rs.permutation == r1.permutation
            assert abs(rs.t_qsl * s - r1.t_qsl) <= 1e-12 * r1.t_qsl
            assert abs(rs.heat / s - r1.heat) <= 1e-12 * energies[-1]


class TestCoefficientA:
    def test_rydberg_value(self, model):
        expected = math.sqrt(2) * GAMMA / 4
        assert abs(dsp_core.coefficient_a(model) - expected) < 1e-12 * expected

    def test_zero_rates_flagged_through_qsl(self, model, demo_state):
        silent = dataclasses.replace(model, rates=[0.0] * 4)
        assert dsp_core.coefficient_a(silent) == 0.0
        with pytest.raises(ValueError, match="QSL undefined"):
            qsl_time(silent, demo_state)

    def test_linear_in_rates(self, model):
        doubled = dataclasses.replace(model, rates=[2 * g for g in model.rates])
        ratio = dsp_core.coefficient_a(doubled) / dsp_core.coefficient_a(model)
        assert abs(ratio - 2.0) < 1e-12

    @given(scale=st.floats(0.01, 50.0))
    @settings(max_examples=25)
    def test_scaling_property(self, scale):
        model = rydberg.build_model()
        scaled = dataclasses.replace(model, rates=[scale * g for g in model.rates])
        lhs = dsp_core.coefficient_a(scaled)
        rhs = scale * dsp_core.coefficient_a(model)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


class TestQslTime:
    def test_zero_at_target(self, model):
        report = qsl_time(model, model.target_projector)
        assert report.t_qsl == 0.0
        assert report.t_qsl_2 == 0.0

    def test_orthogonal_state_attains_maximum(self, model):
        rho = arranged_state(model, [0.3, 0.3, 0.2, 0.0, 0.1, 0.1])
        report = qsl_time(model, rho)
        a = dsp_core.coefficient_a(model)
        assert abs(report.t_qsl - math.sqrt(2) / a) < 1e-9
        assert abs(report.t_qsl_2 - 1.0 / a) < 1e-9
        assert report.t_qsl_2 < report.t_qsl

    @pytest.mark.parametrize(
        "target_population", [0.4, 0.15, 0.1]
    )  # demo arrangements place these on the target slot
    def test_demo_overlaps_closed_form(self, model, demo_pops, target_population):
        rest = sorted((x for x in demo_pops if x != target_population), reverse=True)
        arrangement = rest[:3] + [target_population] + rest[3:]
        report = qsl_time(model, arranged_state(model, arrangement))
        assert abs(report.t_qsl * GAMMA - 4 * math.sqrt(1 - target_population)) < 1e-12
        assert abs(report.t_qsl_2 * GAMMA - 2 * math.sqrt(2) * (1 - target_population)) < 1e-12

    def test_loose_bound_never_exceeds_tight(self, model, demo_state):
        report = qsl_time(model, demo_state)
        assert report.t_qsl >= report.t_qsl_2

    def test_a_independent_of_initial_state(self, model, demo_state):
        a1 = qsl_time(model, demo_state).a
        a2 = qsl_time(model, np.eye(6) / 6).a
        assert a1 == a2

    @given(overlap=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_bound_ordering_over_overlap_range(self, overlap):
        t, t2 = dsp_core.qsl_times_from_overlap(overlap, a=0.5)
        assert t >= t2 >= 0.0

    def test_monotone_decreasing_in_overlap(self):
        grid = np.linspace(0.0, 0.999, 200)
        times = [dsp_core.qsl_times_from_overlap(c, a=1.0)[0] for c in grid]
        assert np.all(np.diff(times) < 0)

    def test_rejects_unphysical_overlap(self):
        with pytest.raises(ValueError, match="outside"):
            dsp_core.qsl_times_from_overlap(1.5, a=1.0)


class TestDissipatedHeat:
    def test_zero_at_target(self, model):
        assert abs(dissipated_heat(model, model.target_projector)) < 1e-12

    def test_demo_arrangements_closed_form(self, model, demo_pops):
        # Spectrum (-s, -W2, 0, 0, +W2, +s) contracted with the arrangement.
        s = SPECTRAL_SPAN
        cases = {
            tuple(demo_pops): -0.13 * s - 0.0014,
            tuple(np.sort(demo_pops)): 0.33 * s + 0.0024,
            tuple(np.sort(demo_pops)[::-1]): -0.33 * s - 0.0024,
        }
        for arrangement, expected in cases.items():
            q = dissipated_heat(model, arranged_state(model, arrangement))
            assert abs(q - expected) < 1e-12

    def test_ascending_descending_mirror(self, model, demo_pops):
        q_up = dissipated_heat(model, arranged_state(model, np.sort(demo_pops)))
        q_down = dissipated_heat(model, arranged_state(model, np.sort(demo_pops)[::-1]))
        assert abs(q_up + q_down) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0))
    @settings(max_examples=25)
    def test_affine_in_the_state(self, seed, alpha):
        model = rydberg.build_model()
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng, 6), random_density(rng, 6)
        mixed = alpha * rho1 + (1 - alpha) * rho2
        lhs = dissipated_heat(model, mixed)
        rhs = alpha * dissipated_heat(model, rho1) + (1 - alpha) * dissipated_heat(model, rho2)
        assert abs(lhs - rhs) < 1e-12


class TestEntropyChange:
    def test_pure_population_vector(self):
        assert dsp_core.entropy_change([1.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_uniform(self, n):
        assert abs(dsp_core.entropy_change(np.full(n, 1 / n)) - math.log(n)) < 1e-12

    def test_demo_multiset_direct_summation(self, demo_pops):
        oracle = -math.fsum(x * math.log(x) for x in demo_pops)
        value = dsp_core.entropy_change(demo_pops)
        assert abs(value - oracle) < 1e-12
        assert abs(value - 1.5914368763987237) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.01, 1.0, size=6)
        lam /= lam.sum()
        shuffled = rng.permutation(lam)
        assert abs(dsp_core.entropy_change(lam) - dsp_core.entropy_change(shuffled)) < 1e-12

    def test_nonnegative(self, demo_pops):
        assert dsp_core.entropy_change(demo_pops) >= 0.0


class TestSplitState:
    """Populations and coherences are the diagonal and the off-diagonal part
    of a state in the eigenbasis (`helpers.to_eigenbasis`)."""

    def test_diagonal_state_has_no_coherences(self, model, demo_state, demo_pops):
        in_basis = to_eigenbasis(model.eigensystem, demo_state)
        assert np.max(np.abs(in_basis - np.diag(np.diag(in_basis)))) < 1e-14
        assert np.max(np.abs(np.real(np.diag(in_basis)) - demo_pops)) < 1e-14

    def test_balanced_superposition(self):
        basis = qmat.hermitian_eigensystem(np.diag([0.0, 1.0]))
        plus = qmat.as_ket([1.0, 1.0])
        in_basis = to_eigenbasis(basis, np.outer(plus, plus.conj()))
        assert np.allclose(np.real(np.diag(in_basis)), [0.5, 0.5], atol=1e-14)
        assert abs(abs(in_basis[0, 1]) - 0.5) < 1e-14

    def test_diagonal_overlap_equals_target_population(self, model, demo_pops):
        rng = np.random.default_rng(5)
        slot = model.target_index - 1
        for _ in range(10):
            lam = rng.permutation(demo_pops)
            rho = dsp_core.state_from_populations(model.eigensystem, lam)
            cos0 = float(np.real(trace_product(rho, model.target_projector)))
            target_population = to_eigenbasis(model.eigensystem, rho)[slot, slot].real
            assert abs(cos0 - target_population) < 1e-12


class TestTrajectoryQslCheck:
    """The integrated bound holds at every record: the least of
    `qsl_margins` stays above -QSL_CHECK_SLACK."""

    def test_trivial_at_fixed_point(self, model):
        traj = lindblad.evolve(model, model.target_projector, t_end=50.0)
        margins = dsp_core.qsl_margins(traj.times, traj.fidelities, dsp_core.coefficient_a(model))
        assert margins.min() >= 0.0

    def test_demo_trajectory_passes(self, model, demo_state):
        traj = lindblad.evolve(model, demo_state, t_end=500.0)
        margins = dsp_core.qsl_margins(traj.times, traj.fidelities, dsp_core.coefficient_a(model))
        assert margins.min() >= -dsp_core.QSL_CHECK_SLACK

    def test_detects_impossible_speed(self):
        margins = dsp_core.qsl_margins(np.array([0.0, 1.0]), np.array([0.0, 1.0]), a=0.01)
        assert margins.min() < -dsp_core.QSL_CHECK_SLACK
        assert -margins.min() > 1.0


class TestPopulations:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            dsp_core.as_populations([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            dsp_core.as_populations([0.5, 0.6])

    def test_state_from_populations_is_valid(self, model, demo_pops):
        rho = dsp_core.state_from_populations(model.eigensystem, demo_pops)
        report = qmat.validate_density_matrix(rho)
        assert report.hermiticity_defect <= 1e-12 and report.trace_deviation <= 1e-12
        assert report.min_eigenvalue >= -1e-12

    @pytest.mark.parametrize("case", ["demo", "degenerate"])
    def test_state_from_populations_is_bitwise_the_matrix_product(self, model, demo_pops, case):
        # V diag(lam) V^dag as three matrices, the form the column scaling replaced.
        if case == "degenerate":
            model = dark_state_model([-1.0, 0.0, 0.0, 0.0, 2.0], target_index=3)
            arrangements = [np.array([0.1, 0.0, 0.4, 0.2, 0.3]), np.full(5, 0.2)]
        else:
            reports = optimizer.enumerate_permutations(demo_pops, model)
            arrangements = [np.array(r.arrangement) for r in reports]
            assert len(arrangements) == 720
        vecs = model.eigensystem.vectors
        for lam in arrangements:
            expected = vecs @ np.diag(lam.astype(complex)) @ vecs.conj().T
            assert np.array_equal(dsp_core.state_from_populations(model.eigensystem, lam), expected)
