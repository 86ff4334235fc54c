"""Tests for permutation enumeration, selection rules and the Pareto front."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dspqsl import dsp_core, optimizer
from helpers import (
    dark_state_model,
    dissipated_heat,
    enumerate_permutations_reference,
    pareto_mask_reference,
    qsl_time,
    random_distinct_simplex,
)


@pytest.fixture(scope="module")
def demo_reports(model, demo_pops):
    return optimizer.enumerate_permutations(demo_pops, model)


class TestApplyPermutation:
    def test_arranges_values(self):
        out = optimizer.apply_permutation([0.5, 0.3, 0.2], (2, 0, 1))
        assert np.allclose(out, [0.2, 0.5, 0.3])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a permutation"):
            optimizer.apply_permutation([0.5, 0.5], (0, 0))


class TestEnumeratePermutations:
    def test_demo_multiset_count(self, demo_reports):
        assert len(demo_reports) == 720

    def test_canonical_lexicographic_order(self, demo_reports):
        perms = [r.permutation for r in demo_reports]
        assert perms == sorted(perms)
        assert perms[0] == (0, 1, 2, 3, 4, 5)

    def test_minimum_bound_hit_by_exactly_120(self, demo_reports):
        t_min = min(r.t_qsl for r in demo_reports)
        winners = [r for r in demo_reports if r.t_qsl <= t_min + 1e-12]
        assert len(winners) == 120
        assert all(r.arrangement[3] == 0.4 for r in winners)

    def test_entropy_is_permutation_independent(self, demo_reports):
        values = {r.entropy for r in demo_reports}
        assert len(values) == 1

    def test_duplicate_values_are_deduplicated(self):
        model = dark_state_model([0.0, 0.1, 0.2, 0.3], target_index=2)
        reports = optimizer.enumerate_permutations([0.25, 0.25, 0.3, 0.2], model)
        assert len(reports) == math.factorial(4) // 2

    def test_single_level_system(self):
        model = dark_state_model([0.5], target_index=1)
        reports = optimizer.enumerate_permutations([1.0], model)
        assert len(reports) == 1
        assert reports[0].t_qsl == 0.0
        assert reports[0].lambda_target == 1.0

    def test_factorial_guard(self):
        model = dark_state_model(np.linspace(0.0, 1.0, 11), target_index=3)
        lam = np.full(11, 1 / 11)
        with pytest.raises(ValueError, match="39916800"):
            optimizer.enumerate_permutations(lam, model)

    def test_round_trip_against_full_functionals(self, model, demo_reports):
        # Every scalar must be reproducible from the assembled matrix state.
        rng = np.random.default_rng(9)
        for rep in (demo_reports[i] for i in rng.integers(0, 720, size=24)):
            rho0 = dsp_core.state_from_populations(
                model.eigensystem, np.array(rep.arrangement)
            )
            qsl = qsl_time(model, rho0)
            assert abs(qsl.t_qsl - rep.t_qsl) < 1e-12 * max(1.0, rep.t_qsl)
            assert abs(qsl.t_qsl_2 - rep.t_qsl_2) < 1e-12 * max(1.0, rep.t_qsl_2)
            assert abs(dissipated_heat(model, rho0) - rep.heat) < 1e-12
            assert abs(dsp_core.entropy_change(rep.arrangement) - rep.entropy) < 1e-12
            w = optimizer.objective_w(
                optimizer.DEFAULT_HEAT_WEIGHT, rep.heat, rep.lambda_target
            )
            assert abs(w - rep.objective) < 1e-15


def draw_tied_case(data, n, levels):
    """Energies on a coarse grid repeat (degenerate spectra); small integer
    weights repeat too (tied populations), zeros included."""
    grid = st.integers(0, levels - 1)
    energies = np.sort(data.draw(st.lists(grid, min_size=n, max_size=n))) * 0.37 - 0.5
    weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    lam = np.array(weights, dtype=float) / sum(weights)
    return energies, lam, dark_state_model(energies, target_index=data.draw(st.integers(1, n)))


class TestAgainstReference:
    """The array enumerator and the sort-and-scan front against the
    dict-based enumerator and the pairwise front they replaced."""

    @given(
        data=st.data(),
        n=st.integers(2, 7),
        levels=st.integers(1, 7),
    )
    @settings(max_examples=60)
    def test_same_reports_front_and_winner(self, data, n, levels):
        energies, lam, model = draw_tied_case(data, n, levels)

        fast = optimizer.enumerate_permutations(lam, model)
        slow = enumerate_permutations_reference(lam, model)
        assert [r.permutation for r in fast] == [r.permutation for r in slow]
        assert [r.arrangement for r in fast] == [r.arrangement for r in slow]
        for f, s in zip(fast, slow):
            assert (f.lambda_target, f.t_qsl, f.t_qsl_2) == (s.lambda_target, s.t_qsl, s.t_qsl_2)
            assert abs(f.heat - s.heat) <= 1e-15 * (1.0 + np.abs(energies).max())
        assert np.array_equal(optimizer.pareto_mask(fast), pareto_mask_reference(fast))
        assert np.array_equal(optimizer.pareto_mask(slow), pareto_mask_reference(slow))
        assert (
            optimizer.lexicographic_select(fast).arrangement
            == optimizer.lexicographic_select(slow).arrangement
        )

    @pytest.mark.parametrize(
        "t, q",
        [
            ([], []),
            ([1.0, 1.0, 1.0], [2.0, 2.0, 3.0]),
            ([0.0, 1.0, 1.0, 2.0], [5.0, 4.0, 4.0, 4.0]),
            ([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 2.0, 3.0], [1.0, -1.0, 0.0, -1.0]),
            ([1.0, 2.0, 3.0], [math.inf, math.inf, 0.0]),
        ],
        ids=[
            "empty", "identical-points-kept", "equal-heat-later-bound", "all-on-front",
            "mixed", "infinite-heat",
        ],
    )
    def test_pareto_mask_edge_cases(self, t, q):
        reports = [
            optimizer.PermutationReport((0,), (1.0,), 1.0, ti, 0.0, qi, 0.0, 0.0)
            for ti, qi in zip(t, q)
        ]
        assert np.array_equal(optimizer.pareto_mask(reports), pareto_mask_reference(reports))


class TestFrontCandidates:
    """The at most d passive-tail candidates against the full enumeration."""

    @given(
        data=st.data(),
        n=st.integers(1, 7),
        levels=st.integers(1, 7),
    )
    @settings(max_examples=60)
    def test_candidates_are_enumerated_reports_and_hold_the_winner(self, data, n, levels):
        energies, lam, model = draw_tied_case(data, n, levels)
        candidates = optimizer.front_candidates(lam, model)
        everything = optimizer.enumerate_permutations(lam, model)
        by_arrangement = {r.arrangement: r for r in everything}

        slot = model.target_index - 1
        assert sorted(c.lambda_target for c in candidates) == sorted(set(lam.tolist()))
        for c in candidates:
            assert c == by_arrangement[c.arrangement]
            assert np.all(np.diff(np.delete(c.arrangement, slot)) <= 0)
        fast = optimizer.lexicographic_select(candidates)
        slow = optimizer.lexicographic_select(everything)
        if np.unique(energies).size == n:
            assert fast == slow
        else:
            # Tied optima: the same bound, and heats of equal value summed in
            # another order.
            assert fast.t_qsl == slow.t_qsl
            assert abs(fast.heat - slow.heat) <= 1e-15 * (1.0 + np.abs(energies).max())


class TestOptimalPermutation:
    def test_demo_multiset_is_already_optimal(self, model, demo_pops):
        perm = optimizer.optimal_permutation(demo_pops, model)
        assert perm == (0, 1, 2, 3, 4, 5)

    def test_structure_largest_at_target_rest_decreasing(self, model):
        lam = np.array([0.05, 0.3, 0.1, 0.2, 0.25, 0.1])
        arranged = optimizer.apply_permutation(
            lam, optimizer.optimal_permutation(lam, model)
        )
        slot = model.target_index - 1
        assert arranged[slot] == lam.max()
        rest = np.delete(arranged, slot)
        assert np.all(np.diff(rest) <= 0)

    def test_ground_state_target_reduces_to_passive(self, demo_pops):
        model = dark_state_model([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], target_index=1)
        assert optimizer.optimal_permutation(demo_pops, model) == optimizer.passive_permutation(demo_pops)

    def test_idempotent_on_optimal_input(self, model, demo_pops):
        arranged = optimizer.apply_permutation(
            demo_pops, optimizer.optimal_permutation(demo_pops, model)
        )
        assert optimizer.optimal_permutation(arranged, model) == (0, 1, 2, 3, 4, 5)

    def test_report_is_the_enumerated_report_of_its_arrangement(self, model):
        lam = np.array([0.05, 0.3, 0.1, 0.2, 0.25, 0.1])
        report = optimizer.optimal_report(lam, model)
        assert report.permutation == optimizer.optimal_permutation(lam, model)
        (enumerated,) = [
            r for r in optimizer.enumerate_permutations(lam, model)
            if r.arrangement == report.arrangement
        ]
        assert report == enumerated


class TestPassivePermutation:
    def test_demo_multiset(self, demo_pops):
        arranged = optimizer.apply_permutation(
            demo_pops, optimizer.passive_permutation(demo_pops)
        )
        assert tuple(arranged) == (0.4, 0.2, 0.15, 0.1, 0.08, 0.07)

    def test_sorted_input_gives_identity(self):
        assert optimizer.passive_permutation([0.5, 0.3, 0.2]) == (0, 1, 2)

    def test_uniform_gives_identity(self):
        assert optimizer.passive_permutation(np.full(4, 0.25)) == (0, 1, 2, 3)


class TestLexicographicSelect:
    def test_demo_winner_is_the_optimal_arrangement(self, demo_reports, demo_pops):
        winner = optimizer.lexicographic_select(demo_reports)
        assert winner.arrangement == tuple(demo_pops)

    def test_single_report(self, demo_reports):
        assert optimizer.lexicographic_select([demo_reports[5]]) is demo_reports[5]

    def test_heat_breaks_ties(self):
        base = dict(
            arrangement=(1.0,), lambda_target=0.5, t_qsl=2.0, t_qsl_2=1.0,
            entropy=0.0, objective=0.0,
        )
        lo = optimizer.PermutationReport(permutation=(1, 0), heat=-1.0, **base)
        hi = optimizer.PermutationReport(permutation=(0, 1), heat=+1.0, **base)
        assert optimizer.lexicographic_select([hi, lo]) is lo

    def test_permutation_order_breaks_full_ties(self):
        base = dict(
            arrangement=(1.0,), lambda_target=0.5, t_qsl=2.0, t_qsl_2=1.0,
            heat=0.5, entropy=0.0, objective=0.0,
        )
        a = optimizer.PermutationReport(permutation=(0, 1), **base)
        b = optimizer.PermutationReport(permutation=(1, 0), **base)
        assert optimizer.lexicographic_select([b, a]) is a

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no permutation reports"):
            optimizer.lexicographic_select([])

    def test_winner_attains_minimum_bound(self, demo_reports):
        winner = optimizer.lexicographic_select(demo_reports)
        assert winner.t_qsl == min(r.t_qsl for r in demo_reports)

    def test_bound_sorts_opposite_to_target_population(self, demo_reports):
        # Larger overlap with the target means a smaller time bound.
        ordered = sorted(demo_reports, key=lambda r: -r.lambda_target)
        bounds = [r.t_qsl for r in ordered]
        assert all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))
        distinct = sorted({r.lambda_target for r in demo_reports}, reverse=True)
        per_value = [
            next(r.t_qsl for r in demo_reports if r.lambda_target == lam)
            for lam in distinct
        ]
        assert all(a < b for a, b in zip(per_value, per_value[1:]))


class TestObjectiveW:
    def test_pure_fidelity_limit(self):
        assert optimizer.objective_w(0.0, 123.0, 0.25) == -0.25

    def test_arithmetic(self):
        assert abs(optimizer.objective_w(0.5, 2.0, 0.4) - 0.8) < 1e-15

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_rejects_out_of_range_weight(self, bad):
        with pytest.raises(ValueError, match="weighting factor"):
            optimizer.objective_w(bad, 0.0, 0.0)

    def test_diagonal_state_identity(self, model, demo_reports):
        # For diagonal states: W = g sum(lam E) - g E_target - (1-g) lam_target.
        g = optimizer.DEFAULT_HEAT_WEIGHT
        energies = model.eigensystem.eigenvalues
        e_target = model.target_energy
        for rep in demo_reports[::37]:
            direct = (
                g * float(np.dot(rep.arrangement, energies))
                - g * e_target
                - (1 - g) * rep.lambda_target
            )
            assert abs(rep.objective - direct) < 1e-12


class TestAnalyticVersusBruteForce:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 6))
    @settings(max_examples=30)
    def test_equivalence_on_random_multisets(self, seed, n):
        rng = np.random.default_rng(seed)
        energies = np.sort(rng.uniform(-1.0, 1.0, size=n))
        n_star = int(rng.integers(1, n + 1))
        model = dark_state_model(energies, target_index=n_star)
        lam = random_distinct_simplex(rng, n)
        reports = optimizer.enumerate_permutations(lam, model)
        winner = optimizer.lexicographic_select(reports)
        analytic = optimizer.apply_permutation(
            lam, optimizer.optimal_permutation(lam, model)
        )
        assert winner.arrangement == tuple(analytic)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6))
    @settings(max_examples=30)
    def test_passive_minimizes_heat(self, seed, n):
        rng = np.random.default_rng(seed)
        energies = np.sort(rng.uniform(-1.0, 1.0, size=n))
        model = dark_state_model(energies, target_index=int(rng.integers(1, n + 1)))
        lam = random_distinct_simplex(rng, n)
        reports = optimizer.enumerate_permutations(lam, model)
        passive = optimizer.apply_permutation(lam, optimizer.passive_permutation(lam))
        q_min = min(r.heat for r in reports)
        passive_report = next(r for r in reports if r.arrangement == tuple(passive))
        assert passive_report.heat <= q_min + 1e-15

    def test_passive_fidelity_below_lambda_max(self, model, demo_pops):
        passive = optimizer.apply_permutation(
            demo_pops, optimizer.passive_permutation(demo_pops)
        )
        slot = model.target_index - 1
        assert passive[slot] < demo_pops.max()

    def test_optimal_heat_at_least_passive_heat(self, model, demo_pops):
        energies = model.eigensystem.eigenvalues
        optimal = optimizer.apply_permutation(
            demo_pops, optimizer.optimal_permutation(demo_pops, model)
        )
        passive = optimizer.apply_permutation(
            demo_pops, optimizer.passive_permutation(demo_pops)
        )
        assert float(optimal @ energies) > float(passive @ energies)

    def test_heat_equality_when_target_is_ground(self, demo_pops):
        model = dark_state_model([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], target_index=1)
        energies = model.eigensystem.eigenvalues
        optimal = optimizer.apply_permutation(
            demo_pops, optimizer.optimal_permutation(demo_pops, model)
        )
        passive = optimizer.apply_permutation(
            demo_pops, optimizer.passive_permutation(demo_pops)
        )
        assert float(optimal @ energies) == float(passive @ energies)

    def test_rate_scaling_leaves_argmin_unchanged(self, model, demo_pops):
        reports = optimizer.enumerate_permutations(demo_pops, model)
        scaled_model = dataclasses.replace(model, rates=[3.0 * g for g in model.rates])
        scaled = optimizer.enumerate_permutations(demo_pops, scaled_model)
        winner = optimizer.lexicographic_select(reports)
        scaled_winner = optimizer.lexicographic_select(scaled)
        assert winner.arrangement == scaled_winner.arrangement
        for a, b in zip(reports, scaled):
            assert abs(b.t_qsl - a.t_qsl / 3.0) < 1e-12 * max(1.0, a.t_qsl)


class TestParetoFront:
    def test_matches_bruteforce_dominance(self, demo_reports):
        mask = optimizer.pareto_mask(demo_reports)
        t = [r.t_qsl for r in demo_reports]
        q = [r.heat for r in demo_reports]
        for i in range(len(demo_reports)):
            dominated = any(
                (t[j] <= t[i] and q[j] <= q[i]) and (t[j] < t[i] or q[j] < q[i])
                for j in range(len(demo_reports))
            )
            assert mask[i] == (not dominated)

    def test_winner_is_on_the_front(self, demo_reports):
        front = [r for r, keep in zip(demo_reports, optimizer.pareto_mask(demo_reports)) if keep]
        winner = optimizer.lexicographic_select(demo_reports)
        assert any(r.arrangement == winner.arrangement for r in front)

    def test_front_is_mutually_nondominated(self, demo_reports):
        front = [r for r, keep in zip(demo_reports, optimizer.pareto_mask(demo_reports)) if keep]
        assert front
        for r in front:
            for other in front:
                strictly_better = (
                    other.t_qsl <= r.t_qsl
                    and other.heat <= r.heat
                    and (other.t_qsl < r.t_qsl or other.heat < r.heat)
                )
                assert not strictly_better
