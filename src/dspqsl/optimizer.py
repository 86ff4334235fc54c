"""Permutation search over initial populations.

A permutation is a tuple `perm` with `perm[k]` the input-list index of the
population placed at basis slot k (0-based internally; reports render
1-based). Scoring is (evolution-time bound, dissipated heat): the bound is
minimized first, heat breaks ties, matching the heavy-fidelity limit of the
mixed objective `objective_w`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dsp_core

__all__ = [
    "DEFAULT_HEAT_WEIGHT",
    "MAX_ENUMERATION_DIM",
    "PermutationReport",
    "apply_permutation",
    "enumerate_permutations",
    "front_candidates",
    "lexicographic_select",
    "named_permutation",
    "objective_w",
    "optimal_permutation",
    "pareto_mask",
    "passive_permutation",
]

# A d = 9 sweep (362 880 rows) takes seconds; d = 10 would write 3.6 M rows.
MAX_ENUMERATION_DIM = 9

# Small heat weight: fidelity dominates but heat still registers.
DEFAULT_HEAT_WEIGHT = 0.01

Permutation = tuple[int, ...]


def _check_permutation(perm, n: int) -> Permutation:
    p = tuple(int(i) for i in perm)
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return p


def apply_permutation(values, perm) -> np.ndarray:
    """Arrange values so slot k holds values[perm[k]]."""
    v = np.asarray(values, dtype=float)
    p = _check_permutation(perm, v.size)
    return v[list(p)]


def objective_w(g: float, heat: float, fidelity: float) -> float:
    """Mixed objective g*Q - (1-g)*F; g in [0, 1). Elementwise on arrays."""
    if not 0.0 <= g < 1.0:
        raise ValueError(f"weighting factor g must lie in [0, 1), got {g}")
    return g * heat - (1.0 - g) * fidelity


@dataclass(frozen=True)
class PermutationReport:
    """Scores of one arrangement of the populations."""

    permutation: Permutation
    arrangement: tuple[float, ...]
    lambda_target: float
    t_qsl: float
    t_qsl_2: float
    heat: float
    entropy: float
    objective: float


def enumerate_permutations(
    populations, model, g: float = DEFAULT_HEAT_WEIGHT
) -> list[PermutationReport]:
    """Score every distinct arrangement of the population multiset.

    Each distinct arrangement is reported once, under its canonical
    permutation: the first in lexicographic order that produces it, which
    places equal populations in increasing input order. Reports come in
    canonical lexicographic order. Only canonical permutations are scored,
    as arrays: the bounds depend on the value in the target slot alone, the
    heat is `arrangement . E - E_target`.
    """
    lam = _populations(populations, model)
    n = lam.size
    if n > MAX_ENUMERATION_DIM:
        raise ValueError(
            f"refusing to enumerate {math.factorial(n)} permutations "
            f"(dimension {n} exceeds {MAX_ENUMERATION_DIM})"
        )
    values = tuple(lam.tolist())
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8,
        count=n * math.factorial(n),
    ).reshape(-1, n)
    keep = _canonical_mask(perms, values)
    perms, canonical = perms[keep], keep.tolist()
    rows = (itertools.compress(itertools.permutations(range(n)), canonical),
            itertools.compress(itertools.permutations(values), canonical))
    return _score(lam, model, g, perms, rows)


def front_candidates(populations, model, g: float = DEFAULT_HEAT_WEIGHT) -> list[PermutationReport]:
    """One report per distinct population value, in decreasing value: that
    value on the target slot, the rest decreasing against increasing energy.

    The bounds depend on the target value alone, and this passive tail has
    the least heat for it (rearrangement inequality; Pusz and Woronowicz
    1978), so these at most d hold the (bound, heat) optimum of all d!
    arrangements. Each equals its arrangement's `enumerate_permutations` report.
    """
    lam = _populations(populations, model)
    decreasing = np.argsort(-lam, kind="stable")
    firsts = np.unique(-lam, return_index=True)[1]
    perms = np.empty((firsts.size, lam.size), dtype=np.intp)
    for perm, first in zip(perms, firsts):
        order = np.insert(decreasing[decreasing != first], model.target_index - 1, first)
        # Canonical: equal values take increasing input indices in slot order.
        perm[np.argsort(-lam[order], kind="stable")] = decreasing
    return _score(lam, model, g, perms)


def _populations(populations, model) -> np.ndarray:
    lam = dsp_core.as_populations(populations)
    if lam.size != model.dim:
        raise ValueError("population count does not match the model dimension")
    return lam


def _score(lam, model, g: float, perms: np.ndarray, rows=None) -> list[PermutationReport]:
    """Report each row of `lam[perms]`; `rows` holds (permutations, arrangements), else `perms`."""
    a = dsp_core.coefficient_a(model)
    entropy = dsp_core.entropy_change(lam)
    slot = model.target_index - 1
    values = tuple(lam.tolist())
    bounds = [dsp_core.qsl_times_from_overlap(v, a) for v in values]
    if rows is None:
        rows = map(tuple, perms.tolist()), map(tuple, lam[perms].tolist())
    # vecdot runs the one-vector dot kernel per row, so each heat is bitwise
    # `np.dot(arrangement, E) - E_target` and exact ties (degenerate levels)
    # break as for a single arrangement; lexicographic_select compares with ==.
    heat = np.vecdot(lam[perms], model.eigensystem.eigenvalues) - model.target_energy
    objective = objective_w(g, heat, lam[perms[:, slot]])
    return [
        PermutationReport(perm, arrangement, values[perm[slot]], *bounds[perm[slot]], q, entropy, w)
        for perm, arrangement, q, w in zip(*rows, heat.tolist(), objective.tolist())
    ]


def _canonical_mask(perms: np.ndarray, values: tuple[float, ...]) -> np.ndarray:
    """Rows of `perms` that place each population before any later equal one."""
    keep = np.ones(len(perms), dtype=bool)
    for i, v in enumerate(values):
        earlier = [j for j in range(i) if values[j] == v]
        if earlier:
            # Slot of input index i versus that of the nearest equal index before it.
            keep &= np.argmax(perms == earlier[-1], axis=1) < np.argmax(perms == i, axis=1)
    return keep


def optimal_permutation(populations, model) -> Permutation:
    """Largest population on the target slot, the rest decreasing in energy.

    The tail ordering mirrors a passive state over the remaining slots;
    equal values keep their input order (stable).
    """
    lam = dsp_core.as_populations(populations)
    slot = model.target_index - 1
    if not 0 <= slot < lam.size:
        raise ValueError("model target index outside the population range")
    decreasing = np.argsort(-lam, kind="stable")
    return tuple(int(i) for i in np.insert(decreasing[1:], slot, decreasing[0]))


def passive_permutation(populations) -> Permutation:
    """All populations decreasing against increasing energy (minimal heat)."""
    lam = dsp_core.as_populations(populations)
    return tuple(int(i) for i in np.argsort(-lam, kind="stable"))


def named_permutation(label: str, populations, model) -> Permutation:
    """Permutation of a named arrangement: `A`/`optimal` (the analytic
    optimum), `B` (all populations ascending) or `C`/`passive`."""
    if label in ("A", "optimal"):
        return optimal_permutation(populations, model)
    if label == "B":
        lam = dsp_core.as_populations(populations)
        return tuple(int(i) for i in np.argsort(lam, kind="stable"))
    if label in ("C", "passive"):
        return passive_permutation(populations)
    raise ValueError(f"unknown permutation label {label!r}")


def lexicographic_select(reports: list[PermutationReport]) -> PermutationReport:
    """Minimal time bound first, then minimal heat, then permutation order;
    only equal bounds tie, as in `pareto_mask`, so the winner is on its front."""
    if not reports:
        raise ValueError("no permutation reports to select from")
    t_min = min(r.t_qsl for r in reports)
    pool = [r for r in reports if r.t_qsl == t_min]
    q_min = min(r.heat for r in pool)
    pool = [r for r in pool if r.heat == q_min]
    return min(pool, key=lambda r: r.permutation)


def pareto_mask(reports: list[PermutationReport]) -> np.ndarray:
    """Boolean mask of reports not dominated in (t_qsl, heat) minimization.

    Sort and scan (Kung, Luccio and Preparata 1975), O(N log N): a report
    survives when its heat is the least among reports with its exact bound
    and strictly below the least heat of every smaller bound. Identical
    points survive together. Scores must not be NaN.
    """
    t = np.array([r.t_qsl for r in reports], dtype=float)
    q = np.array([r.heat for r in reports], dtype=float)
    mask = np.zeros(t.size, dtype=bool)
    if not t.size:
        return mask
    order = np.lexsort((q, t))
    t, q = t[order], q[order]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    group_min = q[starts]
    survives = np.r_[True, group_min[1:] < np.minimum.accumulate(group_min)[:-1]]
    sizes = np.diff(np.r_[starts, t.size])
    mask[order] = (q == np.repeat(group_min, sizes)) & np.repeat(survives, sizes)
    return mask
