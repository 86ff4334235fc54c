"""Independent reference computations for the output checks.

None of these reuse the code paths they check: the propagator is a
scaling-and-squaring exponential of a generator assembled column by
column from `lindblad_rhs` (not `rhs_matrix` or the RK4 step map), initial
states are built from `np.linalg.eigh` projectors (not the Jacobi solver),
and the Pareto front is a sort-and-scan pass (not the O(N^2) mask).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from dspqsl import lindblad

# Eigenvalues closer than this share an eigenspace in the reference basis.
CLUSTER_GAP = 1e-9


def generator_from_rhs(model) -> np.ndarray:
    """Matrix of the Lindblad map on row-major vectorized states."""
    d = model.dim
    gen = np.empty((d * d, d * d), dtype=complex)
    for k in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[k] = 1.0
        gen[:, k] = lindblad.lindblad_rhs(model, unit.reshape(d, d)).reshape(-1)
    return gen


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring around a degree-18 Taylor polynomial.

    After scaling the 1-norm is at most 1/2, so the truncation error is
    below 0.5**19 / 19! (about 1e-23) relative to the result.
    """
    norm = float(np.linalg.norm(a, 1))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    x = a / 2.0**squarings
    eye = np.eye(a.shape[0], dtype=complex)
    result = eye.copy()
    term = eye
    for k in range(1, 19):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


class Propagator:
    """exp(G t) for the model's generator, cached by time."""

    def __init__(self, model):
        self.gen = generator_from_rhs(model)
        self._cache: dict[float, np.ndarray] = {}

    def at(self, t: float) -> np.ndarray:
        if t not in self._cache:
            self._cache[t] = expm(self.gen * t)
        return self._cache[t]


def eigenprojectors(h: np.ndarray, target: np.ndarray, target_index: int) -> list[np.ndarray]:
    """Projectors onto the ascending eigenbasis of `h`, one per slot.

    A twofold degenerate eigenspace that holds the target splits into the
    target's projector, at the 1-based `target_index`, and its complement.
    Other degeneracies are not needed by any workload and are refused.
    """
    vals, vecs = np.linalg.eigh(h)
    phi = target / np.linalg.norm(target)
    target_proj = np.outer(phi, phi.conj())
    projectors: list[np.ndarray] = []
    lo = 0
    while lo < len(vals):
        hi = lo + 1
        while hi < len(vals) and vals[hi] - vals[hi - 1] < CLUSTER_GAP:
            hi += 1
        block = vecs[:, lo:hi]
        if hi - lo == 1:
            projectors.append(block @ block.conj().T)
        elif hi - lo == 2 and lo <= target_index - 1 < hi:
            complement = block @ block.conj().T - target_proj
            pair = [complement, target_proj] if target_index - 1 == hi - 1 else [target_proj, complement]
            projectors.extend(pair)
        else:
            raise ValueError(f"unsupported degenerate eigenspace at slots {lo + 1}..{hi}")
        lo = hi
    return projectors


def diagonal_state(projectors: list[np.ndarray], arrangement) -> np.ndarray:
    """sum_k arrangement[k] P_k."""
    return sum(float(p) * proj for p, proj in zip(arrangement, projectors))


def fidelity(vec_rho: np.ndarray, target: np.ndarray) -> np.ndarray:
    """<phi|rho|phi> for vectorized states (d^2,) or columns (d^2, B)."""
    weights = np.outer(target.conj(), target).reshape(-1)  # phi_i^* phi_j
    return np.real(weights @ vec_rho)


def speed_coefficient(model) -> float:
    """||sum_mu gamma_mu L^dag |phi><phi| L||_F from the model's operators."""
    phi = model.target / np.linalg.norm(model.target)
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for g, l in zip(model.rates, model.jump_ops):
        v = l.conj().T @ phi
        acc += g * np.outer(v, v.conj())
    return float(np.linalg.norm(acc))


def qsl_margins(times, fidelities, a: float) -> np.ndarray:
    """a t - [sqrt(2 - 2 F(0)) - sqrt(2 - 2 F(t))] along one series."""
    dist = np.sqrt(np.maximum(2.0 - 2.0 * np.asarray(fidelities), 0.0))
    return a * np.asarray(times) - (dist[0] - dist)


def multinomial(values) -> int:
    """Number of distinct arrangements of a multiset."""
    count = math.factorial(len(values))
    for m in Counter(values).values():
        count //= math.factorial(m)
    return count


def pareto_sort_scan(t, q) -> np.ndarray:
    """Mask of points not dominated in (t, q) minimization.

    Sort by (t, q) and scan: a point survives when its q is the least
    among points with the same t and strictly below every q seen at a
    smaller t. Identical points do not dominate each other.
    """
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    order = np.lexsort((q, t))
    mask = np.zeros(t.size, dtype=bool)
    best = math.inf
    k = 0
    while k < order.size:
        j = k
        while j < order.size and t[order[j]] == t[order[k]]:
            j += 1
        group_min = q[order[k]]
        if group_min < best:
            for i in order[k:j]:
                mask[i] = q[i] == group_min
            best = group_min
        k = j
    return mask
