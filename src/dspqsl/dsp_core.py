"""Scalar functionals of the preparation process.

Covers the dark-state conditions, the speed coefficient, both evolution-time
lower bounds with their per-record margins and the entropy change. An
initial state is scored from its populations over the ordered eigenbasis
alone: the bounds depend only on the target population, and the heat
sum_k lam_k E_k - E_{n*} is scored per arrangement by
`optimizer.enumerate_permutations`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import EigenSystem

__all__ = [
    "DspConditionReport",
    "as_populations",
    "coefficient_a",
    "entropy_change",
    "qsl_margins",
    "qsl_times_from_overlap",
    "state_from_populations",
    "verify_dsp_conditions",
]

SIMPLEX_TOL = 1e-12

# Overlaps this close to 1 mean "already at the target": both bounds are 0
# and the speed coefficient is not needed.
AT_TARGET_TOL = 1e-12

# Slack absorbed in inequality checks (fixed-step RK4 has bounded local error).
QSL_CHECK_SLACK = 1e-9

# Largest residual of a dark-state condition that still passes; the eigen
# residual's is relative to max(1, ||H||_F).
DARK_STATE_TOL = 1e-10

# Largest |1 - |<E_{n*}|target>|^2| a model may have and still prepare its target.
TARGET_ALIGNMENT_TOL = 1e-10


def as_populations(values) -> np.ndarray:
    """Validate a probability vector over the ordered eigenbasis."""
    lam = np.asarray(values, dtype=float).reshape(-1)
    if lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ValueError("populations must be a nonempty finite vector")
    if np.any(lam < -SIMPLEX_TOL):
        raise ValueError(f"negative population {lam.min():.3e}")
    total = float(lam.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"populations sum to {total!r}, not 1")
    return np.clip(lam, 0.0, None)


@dataclass(frozen=True)
class DspConditionReport:
    """Residuals of the pure-fixed-point conditions, the target's alignment
    defect at its slot, and the verdict on all three."""

    eigen_residual: float
    jump_residuals: tuple[float, ...]
    alignment_defect: float
    passes: bool


def verify_dsp_conditions(model) -> DspConditionReport:
    """Check H|phi> = E_{n*}|phi>, L_mu|phi> = 0 for every channel and that
    phi is the eigenvector at slot n*: the one verdict on a model.

    Report-style: never raises for a failing model.
    """
    phi = model.target
    eigen_residual = qmat.frobenius_norm(model.h_s @ phi - model.target_energy * phi)
    jump_residuals = tuple(qmat.frobenius_norm(l @ phi) for l in model.jump_ops)
    overlap = model.eigensystem.vector(model.target_index).conj() @ phi
    alignment_defect = float(abs(1.0 - abs(overlap) ** 2))
    passes = (
        eigen_residual < DARK_STATE_TOL * max(1.0, qmat.frobenius_norm(model.h_s))
        and all(r < DARK_STATE_TOL for r in jump_residuals)
        and alignment_defect <= TARGET_ALIGNMENT_TOL
    )
    return DspConditionReport(eigen_residual, jump_residuals, alignment_defect, passes)


def coefficient_a(model) -> float:
    """Speed coefficient ||sum_mu gamma_mu L_mu^dag rho_f L_mu||_F.

    Independent of the initial state. A value of 0 (all rates vanish) or
    one that overflowed makes the evolution-time bounds undefined;
    `qsl_times_from_overlap` raises in that case.
    """
    rho_f = model.target_projector
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for g, l in zip(model.rates, model.jump_ops):
            if g == 0.0:
                continue
            acc += g * (l.conj().T @ rho_f @ l)
    return qmat.frobenius_norm(acc)


def qsl_times_from_overlap(cos_theta0: float, a: float) -> tuple[float, float]:
    """Both evolution-time lower bounds from the initial overlap.

    Returns (sqrt(2 - 2 cos)/a, (1 - cos)/a). An overlap of 1 (already at
    the target) gives (0, 0) regardless of `a`, which otherwise must be
    positive and finite; the overlap is clamped to [0, 1] and must not
    exceed it by more than 1e-9.
    """
    if cos_theta0 < -QSL_CHECK_SLACK or cos_theta0 > 1.0 + QSL_CHECK_SLACK:
        raise ValueError(f"overlap {cos_theta0} outside [0, 1]")
    cos0 = min(max(cos_theta0, 0.0), 1.0)
    if 1.0 - cos0 <= AT_TARGET_TOL:
        return 0.0, 0.0
    if a <= 0.0:
        raise ValueError("QSL undefined (A = 0)")
    if not np.isfinite(a):
        raise ValueError(f"QSL undefined (A = {a})")
    return float(np.sqrt(2.0 - 2.0 * cos0) / a), float((1.0 - cos0) / a)


def entropy_change(populations) -> float:
    """Entropy gained discarding the initial mixture: -sum lam ln lam.

    Permutation invariant; 0 ln 0 counts as 0.
    """
    lam = as_populations(populations)
    terms = np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return float(-terms.sum())


def state_from_populations(basis: EigenSystem, populations) -> np.ndarray:
    """Density matrix diagonal in the eigenbasis with the given populations."""
    lam = as_populations(populations)
    if lam.size != basis.dim:
        raise ValueError("population count does not match the basis dimension")
    # V diag(lam) V^dag, with the diagonal product done as a column scaling.
    return (basis.vectors * lam) @ basis.vectors.conj().T


def qsl_margins(times, fidelities, a: float) -> np.ndarray:
    """Per-record slack of the integrated speed-limit inequality.

    margin(t) = a*t - [sqrt(2 - 2 F(0)) - sqrt(2 - 2 F(t))], which must stay
    nonnegative (up to integrator slack) along any admissible trajectory.
    Accepts a single series (R,) or a stack (B, R).
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(fidelities, dtype=float)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * f, 0.0))
    return a * t - (dist[..., :1] - dist)
