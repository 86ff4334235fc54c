"""Scalar functionals of the preparation process.

Covers the dark-state conditions, the speed coefficient, both evolution-time
lower bounds with their per-record margins, dissipated heat and entropy
change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import EigenSystem

__all__ = [
    "DspConditionReport",
    "QslReport",
    "as_populations",
    "coefficient_a",
    "dissipated_heat",
    "entropy_change",
    "qsl_margins",
    "qsl_time",
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
    """Residuals of the pure-fixed-point conditions."""

    eigen_residual: float
    jump_residuals: tuple[float, ...]
    tol: float

    @property
    def passes(self) -> bool:
        return self.eigen_residual < self.tol and all(
            r < self.tol for r in self.jump_residuals
        )


def verify_dsp_conditions(model, tol: float = 1e-10) -> DspConditionReport:
    """Check H|phi> = E_{n*}|phi> and L_mu|phi> = 0 for every channel.

    Report-style: never raises for a failing model.
    """
    phi = model.target
    energy = model.target_energy
    eigen_residual = float(np.linalg.norm(model.h_s @ phi - energy * phi))
    jump_residuals = tuple(
        float(np.linalg.norm(l @ phi)) for l in model.jump_ops
    )
    return DspConditionReport(
        eigen_residual=eigen_residual,
        jump_residuals=jump_residuals,
        tol=float(tol),
    )


def coefficient_a(model) -> float:
    """Speed coefficient ||sum_mu gamma_mu L_mu^dag rho_f L_mu||_F.

    Independent of the initial state. A value of 0 (all rates vanish) or
    one that overflowed makes the evolution-time bounds undefined;
    `qsl_time` raises in that case.
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


@dataclass(frozen=True)
class QslReport:
    """Speed coefficient, initial overlap, and the two time bounds."""

    a: float
    cos_theta0: float
    t_qsl: float
    t_qsl_2: float


def qsl_time(model, rho0) -> QslReport:
    """Initial-state-dependent lower bound on the preparation time."""
    cos0 = float(np.real(qmat.trace_product(rho0, model.target_projector)))
    a = coefficient_a(model)
    t_qsl, t_qsl_2 = qsl_times_from_overlap(cos0, a)
    return QslReport(a=a, cos_theta0=min(max(cos0, 0.0), 1.0), t_qsl=t_qsl, t_qsl_2=t_qsl_2)


def dissipated_heat(model, rho0) -> float:
    """Energy handed to the environment: Tr[H rho0] - E_{n*}."""
    return float(np.real(qmat.trace_product(model.h_s, rho0))) - model.target_energy


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
    return basis.from_eigenbasis(np.diag(lam.astype(complex)))


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
