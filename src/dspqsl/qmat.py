"""Dense complex linear algebra for small Hermitian problems.

Everything operates on plain numpy arrays: kets are 1-d complex arrays,
operators are square 2-d complex arrays. Spectra come from LAPACK; this
module adds the ascending eigenbasis with the target aligned in its
degenerate cluster, a fixed phase convention and a residual check.
Intended for small dense matrices (dim <= ~16, nothing beyond ~64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "EigenSystem",
    "ValidityReport",
    "as_complex_matrix",
    "as_ket",
    "frobenius_norm",
    "hermitian_eigensystem",
    "hermiticity_defect",
    "validate_density_matrix",
]

# Relative Hermiticity defect accepted by the eigensolver.
HERMITICITY_RTOL = 1e-12

# Eigenvalue gap, relative to ||M||_F, below which neighbouring eigenvalues
# count as one degenerate cluster.
DEGENERACY_GAP = 1e-12

# Norm below which a vector counts as zero and cannot be normalized.
KET_NORM_FLOOR = 1e-12

# Relative magnitude within which two components of an eigenvector count
# as tied for the phase convention.
PHASE_TIE_RTOL = 1e-9

# Largest Hermiticity defect, trace deviation and -eigenvalue of a valid state.
DENSITY_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """LAPACK failed, or the ordered eigensystem missed its residual check."""


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_ket(v) -> np.ndarray:
    """Coerce to an explicitly normalized complex state vector."""
    k = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(k)):
        raise ValueError("ket amplitudes must be finite")
    norm = frobenius_norm(k)
    if norm < KET_NORM_FLOOR:
        raise ValueError("cannot normalize a (near-)zero vector")
    return k / norm


def frobenius_norm(m) -> float:
    """Frobenius norm sqrt(Tr(M^dag M)); the 2-norm of a vector.

    Finite entries whose squares overflow are scaled by the largest modulus
    first, so the norm is infinite only when it exceeds the float range.
    """
    a = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not np.isfinite(norm) and np.isfinite(a).all():
        scale = float(np.abs(a).max())
        norm = scale * float(np.linalg.norm(a / scale))
    return norm


def hermiticity_defect(m) -> float:
    """Frobenius norm of M - M^dag."""
    a = np.asarray(m, dtype=complex)
    return frobenius_norm(a - a.conj().T)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with matched orthonormal eigenvector columns."""

    eigenvalues: np.ndarray  # (dim,) real, ascending
    vectors: np.ndarray      # (dim, dim) complex; column k pairs with eigenvalues[k]

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def vector(self, index: int) -> np.ndarray:
        """Eigenvector at 1-based position `index` in the ascending order."""
        if not 1 <= index <= self.dim:
            raise IndexError(f"eigenvector index {index} outside 1..{self.dim}")
        return self.vectors[:, index - 1]


def _degenerate_clusters(values: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """Half-open index ranges of runs of 2+ eigenvalues less than `gap` apart."""
    # Runs start where the gap is reached (halves cannot overflow); 0 and len(values) are edges.
    edges = np.flatnonzero(np.concatenate(([True], np.diff(values / 2.0) >= gap / 2.0, [True])))
    runs = np.diff(edges) > 1
    return list(zip(edges[:-1][runs].tolist(), edges[1:][runs].tolist()))


def _align_cluster_to_target(
    clusters: list[tuple[int, int]],
    vecs: np.ndarray,
    target: np.ndarray,
    target_index: int | None,
) -> None:
    """Rotate the one of `clusters` that holds most of `target` onto it.

    The complete Householder QR of the target's overlaps c with the cluster
    gives a unitary Q whose first column lies along c, so the cluster times
    Q is the target's normalized projection and an orthonormal completion.
    That column moves to `target_index` (1-based) if inside the cluster,
    else to the slot of the largest overlap.
    """
    if not clusters:
        return
    overlaps = vecs.conj().T @ target
    weights = [np.vdot(overlaps[lo:hi], overlaps[lo:hi]).real for lo, hi in clusters]
    best = int(np.argmax(weights))
    if weights[best] < 1e-12:
        return
    lo, hi = clusters[best]
    c = overlaps[lo:hi]
    if target_index is not None and lo <= target_index - 1 < hi:
        slot = target_index - 1 - lo
    else:
        slot = int(np.argmax(np.abs(c)))
    order = list(range(1, hi - lo))
    order.insert(slot, 0)
    vecs[:, lo:hi] = vecs[:, lo:hi] @ np.linalg.qr(c[:, None], mode="complete")[0][:, order]


def _fix_phases(vecs: np.ndarray) -> None:
    """Make the leading component of each column real positive.

    The leading component is the first whose magnitude lies within
    PHASE_TIE_RTOL of the column maximum, so components of equal magnitude
    are decided by their index rather than by roundoff.
    """
    mags = np.abs(vecs)
    rows = np.argmax(mags >= (1.0 - PHASE_TIE_RTOL) * mags.max(axis=0), axis=0)
    lead = vecs[rows, np.arange(vecs.shape[1])]
    vecs *= np.conj(lead) / np.abs(lead)


def hermitian_eigensystem(m, target=None, target_index: int | None = None) -> EigenSystem:
    """Ordered eigendecomposition of a Hermitian matrix: LAPACK plus target alignment.

    One `np.linalg.eigh` call on the Hermitized matrix gives ascending
    eigenvalues and orthonormal eigenvector columns. Degenerate clusters
    (gap < 1e-12 ||M||_F; M = 0 is one cluster) share their mean eigenvalue.
    Given `target`, one QR turns the cluster holding most of it into the
    target's normalized projection, at the 1-based `target_index` if that
    slot lies in the cluster, and a completion from LAPACK's vectors of the
    cluster. Every column, the target's included, then has its leading
    component (the first within a relative 1e-9 of its largest modulus) made
    real positive. Output is deterministic for identical input.

    Raises ValueError for non-Hermitian input (with the asymmetry norm) and
    ConvergenceError if LAPACK fails or the result misses the residual and
    orthonormality check.
    """
    a = as_complex_matrix(m)
    scale = frobenius_norm(a)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_RTOL * max(1.0, scale):
        raise ValueError(
            f"matrix is not Hermitian: ||M - M^dag||_F = {defect:.3e} "
            f"(relative tolerance {HERMITICITY_RTOL})"
        )
    try:
        # Halves first: the sum of two finite halves cannot overflow.
        vals, vecs = np.linalg.eigh(a / 2.0 + a.conj().T / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed: {exc}") from exc

    # A degenerate cluster is one level. Its roundoff-split eigenvalues get
    # their mean, so ties downstream (equal Gibbs weights, say) do not hang
    # on the solver's roundoff. The gap scales with ||M||_F so that the unit
    # of energy does not change the clusters; M = 0 is one cluster.
    clusters = _degenerate_clusters(vals, DEGENERACY_GAP * scale if scale else np.inf)
    for lo, hi in clusters:
        vals[lo:hi] = vals[lo:hi].mean()

    if target is not None:
        phi = as_ket(target)
        if phi.shape[0] != a.shape[0]:
            raise ValueError("target dimension does not match the matrix")
        _align_cluster_to_target(clusters, vecs, phi, target_index)
    _fix_phases(vecs)

    system = EigenSystem(eigenvalues=vals, vectors=vecs)
    _check_eigensystem(a, system, max(1.0, scale))
    return system


def _check_eigensystem(m: np.ndarray, system: EigenSystem, scale: float) -> None:
    # Negated so that a NaN norm fails.
    unitarity = system.vectors.conj().T @ system.vectors - np.eye(system.dim)
    if not frobenius_norm(unitarity) <= 1e-10 * scale:
        raise ConvergenceError("eigenvector matrix lost orthonormality")
    residual = frobenius_norm(m @ system.vectors - system.vectors * system.eigenvalues)
    if not residual <= 1e-9 * scale:
        raise ConvergenceError(f"eigenpair residual {residual:.3e} too large")


@dataclass(frozen=True)
class ValidityReport:
    """Density-matrix health check: how far from Hermitian/unit-trace/PSD."""

    hermiticity_defect: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def passes(self) -> bool:
        return (
            self.hermiticity_defect <= DENSITY_TOL
            and self.trace_deviation <= DENSITY_TOL
            and self.min_eigenvalue >= -DENSITY_TOL
        )


def validate_density_matrix(rho) -> ValidityReport:
    """Report Hermiticity defect, trace deviation and the lowest eigenvalue.

    Never raises for unhealthy states; the caller reads `passes`.
    """
    r = as_complex_matrix(rho)
    defect = hermiticity_defect(r)
    trace_dev = abs(complex(np.trace(r)) - 1.0)
    min_eig = float(np.linalg.eigvalsh(r / 2.0 + r.conj().T / 2.0)[0])
    return ValidityReport(
        hermiticity_defect=float(defect),
        trace_deviation=float(trace_dev),
        min_eigenvalue=min_eig,
    )
