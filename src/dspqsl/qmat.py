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
    "trace_product",
    "validate_density_matrix",
]

# Relative Hermiticity defect accepted by the eigensolver.
HERMITICITY_RTOL = 1e-12

# Eigenvalue gap below which neighbouring eigenvalues count as one
# degenerate cluster.
DEGENERACY_GAP = 1e-9

# Norm below which a vector counts as zero and cannot be normalized.
KET_NORM_FLOOR = 1e-12

# Relative magnitude within which two components of an eigenvector count
# as tied for the phase convention.
PHASE_TIE_RTOL = 1e-9


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
    norm = float(np.linalg.norm(k))
    if norm < KET_NORM_FLOOR:
        raise ValueError("cannot normalize a (near-)zero vector")
    return k / norm


def frobenius_norm(m) -> float:
    """Frobenius norm sqrt(Tr(M^dag M))."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def hermiticity_defect(m) -> float:
    """Frobenius norm of M - M^dag."""
    a = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(a - a.conj().T))


def trace_product(a, b) -> complex:
    """Tr(A B), the Hilbert-Schmidt pairing (relative purity for states).

    Real within roundoff when both arguments are Hermitian.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    # Tr(AB) = sum_ij A_ij B_ji
    return complex(np.sum(am * bm.T))


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

    def to_eigenbasis(self, m) -> np.ndarray:
        """Represent an operator in this eigenbasis: V^dag M V."""
        return self.vectors.conj().T @ as_complex_matrix(m) @ self.vectors

    def from_eigenbasis(self, m) -> np.ndarray:
        """Map an eigenbasis representation back: V M V^dag."""
        return self.vectors @ as_complex_matrix(m) @ self.vectors.conj().T


def _degenerate_clusters(values: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """Half-open index ranges of runs of 2+ eigenvalues less than `gap` apart."""
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] >= gap:
            if i - start > 1:
                clusters.append((start, i))
            start = i
    return clusters


def _align_cluster_to_target(
    clusters: list[tuple[int, int]],
    vecs: np.ndarray,
    target: np.ndarray,
    target_index: int | None,
) -> None:
    """Rotate the one of `clusters` that holds most of `target` onto it.

    Within the chosen cluster one basis vector is replaced by the normalized
    projection of the target, placed at `target_index` (1-based) when that
    slot lies inside the cluster, and the remaining vectors are rebuilt by
    Gram-Schmidt so the cluster stays orthonormal.
    """
    if not clusters:
        return
    weights = []
    for lo, hi in clusters:
        overlaps = vecs[:, lo:hi].conj().T @ target
        weights.append(float(np.sum(np.abs(overlaps) ** 2)))
    best = int(np.argmax(weights))
    if weights[best] < 1e-12:
        return
    lo, hi = clusters[best]
    block = vecs[:, lo:hi]
    overlaps = block.conj().T @ target
    proj = block @ overlaps
    w = proj / np.linalg.norm(proj)

    # Orthonormal completion of the cluster span against w.
    basis = [w]
    for k in range(block.shape[1]):
        r = block[:, k].copy()
        for b in basis:
            r -= b * (b.conj() @ r)
        norm = np.linalg.norm(r)
        if norm > 1e-8:
            basis.append(r / norm)
        if len(basis) == block.shape[1]:
            break

    if target_index is not None and lo <= target_index - 1 < hi:
        slot = target_index - 1
    else:
        slot = lo + int(np.argmax(np.abs(overlaps)))
    others = iter(basis[1:])
    for k in range(lo, hi):
        vecs[:, k] = w if k == slot else next(others)


def _fix_phases(vecs: np.ndarray, skip: int | None = None) -> None:
    """Make the leading component of each column real positive.

    The leading component is the first whose magnitude lies within
    PHASE_TIE_RTOL of the column maximum, so components of equal magnitude
    are decided by their index rather than by roundoff.
    """
    mags = np.abs(vecs)
    rows = np.argmax(mags >= (1.0 - PHASE_TIE_RTOL) * mags.max(axis=0), axis=0)
    lead = vecs[rows, np.arange(vecs.shape[1])]
    phases = np.conj(lead) / np.abs(lead)
    if skip is not None:
        phases[skip] = 1.0
    vecs *= phases


def hermitian_eigensystem(m, target=None, target_index: int | None = None) -> EigenSystem:
    """Ordered eigendecomposition of a Hermitian matrix: LAPACK plus target alignment.

    One `np.linalg.eigh` call on the Hermitized matrix gives ascending
    eigenvalues and orthonormal eigenvector columns. Degenerate clusters
    (gap < 1e-9) share their mean eigenvalue.
    When `target` is given, the cluster holding most of the target is
    rotated so that a single basis vector carries its full projection and
    sits at the 1-based `target_index` if that slot falls inside the
    cluster. Every other column has its leading component (the first
    within a relative 1e-9 of the column's largest magnitude) made real
    positive. Output is deterministic for identical input.

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
        vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed: {exc}") from exc

    # A degenerate cluster is one level. Its roundoff-split eigenvalues get
    # their mean, so ties downstream (equal Gibbs weights, say) do not hang
    # on the solver's roundoff.
    clusters = _degenerate_clusters(vals, DEGENERACY_GAP)
    for lo, hi in clusters:
        vals[lo:hi] = vals[lo:hi].mean()

    aligned_slot = None
    if target is not None:
        phi = as_ket(target)
        if phi.shape[0] != a.shape[0]:
            raise ValueError("target dimension does not match the matrix")
        _align_cluster_to_target(clusters, vecs, phi, target_index)
        overlaps = np.abs(vecs.conj().T @ phi)
        aligned_slot = int(np.argmax(overlaps))
    _fix_phases(vecs, skip=aligned_slot)

    system = EigenSystem(eigenvalues=vals, vectors=vecs)
    _check_eigensystem(a, system)
    return system


def _check_eigensystem(m: np.ndarray, system: EigenSystem) -> None:
    scale = max(1.0, frobenius_norm(m))
    unitarity = system.vectors.conj().T @ system.vectors - np.eye(system.dim)
    if np.linalg.norm(unitarity) > 1e-10 * scale:
        raise ConvergenceError("eigenvector matrix lost orthonormality")
    residual = m @ system.vectors - system.vectors * system.eigenvalues
    if np.linalg.norm(residual) > 1e-9 * scale:
        raise ConvergenceError(
            f"eigenpair residual {np.linalg.norm(residual):.3e} too large"
        )


@dataclass(frozen=True)
class ValidityReport:
    """Density-matrix health check: how far from Hermitian/unit-trace/PSD."""

    hermiticity_defect: float
    trace_deviation: float
    min_eigenvalue: float
    tol: float

    @property
    def passes(self) -> bool:
        return (
            self.hermiticity_defect <= self.tol
            and self.trace_deviation <= self.tol
            and self.min_eigenvalue >= -self.tol
        )


def validate_density_matrix(rho, tol: float = 1e-10) -> ValidityReport:
    """Report Hermiticity defect, trace deviation and the lowest eigenvalue.

    Never raises for unhealthy states; the caller reads `passes`.
    """
    r = as_complex_matrix(rho)
    defect = hermiticity_defect(r)
    trace_dev = abs(complex(np.trace(r)) - 1.0)
    min_eig = float(np.linalg.eigvalsh((r + r.conj().T) / 2.0)[0])
    return ValidityReport(
        hermiticity_defect=float(defect),
        trace_deviation=float(trace_dev),
        min_eigenvalue=min_eig,
        tol=float(tol),
    )
