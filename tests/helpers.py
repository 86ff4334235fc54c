"""Shared test utilities: random matrix generators, synthetic models and
the oracles that the production paths are checked against."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from dspqsl import dsp_core, lindblad, optimizer, qmat, rydberg
from dspqsl.lindblad import IntegrationError, ModelSpec


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (x + x.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def charpoly_eigenvalues(h) -> np.ndarray:
    """Brute-force spectrum: roots of the characteristic polynomial."""
    roots = np.roots(np.poly(np.asarray(h, dtype=complex)))
    return np.sort(roots.real)


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero a[p, q] with a complex Jacobi rotation, updating a and v in place."""
    apq = a[p, q]
    mag = abs(apq)
    phase = apq / mag
    theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    # Smaller root of t^2 - 2*theta*t - 1 = 0 for a stable rotation angle.
    t = -math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    # Right-multiply by the rotation U (columns p, q).
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * np.conj(phase) * col_q
    a[:, q] = -s * phase * col_p + c * col_q
    # Left-multiply by U^dag (rows p, q).
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s * phase * row_q
    a[q, :] = -s * np.conj(phase) * row_p + c * row_q
    # The rotation is constructed to annihilate this pair exactly.
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vec_p = v[:, p].copy()
    vec_q = v[:, q].copy()
    v[:, p] = c * vec_p + s * np.conj(phase) * vec_q
    v[:, q] = -s * phase * vec_p + c * vec_q


def jacobi_eigh(h, max_sweeps: int = 100, off_tol: float = 1e-13):
    """Oracle for `np.linalg.eigh`: cyclic Jacobi sweeps on a Hermitian matrix.

    Sweeps run until the off-diagonal Frobenius mass drops below `off_tol`
    (relative to the matrix scale). Returns ascending eigenvalues and the
    matching eigenvector columns; raises LinAlgError, as eigh does, when
    `max_sweeps` is exhausted first.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    threshold = off_tol * max(1.0, float(np.linalg.norm(a)))
    skip_below = threshold / max(n * n, 1)
    off = _offdiag_norm(a)
    sweeps = 0
    while off > threshold:
        if sweeps >= max_sweeps:
            raise np.linalg.LinAlgError(
                f"no convergence after {max_sweeps} sweeps; "
                f"off-diagonal norm {off:.3e} (threshold {threshold:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip_below:
                    _jacobi_rotate(a, v, p, q)
        sweeps += 1
        off = _offdiag_norm(a)
    vals = np.diag(a).real.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def jacobi_eigensystem(m, target=None, target_index=None, **budget) -> qmat.EigenSystem:
    """`qmat.hermitian_eigensystem` with the Jacobi oracle in place of LAPACK.

    The alignment, phase convention and residual check are the production
    ones, so a difference from the production result is the solver's.
    """
    with mock.patch.object(np.linalg, "eigh", lambda a: jacobi_eigh(a, **budget)):
        return qmat.hermitian_eigensystem(m, target=target, target_index=target_index)


def trace_product(a, b) -> complex:
    """Tr(A B), the Hilbert-Schmidt pairing (relative purity for states).

    Real within roundoff when both arguments are Hermitian.
    """
    am = qmat.as_complex_matrix(a)
    bm = qmat.as_complex_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    # Tr(AB) = sum_ij A_ij B_ji
    return complex(np.sum(am * bm.T))


def to_eigenbasis(basis: qmat.EigenSystem, m) -> np.ndarray:
    """Represent an operator in an eigenbasis: V^dag M V."""
    return basis.vectors.conj().T @ qmat.as_complex_matrix(m) @ basis.vectors


@dataclass(frozen=True)
class QslReport:
    """Speed coefficient, initial overlap, and the two time bounds."""

    a: float
    cos_theta0: float
    t_qsl: float
    t_qsl_2: float


def qsl_time(model, rho0) -> QslReport:
    """Oracle for the population-scored bounds: both bounds of a dense
    initial state, from its overlap Tr(rho0 rho_f) with the target."""
    cos0 = float(np.real(trace_product(rho0, model.target_projector)))
    a = dsp_core.coefficient_a(model)
    t_qsl, t_qsl_2 = dsp_core.qsl_times_from_overlap(cos0, a)
    return QslReport(a=a, cos_theta0=min(max(cos0, 0.0), 1.0), t_qsl=t_qsl, t_qsl_2=t_qsl_2)


def dissipated_heat(model, rho0) -> float:
    """Oracle for the population-scored heat of a dense initial state:
    Tr[H rho0] - E_{n*}."""
    return float(np.real(trace_product(model.h_s, rho0))) - model.target_energy


def analytic_eigenbasis(params: rydberg.RydbergParams | None = None) -> qmat.EigenSystem:
    """Closed-form eigenbasis of the Rydberg model from its atom-exchange
    block structure.

    The exchange-antisymmetric sector gives eigenvalues -/+ omega2; the
    symmetric sector splits into the Bell target (eigenvalue 0), a second
    zero mode, and -/+ sqrt(4*omega^2 + omega2^2). Eigenvalues come out
    ascending, with the Bell state at the 1-based slot 4.
    """
    p = params if params is not None else rydberg.RydbergParams()
    s = math.hypot(2.0 * p.omega, p.omega2)
    if s == 0.0:
        raise ValueError("omega and omega2 are both zero; basis is arbitrary")
    e = np.eye(rydberg.DIM, dtype=complex)
    e00, e01, e10, e11, e0r, er0 = (e[:, k] for k in range(rydberg.DIM))
    rt2 = math.sqrt(2.0)
    sym_ground = (e00 + e11) / rt2
    sym_flip = (e01 + e10) / rt2
    sym_ryd = (e0r + er0) / rt2
    asym_flip = (e01 - e10) / rt2
    asym_ryd = (e0r - er0) / rt2

    two_omega = 2.0 * p.omega
    columns = [
        (two_omega * sym_ground - s * sym_flip + p.omega2 * sym_ryd) / (s * rt2),
        (asym_flip - asym_ryd) / rt2,
        (p.omega2 * sym_ground - two_omega * sym_ryd) / s,
        rydberg.bell_target(),
        (asym_flip + asym_ryd) / rt2,
        (two_omega * sym_ground + s * sym_flip + p.omega2 * sym_ryd) / (s * rt2),
    ]
    values = np.array([-s, -p.omega2, 0.0, 0.0, p.omega2, s])
    # s >= omega2 always, so the listed order is already ascending.
    return qmat.EigenSystem(eigenvalues=values, vectors=np.column_stack(columns))


def dark_state_model(
    energies, target_index: int, rate: float = 1.0, source_index: int | None = None
) -> ModelSpec:
    """Diagonal-Hamiltonian model whose target eigenstate is dark.

    The single jump operator |n*><m| pumps population from a source level
    into the target and annihilates the target itself. `energies` must be
    ascending; `target_index` and the optional `source_index` are 1-based.
    """
    e = np.asarray(energies, dtype=float)
    n = e.size
    if np.any(np.diff(e) < 0):
        raise ValueError("energies must be ascending")
    slot = target_index - 1
    phi = np.zeros(n, dtype=complex)
    phi[slot] = 1.0
    h = np.diag(e).astype(complex)
    eig = qmat.hermitian_eigensystem(h, target=phi, target_index=target_index)
    if n == 1:
        jumps, rates = [], []
    else:
        src = (source_index - 1) if source_index is not None else (0 if slot != 0 else 1)
        l = np.zeros((n, n), dtype=complex)
        l[slot, src] = 1.0
        jumps, rates = [l], [rate]
    return ModelSpec(
        h_s=h,
        jump_ops=jumps,
        rates=rates,
        target=phi,
        eigensystem=eig,
        target_index=target_index,
    )


def random_distinct_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """A populations vector with pairwise-distinct entries."""
    while True:
        lam = rng.uniform(0.05, 1.0, size=n)
        lam /= lam.sum()
        if np.unique(lam).size == n:
            return lam


def rk4_reference(model: ModelSpec, rho0, t_end: float, step: float, stride: int):
    """Oracle for the record stepper: classical RK4 one step at a time.

    Four generator matvecs per step; records every `stride` steps plus the
    final step. Returns (times, states). The first record that is
    non-finite or breaches a conservation threshold raises IntegrationError
    at its time, with a message that starts like the integrator's (checks
    in the same order: non-finite, trace, Hermiticity, eigenvalue,
    fidelity).
    """
    d = model.dim
    gen = lindblad.rhs_matrix(model)
    phi = model.target
    n_steps = int(round(t_end / step))
    times, states = [], []

    def record(step_index: int, y: np.ndarray) -> None:
        t = step_index * step
        rho = y.reshape(d, d)
        if not np.all(np.isfinite(rho)):
            raise IntegrationError("state became non-finite", t)
        adj = rho.conj().T
        fid = (phi.conj() @ rho @ phi).real
        checks = (
            ("trace deviation", abs(np.trace(rho) - 1.0) <= lindblad.TRACE_TOL),
            ("Hermiticity defect", np.linalg.norm(rho - adj) <= lindblad.HERMITICITY_TOL),
            ("eigenvalue", np.linalg.eigvalsh((rho + adj) / 2.0)[0] >= -lindblad.POSITIVITY_TOL),
            ("fidelity", -lindblad.FIDELITY_SLACK <= fid <= 1.0 + lindblad.FIDELITY_SLACK),
        )
        for name, ok in checks:
            if not ok:
                raise IntegrationError(f"{name} beyond threshold", t)
        times.append(t)
        states.append(rho.copy())

    y = qmat.as_complex_matrix(rho0).reshape(-1)
    record(0, y)
    for i in range(1, n_steps + 1):
        k1 = gen @ y
        k2 = gen @ (y + (0.5 * step) * k1)
        k3 = gen @ (y + (0.5 * step) * k2)
        k4 = gen @ (y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if i % stride == 0 or i == n_steps:
            record(i, y)
    return np.array(times), np.array(states)


def evolve_batch_direct(model: ModelSpec, states, t_end: float, step: float | None = None,
                        stride: int = lindblad.DEFAULT_STRIDE) -> lindblad.BatchEvolution:
    """Oracle for `lindblad.evolve_batch`: every stacked state stepped and
    diagnosed on its own, running extrema over the exact per-record values."""
    stack = np.asarray(states, dtype=complex)
    if step is None:
        step = lindblad.default_step(model)
    n_batch = len(stack)
    times, fids = [], []
    max_trace = np.zeros(n_batch)
    max_herm = np.zeros(n_batch)
    min_eig = np.full(n_batch, np.inf)
    blocks = lindblad._record_blocks(model, stack, t_end, step, stride)
    for block_times, _, (trace_dev, herm, eig_lo, fid) in blocks:
        times.append(block_times)
        fids.append(fid)
        np.maximum(max_trace, trace_dev.max(axis=0), out=max_trace)
        np.maximum(max_herm, herm.max(axis=0), out=max_herm)
        np.minimum(min_eig, eig_lo.min(axis=0), out=min_eig)
    return lindblad.BatchEvolution(
        times=np.concatenate(times),
        fidelities=np.ascontiguousarray(np.concatenate(fids).T),
        max_trace_dev=max_trace,
        max_herm_defect=max_herm,
        min_eigenvalue=min_eig,
    )


def enumerate_permutations_reference(populations, model, g: float = optimizer.DEFAULT_HEAT_WEIGHT):
    """Oracle for `optimizer.enumerate_permutations`: all n! index tuples in
    lexicographic order, de-duplicated by arrangement through a dict (first
    permutation kept) and scored one at a time."""
    lam = dsp_core.as_populations(populations)
    energies = model.eigensystem.eigenvalues
    a = dsp_core.coefficient_a(model)
    entropy = dsp_core.entropy_change(lam)
    slot = model.target_index - 1
    reports = {}
    for perm in itertools.permutations(range(lam.size)):
        arrangement = tuple(float(lam[i]) for i in perm)
        if arrangement in reports:
            continue
        lam_target = arrangement[slot]
        t_qsl, t_qsl_2 = dsp_core.qsl_times_from_overlap(lam_target, a)
        heat = float(np.dot(arrangement, energies)) - model.target_energy
        reports[arrangement] = optimizer.PermutationReport(
            permutation=perm,
            arrangement=arrangement,
            lambda_target=lam_target,
            t_qsl=t_qsl,
            t_qsl_2=t_qsl_2,
            heat=heat,
            entropy=entropy,
            objective=optimizer.objective_w(g, heat, lam_target),
        )
    return list(reports.values())


def pareto_mask_reference(reports) -> np.ndarray:
    """Oracle for `optimizer.pareto_mask`: the O(N^2) pairwise dominance test."""
    t = np.array([r.t_qsl for r in reports])
    q = np.array([r.heat for r in reports])
    mask = np.ones(len(reports), dtype=bool)
    for i in range(len(reports)):
        dominated = (t <= t[i]) & (q <= q[i]) & ((t < t[i]) | (q < q[i]))
        mask[i] = not bool(np.any(dominated))
    return mask
