"""Lindblad generator and a record-stepped RK4 trajectory integrator.

States evolve under rho' = -i[H, rho] + sum_mu gamma_mu D[L_mu] rho with
D[L] rho = L rho L^dag - {L^dag L, rho}/2. The generator is linear and
time independent, so an RK4 step is a fixed matrix P on vectorized states
and each record is one product with P^stride. `evolve` (one state) and
`evolve_batch` (a stack diagonal in the eigenbasis) share that stepper;
the stack is stepped as its eigenprojectors and recombined by linearity.
`lindblad_rhs` is the direct, readable form of the generator and the two
are tested against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qmat
from .qmat import EigenSystem

__all__ = [
    "BatchEvolution",
    "IntegrationError",
    "ModelError",
    "MAX_RECORDS",
    "ModelSpec",
    "Trajectory",
    "check_grid",
    "default_step",
    "evolve",
    "evolve_batch",
    "lindblad_rhs",
    "rhs_matrix",
]

# Conservation thresholds enforced at every trajectory record.
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-9
POSITIVITY_TOL = 1e-8

# Fidelity may poke past [0, 1] by at most this much before aborting.
FIDELITY_SLACK = 1e-9

DEFAULT_STRIDE = 20

# Records cost one propagator product each and are all kept, so this cap
# bounds time and memory; it admits the demo at stride 20 and at stride 1.
MAX_RECORDS = 200_000

# States propagated and diagnosed together in one record block.
_BLOCK_STATES = 1024

# Largest eigenbasis entry by which a stack may miss nonnegative diagonal
# matrices and still be admitted by `evolve_batch`.
SUPERPOSITION_TOL = 1e-12

_NON_FINITE = "state became non-finite"


class ModelError(ValueError):
    """Model construction or validation failure."""


class IntegrationError(RuntimeError):
    """Trajectory aborted; `time` holds the offending instant and `index`
    the offending trajectory of a stack of several (else None)."""

    def __init__(self, message: str, time: float, index: int | None = None):
        where = "" if index is None else f" in trajectory {index}"
        super().__init__(f"{message}{where} at t = {time:.6g}")
        self.time = time
        self.index = index


@dataclass
class ModelSpec:
    """Dissipative model with a pure target state.

    It derives `eigensystem`, the ascending eigenbasis of `h_s` with the
    target aligned in its degenerate cluster at the 1-based slot
    `target_index`; left out, that is the slot whose eigenvector overlaps
    the target most. `gamma_ref` is an optional reference damping rate used
    only for unit conversion in reports. Whether the target is dark and the
    eigenvector at its slot is `dsp_core.verify_dsp_conditions`'s verdict.
    """

    h_s: np.ndarray
    jump_ops: list[np.ndarray]
    rates: list[float]
    target: np.ndarray
    target_index: int | None = None
    gamma_ref: float | None = None
    eigensystem: EigenSystem = field(init=False)

    def __post_init__(self):
        self.h_s = qmat.as_complex_matrix(self.h_s)
        d = self.h_s.shape[0]
        self.jump_ops = [qmat.as_complex_matrix(l) for l in self.jump_ops]
        if any(l.shape[0] != d for l in self.jump_ops):
            raise ModelError("jump operator dimension mismatch")
        self.rates = [float(g) for g in self.rates]
        if len(self.rates) != len(self.jump_ops):
            raise ModelError("one rate per jump operator required")
        if not all(0.0 <= g < math.inf for g in self.rates):  # NaN fails both
            raise ModelError("rates must be finite and nonnegative")
        self.target = qmat.as_ket(self.target)
        if self.target.shape[0] != d:
            raise ModelError("target dimension mismatch")
        if self.target_index is not None and not 1 <= self.target_index <= d:
            raise ModelError(f"target_index {self.target_index} outside 1..{d}")
        try:
            self.eigensystem = qmat.hermitian_eigensystem(self.h_s, self.target, self.target_index)
        except ValueError as exc:  # a non-Hermitian Hamiltonian
            raise ModelError(str(exc)) from None
        if self.target_index is None:
            overlaps = np.abs(self.eigensystem.vectors.conj().T @ self.target)
            self.target_index = int(np.argmax(overlaps)) + 1

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]

    @property
    def target_energy(self) -> float:
        return float(self.eigensystem.eigenvalues[self.target_index - 1])

    @property
    def target_projector(self) -> np.ndarray:
        return np.outer(self.target, self.target.conj())


def lindblad_rhs(model: ModelSpec, rho) -> np.ndarray:
    """-i[H, rho] + sum_mu gamma_mu (L rho L^dag - {L^dag L, rho}/2).

    Output is traceless and Hermitian up to roundoff for Hermitian input.
    """
    r = qmat.as_complex_matrix(rho)
    if r.shape[0] != model.dim:
        raise ValueError(f"state dimension {r.shape[0]} != model dimension {model.dim}")
    h = model.h_s
    out = -1j * (h @ r - r @ h)
    for g, l in zip(model.rates, model.jump_ops):
        if g == 0.0:
            continue
        l_dag = l.conj().T
        ldl = l_dag @ l
        out += g * (l @ r @ l_dag - 0.5 * (ldl @ r + r @ ldl))
    return out


def rhs_matrix(model: ModelSpec) -> np.ndarray:
    """Matrix of `lindblad_rhs` acting on row-major vectorized states.

    rho' = K rho + rho (iH - D) + sum_mu gamma_mu L rho L^dag with
    D = sum_mu gamma_mu L^dag L / 2 and the effective Hamiltonian K = -iH - D;
    row-major vec(A rho B) = (A kron B^T) vec(rho), so n channels cost 2 + n krons.
    """
    eye = np.eye(model.dim, dtype=complex)
    channels = [(g, l) for g, l in zip(model.rates, model.jump_ops) if g != 0.0]
    decay = 0.5 * sum((g * (l.conj().T @ l) for g, l in channels), np.zeros_like(eye))
    gen = np.kron(-1j * model.h_s - decay, eye) + np.kron(eye, (1j * model.h_s - decay).T)
    for g, l in channels:
        gen += g * np.kron(l, l.conj())
    return gen


def default_step(model: ModelSpec) -> float:
    """Fixed step sized against the fastest coherent or dissipative scale."""
    # An overflowing L^dag L gives an inf or NaN rate: a refused or aborted run.
    with np.errstate(over="ignore", invalid="ignore"):
        rate_scale = sum(
            g * qmat.frobenius_norm(l.conj().T @ l)
            for g, l in zip(model.rates, model.jump_ops)
        )
    scale = max(qmat.frobenius_norm(model.h_s), rate_scale)
    if scale <= 0.0:
        return 0.05
    return min(0.05, 0.1 / scale)


@dataclass
class Trajectory:
    """Recorded time series of one evolution.

    Records hold the state, the overlap with the target (fidelity), the
    angle arccos(fidelity), and per-record conservation diagnostics.
    """

    times: np.ndarray           # (R,)
    states: np.ndarray          # (R, d, d)
    fidelities: np.ndarray      # (R,)
    angles: np.ndarray          # (R,)
    trace_devs: np.ndarray      # (R,)
    herm_defects: np.ndarray    # (R,)
    min_eigs: np.ndarray        # (R,)
    coherence_maxes: np.ndarray  # (R,) largest off-diagonal in the eigenbasis

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def check_grid(t_end: float, step: float, stride: int) -> int:
    """Validate a record grid and return its step count; a grid of more
    than MAX_RECORDS records is refused before anything is allocated."""
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not t_end >= step:
        raise ValueError(f"t_end must be at least one step (t_end={t_end!r}, step={step!r})")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = t_end / step
    if not (math.isfinite(n_steps) and -(-round(n_steps) // stride) < MAX_RECORDS):
        raise ValueError(
            f"t_end={t_end!r}, step={step!r} and stride={stride} give more than "
            f"{MAX_RECORDS} records"
        )
    return round(n_steps)


def _batch_diagnostics(rhos: np.ndarray, phi: np.ndarray):
    """Trace deviation, Hermiticity defect, min eigenvalue, fidelity for a
    stack of states (B, d, d)."""
    trace_dev = np.abs(np.einsum("bii->b", rhos) - 1.0)
    adj = rhos.conj().transpose(0, 2, 1)
    herm_defect = np.linalg.norm(rhos - adj, axis=(1, 2))
    # Halves first: the sum of two finite halves cannot overflow.
    min_eig = np.linalg.eigvalsh(rhos / 2.0 + adj / 2.0)[:, 0]
    fid = np.einsum("i,bij,j->b", phi.conj(), rhos, phi).real
    return trace_dev, herm_defect, min_eig, fid


def _one_step_matrix(gen: np.ndarray, step: float) -> np.ndarray:
    """Quartic Taylor polynomial of the step map: for a linear
    time-independent generator, exactly one classical RK4 step."""
    d2 = gen.shape[0]
    eye = np.eye(d2, dtype=complex)
    p = eye + (step / 4.0) * gen
    p = eye + (step / 3.0) * (gen @ p)
    p = eye + (step / 2.0) * (gen @ p)
    return eye + step * (gen @ p)


def _record_blocks(model: ModelSpec, stack: np.ndarray, t_end: float, step: float, stride: int):
    """Yield (times, states, diagnostics) of a stack (B, d, d) block by block.

    Records fall every `stride` steps plus the final step; states are
    (m, B, d, d) and each `_batch_diagnostics` array is (m, B). A block is
    propagated, checked and diagnosed before the next one, so a consumer
    that raises stops at the first offending record. The first non-finite
    record raises once the finite records before it have been yielded;
    its error names the trajectory when the stack holds several.
    """
    n_batch, d = stack.shape[0], model.dim
    if stack.ndim != 3 or stack.shape[1:] != (d, d) or not n_batch:
        raise ValueError(f"expected a nonempty (B, {d}, {d}) stack of states, got {stack.shape}")
    n_steps = check_grid(t_end, step, stride)
    stride = min(stride, n_steps)  # a longer stride records the same two points
    n_records = -(-n_steps // stride) + 1
    rest = n_steps % stride
    # An unstable step overflows here and below; the finiteness check
    # reports the first record it reaches. States are rows: times P^T.
    with np.errstate(over="ignore", invalid="ignore"):
        one_step = _one_step_matrix(rhs_matrix(model), step)
        jump = np.linalg.matrix_power(one_step, stride).T.copy()
        last_jump = np.linalg.matrix_power(one_step, rest).T.copy() if rest else jump
    per_block = max(1, _BLOCK_STATES // n_batch)
    y = stack.reshape(n_batch, d * d)
    for first in range(0, n_records, per_block):
        m = min(per_block, n_records - first)
        times = np.minimum(np.arange(first, first + m, dtype=float) * stride, n_steps) * step
        block = np.empty((m, n_batch, d * d), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(first, first + m):
                y = block[r - first] = y if r == 0 else y @ (last_jump if r == n_records - 1 else jump)
            finite = np.isfinite(block).all(axis=2)
            n_ok = m if finite.all() else int(np.argmin(finite.all(axis=1)))
            states = block[:n_ok].reshape(n_ok, n_batch, d, d)
            diagnostics = _batch_diagnostics(states.reshape(-1, d, d), model.target)
        if n_ok:
            yield times[:n_ok], states, [x.reshape(n_ok, n_batch) for x in diagnostics]
        if n_ok < m:
            index = None if n_batch == 1 else int(np.argmin(finite[n_ok]))
            raise IntegrationError(_NON_FINITE, float(times[n_ok]), index)


def evolve(
    model: ModelSpec,
    rho0,
    t_end: float,
    step: float | None = None,
    stride: int = DEFAULT_STRIDE,
) -> Trajectory:
    """Integrate the master equation with fixed-step classical RK4.

    Records are kept every `stride` steps plus the final step (stride=1 for
    full resolution). The run aborts with IntegrationError at the first
    record that holds a non-finite state or breaches a conservation
    threshold.
    """
    r0 = qmat.as_complex_matrix(rho0)
    health = qmat.validate_density_matrix(r0)
    if not health.passes:
        raise ValueError(f"initial state is not a valid density matrix: {health}")
    if step is None:
        step = default_step(model)
    vecs = model.eigensystem.vectors
    offdiag = ~np.eye(model.dim, dtype=bool)

    columns = []
    for times, states, diagnostics in _record_blocks(model, r0[None], t_end, step, stride):
        rhos = states[:, 0]
        trace_dev, herm, min_eig, fid = (x[:, 0] for x in diagnostics)
        # Negated so that a NaN diagnostic counts as a breach.
        breaches = ~np.stack([
            trace_dev <= TRACE_TOL,
            herm <= HERMITICITY_TOL,
            min_eig >= -POSITIVITY_TOL,
            (fid >= -FIDELITY_SLACK) & (fid <= 1.0 + FIDELITY_SLACK),
        ])
        if breaches.any():
            r = int(np.argmax(breaches.any(axis=0)))
            message = (
                f"trace deviation {trace_dev[r]:.3e} beyond threshold",
                f"Hermiticity defect {herm[r]:.3e} beyond threshold",
                f"eigenvalue {min_eig[r]:.3e} beyond threshold",
                f"fidelity {fid[r]} outside [0, 1]",
            )[int(np.argmax(breaches[:, r]))]
            raise IntegrationError(message, float(times[r]))
        angle = np.arccos(np.clip(fid, 0.0, 1.0))
        coherence = np.abs((vecs.conj().T @ rhos @ vecs)[:, offdiag]).max(axis=1, initial=0.0)
        # In the order of the Trajectory fields.
        columns.append((times, rhos, fid, angle, trace_dev, herm, min_eig, coherence))
    return Trajectory(*(np.concatenate(c) for c in zip(*columns)))


@dataclass
class BatchEvolution:
    """Summaries of many trajectories integrated side by side.

    The stack is diagonal in the eigenbasis with nonnegative weights (see
    `evolve_batch`): `fidelities` and `max_trace_dev` are exact,
    `max_herm_defect` is an upper bound and `min_eigenvalue` a lower bound
    on the extrema of the stacked trajectories. No state is kept.
    """

    times: np.ndarray            # (R,)
    fidelities: np.ndarray       # (B, R)
    max_trace_dev: np.ndarray    # (B,)
    max_herm_defect: np.ndarray  # (B,)
    min_eigenvalue: np.ndarray   # (B,)


def _eigenbasis_weights(model: ModelSpec, stack: np.ndarray) -> np.ndarray:
    """Weights W (B, d) with stack[b] = V diag(W[b]) V^dag, V the model's
    eigenvectors, up to SUPERPOSITION_TOL per entry of V^dag stack[b] V.

    Raises ValueError naming the first state that is non-finite, off that
    diagonal or below zero by more than the tolerance, and for an empty or
    all-zero stack. Roundoff in the rotation turns a zero population into
    about -1e-18, so a weight within the tolerance below zero counts as zero.
    """
    d = model.dim
    if stack.ndim != 3 or stack.shape[1:] != (d, d) or not len(stack):
        raise ValueError(f"expected a nonempty (B, {d}, {d}) stack of states, got {stack.shape}")
    vecs = model.eigensystem.vectors
    with np.errstate(over="ignore", invalid="ignore"):
        rotated = vecs.conj().T @ stack @ vecs
        weights = np.diagonal(rotated, axis1=1, axis2=2).real
        # Largest entry off a real diagonal: coherences and imaginary weights.
        coherence = np.abs(rotated - weights[..., None] * np.eye(d)).max(axis=(1, 2))
    lowest = weights.min(axis=1)
    # Negated so that a non-finite state, whose rotation holds a NaN or an
    # infinity off the diagonal, is refused.
    refused = ~((coherence <= SUPERPOSITION_TOL) & (lowest >= -SUPERPOSITION_TOL))
    if refused.any():
        b = int(np.argmax(refused))
        if not np.isfinite(stack[b]).all():
            raise ValueError(f"state {b} of the stack is not finite")
        raise ValueError(
            f"state {b} of the stack is not diagonal in the eigenbasis with nonnegative "
            f"weights (coherence {coherence[b]:.3e}, lowest weight {lowest[b]:.3e}); use evolve"
        )
    weights = np.maximum(weights, 0.0)
    if not weights.any():
        raise ValueError("every state of the stack has zero weight")
    return weights


def evolve_batch(
    model: ModelSpec,
    states,
    t_end: float,
    step: float | None = None,
    stride: int = DEFAULT_STRIDE,
) -> BatchEvolution:
    """Evolve a stack of initial states (B, d, d), each diagonal in the
    model's eigenbasis with nonnegative weights: rho_b = sum_k w_bk |k><k|.

    Any other stack is refused with ValueError before the generator is
    formed (see `_eigenbasis_weights`); `evolve` integrates any one state.
    The record grid is that of `evolve`, but only per-record fidelities and
    running conservation extrema are kept. By linearity only the
    eigenprojectors |k><k| that carry weight are stepped, and every field
    is read from their records through W: fidelities and trace deviations
    exactly, the Hermiticity defect as an upper bound
    (W @ defect_k, triangle inequality) and the lowest eigenvalue as a
    lower bound (W @ lambda_min_k, Weyl's inequality), record by record
    before the extrema over records are taken. This holds for
    V diag(W) V^dag, within SUPERPOSITION_TOL of the stack per eigenbasis
    entry, and up to roundoff. Aborts only on a non-finite state, naming
    its trajectory index; threshold checks are the caller's.
    """
    stack = np.asarray(states, dtype=complex)
    weights = _eigenbasis_weights(model, stack)
    if step is None:
        step = default_step(model)
    n_batch = len(stack)
    used = weights.any(axis=0)
    weights = weights[:, used]
    vecs = model.eigensystem.vectors[:, used]
    projectors = np.einsum("ik,jk->kij", vecs, vecs.conj())
    weight_excess = weights.sum(axis=1) - 1.0
    times, fids = [], []
    max_trace = np.zeros(n_batch)
    max_herm = np.zeros(n_batch)
    min_eig = np.full(n_batch, np.inf)
    try:
        for block_times, block_states, (_, herm, eig_lo, fid) in _record_blocks(
            model, projectors, t_end, step, stride
        ):
            # Signed basis traces, so that the deviation is exact.
            traces = np.einsum("rkii->rk", block_states) - 1.0
            trace_dev = np.abs(traces @ weights.T + weight_excess)
            times.append(block_times)
            fids.append(fid @ weights.T)
            np.maximum(max_trace, trace_dev.max(axis=0), out=max_trace)
            np.maximum(max_herm, (herm @ weights.T).max(axis=0), out=max_herm)
            np.minimum(min_eig, (eig_lo @ weights.T).min(axis=0), out=min_eig)
    except IntegrationError as err:
        # Name the first stacked trajectory that holds the offending projector.
        offending = 0 if err.index is None else err.index
        index = None if n_batch == 1 else int(np.argmax(weights[:, offending] > 0.0))
        raise IntegrationError(_NON_FINITE, err.time, index) from None

    return BatchEvolution(
        times=np.concatenate(times),
        fidelities=np.ascontiguousarray(np.concatenate(fids).T),
        max_trace_dev=max_trace,
        max_herm_defect=max_herm,
        min_eigenvalue=min_eig,
    )
