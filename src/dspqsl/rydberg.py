"""Two-atom three-level model that prepares a Bell state dissipatively.

Each atom has ground states |0>, |1> and a decaying excited state |r>.
The dynamics never leaves the six-state subspace spanned by
|00>, |01>, |10>, |11>, |0r>, |r0> (basis order used everywhere below).
All couplings and rates are expressed in units of the base Rabi
frequency; times are in its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad import ModelSpec

__all__ = [
    "BASIS_LABELS",
    "DIM",
    "TARGET_INDEX",
    "RydbergParams",
    "bell_target",
    "build_hamiltonian",
    "build_jump_ops",
    "build_model",
    "thermal_populations",
]

BASIS_LABELS = ("00", "01", "10", "11", "0r", "r0")
DIM = 6

# 1-based slot of the Bell target in the ascending eigenbasis.
TARGET_INDEX = 4


@dataclass(frozen=True)
class RydbergParams:
    """Model couplings: omega2 drives ground<->Rydberg transitions, omega
    mixes the two-atom ground manifold, gamma damps the Rydberg states."""

    omega2: float = 0.02
    omega: float = 0.01
    gamma: float = 0.03

    def __post_init__(self):
        for name in ("omega2", "omega", "gamma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def bell_target() -> np.ndarray:
    """The prepared state (|00> - |11>)/sqrt(2)."""
    phi = np.zeros(DIM, dtype=complex)
    phi[0] = 1.0 / math.sqrt(2.0)
    phi[3] = -1.0 / math.sqrt(2.0)
    return phi


def build_hamiltonian(params: RydbergParams) -> np.ndarray:
    """Coherent part: omega2 (|10><r0| + |01><0r|) plus
    omega (|11>+|00>)(<01|+<10|), plus Hermitian conjugates."""
    h = np.zeros((DIM, DIM), dtype=complex)
    idx = {label: k for k, label in enumerate(BASIS_LABELS)}
    h[idx["10"], idx["r0"]] = params.omega2
    h[idx["01"], idx["0r"]] = params.omega2
    for upper in ("11", "00"):
        for lower in ("01", "10"):
            h[idx[upper], idx[lower]] = params.omega
    return h + h.conj().T


def build_jump_ops() -> list[np.ndarray]:
    """Decay channels |0r> -> |01>, |0r> -> |00>, |r0> -> |10>, |r0> -> |00>."""
    idx = {label: k for k, label in enumerate(BASIS_LABELS)}
    ops = []
    for dst, src in (("01", "0r"), ("00", "0r"), ("10", "r0"), ("00", "r0")):
        l = np.zeros((DIM, DIM), dtype=complex)
        l[idx[dst], idx[src]] = 1.0
        ops.append(l)
    return ops


def build_model(params: RydbergParams | None = None) -> ModelSpec:
    """Assemble the model: each decay channel carries rate gamma/2 so the
    dissipator totals gamma/2 * sum_mu D[L_mu]."""
    p = params if params is not None else RydbergParams()
    return ModelSpec(
        h_s=build_hamiltonian(p),
        jump_ops=build_jump_ops(),
        rates=[p.gamma / 2.0] * 4,
        target=bell_target(),
        target_index=TARGET_INDEX,
        gamma_ref=p.gamma,
    )


def thermal_populations(beta: float, energies) -> np.ndarray:
    """Gibbs weights exp(-beta E_n)/Z over an ordered spectrum.

    The exponent is shifted by its maximum before exponentiating, so large
    |beta| cannot overflow.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    e = np.asarray(energies, dtype=float)
    exponents = -beta * e
    weights = np.exp(exponents - exponents.max())
    return weights / weights.sum()
