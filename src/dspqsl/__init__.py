"""Dissipative state preparation workbench.

Simulates Markovian master-equation dynamics toward a pure dark state,
evaluates initial-state-dependent evolution-time bounds and dissipated
heat, and searches permutations of initial populations for the fastest,
coolest preparation. Ships a six-level two-atom Rydberg demo model and a
CLI (`dspqsl`) that emits CSV data tables.
"""

from .dsp_core import (
    DspConditionReport,
    QslCheckReport,
    QslReport,
    angle_from_fidelity,
    as_populations,
    coefficient_a,
    dissipated_heat,
    entropy_change,
    qsl_margins,
    qsl_time,
    split_state,
    state_from_populations,
    trajectory_qsl_check,
    verify_dsp_conditions,
)
from .lindblad import (
    BatchEvolution,
    IntegrationError,
    ModelError,
    ModelSpec,
    Trajectory,
    coherence_decoupling_diagnostic,
    default_step,
    evolve,
    evolve_batch,
    lindblad_rhs,
    rhs_matrix,
)
from .optimizer import (
    PermutationReport,
    apply_permutation,
    enumerate_permutations,
    lexicographic_select,
    objective_w,
    optimal_permutation,
    pareto_front,
    passive_permutation,
)
from .qmat import (
    ConvergenceError,
    EigenSystem,
    ValidityReport,
    frobenius_norm,
    hermitian_eigensystem,
    trace_product,
    validate_density_matrix,
)
from .rydberg import (
    RydbergParams,
    analytic_eigenbasis,
    build_model,
    thermal_populations,
)

__version__ = "0.1.0"

__all__ = [
    "BatchEvolution",
    "ConvergenceError",
    "DspConditionReport",
    "EigenSystem",
    "IntegrationError",
    "ModelError",
    "ModelSpec",
    "PermutationReport",
    "QslCheckReport",
    "QslReport",
    "RydbergParams",
    "Trajectory",
    "ValidityReport",
    "analytic_eigenbasis",
    "angle_from_fidelity",
    "apply_permutation",
    "as_populations",
    "build_model",
    "coefficient_a",
    "coherence_decoupling_diagnostic",
    "default_step",
    "dissipated_heat",
    "entropy_change",
    "enumerate_permutations",
    "evolve",
    "evolve_batch",
    "frobenius_norm",
    "hermitian_eigensystem",
    "lexicographic_select",
    "lindblad_rhs",
    "objective_w",
    "optimal_permutation",
    "pareto_front",
    "passive_permutation",
    "qsl_margins",
    "qsl_time",
    "rhs_matrix",
    "split_state",
    "state_from_populations",
    "thermal_populations",
    "trace_product",
    "trajectory_qsl_check",
    "validate_density_matrix",
    "verify_dsp_conditions",
]
