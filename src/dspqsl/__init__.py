"""Dissipative state preparation workbench.

Simulates Markovian master-equation dynamics toward a pure dark state,
evaluates initial-state-dependent evolution-time bounds and dissipated
heat, and searches permutations of initial populations for the fastest,
coolest preparation. Ships a six-level two-atom Rydberg demo model and a
CLI (`dspqsl`) that emits CSV data tables.

The library is imported by module: `from dspqsl import lindblad, optimizer`.
"""

__version__ = "0.1.0"
