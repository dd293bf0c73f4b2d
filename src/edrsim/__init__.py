"""Weak-probe error-disturbance simulator.

Simulates a four-qubit circuit that measures one observable of a
two-level system at tunable strength while weakly probing a second,
incompatible observable before and after.  Exact density-matrix
evolution and seeded finite-shot sampling feed weak-valued estimators
of measurement error and disturbance, which are then tested against
four uncertainty trade-off relations.
"""

from .bounds import EdrInputs, classify
from .circuit import build_edr_circuit
from .estimators import (
    basis_probabilities,
    outcome_distribution,
    readout_basis,
    sample_counts,
    weak_valued_squares,
)
from .measurement import exact_disturbance, exact_error
from .noise import compile_noise, representative_profile
from .sweep import SweepConfig, default_strength_grid, emit_csv, emit_json, run_sweep

__version__ = "0.1.0"

__all__ = [
    "EdrInputs",
    "SweepConfig",
    "basis_probabilities",
    "build_edr_circuit",
    "classify",
    "compile_noise",
    "default_strength_grid",
    "emit_csv",
    "emit_json",
    "exact_disturbance",
    "exact_error",
    "outcome_distribution",
    "readout_basis",
    "representative_profile",
    "run_sweep",
    "sample_counts",
    "weak_valued_squares",
]
