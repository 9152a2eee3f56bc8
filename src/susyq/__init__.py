"""Spectral design for the truncated harmonic oscillator.

Builds k-th order Darboux/Crum partner potentials of the half-line
oscillator, predicts which factorization energies become genuine new
levels from interval/parity rules, and verifies every prediction with an
independent finite-difference eigensolver.
"""

from .design import (
    IntervalClass,
    TransformationPlan,
    ValidationReport,
    boundary_check,
    classify_interval,
    make_plan,
    parity_assignment,
    predict_added,
    scan_singularities,
    validate,
)
from .errors import SusyqError
from .kummer import kummer_m, kummer_m_deriv
from .oracle import Grid, Tridiag, discretize, eigenvalues_low, residual, sturm_count
from .partner import (
    BaseState,
    PartnerPotential,
    added_state,
    base_state_value,
    normalize,
    partner_v,
    transformed_eigenfunction,
    truncated_oscillator_v,
)
from .seeds import Parity, SeedSolution, make_seed, make_seed_general, seed_derivs, seed_value
from .wronskian import log_w_second_deriv, wronskian, wronskian_minor

__version__ = "0.1.0"

__all__ = [
    "BaseState",
    "Grid",
    "IntervalClass",
    "Parity",
    "PartnerPotential",
    "SeedSolution",
    "SusyqError",
    "TransformationPlan",
    "Tridiag",
    "ValidationReport",
    "added_state",
    "base_state_value",
    "boundary_check",
    "classify_interval",
    "discretize",
    "eigenvalues_low",
    "kummer_m",
    "kummer_m_deriv",
    "log_w_second_deriv",
    "make_plan",
    "make_seed",
    "make_seed_general",
    "normalize",
    "parity_assignment",
    "partner_v",
    "predict_added",
    "residual",
    "scan_singularities",
    "seed_derivs",
    "seed_value",
    "sturm_count",
    "transformed_eigenfunction",
    "truncated_oscillator_v",
    "validate",
    "wronskian",
    "wronskian_minor",
]
