"""Heegaard Floer homology of S^3_{-p/q}(K) for algebraic knots K.

Exact-arithmetic computation of HF+ of the orientation reversal, correction
terms and Seiberg-Witten invariants, through graded roots, together with an
independent plumbing-lattice oracle for cross-validation.
"""

from .errors import InternalInvariantError, ResourceLimitError
from .hfcore import (
    SpincResult,
    SpincRun,
    SurgerySpec,
    compute_all,
    compute_run,
    compute_runs,
    compute_spinc,
    grading_shift,
    tau_depth,
    tau_function,
)
from .knot import AlgebraicKnot, NumericalSemigroup, from_newton_pairs
from .numtheory import NegContinuedFraction, dedekind_sum, mod_inverse, neg_cfrac
from .root import (
    GradedRoot,
    UModuleDecomposition,
    module_from_tau,
    reduced_rank,
    render,
    root_from_tau,
)

__all__ = [
    "AlgebraicKnot",
    "GradedRoot",
    "InternalInvariantError",
    "NegContinuedFraction",
    "NumericalSemigroup",
    "ResourceLimitError",
    "SpincResult",
    "SpincRun",
    "SurgerySpec",
    "UModuleDecomposition",
    "compute_all",
    "compute_run",
    "compute_runs",
    "compute_spinc",
    "dedekind_sum",
    "from_newton_pairs",
    "grading_shift",
    "mod_inverse",
    "module_from_tau",
    "neg_cfrac",
    "reduced_rank",
    "render",
    "root_from_tau",
    "tau_depth",
    "tau_function",
]

__version__ = "0.1.0"
