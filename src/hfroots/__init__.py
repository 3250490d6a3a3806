"""Heegaard Floer homology of S^3_{-p/q}(K) for algebraic knots K.

Exact-arithmetic computation of HF+ of the orientation reversal, correction
terms and Seiberg-Witten invariants, through graded roots, together with an
independent plumbing-lattice oracle for cross-validation.
"""

from .errors import InternalInvariantError
from .hfcore import (
    SpincResult,
    SurgerySpec,
    closed_form_p1q1,
    compute_all,
    compute_spinc,
    grading_shift,
    sw_invariant,
    tau_depth,
    tau_function,
)
from .knot import AlgebraicKnot, NumericalSemigroup, alexander_polynomial, from_newton_pairs, q_coefficients
from .numtheory import NegContinuedFraction, Rational, dedekind_sum, mod_inverse, neg_cfrac
from .root import (
    GradedRoot,
    TauFunction,
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
    "Rational",
    "SpincResult",
    "SurgerySpec",
    "TauFunction",
    "UModuleDecomposition",
    "alexander_polynomial",
    "closed_form_p1q1",
    "compute_all",
    "compute_spinc",
    "dedekind_sum",
    "from_newton_pairs",
    "grading_shift",
    "mod_inverse",
    "module_from_tau",
    "neg_cfrac",
    "q_coefficients",
    "reduced_rank",
    "render",
    "root_from_tau",
    "sw_invariant",
    "tau_depth",
    "tau_function",
]

__version__ = "0.1.0"
