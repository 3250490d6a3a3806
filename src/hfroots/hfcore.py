"""The surgery pipeline: spin^c data for S^3_{-p/q}(K), K algebraic.

For M = S^3_{-p/q}(K) with H_1(M) = Z_p, the p spin^c structures sigma_a are
indexed by a = 0..p-1 (a = 0 canonical).  For each a the pipeline produces

  * the depth t_a = floor(((2 delta - 1) q - a - 1) / p)  (may be -1),
  * the rational grading shift r_a, assembled from the Dedekind sum s(q, p),
    fractional parts of j q'/p, and delta,
  * the tau function on {0..2 t_a + 2}:
        tau(2t)   = t (1 - delta) + sum_{j<t} floor((j p + a)/q),
        tau(2t+1) = tau(2t+2) + alpha_{floor((t p + a)/q)},
  * the Z[U]-module of the graded root of tau, shifted by r_a; the homology
    of -M in the structure sigma_a is that module, concentrated in even
    degrees, with correction term d(-M, sigma_a) = 2 min tau + r_a,
  * the Seiberg-Witten invariant sw(M, sigma_a) = r_a/2 - sum of the alpha
    values entering tau, each read off tau as tau(2t+1) - tau(2t+2) (the
    alpha indices past the depth reach mu - 1, where alpha vanishes),
  * the kernel and cokernel gradings of the U-action.

For a >= (2 delta - 1) q the depth is -1, tau = [0], the root is a bare stem
and the reduced module vanishes; at a = 0 it never vanishes.

The module is read off tau directly (`root.module_from_tau`); the graded root
itself is not part of a `SpincResult`.  Build it with `root.root_from_tau`
where it is drawn or compared.

Everything here is purely arithmetic in p, q, a, delta and the alpha
coefficients; the plumbing module re-derives the same data from the
intersection lattice and serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalInvariantError
from .knot import AlgebraicKnot
from .numtheory import NegContinuedFraction, dedekind_sum, mod_inverse, neg_cfrac
from .root import TauFunction, UModuleDecomposition, module_from_tau, reduced_rank


class SurgerySpec:
    """An algebraic knot together with a negative surgery coefficient -p/q.

    p and q are positive and coprime; q > p (coefficient in (-1, 0)) is
    allowed.  The normalised continued fraction of p/q is attached.
    """

    def __init__(self, knot: AlgebraicKnot, p: int, q: int):
        if p < 1 or q < 1:
            raise ValueError(f"surgery coefficient needs p, q >= 1, got {p}/{q}")
        if gcd(p, q) != 1:
            raise ValueError(f"surgery coefficient {p}/{q} must be reduced")
        self.knot = knot
        self.p = p
        self.q = q
        self.cfrac: NegContinuedFraction = neg_cfrac(p, q)

    def __repr__(self):
        return f"SurgerySpec({self.knot!r}, -{self.p}/{self.q})"

    def _check_a(self, a: int):
        if not 0 <= a < self.p:
            raise ValueError(f"spin^c index a={a} outside [0, {self.p})")


@dataclass(frozen=True)
class SpincResult:
    """Everything the pipeline knows about one spin^c structure."""

    a: int
    depth: int                      # t_a
    shift: Fraction                 # r_a
    tau: TauFunction
    module: UModuleDecomposition    # gradings include the shift
    d_invariant: Fraction
    sw_invariant: Fraction
    ker_u: tuple[Fraction, ...]     # gradings of ker U, sorted
    coker_u: tuple[Fraction, ...]   # gradings of coker U, sorted


def tau_depth(spec: SurgerySpec, a: int) -> int:
    """t_a; equals -1 exactly when a >= (2 delta - 1) q."""
    spec._check_a(a)
    t = ((2 * spec.knot.delta - 1) * spec.q - a - 1) // spec.p
    if t < -1:
        raise InternalInvariantError("t_a < -1 is impossible for delta >= 1")
    return t


def grading_shift(spec: SurgerySpec, a: int) -> Fraction:
    """r_a, the rational grading shift of sigma_a, as an exact Fraction."""
    spec._check_a(a)
    p, q, d = spec.p, spec.q, spec.knot.delta
    qp = mod_inverse(q, p)
    frac_sum = sum(Fraction((j * qp) % p, p) for j in range(1, a + 1))
    return (
        3 * dedekind_sum(q, p)
        + 2 * frac_sum
        - Fraction((1 + 2 * a) * (p - 1), 2 * p)
        + d * (1 - Fraction(q + 1, p))
        + Fraction(d * d * q, p)
        - Fraction(2 * d * a, p)
    )


def tau_function(spec: SurgerySpec, a: int) -> TauFunction:
    """The tau function of sigma_a on {0, ..., 2 t_a + 2}."""
    t_a = tau_depth(spec, a)
    if t_a == -1:
        return TauFunction((0,))
    p, q, knot = spec.p, spec.q, spec.knot
    delta, mu = knot.delta, knot.mu
    even = [0] * (t_a + 2)
    acc = 0
    for t in range(1, t_a + 2):
        acc += ((t - 1) * p + a) // q
        even[t] = t * (1 - delta) + acc
    vals = [0] * (2 * t_a + 3)
    for t in range(t_a + 2):
        vals[2 * t] = even[t]
    for t in range(t_a + 1):
        idx = (t * p + a) // q
        if idx > mu - 2:
            raise InternalInvariantError("alpha index beyond mu - 2 within depth")
        vals[2 * t + 1] = even[t + 1] + knot.alpha[idx]
    return TauFunction(tuple(vals))


def compute_spinc(spec: SurgerySpec, a: int) -> SpincResult:
    """Assemble tau -> module for one spin^c structure."""
    t_a = tau_depth(spec, a)
    r_a = grading_shift(spec, a)
    tau = tau_function(spec, a)
    module = module_from_tau(tau)
    if len(tau) > 1 and module.reduced_rank != reduced_rank(tau):
        raise InternalInvariantError("finite tower lengths disagree with reduced_rank(tau)")
    module = module.shifted(r_a)
    d = 2 * tau.min() + r_a
    if module.tower_grade != d:
        raise InternalInvariantError("tower grade disagrees with 2 min tau + r_a")
    vals = tau.values
    ker = tuple(sorted(2 * vals[2 * t] + r_a for t in range(t_a + 2)))
    coker = tuple(sorted(2 * vals[2 * t + 1] + r_a - 2 for t in range(t_a + 1)))
    alpha_sum = sum(vals[2 * t + 1] - vals[2 * t + 2] for t in range(t_a + 1))
    return SpincResult(
        a=a,
        depth=t_a,
        shift=r_a,
        tau=tau,
        module=module,
        d_invariant=d,
        sw_invariant=r_a / 2 - alpha_sum,
        ker_u=ker,
        coker_u=coker,
    )


def compute_all(spec: SurgerySpec) -> list[SpincResult]:
    """All p spin^c structures, with the global rank identity enforced:

    sum_a (t_a + 2) = p + (2 delta - 1) q  (total rank of ker U).

    Per-class computations are pure and independent of each other, so
    callers may evaluate them concurrently if they wish.
    """
    results = [compute_spinc(spec, a) for a in range(spec.p)]
    total = sum(r.depth + 2 for r in results)
    expected = spec.p + (2 * spec.knot.delta - 1) * spec.q
    if total != expected:
        raise InternalInvariantError(
            f"ker U rank {total} != p + (2 delta - 1) q = {expected}"
        )
    return results
