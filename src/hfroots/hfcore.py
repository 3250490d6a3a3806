"""The surgery pipeline: spin^c data for S^3_{-p/q}(K), K algebraic.

For M = S^3_{-p/q}(K) with H_1(M) = Z_p, the p spin^c structures sigma_a are
indexed by a = 0..p-1 (a = 0 canonical).  For each a the pipeline produces

  * the depth t_a = floor(((2 delta - 1) q - a - 1) / p)  (may be -1),
  * the rational grading shift r_a, assembled from the Dedekind sum s(q, p),
    fractional parts of j q'/p, and delta; s(q, p) is computed once per
    SurgerySpec and the fractional sum is one floor sum, O(log p), stepped
    by a q' mod p per class; r_a is kept as two ints r_num/r_den in lowest
    terms,
  * the tau function on {0..2 t_a + 2}, a plain tuple of ints (tau(i) is
    its i-th entry):
        tau(2t)   = t (1 - delta) + sum_{j<t} floor((j p + a)/q),
        tau(2t+1) = tau(2t+2) + alpha_{floor((t p + a)/q)},
  * the Z[U]-module of the graded root of tau, shifted by r_a; the homology
    of -M in the structure sigma_a is that module, concentrated in even
    degrees, with correction term d(-M, sigma_a) = 2 min tau + r_a,
  * the Seiberg-Witten invariant sw(M, sigma_a) = r_a/2 - sum of the alpha
    values entering tau, each read off tau as tau(2t+1) - tau(2t+2) (the
    alpha indices past the depth reach mu - 1, where alpha vanishes),
  * the kernel and cokernel gradings of the U-action.

Every grade above is r_a plus an even integer g, d included, and sw is r_a/2
minus an integer, so the pipeline keeps the integers (2 tau(2t),
2 tau(2t+1) - 2, 2 b, 2 min tau, the alpha sum) with r_a = r_num/r_den and
a grade is r_a + g, (r_num + g r_den)/r_den in lowest terms; no Fraction is
built here.

For a >= (2 delta - 1) q the depth is -1, tau = (0,), the root is a bare stem
and the reduced module vanishes; at a = 0 it never vanishes.  The module is
read off tau directly (`root.module_from_tau`); build the graded root with
`root.root_from_tau` where it is drawn or compared.

Tau depends on a only through t_a and the floors floor((j p + a)/q), j <= t_a,
so when p is large and tau short most classes share one tau, and
consecutive classes share it until t_a drops or one of those floors steps
up; a tau never comes back after its run.  So the unit of the pipeline is a
`SpincRun`: a maximal run [start, stop) of consecutive classes with equal
tau, holding t_a, tau, its module and its alpha sum once and the
r_num and r_den of its classes as two int tuples.  `compute_runs` and
`compute_run` are one pass over [0, p) and over [a, a + 1): it finds the
cuts between runs from t_a and the floor steps, O(min(t_0, q) + number of
runs), takes every r_a as one column of C-level steps after one floor sum,
and per run builds tau, its module (checked against `reduced_rank(tau)` and
2 min tau) and its alpha sum.  So `compute_runs` costs
O(log p + p + sum over runs of len tau) after the one Dedekind sum of the
SurgerySpec, and checks the ker U rank identity from the runs.  A run is
the only record the pipeline returns: class start + i of a run is its
t_a, tau, module and alpha sum with r_num[i] and r_den[i].

Everything here is purely arithmetic in p, q, a, delta and the alpha
coefficients; the plumbing module re-derives the same data from the
intersection lattice and serves as an independent oracle.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd
from operator import floordiv, mod, sub

from .errors import InternalInvariantError
from .frozen import Frozen
from .knot import AlgebraicKnot
from .numtheory import dedekind_sum, floor_sum, neg_cfrac
from .root import module_from_tau, reduced_rank


class SurgerySpec(Frozen):
    """An algebraic knot together with a negative surgery coefficient -p/q.

    p and q are positive and coprime, of type int (a bool, float, str or
    Fraction raises TypeError); q > p (coefficient in (-1, 0)) is allowed.
    The normalised continued fraction of p/q is attached, with
    q' (1 <= q' <= p, q q' = 1 mod p), and so is the integer 6 p s(q, p):
    the constants every grading shift needs, all fixed by (knot, p, q).
    """

    __slots__ = ("knot", "p", "q", "cfrac", "dedekind_6p")

    def __init__(self, knot: AlgebraicKnot, p: int, q: int):
        for name, v in (("p", p), ("q", q)):
            if type(v) is not int:
                raise TypeError(f"surgery coefficient: {name} = {v!r} must be an int, not {type(v).__name__}")
        if p < 1 or q < 1:
            raise ValueError(f"surgery coefficient needs p, q >= 1, got {p}/{q}")
        if gcd(p, q) != 1:
            raise ValueError(f"surgery coefficient {p}/{q} must be reduced")
        num, den = dedekind_sum(q, p)
        six_p_s, rest = divmod(6 * p * num, den)
        if rest:
            raise InternalInvariantError(f"6 p s(q, p) = {6 * p * num}/{den} is not an integer")
        super().__init__(knot, p, q, neg_cfrac(p, q), six_p_s)

    def __repr__(self):
        return f"SurgerySpec({self.knot!r}, -{self.p}/{self.q})"

    def _check_a(self, a: int):
        if not 0 <= a < self.p:
            raise ValueError(f"spin^c index a={a} outside [0, {self.p})")


class SpincRun(Frozen):
    """A run of consecutive spin^c classes start, ..., stop - 1 with equal tau.

    t_a (`depth`), tau, its module (`module_from_tau`: `tower` and `towers`,
    grades less r_a) and the alpha sum are one record for the run; class
    start + i has r_a = r_num[i]/r_den[i], two int tuples, each ratio in
    lowest terms with r_den[i] > 0.  `tower`, `towers`, `ker` and `coker`
    give the grade offsets, each grade of a class being r_a plus one of them.
    """

    __slots__ = ("start", "stop", "depth", "tau", "tower", "towers", "alpha_sum", "r_num", "r_den")

    @property
    def ker(self) -> tuple[int, ...]:
        """ker U grades minus r_a, sorted: 2 tau(2t)."""
        return tuple([2 * v for v in sorted(self.tau[0::2])])

    @property
    def coker(self) -> tuple[int, ...]:
        """coker U grades minus r_a, sorted: 2 tau(2t+1) - 2."""
        return tuple([2 * v - 2 for v in sorted(self.tau[1::2])])


def _depth_top(spec: SurgerySpec) -> int:
    """(2 delta - 1) q - 1, the numerator of every depth: t_a = floor((it - a)/p)."""
    return (2 * spec.knot.delta - 1) * spec.q - 1


def _shift_numerators(spec: SurgerySpec, start: int, stop: int) -> list[int]:
    """2p r_a for a = start, ..., stop - 1, where 0 <= start < stop <= p:

    2p r_a = 6p s(q, p) + 4 F(a) - (1 + 2a)(p - 1) + 2 delta (p - q - 1)
             + 2 delta^2 q - 4 delta a,

    F(a) = sum_{j<=a} (j q' mod p) = q' a(a+1)/2 - p S(a) with the floor sum
    S(a) = sum_{j<=a} floor(j q'/p).  F(start - 1) takes one `floor_sum`,
    O(log p); then the column steps F by a q' mod p, one mod, one running
    sum and one subtraction per class, each in one `map` or `accumulate`.
    """
    p, q, d, qp = spec.p, spec.q, spec.knot.delta, spec.cfrac.q_prime
    base = spec.dedekind_6p - (p - 1) + 2 * d * (p - q - 1) + 2 * d * d * q  # 2p r_0
    slope = 2 * (p - 1) + 4 * d  # 2p r_a = base + 4 F(a) - slope a
    steps = [*map(mod, range(4 * qp * start, 4 * qp * stop, 4 * qp), repeat(4 * p))]  # 4 (a q' mod p)
    steps[0] += 4 * (qp * start * (start - 1) // 2 - p * floor_sum(start, p, qp, 0))  # 4 F(start - 1)
    return [*map(sub, accumulate(steps), range(slope * start - base, slope * stop - base, slope))]


def _tau_values(spec: SurgerySpec, a: int, t_a: int) -> tuple[int, ...]:
    """The tau function of sigma_a on {0, ..., 2 t_a + 2}, as its values,
    given its depth t_a, in one pass over t = 0..t_a with f = floor((t p + a)/q):
    tau(2t+2) = tau(2t) + f + 1 - delta and tau(2t+1) = tau(2t+2) + alpha_f.
    f grows with t, so the bound alpha needs is checked once, at t_a."""
    if t_a == -1:
        return (0,)
    p, q, knot = spec.p, spec.q, spec.knot
    if (t_a * p + a) // q > knot.mu - 2:
        raise InternalInvariantError("alpha index beyond mu - 2 within depth")
    alpha, step = knot.alpha, 1 - knot.delta
    vals, even = [0], 0
    for n in range(a, t_a * p + a + 1, p):  # n = t p + a
        f = n // q
        even += f + step
        vals += (even + alpha[f], even)
    return tuple(vals)


def _runs(spec: SurgerySpec, start: int, stop: int) -> list[SpincRun]:
    """Classes start, ..., stop - 1 (0 <= start < stop <= p) as maximal runs
    of consecutive classes with equal tau, in one pass.

    tau depends on a only through t_a and the floors floor((t p + a)/q) for
    t <= t_a.  From a - 1 to a, t_a falls exactly when a = top + 1 mod p
    (top = `_depth_top`), at most once in [0, p), and such a floor steps up
    exactly when q divides t p + a with a <= top - t p; t and t + q step at
    the same a, so t < q finds them all, one range of a per t, and the cuts
    cost O(min(t_start, q) + number of runs).  tau differs across every cut:
    t_a only falls as a grows, and at equal t_a a floor that steps up raises
    tau(2t + 2) for good.  So each run builds its tau (O(t_a)), its
    module, checked against `reduced_rank(tau)` and 2 min tau, and its alpha
    sum once, and no tau comes back after its run.

    r_a of all the classes is one column: `_shift_numerators` (one floor
    sum, O(log p)) and one gcd with 2p each, in `map`, sliced per run.
    """
    spec._check_a(start)
    p, q, top = spec.p, spec.q, _depth_top(spec)
    if (top - (stop - 1)) // p < -1:  # t_a falls as a grows
        raise InternalInvariantError("t_a < -1 is impossible for delta >= 1")
    cuts = {start, stop, *range(start + (top + 1 - start) % p, stop, p)}
    for t in range(min((top - start) // p, q - 1) + 1 if stop - start > 1 else 0):  # one class is one run
        cuts.update(range(start + (-t * p - start) % q, min(stop, top - t * p + 1), q))
    nums, two_p = _shift_numerators(spec, start, stop), 2 * p
    gcds = [*map(gcd, nums, repeat(two_p))]
    r_num, r_den = [*map(floordiv, nums, gcds)], [*map(two_p.__floordiv__, gcds)]
    bounds, runs = sorted(cuts), []
    for lo, hi in zip(bounds, bounds[1:]):
        t_a = (top - lo) // p
        vals = _tau_values(spec, lo, t_a)
        tower, towers = module_from_tau(vals)
        if len(vals) > 1 and sum([n for _, n in towers]) != reduced_rank(vals):
            raise InternalInvariantError("finite tower lengths disagree with reduced_rank(tau)")
        if tower != 2 * min(vals):
            raise InternalInvariantError("tower grade disagrees with 2 min tau")
        alpha_sum = sum(vals[1::2]) - sum(vals[2::2])  # tau(2t+1) - tau(2t+2) for t = 0..t_a
        i, j = lo - start, hi - start
        runs.append(SpincRun(lo, hi, t_a, vals, tower, towers, alpha_sum, tuple(r_num[i:j]), tuple(r_den[i:j])))
    return runs


def compute_runs(spec: SurgerySpec) -> list[SpincRun]:
    """All p spin^c structures as maximal runs of equal tau, in one pass over
    [0, p) (`_runs`), with the global rank identity enforced before any
    caller writes a class:

    sum_a (t_a + 2) = p + (2 delta - 1) q  (total rank of ker U),

    summed over the runs as (t_a + 2)(stop - start).  After one floor sum
    each class costs a few C-level steps for r_a (two ints, one gcd); tau
    and its module are built once per run, so the pass costs
    O(log p + p + sum over runs of len tau).
    """
    runs = _runs(spec, 0, spec.p)
    total = sum([(run.depth + 2) * (run.stop - run.start) for run in runs])
    expected = spec.p + (2 * spec.knot.delta - 1) * spec.q
    if total != expected:
        raise InternalInvariantError(
            f"ker U rank {total} != p + (2 delta - 1) q = {expected}"
        )
    return runs


def compute_run(spec: SurgerySpec, a: int) -> SpincRun:
    """Class a alone, as a run of one: the pass over [a, a + 1),
    O(log p + len tau)."""
    return _runs(spec, a, a + 1)[0]
