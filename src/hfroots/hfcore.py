"""The surgery pipeline: spin^c data for S^3_{-p/q}(K), K algebraic.

For M = S^3_{-p/q}(K) with H_1(M) = Z_p, the p spin^c structures sigma_a are
indexed by a = 0..p-1 (a = 0 canonical).  For each a the pipeline produces

  * the depth t_a = floor(((2 delta - 1) q - a - 1) / p)  (may be -1),
  * the rational grading shift r_a, assembled from the Dedekind sum s(q, p),
    fractional parts of j q'/p, and delta; s(q, p) is computed once per
    SurgerySpec, and the fractional sum is a floor sum, taken once, in
    O(log p) steps, at the first class of a run of classes and then stepped
    by one floor per class, so r_a costs O(1) integer steps and one gcd
    within `compute_all` and O(log p) alone; it is kept as two ints
    r_num/r_den in lowest terms,
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
minus an integer, so a `SpincResult` keeps the integers (2 tau(2t),
2 tau(2t+1) - 2, 2 b, 2 min tau, the alpha sum) with r_a = r_num/r_den and
reads a grade as r_a + g, (r_num + g r_den)/r_den in lowest terms; a class
holds no Fraction, and r_a as a Fraction, d, sw and the shifted module are
built from its ints only when read.

For a >= (2 delta - 1) q the depth is -1, tau = (0,), the root is a bare stem
and the reduced module vanishes; at a = 0 it never vanishes.

The module is read off tau directly (`root.module_from_tau`); the graded root
itself is not part of a `SpincResult`.  Build it with `root.root_from_tau`
where it is drawn or compared.

Tau depends on a only through t_a and the floors floor((j p + a)/q), j <= t_a,
so when p is large and tau short most classes share one tau, and
consecutive classes share it until t_a drops or one of those floors steps
up.  `compute_all` and `compute_spinc` are one pass over a range of
classes, [0, p) and [a, a + 1): one range check, one floor sum and one
inverse of p mod q for the range, then per class t_a (one floor
division), r_a (one floor added to the running sum, one gcd) and one test
whether a floor steps up at a; the tau values are built once per run of
consecutive classes with equal tau.  Floors only step up as a grows and
t_a only falls, so a tau never comes back after its run: per run the pass
builds the tau tuple and the shift-0 module, checks the module against
`reduced_rank(tau)` and 2 min tau, and sums the alpha terms.  So
`compute_all` runs in O(log p + p + sum over runs of len tau) after the
one Dedekind sum of the SurgerySpec.  A `SpincResult` holds each of these
facts once.

Everything here is purely arithmetic in p, q, a, delta and the alpha
coefficients; the plumbing module re-derives the same data from the
intersection lattice and serves as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalInvariantError
from .frozen import Frozen
from .knot import AlgebraicKnot
from .numtheory import dedekind_sum, floor_sum, neg_cfrac
from .root import UModuleDecomposition, module_from_tau, reduced_rank


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
        cfrac = neg_cfrac(p, q)
        six_p_s = 6 * p * dedekind_sum(q, p)
        if six_p_s.denominator != 1:
            raise InternalInvariantError(f"6 p s(q, p) = {six_p_s} is not an integer")
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "cfrac", cfrac)
        object.__setattr__(self, "dedekind_6p", six_p_s.numerator)

    def __repr__(self):
        return f"SurgerySpec({self.knot!r}, -{self.p}/{self.q})"

    def _check_a(self, a: int):
        if not 0 <= a < self.p:
            raise ValueError(f"spin^c index a={a} outside [0, {self.p})")


class SpincResult(Frozen):
    """Everything the pipeline knows about one spin^c structure.

    a, t_a and r_a = r_num/r_den belong to the class, r_a as two ints in
    lowest terms with r_den > 0; tau, its shift-0 module and the alpha sum
    are functions of tau alone, shared by the classes with equal tau.
    Grades are even integers g read as r_a + g: `ker` and `coker` give
    them, and `ker_u` and `coker_u` the absolute grades.  `shift` (r_a as a
    Fraction), `module`, `d_invariant` = r_a + 2 min tau (the tower grade)
    and `sw_invariant` = r_a/2 - alpha_sum are built when read; a
    `SpincResult` holds no Fraction.
    """

    __slots__ = ("a", "depth", "r_num", "r_den", "tau", "tau_module", "alpha_sum")

    def __init__(self, a: int, depth: int, r_num: int, r_den: int, tau: tuple[int, ...],
                 tau_module: UModuleDecomposition, alpha_sum: int):
        # each slot's member descriptor, past Frozen's __setattr__: about half
        # the cost of object.__setattr__, paid once per class by compute_all
        _put_a(self, a)
        _put_depth(self, depth)                 # t_a
        _put_num(self, r_num)                   # r_a = r_num/r_den
        _put_den(self, r_den)
        _put_tau(self, tau)
        _put_module(self, tau_module)           # shift 0, tower 2 min tau
        _put_alpha(self, alpha_sum)             # sum of tau(2t+1) - tau(2t+2)

    @property
    def shift(self) -> Fraction:
        """r_a, a new Fraction on each read."""
        return Fraction(self.r_num, self.r_den)

    @property
    def module(self) -> UModuleDecomposition:
        """HF+(-M, sigma_a): the module of tau shifted by r_a."""
        return self.tau_module.shifted(self.shift)

    @property
    def d_invariant(self) -> Fraction:
        """d(-M, sigma_a) = r_a + 2 min tau."""
        return self.shift + self.tau_module.tower

    @property
    def sw_invariant(self) -> Fraction:
        """sw(M, sigma_a) = r_a/2 - the alpha sum."""
        return self.shift / 2 - self.alpha_sum

    @property
    def ker(self) -> tuple[int, ...]:
        """ker U grades minus r_a, sorted: 2 tau(2t)."""
        return tuple([2 * v for v in sorted(self.tau[0::2])])

    @property
    def coker(self) -> tuple[int, ...]:
        """coker U grades minus r_a, sorted: 2 tau(2t+1) - 2."""
        return tuple([2 * v - 2 for v in sorted(self.tau[1::2])])

    @property
    def ker_u(self) -> tuple[Fraction, ...]:
        """Gradings of ker U, sorted."""
        shift = self.shift
        return tuple([shift + g for g in self.ker])

    @property
    def coker_u(self) -> tuple[Fraction, ...]:
        """Gradings of coker U, sorted."""
        shift = self.shift
        return tuple([shift + g for g in self.coker])


_put_a, _put_depth, _put_num, _put_den, _put_tau, _put_module, _put_alpha = (
    SpincResult.__dict__[name].__set__ for name in SpincResult.__slots__)


def _depth_top(spec: SurgerySpec) -> int:
    """(2 delta - 1) q - 1, the numerator of every depth: t_a = floor((it - a)/p)."""
    return (2 * spec.knot.delta - 1) * spec.q - 1


def tau_depth(spec: SurgerySpec, a: int) -> int:
    """t_a; equals -1 exactly when a >= (2 delta - 1) q."""
    spec._check_a(a)
    t = (_depth_top(spec) - a) // spec.p
    if t < -1:
        raise InternalInvariantError("t_a < -1 is impossible for delta >= 1")
    return t


def _shift_numerators(spec: SurgerySpec, start: int, stop: int):
    """Yield 2p r_a for a = start, ..., stop - 1, where 0 <= start < stop <= p:

    2p r_a = 6p s(q, p) + 4 F(a) - (1 + 2a)(p - 1) + 2 delta (p - q - 1)
             + 2 delta^2 q - 4 delta a,

    F(a) = sum_{j<=a} (j q' mod p) = q' a(a+1)/2 - p S(a) with the floor sum
    S(a) = sum_{j<=a} floor(j q'/p).  S(start - 1) is one `floor_sum`,
    O(log p); each class then adds its own floor to S, O(1).
    """
    p, q, d, qp = spec.p, spec.q, spec.knot.delta, spec.cfrac.q_prime
    base = spec.dedekind_6p - (p - 1) + 2 * d * (p - q - 1) + 2 * d * d * q  # 2p r_0
    slope = 2 * (p - 1) + 4 * d
    s = floor_sum(start, p, qp, 0)
    for a in range(start, stop):
        s += a * qp // p
        yield base + 4 * (qp * a * (a + 1) // 2 - p * s) - slope * a


def grading_shift(spec: SurgerySpec, a: int) -> Fraction:
    """r_a, the rational grading shift of sigma_a, as an exact Fraction:

    r_a = 3 s(q, p) + 2 sum_{j<=a} {j q'/p} - (1 + 2a)(p - 1)/(2p)
          + delta (1 - (q + 1)/p) + delta^2 q/p - 2 delta a/p.

    Over the denominator 2p every term is an integer (`_shift_numerators`,
    the one route to r_a here, which `compute_all` steps through all p
    classes); one class costs one floor sum, O(log p).
    """
    spec._check_a(a)
    return Fraction(next(_shift_numerators(spec, a, a + 1)), 2 * spec.p)


def tau_function(spec: SurgerySpec, a: int) -> tuple[int, ...]:
    """The tau function of sigma_a on {0, ..., 2 t_a + 2}, as its values."""
    return _tau_values(spec, a, tau_depth(spec, a))


def _tau_values(spec: SurgerySpec, a: int, t_a: int) -> tuple[int, ...]:
    """`tau_function(spec, a)`, given t_a = `tau_depth(spec, a)`,
    in one pass over t = 0..t_a with f = floor((t p + a)/q):
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


def _classes(spec: SurgerySpec, start: int, stop: int) -> tuple[list[SpincResult], int]:
    """Classes start, ..., stop - 1 (0 <= start < stop <= p) in one pass, with
    their ker U rank, the sum of t_a + 2.

    One range check, one floor sum and one inverse of p mod q for the whole
    range; per class t_a is one floor division of a constant and r_a one
    floor added to a running floor sum (`_shift_numerators`), put in lowest
    terms by one gcd.  tau depends on a only through t_a and the floors
    floor((t p + a)/q) for t <= t_a, and from a - 1 to a such a floor steps
    up exactly when q divides t p + a, first at t = (-a p^-1) mod q.  So
    tau is built (O(t_a)) only when t_a changes or that t is at most t_a;
    every other class takes the previous class's (tau tuple, shift-0 module,
    alpha sum), all functions of tau alone, and each built tau's module is
    checked against `reduced_rank(tau)` and 2 min tau.  A built tau differs
    from every earlier one of the pass: t_a only falls as a grows, and at
    equal t_a a floor that steps up raises tau(2t + 2) for good.  So equal
    taus of a pass are one run of classes and share one tuple.
    """
    spec._check_a(start)
    p, q, top = spec.p, spec.q, _depth_top(spec)
    if (top - (stop - 1)) // p < -1:  # t_a falls as a grows
        raise InternalInvariantError("t_a < -1 is impossible for delta >= 1")
    p_inv = pow(p, -1, q)  # 0 for q = 1, where every floor steps at every a
    two_p, results, rank = 2 * p, [], 0
    run_depth = shared = None  # t_a and the shared record of the current run of equal taus
    for a, n in zip(range(start, stop), _shift_numerators(spec, start, stop)):
        t_a = (top - a) // p
        rank += t_a + 2
        if t_a != run_depth or -a * p_inv % q <= t_a:  # a new run: tau differs from the last class's
            run_depth, vals = t_a, _tau_values(spec, a, t_a)
            module = module_from_tau(vals)
            if len(vals) > 1 and module.reduced_rank != reduced_rank(vals):
                raise InternalInvariantError("finite tower lengths disagree with reduced_rank(tau)")
            if module.tower != 2 * min(vals):
                raise InternalInvariantError("tower grade disagrees with 2 min tau")
            # tau(2t+1) - tau(2t+2) for t = 0..t_a
            shared = (vals, module, sum(vals[1::2]) - sum(vals[2::2]))
        g = gcd(n, two_p)
        results.append(SpincResult(a, t_a, n // g, two_p // g, *shared))
    return results, rank


def compute_spinc(spec: SurgerySpec, a: int) -> SpincResult:
    """Assemble tau -> module for one spin^c structure: the pass over [a, a + 1),
    O(log p + len tau)."""
    return _classes(spec, a, a + 1)[0][0]


def compute_all(spec: SurgerySpec) -> list[SpincResult]:
    """All p spin^c structures in one pass over [0, p), with the global rank
    identity enforced:

    sum_a (t_a + 2) = p + (2 delta - 1) q  (total rank of ker U).

    After the one floor sum of the pass each class costs O(1) for t_a, r_a
    (two ints, one gcd) and the test whether its tau differs from the last
    class's; tau is built, in O(len tau), once per run of classes with equal
    tau, and no tau comes back after its run.  Classes with equal tau share
    one tau tuple, one shift-0 module and one alpha sum; each class adds
    only its own a, t_a, r_num and r_den.
    """
    results, total = _classes(spec, 0, spec.p)
    expected = spec.p + (2 * spec.knot.delta - 1) * spec.q
    if total != expected:
        raise InternalInvariantError(
            f"ker U rank {total} != p + (2 delta - 1) q = {expected}"
        )
    return results
