"""Classical invariants of algebraic knots.

An algebraic knot is the link of an irreducible plane curve singularity and
is pinned down by its Newton pairs (p_i, q_i), i = 1..g, subject to
p_i >= 2, q_i >= 1, q_1 > p_1 and gcd(p_i, q_i) = 1.  From the pairs we
derive everything else:

  * linking pairs (p_i, a_i): a_1 = q_1, a_{i+1} = q_{i+1} + p_{i+1} p_i a_i;
  * the semigroup of intersection multiplicities, generated by
    b0 = p_1...p_g, bk = a_k p_{k+1}...p_g (1 <= k < g) and bg = a_g,
    whose finite complement (the gap set) has cardinality delta;
  * the Milnor number mu = 2 delta, with largest gap mu - 1;
  * the Alexander polynomial Delta, normalised by Delta(1) = 1, as the exact
    quotient of cyclotomic-style products in the linking pairs;
  * the coefficients alpha_i of the quadratic remainder Q in
    Delta(t) = 1 + delta (t - 1) + (t - 1)^2 Q(t), which count gaps above i;
  * mf = a_g p_g, the multiplicity of the pulled-back germ along the
    distinguished (-1)-curve of the embedded resolution.

All values are computed with integer arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import InternalInvariantError

# ---------------------------------------------------------------------------
# dense integer polynomials, coefficient lists indexed by exponent
# ---------------------------------------------------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; raises if a remainder is left."""
    num = list(num)
    dd = len(den) - 1
    if den[dd] == 0:
        raise ValueError("denominator has zero leading coefficient")
    nz = [(j, dj) for j, dj in enumerate(den) if dj]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c, r = divmod(num[i], den[dd])
        if r:
            raise InternalInvariantError("polynomial division left a remainder")
        if c:
            out[i - dd] = c
            for j, dj in nz:
                num[i - dd + j] -= c * dj
    if any(num):
        raise InternalInvariantError("polynomial division left a remainder")
    return out


def t_power_minus_one(n: int) -> list[int]:
    """Coefficients of t^n - 1."""
    out = [0] * (n + 1)
    out[0] = -1
    out[n] = 1
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup given by generators (plus 0) and a table.

    membership[k] says whether k belongs to the semigroup, for 0 <= k <= bound.
    The complement below the table bound is the full (finite) gap set.
    """

    generators: tuple[int, ...]
    membership: tuple[bool, ...]

    @property
    def bound(self) -> int:
        return len(self.membership) - 1

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        if k > self.bound:
            raise IndexError(f"{k} beyond the membership table (bound {self.bound})")
        return self.membership[k]


def _semigroup_from_generators(gens: tuple[int, ...], bound: int) -> NumericalSemigroup:
    table = [False] * (bound + 1)
    table[0] = True
    for g in gens:
        for k in range(g, bound + 1):
            if table[k - g]:
                table[k] = True
    return NumericalSemigroup(generators=(0,) + tuple(sorted(gens)), membership=tuple(table))


@dataclass(frozen=True)
class AlgebraicKnot:
    """An algebraic knot with all derived invariants precomputed.

    Immutable; safe to share and to use as a cache key.
    """

    newton_pairs: tuple[tuple[int, int], ...]
    linking_pairs: tuple[tuple[int, int], ...]
    semigroup: NumericalSemigroup
    gaps: tuple[int, ...]
    delta: int
    mu: int
    alexander: tuple[int, ...]
    alpha: tuple[int, ...]
    mf: int

    def __repr__(self):
        pairs = ",".join(f"({p},{q})" for p, q in self.newton_pairs)
        return f"AlgebraicKnot[{pairs}]"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _validate_pairs(pairs) -> tuple[tuple[int, int], ...]:
    pairs = tuple((int(p), int(q)) for p, q in pairs)
    if not pairs:
        raise ValueError("at least one Newton pair is required (the unknot is excluded)")
    for i, (p, q) in enumerate(pairs, start=1):
        if p < 2:
            raise ValueError(f"Newton pair {i}: p_{i} = {p} must be >= 2")
        if q < 1:
            raise ValueError(f"Newton pair {i}: q_{i} = {q} must be >= 1")
        if gcd(p, q) != 1:
            raise ValueError(f"Newton pair {i}: gcd({p},{q}) != 1")
    p1, q1 = pairs[0]
    if not q1 > p1:
        raise ValueError(f"first Newton pair needs q_1 > p_1, got ({p1},{q1})")
    return pairs


def _linking_pairs(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    linking = []
    a = 0
    prev_p = None
    for p, q in pairs:
        a = q if prev_p is None else q + p * prev_p * a
        linking.append((p, a))
        prev_p = p
    return tuple(linking)


def _alexander(pairs, linking) -> list[int]:
    g = len(pairs)
    ps = [p for p, _ in pairs]
    num: list[int] = [-1, 1]  # the (t - 1) factor
    for i in range(g):
        a_i = linking[i][1]
        num = poly_mul(num, t_power_minus_one(a_i * prod(ps[i:])))
    den_exponents = [linking[i][1] * prod(ps[i + 1:]) for i in range(g)]
    den_exponents.append(prod(ps))
    poly = num
    for e in den_exponents:
        poly = poly_divexact(poly, t_power_minus_one(e))
    return poly


def from_newton_pairs(pairs) -> AlgebraicKnot:
    """Build an AlgebraicKnot with all derived invariants.

    Rejects invalid pair sequences with a diagnostic.  Internal consistency
    (degree of the Alexander polynomial, gap symmetry, gaps below mf) is
    asserted; a failure there is a bug, not bad input.
    """
    pairs = _validate_pairs(pairs)
    linking = _linking_pairs(pairs)
    g = len(pairs)
    ps = [p for p, _ in pairs]

    gens = [prod(ps)]
    for k in range(1, g):
        gens.append(linking[k - 1][1] * prod(ps[k:]))
    gens.append(linking[-1][1])
    mf = linking[-1][1] * ps[-1]

    alexander = _alexander(pairs, linking)
    mu = len(alexander) - 1
    bound = max(mu + 10, mf)
    semigroup = _semigroup_from_generators(tuple(gens), bound)
    gaps = tuple(k for k in range(bound + 1) if not semigroup.membership[k])
    delta = len(gaps)

    if mu != 2 * delta:
        raise InternalInvariantError(f"deg Delta = {mu} != 2 delta = {2 * delta}")
    if gaps and (gaps[-1] != mu - 1 or gaps[-1] >= mf):
        raise InternalInvariantError("gap set does not end at mu - 1 below mf")
    if sum(alexander) != 1:
        raise InternalInvariantError("Alexander polynomial not normalised at t = 1")

    alpha = tuple(sum(1 for k in gaps if k > i) for i in range(mu - 1))
    return AlgebraicKnot(
        newton_pairs=pairs,
        linking_pairs=linking,
        semigroup=semigroup,
        gaps=gaps,
        delta=delta,
        mu=mu,
        alexander=tuple(alexander),
        alpha=alpha,
        mf=mf,
    )
