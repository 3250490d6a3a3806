"""Classical invariants of algebraic knots.

An algebraic knot is the link of an irreducible plane curve singularity and
is pinned down by its Newton pairs (p_i, q_i), i = 1..g, subject to
p_i >= 2, q_i >= 1, q_1 > p_1 and gcd(p_i, q_i) = 1.  From the pairs we
derive everything else:

  * linking pairs (p_i, a_i): a_1 = q_1, a_{i+1} = q_{i+1} + p_{i+1} p_i a_i;
  * the semigroup S of intersection multiplicities, generated by
    b0 = p_1...p_g, bk = a_k p_{k+1}...p_g (1 <= k < g) and bg = a_g,
    whose finite complement (the gap set G) has cardinality delta;
  * mf = a_g p_g, the multiplicity of the pulled-back germ along the
    distinguished (-1)-curve of the embedded resolution.

Everything else is read off the gap set (Campillo-Delgado-Gusein-Zade):

  * the Milnor number mu = max G + 1, the conductor of S; S is symmetric,
    so mu = 2 delta;
  * the Alexander polynomial, from Delta(t)/(1 - t) = sum_{s in S} t^s,
    i.e. Delta(t) = 1 + (t - 1) sum_{g in G} t^g, normalised by Delta(1) = 1;
  * the coefficients alpha_i = #{g in G : g > i} of the quadratic remainder
    Q in Delta(t) = 1 + delta (t - 1) + (t - 1)^2 Q(t), by one backward
    pass over 0 <= i <= mu - 2.

The semigroup table costs O(mf g) and every invariant after it O(mu); a
table over 2 * 10^6 entries is refused before it is allocated.  All values
are computed with integer arithmetic only.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import InternalInvariantError, ResourceLimitError
from .frozen import Frozen

_SEMIGROUP_TABLE_CAP = 2_000_000  # entries; the knot corpus needs at most 2,111

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


def t_power_minus_one(n: int) -> list[int]:
    """Coefficients of t^n - 1."""
    out = [0] * (n + 1)
    out[0] = -1
    out[n] = 1
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class NumericalSemigroup(Frozen):
    """A numerical semigroup given by generators (plus 0) and its finite gap set.

    k is in the semigroup iff k >= 0 and k is not a gap, for every integer k.
    """

    __slots__ = ("generators", "gaps")

    def __contains__(self, k: int) -> bool:
        return k >= 0 and k not in self.gaps


def _membership(gens: list[int], bound: int) -> list[bool]:
    """Whether k lies in the semigroup generated by gens, for 0 <= k <= bound."""
    table = [False] * (bound + 1)
    table[0] = True
    for g in gens:
        for k in range(g, bound + 1):
            if table[k - g]:
                table[k] = True
    return table


class AlgebraicKnot(Frozen):
    """An algebraic knot with all derived invariants precomputed.

    Immutable; safe to share and to use as a cache key.
    """

    __slots__ = ("newton_pairs", "linking_pairs", "semigroup", "gaps", "delta", "mu", "alexander", "alpha", "mf")

    def __repr__(self):
        pairs = ",".join(f"({p},{q})" for p, q in self.newton_pairs)
        return f"AlgebraicKnot[{pairs}]"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _validate_pairs(pairs) -> tuple[tuple[int, int], ...]:
    pairs = tuple((p, q) for p, q in pairs)
    for i, pair in enumerate(pairs, start=1):
        for name, v in zip("pq", pair):
            if type(v) is not int:  # no float, str, bool or Fraction is rounded into a knot
                raise TypeError(f"Newton pair {i}: {name}_{i} = {v!r} must be an int, not {type(v).__name__}")
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


def from_newton_pairs(pairs) -> AlgebraicKnot:
    """Build an AlgebraicKnot with all derived invariants.

    Rejects invalid pair sequences with a diagnostic: an entry whose type is
    not int (a float, str, bool or Fraction) raises TypeError, a value out of
    range ValueError.  Internal consistency
    (gaps below mf, a semigroup symmetric about its conductor) is asserted;
    a failure there is a bug, not bad input.
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

    if mf + 11 > _SEMIGROUP_TABLE_CAP:
        raise ResourceLimitError(f"the semigroup table needs mf + 11 = {mf + 11} entries, "
                                 f"over the cap of {_SEMIGROUP_TABLE_CAP}")
    # every gap lies below mf, so a table to mf + 10 holds the gap set
    table = _membership(gens, mf + 10)
    gaps = tuple(k for k, member in enumerate(table) if not member)
    if gaps[-1] >= mf:
        raise InternalInvariantError(f"gap {gaps[-1]} is not below mf = {mf}")
    delta = len(gaps)
    mu = gaps[-1] + 1
    # symmetry: exactly one of k and mu - 1 - k is in S, hence mu = 2 delta
    if any(table[k] == table[mu - 1 - k] for k in range(mu)):
        raise InternalInvariantError(f"semigroup is not symmetric about its conductor {mu}")

    alexander = [0] * (mu + 1)  # 1 + (t - 1) sum_{g in G} t^g
    alexander[0] = 1
    for k in gaps:
        alexander[k + 1] += 1
        alexander[k] -= 1
    alpha = [0] * (mu - 1)  # alpha_i = #{g in G : g > i}
    above = 0
    for i in range(mu - 2, -1, -1):
        above += not table[i + 1]
        alpha[i] = above
    return AlgebraicKnot(
        newton_pairs=pairs,
        linking_pairs=linking,
        semigroup=NumericalSemigroup(generators=(0,) + tuple(sorted(gens)), gaps=frozenset(gaps)),
        gaps=gaps,
        delta=delta,
        mu=mu,
        alexander=tuple(alexander),
        alpha=tuple(alpha),
        mf=mf,
    )
