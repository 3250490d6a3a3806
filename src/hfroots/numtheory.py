"""Exact integer and rational arithmetic utilities.

Negative (Hirzebruch-Jung) continued fractions together with their numerator
table n_ij, modular inverses normalised to the window [1, p], and Dedekind
sums.  Every quantity is an int or a Fraction; floats never appear, so all
downstream gradings and correction terms stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def mod_inverse(q: int, p: int) -> int:
    """Inverse of q modulo p, represented in the window [1, p].

    For p == 1 every residue class is trivial and the representative is 1.
    Raises ValueError if gcd(q, p) != 1.
    """
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    if p == 1:
        return 1
    if gcd(q, p) != 1:
        raise ValueError(f"{q} is not invertible modulo {p}")
    r = pow(q % p, -1, p)
    return r if r != 0 else p


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum s(q, p) = sum_{l=0}^{p-1} ((l/p)) ((ql/p)).

    ((x)) is the sawtooth {x} - 1/2 away from integers and 0 at integers.
    Computed by direct summation: with l running over 1..p-1 the term is
    (2l - p)(2(ql mod p) - p) / (4 p^2) unless ql = 0 mod p, where it is 0.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    total = 0
    for l in range(1, p):
        m = (q * l) % p
        if m == 0:
            continue
        total += (2 * l - p) * (2 * m - p)
    return Fraction(total, 4 * p * p)


class NegContinuedFraction:
    """Expansion p/q = [k_1, ..., k_s] = k_1 - 1/(k_2 - 1/(... - 1/k_s)).

    The expansion with k_1 >= 1 and k_j >= 2 for j >= 2 is unique; q > p is
    allowed and forces k_1 = 1.  The attached table n(i, j) holds the
    numerator of [k_i, ..., k_j], with the boundary conventions
    n(i, i-1) = 1 and n(i, j) = 0 for j < i - 1; the denominator of
    [k_i, ..., k_j] is n(i+1, j).  In particular n(1, s) = p, n(2, s) = q,
    and q' := n(1, s-1) is the inverse of q modulo p inside [1, p].

    Instances are immutable by convention; n-columns are cached on demand.
    """

    def __init__(self, p: int, q: int, terms: tuple[int, ...]):
        self.p = p
        self.q = q
        self.terms = terms
        self._columns: dict[int, list[int]] = {}
        self._validate()

    def __repr__(self):
        return f"NegContinuedFraction({self.p}/{self.q} = {list(self.terms)})"

    @property
    def s(self) -> int:
        return len(self.terms)

    def n(self, i: int, j: int) -> int:
        """Numerator n_ij of [k_i, ..., k_j] (1-indexed)."""
        if j < i - 1:
            return 0
        if j == i - 1:
            return 1
        if not (1 <= i and j <= self.s):
            raise IndexError(f"n({i},{j}) out of range for s={self.s}")
        return self._column(j)[i]

    def _column(self, j: int) -> list[int]:
        # column[i] = n_ij for 1 <= i <= j+1, via n_ij = k_i n_{i+1,j} - n_{i+2,j}
        col = self._columns.get(j)
        if col is None:
            col = [0] * (j + 2)
            col[j + 1] = 1
            for i in range(j, 0, -1):
                below = col[i + 2] if i + 2 <= j + 1 else 0
                col[i] = self.terms[i - 1] * col[i + 1] - below
            self._columns[j] = col
        return col

    @property
    def q_prime(self) -> int:
        """q' = n(1, s-1); satisfies 1 <= q' <= p and q q' = 1 (mod p)."""
        return self.n(1, self.s - 1)

    def _validate(self):
        if self.s == 0:
            raise ValueError("empty continued fraction")
        if self.terms[0] < 1 or any(k < 2 for k in self.terms[1:]):
            raise ValueError(f"not a normalised expansion: {self.terms}")
        if self.n(1, self.s) != self.p:
            raise ValueError("numerator table does not reproduce p")
        if self.n(2, self.s) != self.q:
            raise ValueError("numerator table does not reproduce q")
        qp = self.q_prime
        if not (1 <= qp <= self.p) or (self.q * qp) % self.p != 1 % self.p:
            raise ValueError("q' = n(1, s-1) is not the normalised inverse of q")


def neg_cfrac(p: int, q: int) -> NegContinuedFraction:
    """Negative continued fraction expansion of p/q.

    Requires p, q >= 1 coprime.  Terms come from repeated ceiling division:
    k = ceil(p/q), then (p, q) <- (q, k q - p).
    """
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got p={p}, q={q}")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")
    terms = []
    a, b = p, q
    while b > 0:
        k = -(-a // b)
        terms.append(k)
        a, b = b, k * b - a
    return NegContinuedFraction(p, q, tuple(terms))
