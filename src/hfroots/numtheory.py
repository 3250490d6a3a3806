"""Exact integer and rational arithmetic utilities.

Negative (Hirzebruch-Jung) continued fractions with the one column n(., s) of
their numerator table and the entry q' = n(1, s-1), modular inverses
normalised to the window [1, p], Dedekind sums and floor sums.  Every
quantity is an int, and a rational is a pair (num, den) of ints in lowest
terms with den > 0; floats never appear, so all downstream gradings and
correction terms stay exact.

`dedekind_sum(q, p)` and `floor_sum(n, m, a, b)` run Euclid-like loops of
O(log p) and O(log m) big-integer steps.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalInvariantError
from .frozen import Frozen


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


def dedekind_sum(q: int, p: int) -> tuple[int, int]:
    """Dedekind sum s(q, p) = sum_{l=0}^{p-1} ((l/p)) ((ql/p)), as the pair
    (num, den) in lowest terms with den > 0.

    ((x)) is the sawtooth {x} - 1/2 away from integers and 0 at integers.
    Any integer q is allowed.  Since s(q, p) depends only on q mod p and
    s(q, p) = s(q/g, p/g) for g = gcd(q, p), the pair is first reduced to a
    coprime 0 <= h < k; then reciprocity (Rademacher-Grosswald, Dedekind
    Sums, 1972)

        s(h, k) + s(k, h) = (h/k + k/h + 1/(hk)) / 12 - 1/4

    with s(k, h) = s(k mod h, h) runs down the Euclidean algorithm to
    s(0, 1) = 0, and is folded back up in the integers T(h, k) = 6k s(h, k):

        2h T(h, k) = h^2 + k^2 + 1 - 3hk - 2k T(k mod h, h),

    each step one exact division, checked exact.  s(q, p) = T(h, k)/(6k),
    reduced by one gcd.  O(log p) steps.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    h = q % p
    g = gcd(h, p)
    h, k = h // g, p // g
    chain = []
    while h:
        chain.append((h, k))
        h, k = k % h, h
    t = 0  # T(0, 1)
    for h, k in reversed(chain):
        t, rest = divmod(h * h + k * k + 1 - 3 * h * k - 2 * k * t, 2 * h)
        if rest:
            raise InternalInvariantError(f"6k s(h, k) is not an integer at (h, k) = ({h}, {k})")
    den = 6 * p // g
    g = gcd(t, den)
    return t // g, den // g


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a i + b) / m) for n >= 0, m >= 1 and any a, b.

    The Euclid-like reduction (Knuth, TAOCP vol. 2, sec. 3.3.3; the AtCoder
    Library's floor_sum): take the integer parts a // m and b // m out in
    closed form; with 0 <= a, b < m left, the sum counts the lattice points
    under the line y = (a x + b)/m, which are counted again along the other
    axis as a floor sum with m and a swapped.  O(log m) steps.
    """
    if n < 0 or m < 1:
        raise ValueError(f"floor_sum needs n >= 0 and m >= 1, got n={n}, m={m}")
    total = 0
    while True:
        total += (n * (n - 1) // 2) * (a // m) + n * (b // m)
        a, b = a % m, b % m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


class NegContinuedFraction(Frozen):
    """Expansion p/q = [k_1, ..., k_s] = k_1 - 1/(k_2 - 1/(... - 1/k_s)).

    The expansion with k_1 >= 1 and k_j >= 2 for j >= 2 is unique; q > p is
    allowed and forces k_1 = 1.  Write n(i, j) for the numerator of
    [k_i, ..., k_j], with n(i, i-1) = 1 and n(i, j) = 0 for j < i - 1.  The
    package reads one column of that table and one other entry, both made on
    construction:

      * `tail`, with tail[i-1] = n(i, s) for 1 <= i <= s+1, by the backward
        recursion n(i, s) = k_i n(i+1, s) - n(i+2, s); so tail[0] = p,
        tail[1] = q and tail[s] = 1;
      * `q_prime` = n(1, s-1), by the forward recursion
        P_j = k_j P_{j-1} - P_{j-2} from P_0 = 1, P_{-1} = 0, where
        P_j = n(1, j); it is the inverse of q modulo p inside [1, p].

    Instances are frozen; two are equal when their fields are.
    """

    __slots__ = ("p", "q", "terms", "tail", "q_prime")

    def __init__(self, p: int, q: int, terms: tuple[int, ...]):
        if not terms:
            raise ValueError("empty continued fraction")
        if terms[0] < 1 or any(k < 2 for k in terms[1:]):
            raise ValueError(f"not a normalised expansion: {terms}")
        col = [0, 1]  # n(s+2, s), n(s+1, s), then n(s, s), ..., n(1, s)
        for k in reversed(terms):
            col.append(k * col[-1] - col[-2])
        tail = tuple(reversed(col[1:]))
        if tail[0] != p:
            raise ValueError("numerator column does not reproduce p")
        if tail[1] != q:
            raise ValueError("numerator column does not reproduce q")
        before, qp = 0, 1  # P_{-1}, P_0
        for k in terms[:-1]:
            before, qp = qp, k * qp - before
        if not (1 <= qp <= p) or (q * qp) % p != 1 % p:
            raise ValueError("q' = n(1, s-1) is not the normalised inverse of q")
        super().__init__(p, q, terms, tail, qp)

    def __repr__(self):
        return f"NegContinuedFraction({self.p}/{self.q} = {list(self.terms)})"

    @property
    def s(self) -> int:
        return len(self.terms)


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
