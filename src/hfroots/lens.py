"""Lens-space correction terms and the closed-form grading shift, in integers.

Two routes that need no graph and no tau:

  * `grading_shift_formula`, the shifts r_0, ..., r_a as -(k_r^2 + s)/4 on the
    chain lattice of p/q, assembled from the Dedekind sum s(q, p), the
    running sum of j q' mod p and delta.  Every term is an integer over 2p
    once 6 p s(q, p) is one, so the route returns the numerators over 2p;
  * `lens_d_classical`, the classical recursion for the correction terms of
    a lens space (Ozsvath-Szabo, Adv. Math. 173, 2003, Prop. 4.8), run
    bottom-up over the Euclidean chain of (p, q) in integer numerators over
    one denominator of its own, the lcm of the 4 m n of its levels.

The lens space is the delta = 0 case of the surgery formula (the unknot):
`lens_d_invariants` is the first route at delta = 0, and `verify --lens`
compares it with the second as a multiset.  Neither route shares code with
`hfcore` or the lattice oracle in `plumbing`, so each checks the others.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalInvariantError
from .numtheory import dedekind_sum, mod_inverse


def grading_shift_formula(p: int, q: int, delta: int, a: int) -> list[int]:
    """[2p r_0, ..., 2p r_a]: -(k_r^2 + s)/4 on the chain lattice over 2p, via
    Dedekind sums; no graphs.  O(a) after one q' and one s(q, p).

    Assembled from the chain identities: the canonical square
    K~^2 + s = 2(p-1)/p - 12 s(q,p), its delta-correction through the first
    dual basis vector, and the pairing (K~ + l~', l~') = b(p-1)/p -
    2 sum_{j<=b} {j q'/p} of class b, over a running sum of j q' mod p.
    Over 2p this reads 2p r_0 = 6p s(q, p) - (p - 1) + 2 delta (p - q - 1)
    + 2 delta^2 q, and each class b lowers it by 2b(p - 1 + 2 delta) and
    raises it by 4 sum_{j<=b} (j q' mod p).
    """
    if not 0 <= a < p:
        raise ValueError(f"spin^c index a={a} outside [0, {p})")
    qp = mod_inverse(q, p)
    num, den = dedekind_sum(q, p)
    six_p_s, rest = divmod(6 * p * num, den)
    if rest:
        raise InternalInvariantError(f"6 p s(q, p) = {6 * p * num}/{den} is not an integer")
    r_0 = six_p_s - (p - 1) + 2 * delta * (p - q - 1) + 2 * delta * delta * q
    step = 2 * (p - 1 + 2 * delta)
    shifts, total = [], 0  # total = sum_{j<=b} (j q' mod p)
    for b in range(a + 1):
        total += b * qp % p
        shifts.append(r_0 - b * step + 4 * total)
    return shifts


def _check_lens(p: int, q: int) -> None:
    """Accept coprime 0 < q < p, and p = q = 1 (S^3, whose one class has d = 0
    on both routes); reject everything else."""
    if p < 1:
        raise ValueError("p must be positive")
    if not (0 < q < p or p == q == 1):
        raise ValueError("lens parameters need 0 < q < p, or p = q = 1")
    if gcd(p, q) != 1:
        raise ValueError("lens parameters must be coprime")


def lens_d_invariants(p: int, q: int) -> list[int]:
    """Correction terms of the surgered lens space, one per spin^c class, as
    numerators over 2p, through the delta = 0 degeneration of the
    grading-shift formula (every class has depth -1, a bare-stem root, and
    d = shift)."""
    _check_lens(p, q)
    return grading_shift_formula(p, q, 0, p - 1)


def lens_d_classical(p: int, q: int) -> tuple[list[int], int]:
    """Independent oracle: the classical lens-space recursion

    d(1, 0, 0) = 0,
    d(p, q, i) = (2i + 1 - p - q)^2 / (4pq) - 1/4 - d(q, p mod q, i mod q),

    built bottom-up, one list per level of the Euclidean chain (p, q) -> ... ->
    (1, 0), under 4p values in all.  Returns (numerators, D) with D the lcm of
    the 4 m n of the levels, so every level is exact over D; D is not assumed
    to divide 2p, the denominator of the formula path.  Kept apart from the
    formula path, which indexes the classes differently: the two are
    compared as multisets.
    """
    _check_lens(p, q)
    chain = [(p, q)]
    while chain[-1][0] > 1:
        m, n = chain[-1]
        chain.append((n, m % n))
    levels = chain[:-1]
    den = 1
    for m, n in levels:
        den = den * 4 * m * n // gcd(den, 4 * m * n)
    d = [0]
    for m, n in reversed(levels):
        unit = den // (4 * m * n)
        d = [((2 * i + 1 - m - n) ** 2 - m * n) * unit - d[i % n] for i in range(m)]
    return d, den
