"""Reference implementations kept to test the package against.

Each quantity is computed in one place in `hfroots`; the second routes live
here, and the tests require identical results:

  * the original graded-root algorithms: the merge tree of tau by rescanning
    tau at every level, and the Z[U]-module by a parent-pointer walk for
    every pair of leaves (`hfroots.root` does both in one sweep over tau in
    (value, index) order);
  * sw from a second evaluation of r_a and a direct alpha sum (the pipeline
    reads the alpha terms off tau), and the p = q = 1 module in closed form;
  * det B by Bareiss elimination with row pivoting (a `PlumbingGraph` keeps
    the last leading minor of its constructor's definiteness check);
  * the Laufer-side checks: minimal cycles of a resolution graph, the
    unreduced tau of a surgery graph and the ceiling recursion for the chain
    part of the generalized Laufer cycles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

import hfroots.plumbing as pl
from hfroots.errors import InternalInvariantError
from hfroots.hfcore import SurgerySpec, grading_shift
from hfroots.knot import AlgebraicKnot
from hfroots.root import GradedRoot, TauFunction, UModuleDecomposition


def merge_level(root: GradedRoot, u: int, v: int) -> int:
    """Level of the lowest vertex dominating both u and v."""
    if u == v:
        return root.chi[u]
    seen = {u}
    while root.parent[u] is not None:
        u = root.parent[u]
        seen.add(u)
    while v not in seen:
        v = root.parent[v]
    return root.chi[v]


def root_from_tau_rescan(tau: TauFunction) -> GradedRoot:
    """Merge tree of tau, rescanning all of tau for the runs of every level.

    O((max tau - min tau + 1) * len(tau)); numbers vertices by ascending
    level, left to right within a level.
    """
    vals = tau.values
    lo, hi = min(vals), max(vals)
    chi: list[int] = []
    parent: list[Optional[int]] = []
    prev_runs: list[tuple[int, int, int]] = []  # (start, end, vertex) at level k-1
    for k in range(lo, hi + 1):
        runs: list[list[int]] = []
        i = 0
        n = len(vals)
        while i < n:
            if vals[i] <= k:
                j = i
                while j + 1 < n and vals[j + 1] <= k:
                    j += 1
                runs.append([i, j])
                i = j + 1
            else:
                i += 1
        vertex_ids = []
        for start, end in runs:
            chi.append(k)
            parent.append(None)
            vertex_ids.append(len(chi) - 1)
        for start, end, v in prev_runs:
            for (rs, re), w in zip(runs, vertex_ids):
                if rs <= start and end <= re:
                    parent[v] = w
                    break
            else:
                raise InternalInvariantError("sublevel run not contained above")
        prev_runs = [(rs, re, w) for (rs, re), w in zip(runs, vertex_ids)]
    return GradedRoot(chi, parent)


def module_from_root(root: GradedRoot, tie_key: Optional[Callable[[int], object]] = None) -> UModuleDecomposition:
    """Z[U]-module of a graded root, O(leaves^2 * depth).

    Leaves are taken in ascending order of level; the first one starts the
    infinite tower at twice its level, every later leaf v contributes a
    finite tower based at twice its level with length chi(w) - chi(v), where
    w is the lowest vertex dominating v together with some earlier leaf.
    The result does not depend on how ties between equal-level leaves are
    broken; tie_key exists so tests can permute them.
    """
    if tie_key is None:
        tie_key = lambda v: v
    leaves = sorted(root.leaves, key=lambda v: (root.chi[v], tie_key(v)))
    first = leaves[0]
    towers = []
    for k, v in enumerate(leaves[1:], start=1):
        w_level = min(merge_level(root, v, u) for u in leaves[:k])
        towers.append((Fraction(2 * root.chi[v]), w_level - root.chi[v]))
    return UModuleDecomposition.from_parts(Fraction(2 * root.chi[first]), towers)


def sw_invariant(spec: SurgerySpec, a: int) -> Fraction:
    """sw(M, sigma_a) = r_a / 2 - sum_{t >= 0} alpha_{floor((t p + a)/q)}.

    The sum is finite because alpha vanishes from index mu - 1 on.
    """
    p, q, knot = spec.p, spec.q, spec.knot
    total = 0
    t = 0
    while True:
        idx = (t * p + a) // q
        if idx >= knot.mu - 1:
            break
        total += knot.alpha[idx]
        t += 1
    return grading_shift(spec, a) / 2 - total


def closed_form_p1q1(knot: AlgebraicKnot) -> UModuleDecomposition:
    """The -1-surgery module in closed form (p = q = 1):

    T+_0 + T_0(alpha_{delta-1}) + sum_{i=1}^{delta-1} T_{i(i+1)}(alpha_{delta-1+i})^2,
    gradings absolute (the shift r_0 = delta (delta - 1) is already folded in).
    """

    def alpha(i):  # alpha_i counts the gaps above i: none from mu - 1 on
        return knot.alpha[i] if i < len(knot.alpha) else 0

    d = knot.delta
    towers = [(Fraction(0), alpha(d - 1))]
    for i in range(1, d):
        towers.append((Fraction(i * (i + 1)), alpha(d - 1 + i)))
        towers.append((Fraction(i * (i + 1)), alpha(d - 1 + i)))
    return UModuleDecomposition.from_parts(Fraction(0), towers)


def determinant(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss with row pivoting)."""
    n = len(mat)
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minimal_cycle_sequence(gf: pl.PlumbingGraph, i_max: int) -> list[tuple[tuple[int, ...], int]]:
    """Cycles y(i) on the resolution graph: y(i) is the least positive cycle
    with multiplicity i at v0 and (y(i), b_j) <= 0 away from v0.

    Returns [(y(i), (y(i), b_{v0}))] for i = 0..i_max.  The pairing with the
    distinguished vertex detects semigroup membership: 0 on the semigroup,
    1 on the gaps (for i below the period mf), and the sequence repeats as
    y(i + mf) = y(i) + Z_f.
    """
    _, cycles = pl._laufer_run(gf, [0] * gf.n, i_max)
    return [(cyc, gf.apply_form(list(cyc))[gf.distinguished]) for cyc in cycles]


def laufer_tau(gm: pl.PlumbingGraph, cls: pl.SpincClass, i_max: int) -> TauFunction:
    """The unreduced tau function tau(i) = chi_{k_r}(x(i)), i = 0..i_max."""
    values, _ = pl.laufer_sequence(gm, cls, i_max)
    return TauFunction(tuple(values))


def chain_coefficients(spec: SurgerySpec, a: int, i: int) -> tuple[int, ...]:
    """Chain part of x(i), by the ceiling recursion:

    u_1 = ceil((i q - a) / (p + q mf)),
    u_j = ceil((u_{j-1} n(j+1, s) - a'_j) / n(j, s)),  a'_j = sum_{t>=j} n(t+1,s) a_t.

    Matches the chain coefficients of the generalized Laufer cycles.
    """
    cfrac = spec.cfrac
    s = cfrac.s
    acoef = pl._si_coefficients(cfrac, a)
    aprime = [0] * (s + 2)
    for j in range(s, 0, -1):
        aprime[j] = aprime[j + 1] + cfrac.n(j + 1, s) * acoef[j - 1]
    u = []
    num = i * spec.q - a
    den = spec.p + spec.q * spec.knot.mf
    u.append(-(-num // den))
    for j in range(2, s + 1):
        num = u[-1] * cfrac.n(j + 1, s) - aprime[j]
        u.append(-(-num // cfrac.n(j, s)))
    return tuple(u)
