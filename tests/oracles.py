"""Reference implementations kept to test the package against.

Each quantity is computed in one place in `hfroots`; the second routes live
here, and the tests require identical results:

  * the Alexander polynomial of an algebraic knot as the exact quotient of
    cyclotomic-style products in its linking pairs, with mu = deg Delta,
    delta = Delta'(1) and alpha from Q = (Delta - 1 - delta (t - 1))/(t - 1)^2
    by exact polynomial division (the package reads all four off the gap
    set of the semigroup);
  * the original graded-root algorithms: the merge tree of tau by rescanning
    tau at every level, and the Z[U]-module by a parent-pointer walk for
    every pair of leaves (`hfroots.root` builds the merge tree in one sweep
    over tau in (value, index) order), and that sweep switching each index
    on through a bounds-checked helper (the package reads a padded list);
  * the rank of the finite towers as min tau plus each downward jump of tau
    (the package halves sum |tau(i) - tau(i+1)| + tau(0) - tau(-1));
  * the Z[U]-module of tau by that sweep, switching the indices on in
    (value, index) order (the package pops a stack in one left-to-right
    pass);
  * a root's drawing positions as one Fraction per vertex, each parent the
    Fraction mean of its children (the package keeps (num, den) pairs of
    ints, shares a one-child vertex's pair with its child and builds no
    Fraction), the SVG drawing written from those Fractions one formatted
    line per edge and per vertex (the package writes each coordinate's text
    once), and a root's isomorphism keys nested one tuple per level (the
    package ranks the labels of each level, AHU, so a key is flat however
    tall the root);
  * tau straight from its definition, one sum per t (the package keeps a
    running sum);
  * the pass over all p classes building tau and r_a for every class, one
    `_tau_values` and one Fraction(n, 2p) each, the numerators 2p r_a stepped
    one class at a time by a running floor sum (the package cuts the classes
    into runs of equal tau, builds tau once per run, and takes the numerators
    and their gcds with 2p as columns);
  * the whole numerator table n(i, j) of a negative continued fraction,
    column by column (the package keeps the one column n(., s) and
    q' = n(1, s-1), from two three-term recursions);
  * a Z[U]-module from its absolute grades (the package keeps a module's
    integer grades only, r_a apart);
  * the Dedekind sum and the grading shift r_a by direct O(p) summation (the
    package uses reciprocity, a floor sum and per-spec constants);
  * the lattice-side closed form for r_a one class at a time, recomputing q',
    s(q, p) and sum_{j<=a} (j q' mod p) per class, and the classical
    lens-space recursion top down, one descent per class (the package builds
    the prefix r_0, ..., r_a in one pass and the recursion bottom-up, both
    in integer numerators);
  * sw from a second evaluation of r_a and a direct alpha sum (the pipeline
    reads the alpha terms off tau), and the p = q = 1 module in closed form;
  * every grade of a spin^c structure as its own Fraction, written through
    Fraction's own reduction (the package keeps integer grades and one r_a,
    and writes r_a + g as (N + g D)/D), and a spin^c block as the dict that
    the generic JSON writer takes (the package writes the blocks' text
    column-wise, per group of classes with equal tau and denominator of r_a);
    `class_fractions` reads a class of a run in those absolute Fractions,
    the one place a test turns the package's integers into grades;
  * det B and the leading principal minors by Bareiss elimination of the
    dense matrix with row pivoting, and B x = y (the canonical class
    included) by Gauss-Jordan elimination of the dense matrix over the
    rationals (a `PlumbingGraph` eliminates its tree once, from the leaves
    to vertex 0, and solves in integer numerators over det B);
  * each spin^c class from the lens-space chain lattice: its representative
    solved in Fractions on the chain graph and pulled back through the
    divisorial cycle (the package solves once on the surgery graph, in
    integers over det B);
  * d and sw without tau, from surgery formulas: d(-M) as a lens-space
    correction term (Ni-Wu; algebraic knots are L-space knots), indexed and
    as a multiset, and sum_a sw by the Casson-Walker surgery formula;
  * the Laufer-side checks: minimal cycles of a resolution graph, the
    unreduced tau of a surgery graph and the ceiling recursion for the chain
    part of the generalized Laufer cycles; the Laufer engine that rescans
    the vertices after every single addition, runs the whole graph and keeps
    the cycles, and the per-step engine that feeds v0 one step at a time
    and keeps a stack of the vertices that still need additions, and the
    event loop of one branch that jumps to the next step of v0 that forces
    an addition and pops every addition on the branch (the package answers
    every string hanging from v0 or from a node by its response, walks only
    the other vertices one addition at a time, returns chi values only, and
    runs a surgery class's chain on top of the resolution graph's values);
  * the sublevel root by a sweep over every point of its coordinate box (the
    package enumerates only the lattice points of the ellipsoid chi <= n),
    and that box in Fractions of k_r (the package bounds it in integers from
    the pairings (k_r, b_j));
  * the Fraction views l' and k_r of a spin^c class (the package keeps only
    their numerators over det B).

The command line as an argparse parser, whose namespace for a valid argv
is the one `cli._parse_args` builds from its table.

Also here, because only the tests use them: a plumbing graph written to
JSON text in the schema of `plumbing.graph_doc`, and read back; the
intersection pairing (x, y) of two vectors; and `over`, which reads integer
numerators over one denominator as Fractions.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from itertools import product as iter_product
from math import isqrt, prod
from typing import Callable, Optional

import hfroots.hfcore as hfcore
import hfroots.lens as lens
import hfroots.plumbing as pl
from hfroots.errors import InternalInvariantError, ResourceLimitError
from hfroots.hfcore import SpincRun, SurgerySpec
from hfroots.knot import AlgebraicKnot, poly_mul, t_power_minus_one
from hfroots.numtheory import NegContinuedFraction, dedekind_sum, floor_sum, mod_inverse
from hfroots.cli import cmd_compute, cmd_knot, cmd_verify
from hfroots.root import GradedRoot, module_from_tau

BOX_VOLUME_CAP = 10_000_000  # points sublevel_root_box sweeps at most


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


def alexander_product(pairs, linking) -> list[int]:
    """Delta(t) = (t - 1) prod_i (t^{a_i p_i...p_g} - 1) divided exactly by
    prod_i (t^{a_i p_{i+1}...p_g} - 1) and (t^{p_1...p_g} - 1)."""
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


def product_invariants(knot: AlgebraicKnot) -> tuple[tuple[int, ...], int, int, tuple[int, ...]]:
    """(Delta, mu, delta, alpha) from the product formula alone: mu = deg Delta,
    delta = Delta'(1) and alpha the coefficients of
    Q = (Delta - 1 - delta (t - 1)) / (t - 1)^2."""
    alexander = alexander_product(knot.newton_pairs, knot.linking_pairs)
    delta = sum(e * c for e, c in enumerate(alexander))
    num = list(alexander)
    num[0] += delta - 1
    num[1] -= delta
    alpha = poly_divexact(num, [1, -2, 1])
    return tuple(alexander), len(alexander) - 1, delta, tuple(alpha)


class NumeratorTable:
    """The table n(i, j) of the numerators of [k_i, ..., k_j], with the
    boundary conventions n(i, i-1) = 1 and n(i, j) = 0 for j < i - 1; the
    denominator of [k_i, ..., k_j] is n(i+1, j).  Columns are cached on
    demand."""

    def __init__(self, terms: tuple[int, ...]):
        self.terms = terms
        self.s = len(terms)
        self._columns: dict[int, list[int]] = {}

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


def module_from_parts(tower_grade, towers) -> tuple:
    """The module T+_{tower_grade} plus finite towers (grade, length), from
    absolute grades (ints or Fractions), which must all differ from
    tower_grade by even integers: (tower grade, sorted (grade, length)
    pairs) in Fractions, the shape of `class_fractions(run, i).module`."""
    tower_grade = Fraction(tower_grade)
    canon = []
    for g, n in towers:
        k = Fraction(g) - tower_grade
        if k.denominator != 1 or k.numerator % 2:
            raise ValueError(f"grade {g} is not {tower_grade} plus an even integer")
        canon.append((Fraction(g), int(n)))
    return tower_grade, tuple(sorted(canon))


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


def _switch_on(end: list[int], i: int) -> tuple[int, int]:
    """Switch index i on and return the run [l, r] of on-indices it joins.

    `end` holds, at each end of a run, the index of its other end, and -1 at
    indices still off; values left inside a run are never read again.
    """
    l = end[i - 1] if i > 0 and end[i - 1] >= 0 else i
    r = end[i + 1] if i + 1 < len(end) and end[i + 1] >= 0 else i
    end[l], end[r] = r, l
    return l, r


def root_from_tau_switch(tau: tuple[int, ...]) -> GradedRoot:
    """Merge tree of tau by the (value, index) sweep, switching each index on
    through `_switch_on` with its bounds checks; numbers vertices as
    `root.root_from_tau` does."""
    order = sorted(range(len(tau)), key=tau.__getitem__)
    end = [-1] * len(tau)
    chi: list[int] = []
    parent: list[Optional[int]] = []
    lefts: list[int] = []  # left ends of the runs at level k - 1, in index order
    pos = 0
    for k in range(tau[order[0]], tau[order[-1]] + 1):
        start = pos
        while pos < len(order) and tau[order[pos]] == k:
            _switch_on(end, order[pos])
            pos += 1
        below = len(chi) - len(lefts)
        starts = sorted(lefts + order[start:pos])
        lefts.append(len(tau))
        runs = []
        right = -1
        j = 0
        for i in starts:
            if i > right:
                right = end[i]
                runs.append(i)
                chi.append(k)
                parent.append(None)
            if i == lefts[j]:
                parent[below + j] = len(chi) - 1
                j += 1
        lefts = runs
    return GradedRoot(chi, parent)


def root_from_tau_rescan(vals: tuple[int, ...]) -> GradedRoot:
    """Merge tree of tau, rescanning all of tau for the runs of every level.

    O((max tau - min tau + 1) * len(tau)); numbers vertices by ascending
    level, left to right within a level.
    """
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


def module_from_root(root: GradedRoot, tie_key: Optional[Callable[[int], object]] = None) -> tuple:
    """Z[U]-module of a graded root, O(leaves^2 * depth), as the pair
    (tower, towers) that `module_from_tau` returns.

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
        towers.append((2 * root.chi[v], w_level - root.chi[v]))
    return 2 * root.chi[first], tuple(sorted(towers))


def module_from_tau_sweep(vals: tuple[int, ...]) -> tuple:
    """Z[U]-module of the graded root of tau by the elder rule, switching the
    indices on in (value, index) order, O(n log n), as the pair (tower,
    towers) that `module_from_tau` returns.

    Each run of on-indices remembers its elder, the (value, index) of its
    oldest minimum; when two runs meet at level k the younger elder dies,
    adding the finite tower T_{2b}(k - b) for its birth level b < k.  The
    last elder standing gives the infinite tower at twice its birth level.
    """
    end = [-1] * len(vals)
    elder: list[tuple[int, int]] = [(0, 0)] * len(vals)  # valid at the left end of a run
    towers = []

    def meet(a, b, k):
        young = max(a, b)
        if young[0] < k:
            towers.append((2 * young[0], k - young[0]))
        return min(a, b)

    for i in sorted(range(len(vals)), key=vals.__getitem__):  # stable: (value, index) order
        k = vals[i]
        l, r = _switch_on(end, i)
        e = (k, i)
        if l < i:
            e = meet(elder[l], e, k)
        if r > i:
            e = meet(e, elder[i + 1], k)
        elder[l] = e
    return 2 * elder[0][0], tuple(sorted(towers))


def layout_fractions(root: GradedRoot) -> dict[int, Fraction]:
    """x-positions: leaves at 0, 1, 2, ... in planar order, parents centred."""
    pos: dict[int, Fraction] = {}
    next_slot = 0
    stack: list[tuple[int, bool]] = [(root.top, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            xs = [pos[c] for c in root.children[v]]
            pos[v] = sum(xs) / len(xs)
        elif root.children[v]:
            stack.append((v, True))
            for c in reversed(root.children[v]):
                stack.append((c, False))
        else:
            pos[v] = Fraction(next_slot)
            next_slot += 1
    return pos


def render_svg_rows(root: GradedRoot) -> str:
    """`root.render` written one formatted line per edge and per vertex,
    from the Fraction positions of `layout_fractions`."""
    pos = layout_fractions(root)
    unit, level_h = 48, 24
    margin_x, margin_y = 60, 30
    stem = 30
    lo, hi = root.min_level(), root.chi[root.top]
    x = [margin_x + unit * pos[v].numerator // pos[v].denominator for v in range(len(root))]
    y = [margin_y + stem + level_h * (hi - k) for k in root.chi]
    width = max(x) + margin_x
    height = margin_y + stem + level_h * (hi - lo) + margin_y
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for k in range(hi, lo - 1, -1):
        gy = margin_y + stem + level_h * (hi - k)
        out.append(
            f'<line x1="{margin_x // 2}" y1="{gy}" x2="{width - 10}" y2="{gy}" '
            f'stroke="#999" stroke-width="1" stroke-dasharray="3,4"/>'
        )
        if k % 5 == 0:
            out.append(f'<text x="4" y="{gy + 4}" font-size="11" fill="#333">{k}</text>')
    tx, ty = x[root.top], y[root.top]
    out.append(f'<line x1="{tx}" y1="{ty}" x2="{tx}" y2="{ty - stem}" stroke="#000" stroke-width="1.5"/>')
    out += [
        f'<line x1="{x[v]}" y1="{y[v]}" x2="{x[p]}" y2="{y[p]}" stroke="#000" stroke-width="1.5"/>'
        for v, p in enumerate(root.parent) if p is not None
    ]
    out += [f'<circle cx="{cx}" cy="{cy}" r="3" fill="#000"/>' for cx, cy in zip(x, y)]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reduced_rank_drops(tau: tuple[int, ...]) -> int:
    """min tau plus the sum of tau's downward jumps, one jump at a time."""
    return min(tau) + sum(max(tau[i] - tau[i + 1], 0) for i in range(len(tau) - 1))


def subtree_keys_nested(root: GradedRoot) -> list[tuple]:
    """The key of the subtree below each vertex: the sorted tuple of its
    children's keys, so equal keys at one level mean isomorphic subtrees.
    The keys nest one tuple per level, so comparing those of a tall root
    overflows the interpreter's recursion limit."""
    key: list = [None] * len(root.chi)
    for v in sorted(range(len(root.chi)), key=root.chi.__getitem__):  # children before parents
        key[v] = tuple(sorted(key[c] for c in root.children[v]))
    return key


def root_first_diff_nested(lattice: GradedRoot, formula: GradedRoot) -> dict:
    """The lowest level whose sorted nested subtree keys differ between two
    graded roots, with each root's vertex count there."""
    def keys_by_level(root) -> dict:
        out: dict = {}
        for level, key in zip(root.chi, subtree_keys_nested(root)):
            out.setdefault(level, []).append(key)
        return {level: sorted(keys) for level, keys in out.items()}

    a, b = keys_by_level(lattice), keys_by_level(formula)
    level = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return {"level": level, "lattice": len(a.get(level, ())), "formula": len(b.get(level, ()))}


def tau_values_direct(spec: SurgerySpec, a: int) -> tuple[int, ...]:
    """tau(0), ..., tau(2 t_a + 2) of sigma_a from the definition, with
    t_a = floor(((2 delta - 1) q - a - 1)/p) and one sum per t:

        tau(2t)   = t (1 - delta) + sum_{j<t} floor((j p + a)/q),
        tau(2t+1) = tau(2t+2) + alpha_{floor((t p + a)/q)}.
    """
    p, q, knot = spec.p, spec.q, spec.knot
    t_a = ((2 * knot.delta - 1) * q - a - 1) // p

    def even(t):
        return t * (1 - knot.delta) + sum((j * p + a) // q for j in range(t))

    vals = []
    for t in range(t_a + 1):
        vals += [even(t), even(t + 1) + knot.alpha[(t * p + a) // q]]
    return (*vals, even(t_a + 1))


def dedekind_sum_direct(q: int, p: int) -> Fraction:
    """s(q, p) = sum_{l=0}^{p-1} ((l/p)) ((ql/p)) by direct summation, O(p).

    With l running over 1..p-1 the term is (2l - p)(2(ql mod p) - p) / (4 p^2)
    unless ql = 0 mod p, where it is 0.
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


def grading_shift_direct(spec: SurgerySpec, a: int) -> Fraction:
    """r_a term by term, with s(q, p), q' and sum_{j<=a} {j q'/p} recomputed
    directly for every class, O(p)."""
    spec._check_a(a)
    p, q, d = spec.p, spec.q, spec.knot.delta
    qp = mod_inverse(q, p)
    frac_sum = Fraction(sum((j * qp) % p for j in range(1, a + 1)), p)
    return (
        3 * dedekind_sum_direct(q, p)
        + 2 * frac_sum
        - Fraction((1 + 2 * a) * (p - 1), 2 * p)
        + d * (1 - Fraction(q + 1, p))
        + Fraction(d * d * q, p)
        - Fraction(2 * d * a, p)
    )


def grading_shift_formula_per_class(p: int, q: int, delta: int, a: int) -> Fraction:
    """-(k_r^2 + s)/4 of class a alone on the chain lattice, via Dedekind sums,
    with q', s(q, p) and the sum over j <= a recomputed for every class, O(a)."""
    if not 0 <= a < p:
        raise ValueError(f"spin^c index a={a} outside [0, {p})")
    qp = mod_inverse(q, p)
    ksq_s = Fraction(2 * (p - 1), p) - 12 * Fraction(*dedekind_sum(q, p))
    dksq_s = ksq_s - 4 * delta * (1 - Fraction(q + 1, p)) - 4 * delta * delta * Fraction(q, p)
    pair = Fraction(a * (p - 1) - 2 * sum((j * qp) % p for j in range(1, a + 1)), p)
    krsq_s = dksq_s + 4 * pair + 8 * delta * Fraction(a, p)
    return -krsq_s / 4


def lens_d_recursive(p: int, q: int) -> list[Fraction]:
    """d(p, q, i) for 0 <= i < p by the classical recursion, top down:
    d(1, 0, 0) = 0, d(p, q, i) = (2i + 1 - p - q)^2/(4pq) - 1/4 - d(q, p mod q, i mod q)."""

    def d(p: int, q: int, i: int) -> Fraction:
        if p == 1:
            return Fraction(0)
        return Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q) - Fraction(1, 4) - d(q, p % q, i % q)

    return [d(p, q, i) for i in range(p)]


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
    return grading_shift_direct(spec, a) / 2 - total


def over(nums, den: int) -> list[Fraction]:
    """Each integer numerator of `nums` over `den`, as a Fraction: the view
    of the integer routes of `hfroots.lens` that the references here use."""
    return [Fraction(n, den) for n in nums]


def surgery_d_from_lens(spec: SurgerySpec) -> list[Fraction]:
    """d(-M, sigma_a) for a = 0..p-1 without tau: algebraic knots are L-space
    knots, so V_i = 0 for the mirror and d(-M) is a lens-space correction term
    (Ni-Wu, Prop. 1.6), d(-M, sigma_a) = lens_d_invariants(p, q mod p)[(a -
    delta q) mod p].  p = 1 is S^3, d = 0.  The indexing rests on
    grading_shift_formula at delta = 0, which shares the Dedekind closed form
    with r_a; the multiset check against lens_d_classical does not."""
    p, q, delta = spec.p, spec.q, spec.knot.delta
    if p == 1:
        return [Fraction(0)]
    d = over(lens.lens_d_invariants(p, q % p), 2 * p)
    return [d[(a - delta * q) % p] for a in range(p)]


def lens_d_recursion_of_surgery(spec: SurgerySpec) -> list[Fraction]:
    """The correction terms of L(p, q mod p) by the classical recursion, in
    its own order; [0] for p = 1 (S^3, which the lens routes take only as
    p = q = 1)."""
    return [Fraction(0)] if spec.p == 1 else over(*lens.lens_d_classical(spec.p, spec.q % spec.p))


def casson_walker_sw_sum(spec: SurgerySpec) -> Fraction:
    """sum_a sw(M, sigma_a) by the Casson-Walker surgery formula, in this
    package's normalisation:

        (1/2) sum_i d(L(p, q mod p), i) + q (delta (delta - 1)/2 - sum alpha),

    the lens-space terms from the classical recursion."""
    knot = spec.knot
    lens = sum(lens_d_recursion_of_surgery(spec))
    return lens / 2 + spec.q * (Fraction(knot.delta * (knot.delta - 1), 2) - sum(knot.alpha))


@dataclass(frozen=True)
class PerClassResult:
    """One class of `compute_all_per_class`, r_a as a Fraction."""

    a: int
    depth: int
    shift: Fraction
    tau: tuple[int, ...]
    tower: int
    towers: tuple[tuple[int, int], ...]
    alpha_sum: int


def shift_numerators_stepped(spec: SurgerySpec, start: int, stop: int):
    """Yield 2p r_a for a = start, ..., stop - 1, one class at a time:
    S(start - 1) from one `floor_sum`, then each class adds its own floor
    floor(a q'/p) to the running sum S(a) and forms

    2p r_a = 6p s(q, p) + 4 (q' a(a+1)/2 - p S(a)) - (1 + 2a)(p - 1)
             + 2 delta (p - q - 1) + 2 delta^2 q - 4 delta a."""
    p, q, d, qp = spec.p, spec.q, spec.knot.delta, spec.cfrac.q_prime
    base = spec.dedekind_6p - (p - 1) + 2 * d * (p - q - 1) + 2 * d * d * q
    slope = 2 * (p - 1) + 4 * d
    s = floor_sum(start, p, qp, 0)
    for a in range(start, stop):
        s += a * qp // p
        yield base + 4 * (qp * a * (a + 1) // 2 - p * s) - slope * a


def compute_all_per_class(spec: SurgerySpec) -> list[PerClassResult]:
    """All p classes in one pass that builds every class's tau and r_a:
    per class one `_tau_values` and one Fraction(n, 2p) from the stepped
    numerators of `shift_numerators_stepped`.  Equal taus of the pass share
    the first tuple built, its shift-0 module and its alpha sum, found by
    value."""
    p, top = spec.p, hfcore._depth_top(spec)
    by_tau, results = {}, []
    for a, n in zip(range(p), shift_numerators_stepped(spec, 0, p)):
        t_a = (top - a) // p
        vals = hfcore._tau_values(spec, a, t_a)
        shared = by_tau.get(vals)
        if shared is None:
            shared = by_tau[vals] = (vals, *module_from_tau(vals), sum(vals[1::2]) - sum(vals[2::2]))
        results.append(PerClassResult(a, t_a, Fraction(n, 2 * p), *shared))
    return results


@dataclass(frozen=True)
class SpincFractions:
    """One spin^c structure with every grade held as its own Fraction."""

    a: int
    depth: int
    shift: Fraction
    tau: tuple[int, ...]
    tower_grade: Fraction
    finite_towers: tuple[tuple[Fraction, int], ...]
    d_invariant: Fraction
    sw_invariant: Fraction
    ker_u: tuple[Fraction, ...]
    coker_u: tuple[Fraction, ...]

    @property
    def module(self) -> tuple:
        """(tower grade, finite towers), the shape of `module_from_parts`."""
        return self.tower_grade, self.finite_towers


def spinc_fractions(spec: SurgerySpec, a: int) -> SpincFractions:
    """One spin^c structure assembled grade by grade in Fractions, as the
    pipeline did before it kept integer grades: every tower and every ker and
    coker grade is r_a plus its integer, reduced on its own; t_a comes from
    its formula, r_a from the direct sum and sw from the direct alpha sum.
    tau and its integer module are the package's."""
    r_a = grading_shift_direct(spec, a)
    depth = ((2 * spec.knot.delta - 1) * spec.q - a - 1) // spec.p
    tau = hfcore._tau_values(spec, a, depth)
    tower, towers = module_from_tau(tau)
    return SpincFractions(
        a=a,
        depth=depth,
        shift=r_a,
        tau=tau,
        tower_grade=tower + r_a,
        finite_towers=tuple((g + r_a, n) for g, n in towers),
        d_invariant=2 * min(tau) + r_a,
        sw_invariant=sw_invariant(spec, a),
        ker_u=tuple(2 * v + r_a for v in sorted(tau[0::2])),
        coker_u=tuple(2 * v - 2 + r_a for v in sorted(tau[1::2])),
    )


def class_fractions(run: SpincRun, i: int) -> SpincFractions:
    """Class run.start + i of a run read as absolute grades: r_a =
    r_num[i]/r_den[i] as a Fraction, added to each of the run's grade offsets."""
    r_a = Fraction(run.r_num[i], run.r_den[i])
    return SpincFractions(
        a=run.start + i,
        depth=run.depth,
        shift=r_a,
        tau=run.tau,
        tower_grade=run.tower + r_a,
        finite_towers=tuple((g + r_a, n) for g, n in run.towers),
        d_invariant=run.tower + r_a,
        sw_invariant=r_a / 2 - run.alpha_sum,
        ker_u=tuple(g + r_a for g in run.ker),
        coker_u=tuple(g + r_a for g in run.coker),
    )


def rat(x) -> str:
    """A rational as the "numerator/denominator" string, reduced by Fraction."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _grouped(towers):
    return [(g, n, sum(1 for _ in same)) for (g, n), same in groupby(towers)]


def spinc_block(run: SpincRun, i: int) -> dict:
    """The JSON block of class run.start + i as a dict for `cli._json`, each
    grade, d and sw written from its Fraction (the package writes the block's
    text straight from the run's integers, `cli._group_blocks`)."""
    return spinc_fractions_block(class_fractions(run, i))


def spinc_fractions_block(ref: SpincFractions) -> dict:
    """The JSON block of one spin^c structure, each grade written from its
    Fraction."""
    towers = [{"grade": rat(g), "length": n, "multiplicity": m} for g, n, m in _grouped(ref.finite_towers)]
    return {
        "a": ref.a,
        "t_a": ref.depth,
        "r_a": rat(ref.shift),
        "tau": list(ref.tau),
        "module": {"tower_grade": rat(ref.tower_grade), "finite_towers": towers},
        "d_invariant": rat(ref.d_invariant),
        "sw_invariant": rat(ref.sw_invariant),
        "ker_u": [rat(x) for x in ref.ker_u],
        "coker_u": [rat(x) for x in ref.coker_u],
    }


def spinc_text(ref: SpincFractions) -> list[str]:
    """The text lines of one spin^c structure, each grade printed by str(Fraction)."""
    parts = [f"T+[{ref.tower_grade}]"]
    for g, n, mult in _grouped(ref.finite_towers):
        parts.append(f"{mult}*T[{g}]({n})" if mult > 1 else f"T[{g}]({n})")
    return [
        f"spin^c a = {ref.a}:",
        f"  t_a = {ref.depth}   r_a = {ref.shift}",
        "  tau: " + ", ".join(str(v) for v in ref.tau),
        "  HF+ = " + " + ".join(parts),
        f"  d = {ref.d_invariant}   sw = {ref.sw_invariant}",
        "  ker U gradings: " + ", ".join(str(x) for x in ref.ker_u),
        "  coker U gradings: " + (", ".join(str(x) for x in ref.coker_u) or "(none)"),
    ]


def closed_form_p1q1(knot: AlgebraicKnot) -> tuple:
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
    return module_from_parts(Fraction(0), towers)


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


def gauss_jordan(mat: list[list], right: list[list]) -> list[list[Fraction]]:
    """Reduce [mat | right] over the rationals (Gauss-Jordan elimination with
    row pivoting) and return the right block, mat^{-1} right."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(r) for r in rrow] for row, rrow in zip(mat, right)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve_exact(mat: list[list], rhs: list) -> list[Fraction]:
    """Solve mat x = rhs over the rationals (Gaussian elimination)."""
    return [row[0] for row in gauss_jordan(mat, [[r] for r in rhs])]


@lru_cache(maxsize=16)
def _dense_inverse(euler: tuple[int, ...], edges: tuple[tuple[int, int], ...]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(euler)
    b = [[euler[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v in edges:
        b[u][v] = b[v][u] = 1
    return tuple(map(tuple, gauss_jordan(b, [[int(i == j) for j in range(n)] for i in range(n)])))


def solve(g: pl.PlumbingGraph, rhs) -> list[Fraction]:
    """The solution x of B x = rhs, one Fraction per entry, as B^{-1} rhs for
    the inverse of the dense matrix B, found by Gauss-Jordan elimination of
    [B | I] over the rationals once per graph (the package solves on the
    tree, in integer numerators over det B)."""
    return [sum(a * r for a, r in zip(row, rhs)) for row in _dense_inverse(g.euler, g.edges)]


def characteristic_pairs(g: pl.PlumbingGraph, k) -> tuple[int, ...]:
    """The integers (k, b_j) of a rational vector k, which must pair
    integrally with every b_j and have (k, b_j) + (b_j, b_j) even."""
    pairs = g.apply_form(list(k))
    if any(v.denominator != 1 or (v + e) % 2 for v, e in zip(pairs, g.euler)):
        raise InternalInvariantError("vector is not characteristic")
    return tuple(int(v) for v in pairs)


def canonical_class(g: pl.PlumbingGraph) -> tuple[Fraction, ...]:
    """The canonical characteristic element, from the adjunction equations
    (K, b_j) = -e_j - 2, solved over the rationals (the package keeps its
    numerators over det B)."""
    k = tuple(solve(g, [-e - 2 for e in g.euler]))
    characteristic_pairs(g, k)
    return k


def pairing(g: pl.PlumbingGraph, x, y):
    """(x, y) with respect to the intersection form of g."""
    return sum(xi * bi for xi, bi in zip(x, g.apply_form(y)))


def l_prime(g: pl.PlumbingGraph, digits) -> tuple[Fraction, ...]:
    """l' of the class with these chain digits as Fractions: the dense solve
    of B l' = l_pairs."""
    return tuple(solve(g, pl.class_pairings(g, digits)[0]))


def k_r(g: pl.PlumbingGraph, digits) -> tuple[Fraction, ...]:
    """k_r = K + 2 l' of the class with these chain digits as Fractions: the
    dense solve of B k_r = k_pairs."""
    return tuple(solve(g, pl.class_pairings(g, digits)[1]))


def chain_graph(cfrac: NegContinuedFraction) -> pl.PlumbingGraph:
    """The lens-space chain -k_1, ..., -k_s (the blow-down of the surgery
    graph along the resolution part)."""
    s = cfrac.s
    return pl.PlumbingGraph(
        euler=[-k for k in cfrac.terms],
        edges=[(i, i + 1) for i in range(s - 1)],
    )


def graph_to_json(g: pl.PlumbingGraph) -> str:
    return json.dumps(pl.graph_doc(g), indent=2) + "\n"


def graph_from_json(text: str) -> pl.PlumbingGraph:
    doc = json.loads(text)
    verts = sorted(doc["vertices"], key=lambda v: v["index"])
    if [v["index"] for v in verts] != list(range(len(verts))):
        raise ValueError("vertex indices must be 0..n-1")
    return pl.PlumbingGraph(
        euler=[v["euler"] for v in verts],
        edges=[tuple(e) for e in doc["edges"]],
        distinguished=doc.get("distinguished"),
        arrow=doc.get("arrow"),
    )


def pullback_spinc_class(gm: pl.PlumbingGraph, spec: SurgerySpec, a: int) -> tuple[tuple[int, ...], ...]:
    """Spin^c class a through the chain lattice: l~' solves (l~', b~_j) = -a_j
    on the chain graph and is pulled back through the divisorial cycle Z_f,
    b~_1 -> Z_f + b_1 and b~_j -> b_j (the chain vertices of gm are last).
    The vectors are built in Fractions; returns the digits and the pairings
    (l', b_j) and (k_r, b_j), which the package takes from their definitions
    (`class_pairings`) without solving for any vector of the class."""
    spec._check_a(a)
    cfrac = spec.cfrac
    zf = pl.divisorial_cycle(pl.embedded_resolution(spec.knot))
    k_gm = canonical_class(gm)
    acoef = pl._si_coefficients(cfrac, a)
    tilde = solve(chain_graph(cfrac), [-c for c in acoef])  # l~' in the chain basis
    # pull-back b~_1 -> Z_f + b_1, b~_j -> b_j (chain vertices are last)
    lprime = [tilde[0] * z for z in zf] + tilde
    pair = gm.apply_form(lprime)
    if any(x.denominator != 1 for x in pair):
        raise InternalInvariantError("l' is not in the dual lattice")
    if any(x > 0 for x in pair) or pair[gm.distinguished] != 0:
        raise InternalInvariantError("l' is not the minimal representative")
    kr = tuple(k + 2 * l for k, l in zip(k_gm, lprime))
    return acoef, tuple(int(x) for x in pair), characteristic_pairs(gm, kr)


def minimal_cycle_sequence(gf: pl.PlumbingGraph, i_max: int) -> list[tuple[tuple[int, ...], int]]:
    """Cycles y(i) on the resolution graph: y(i) is the least positive cycle
    with multiplicity i at v0 and (y(i), b_j) <= 0 away from v0.

    Returns [(y(i), (y(i), b_{v0}))] for i = 0..i_max.  The pairing with the
    distinguished vertex detects semigroup membership: 0 on the semigroup,
    1 on the gaps (for i below the period mf), and the sequence repeats as
    y(i + mf) = y(i) + Z_f.  The cycles come from the rescanning engine,
    whose chi values must equal the package's on the same graph.
    """
    values, cycles = laufer_run_rescan(gf, [0] * gf.n, i_max)
    assert values == pl.laufer_values(gf, [0] * gf.n, i_max)
    return [(cyc, gf.apply_form(list(cyc))[gf.distinguished]) for cyc in cycles]


def laufer_run_rescan(g: pl.PlumbingGraph, offsets: list[int], i_max: int):
    """The Laufer engine that rescans: starting from x = 0, step pr_{v0} up
    by 1 and then add base vectors b_j (j != v0, lowest index first, one at a
    time, rescanning from index 0 after each) while (x + l', b_j) > 0,
    where offsets[j] = (l', b_j); zero offsets give the minimal cycles of a
    resolution graph.  Returns (chi values, cycles).

    chi is tracked incrementally: adding b_j changes chi by 1 - (x + l', b_j).
    """
    v0 = g.distinguished
    if v0 is None:
        raise ValueError("graph has no distinguished vertex")
    n = g.n
    x = [0] * n
    w = list(offsets)  # w_j = (x + l', b_j)
    chi = 0
    values = [0]
    cycles = [tuple(x)]
    budget = pl._LAUFER_STEP_CAP

    def add(j):
        nonlocal chi, budget
        chi += 1 - w[j]
        x[j] += 1
        w[j] += g.euler[j]
        for nb in g.adj[j]:
            w[nb] += 1
        budget -= 1
        if budget < 0:
            raise ResourceLimitError(f"Laufer iteration exceeded its step cap of {pl._LAUFER_STEP_CAP} additions")

    for _ in range(i_max):
        add(v0)
        active = True
        while active:
            active = False
            for j in range(n):
                if j != v0 and w[j] > 0:
                    add(j)
                    active = True
                    break
        values.append(chi)
        cycles.append(tuple(x))
    return values, cycles


def laufer_run_stepwise(g: pl.PlumbingGraph, offsets, i_max: int, roots, base) -> list[int]:
    """The per-step Laufer engine, `plumbing._laufer_run` before it worked by
    events: one iteration per step of v0 and one stack pop per batch.  On the
    branches of g - v0 hanging from `roots`, some neighbours of v0: base[i]
    plus their share of chi(x(i)), i = 0..i_max.

    x(i) has pr_{v0} = i and is minimal with w_j = (x + l', b_j) <= 0 on the
    branches, where offsets[j] = (l', b_j).  v0 is fed one step at a time,
    and each step is followed by every forced addition of a b_j.

    Split at v0: an addition on one branch changes w only there and at v0,
    and a step of v0 raises w only at the roots.  The additions are forced,
    so where they stop does not depend on their order (Laufer's lemma): x(i)
    on a branch depends only on i and that branch's offsets, and the offsets
    of other branches are never read.  Adding b_j changes chi by 1 - w_j, so
    step i of v0 adds 1 - (l', b_{v0}) - e_{v0} (i - 1) - sum_r x_r(i - 1)
    over the neighbours r of v0.  This run adds its own roots' cross terms
    and base carries the rest:

        chi(x(i)) = base[i] + [additions on the branches up to step i]
                    - sum_{i' < i} sum_{r in roots} x_r(i').

    laufer_values runs every root on base[i] = i (1 - (l', b_{v0})) -
    e_{v0} i (i - 1) / 2; class_laufer_values chains a second run, the
    surgery chain's, on the resolution graph's values.

    Vertices with w_j > 0 wait on a stack; the one popped gets all
    k = ceil(w_j / |e_j|) of its additions at once, changing chi by
    k - k w_j + |e_j| k (k - 1) / 2.  The step cap counts single additions,
    each step of v0 included, per run; passing it raises ResourceLimitError.
    """
    v0 = g.distinguished
    euler, adj = g.euler, g.adj
    branch, stack = set(roots), list(roots)
    while stack:
        for nb in adj[stack.pop()]:
            if nb != v0 and nb not in branch:
                branch.add(nb)
                stack.append(nb)
    x = [0] * g.n
    w = list(offsets)
    ready = [j for j in branch if w[j] > 0]  # every branch vertex with w_j > 0
    push, pop = ready.append, ready.pop
    chi = 0  # this run's share of chi(x(i))
    values = [base[0]]
    budget = pl._LAUFER_STEP_CAP
    for i in range(1, i_max + 1):
        for r in roots:  # the step of v0
            chi -= x[r]
            w[r] += 1
            if w[r] == 1:
                push(r)
        budget -= 1
        while True:
            if budget < 0:
                raise ResourceLimitError(f"Laufer iteration exceeded its step cap of {pl._LAUFER_STEP_CAP} additions")
            if not ready:
                break
            j = pop()
            wj, e = w[j], euler[j]
            k = -(-wj // -e)
            chi += k - k * wj - e * k * (k - 1) // 2
            x[j] += k
            w[j] = wj + k * e
            for nb in adj[j]:
                wn = w[nb] + k
                w[nb] = wn
                if 0 < wn <= k and nb != v0:  # just turned positive
                    push(nb)
            budget -= k
        values.append(base[i] + chi)
    return values


def laufer_branch_events(g: pl.PlumbingGraph, offsets, i_max: int, r: int, diffs, budget: int) -> int:
    """The event loop of one branch, `plumbing._branch_walk` before it
    walked only interior vertices: adds the branch at r's share of chi to
    the second differences diffs of `plumbing._laufer_run` and returns the
    budget left.

    Once a step's additions are done, w_r <= 0 and nothing on the branch
    moves until w_r reaches 1, so the next step that forces an addition is
    1 - w_r steps ahead.  At that step every vertex with w_j > 0 waits on a
    stack; the one popped gets all k = ceil(w_j / |e_j|) of its additions at
    once, changing chi by k - k w_j + |e_j| k (k - 1) / 2, and each batch is
    charged to the budget.  A step i with chi change J and growth dx of x_r
    adds J to diffs[i - 1] and -(J + dx) to diffs[i].
    """
    v0 = g.distinguished
    euler, adj = g.euler, g.adj
    branch, stack = {r}, [r]
    while stack:
        for nb in adj[stack.pop()]:
            if nb != v0 and nb not in branch:
                branch.add(nb)
                stack.append(nb)
    x = [0] * g.n
    w = list(offsets)
    ready = [j for j in branch if w[j] > 0]  # only before step 1; empty after every step
    push, pop = ready.append, ready.pop
    i = 0
    while True:
        step = 1 if ready else 1 - w[r]  # the next step that forces an addition
        i += step
        if i > i_max:
            return budget
        w[r] += step
        if w[r] == 1:
            push(r)
        xr, chi = x[r], 0
        while ready:
            j = pop()
            wj, e = w[j], euler[j]
            k = -(-wj // -e)
            chi += k - k * wj - e * k * (k - 1) // 2
            x[j] += k
            w[j] = wj + k * e
            for nb in adj[j]:
                wn = w[nb] + k
                w[nb] = wn
                if 0 < wn <= k and nb != v0:  # just turned positive
                    push(nb)
            budget -= k
            if budget < 0:
                raise ResourceLimitError(f"Laufer iteration exceeded its step cap of {pl._LAUFER_STEP_CAP} additions")
        diffs[i - 1] += chi
        diffs[i] -= chi + x[r] - xr


def laufer_tau(gf: pl.PlumbingGraph, gm: pl.PlumbingGraph, digits, i_max: int) -> tuple[int, ...]:
    """The unreduced tau function tau(i) = chi_{k_r}(x(i)), i = 0..i_max, by
    the route `verify` takes: the run on the resolution graph gf, then the
    chain of the class with these chain digits on the surgery graph gm."""
    l_pairs = pl.class_pairings(gm, digits)[0]
    return tuple(pl.class_laufer_values(gm, l_pairs, pl.laufer_values(gf, [0] * gf.n, i_max), i_max))


def chain_coefficients(spec: SurgerySpec, a: int, i: int) -> tuple[int, ...]:
    """Chain part of x(i), by the ceiling recursion:

    u_1 = ceil((i q - a) / (p + q mf)),
    u_j = ceil((u_{j-1} n(j+1, s) - a'_j) / n(j, s)),  a'_j = sum_{t>=j} n(t+1,s) a_t.

    Matches the chain coefficients of the generalized Laufer cycles.
    """
    cfrac = spec.cfrac
    s = cfrac.s
    table = NumeratorTable(cfrac.terms)
    acoef = pl._si_coefficients(cfrac, a)
    aprime = [0] * (s + 2)
    for j in range(s, 0, -1):
        aprime[j] = aprime[j + 1] + table.n(j + 1, s) * acoef[j - 1]
    u = []
    num = i * spec.q - a
    den = spec.p + spec.q * spec.knot.mf
    u.append(-(-num // den))
    for j in range(2, s + 1):
        num = u[-1] * table.n(j + 1, s) - aprime[j]
        u.append(-(-num // table.n(j, s)))
    return tuple(u)


def exact_sublevel_box_fractions(g: pl.PlumbingGraph, kr: tuple[Fraction, ...], n_max: int) -> tuple[tuple[int, int], ...]:
    """The smallest coordinate box certain to contain {x : chi_{k_r}(x) <= n_max}.

    Completing the square, chi(x) <= n says -(y, y) <= 2 n - (k, k)/4 for
    y = x + k/2, a positive definite ellipsoid condition, so coordinate j is
    bounded by y_j^2 <= R * (-B^{-1})_{jj}.  All bounds are taken with exact
    integer square roots.  (The package's box, in Fractions of k_r; the
    package now bounds 2 det x + det k_r in integers from (k_r, b_j).)
    """
    radius = 2 * n_max - Fraction(pairing(g, kr, kr)) / 4
    if radius < 0:
        return ((0, -1),) * g.n  # empty ranges: the sublevel set is empty
    box = []
    for j in range(g.n):
        kj = Fraction(kr[j])
        diag = Fraction(-g.solve([int(i == j) for i in range(g.n)])[j], g.det)  # -(B^{-1})_{jj} > 0
        bound = radius * diag
        kd, kn = kj.denominator, kj.numerator
        cap = 4 * kd * kd * bound
        t = isqrt(cap.numerator // cap.denominator)
        lo = -((t + kn) // (2 * kd))
        hi = (t - kn) // (2 * kd)
        box.append((lo, hi))
    return tuple(box)


def sublevel_root_box(g: pl.PlumbingGraph, kr: tuple[Fraction, ...], n_max: int, box) -> tuple[Optional[GradedRoot], bool]:
    """Graded root of the sublevel sets {x : chi_{k_r}(x) <= n}, n <= n_max,
    enumerated over an explicit coordinate box.

    Vertices at level n are the connected components of the sublevel set,
    where x and x + b_j are adjacent whenever both lie in the set; edges
    follow component inclusion from level n to n + 1.  Returns (root,
    contact): contact means an in-set point on the box boundary has an
    in-set neighbour outside, so the box cut a component; the root is then
    untrustworthy, and None if it does not close.  Intended for tiny graphs
    (enumeration is exhaustive; the box volume is capped at 10^7 points).
    """
    n = g.n
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != n:
        raise ValueError("box must give one (lo, hi) range per vertex")
    volume = 1
    for lo, hi in box:
        volume *= max(hi - lo + 1, 0)
    if volume > BOX_VOLUME_CAP:
        raise ValueError(f"box volume {volume} exceeds the enumeration cap")

    kb = g.apply_form(list(kr))  # (k_r, b_j), must be integers
    if any(v.denominator != 1 for v in kb):
        raise ValueError("k_r is not in the dual lattice")
    kb = [int(v) for v in kb]
    if any((kb[j] + g.euler[j]) % 2 for j in range(n)):
        raise ValueError("k_r is not characteristic")

    def chi(x) -> int:
        kx = sum(a * b for a, b in zip(kb, x))
        q, r = divmod(-(kx + pairing(g, x, x)), 2)
        if r:
            raise InternalInvariantError("chi is not an integer on the lattice")
        return q

    pts: list[tuple[int, ...]] = []
    levels: list[int] = []
    # sweep the last coordinate incrementally: along that axis chi changes by
    # -((k, b) + e)/2 - (x, b), and (x, b) itself steps by e
    jin = n - 1
    lo_in, hi_in = box[jin]
    e_in = g.euler[jin]
    half = (kb[jin] + e_in) // 2
    if hi_in >= lo_in:
        for prefix in iter_product(*(range(lo, hi + 1) for lo, hi in box[:-1])):
            x = prefix + (lo_in,)
            level = chi(x)
            s = e_in * lo_in + sum(x[w] for w in g.adj[jin])
            for xj in range(lo_in, hi_in + 1):
                if level <= n_max:
                    pts.append(prefix + (xj,))
                    levels.append(level)
                level -= half + s
                s += e_in
    if not pts:
        raise ValueError(f"empty sublevel set: no lattice point in the box has chi <= {n_max}")

    index = {x: i for i, x in enumerate(pts)}
    order = sorted(range(len(pts)), key=lambda i: levels[i])
    parent_dsu = list(range(len(pts)))

    def find(i):
        while parent_dsu[i] != i:
            parent_dsu[i] = parent_dsu[parent_dsu[i]]
            i = parent_dsu[i]
        return i

    # a component leaks iff an in-set boundary point has an in-set neighbour
    # just outside the box; only that makes the truncation real
    contact = any(
        chi(x[:j] + (x[j] + d,) + x[j + 1:]) <= n_max
        for x in pts
        for j in range(n)
        for d in (1, -1)
        if not box[j][0] <= x[j] + d <= box[j][1]
    )

    chi_out: list[int] = []
    parent_out: list[Optional[int]] = []
    prev: dict[int, int] = {}  # dsu root -> vertex id at the previous level
    active: list[int] = []
    pos = 0
    lo_level = levels[order[0]]
    for level in range(lo_level, n_max + 1):
        while pos < len(order) and levels[order[pos]] == level:
            i = order[pos]
            pos += 1
            active.append(i)
            x = pts[i]
            for j in range(n):
                for d in (1, -1):
                    y = list(x)
                    y[j] += d
                    k = index.get(tuple(y))
                    if k is not None and levels[k] <= level:
                        ri, rk = find(i), find(k)
                        if ri != rk:
                            parent_dsu[ri] = rk
        groups: dict[int, int] = {}
        for i in active:
            r = find(i)
            if r not in groups:
                chi_out.append(level)
                parent_out.append(None)
                groups[r] = len(chi_out) - 1
        for r_prev, vid in prev.items():
            parent_out[vid] = groups[find(r_prev)]
        prev = groups
    if len(prev) != 1:
        if contact:
            return None, True
        raise ValueError("n_max is below the merge level; raise it to close the root")
    return GradedRoot(chi_out, parent_out), contact


def argparse_parser() -> argparse.ArgumentParser:
    """The `hfroots` command line as an argparse parser: the namespace it
    parses a valid argv into is the one `cli._parse_args` returns, plus
    `command`, the command's name."""
    ap = argparse.ArgumentParser(
        prog="hfroots",
        description="Heegaard Floer homology of negative rational surgeries on "
                    "algebraic knots, via graded roots (surgery P/Q means -P/Q).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("knot", help="classical invariants of an algebraic knot")
    k.add_argument("--newton", required=True, help="Newton pairs p1,q1[,p2,q2,...]")
    k.add_argument("--format", choices=["text", "json"], default="text")
    k.add_argument("--out", default=None, help="write output to a file")
    k.set_defaults(func=cmd_knot)

    c = sub.add_parser("compute", help="HF+ of -M per spin^c structure")
    c.add_argument("--newton", required=True, help="Newton pairs p1,q1[,p2,q2,...]")
    c.add_argument("--surgery", required=True, help="P/Q for surgery coefficient -P/Q")
    c.add_argument("--spinc", default="all", help="a spin^c index or 'all'")
    c.add_argument("--format", choices=["text", "json", "svg"], default="text")
    c.add_argument("--out", default=None, help="write output to a file")
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="cross-check against the lattice oracle")
    v.add_argument("--newton", default=None, help="Newton pairs p1,q1[,p2,q2,...]")
    v.add_argument("--surgery", default=None, help="P/Q for surgery coefficient -P/Q")
    v.add_argument("--spinc", default=None, help="a spin^c index or 'all' (the default)")
    v.add_argument("--oracle", choices=["laufer", "sublevel", "both"], default=None,
                   help="laufer (the default), sublevel or both")
    v.add_argument("--lens", default=None, help="P/Q: check lens-space correction terms instead")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.add_argument("--out", default=None, help="write output to a file")
    v.set_defaults(func=cmd_verify)
    return ap
