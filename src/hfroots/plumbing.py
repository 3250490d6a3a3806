"""Plumbing graphs and the lattice-theoretic oracle.

This module rebuilds the surgery invariants from the intersection lattice of
a negative definite plumbing tree, independently of the closed formulas in
`hfcore`, so the two paths can be cross-checked on every example.

The embedded resolution graph of an algebraic knot is constructed by
simulating the blow-up process one Newton pair at a time.  Resolving the
local branch v^P = u^Q torically amounts to a mediant walk from the rays
(1,0), (0,1) towards the ray (P, Q): each mediant is one blow-up, the new
exceptional curve starts at self-intersection -1, and the two curves through
the centre each drop by 1 and get separated.  The final ray of pair i
carries the strict transform, which for the next pair sits at a free point
of that curve with local equation v^{p_{i+1}} = u^{q_{i+1}}.  The resulting
tree has exactly g degree-3 vertices (counting the arrow) and a unique
(-1)-vertex v0 supporting the arrow.  Construction bugs cannot survive the
four self-checks: unimodularity, the multiplicity at v0, A'Campo's formula
against the Alexander polynomial, and the Euler-characteristic identity
sum (2 - degree_j) m_j = 1 - 2 delta.

Surgery replaces the arrow by a chain decorated -k_1 - mf, -k_2, ..., -k_s
from the negative continued fraction p/q = [k_1, ..., k_s].  The vertex v0
is the distinguished vertex: lowering its weight makes the graph rational
(an almost-rational graph), which is what licenses the tau-function method.

Oracle paths implemented here:
  * spin^c classes and their distinguished characteristic vectors k_r via
    the chain lattice and the pull-back through the divisorial cycle;
  * -(k_r^2 + #vertices)/4 three ways: from the lattice, from the Dedekind
    sum closed form, and (in hfcore) the grading shift r_a;
  * generalized Laufer computation sequences x(i) and their chi values,
    whose condensation reproduces the tau function;
  * brute-force sublevel-set roots on tiny graphs;
  * lens space correction terms, degenerate delta = 0 case plus the
    classical recursion as an oracle-of-the-oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, isqrt
from typing import Optional

from .errors import InternalInvariantError
from .hfcore import SurgerySpec
from .knot import AlgebraicKnot, poly_mul, t_power_minus_one
from .numtheory import NegContinuedFraction, dedekind_sum, mod_inverse
from .root import GradedRoot, TauFunction

_LAUFER_STEP_CAP = 20_000_000
_SUBLEVEL_VOLUME_CAP = 10_000_000


# ---------------------------------------------------------------------------
# exact linear algebra on small integer matrices
# ---------------------------------------------------------------------------


def leading_principal_minors(mat: list[list[int]]) -> list[int]:
    """All leading principal minors, by fraction-free (Bareiss) elimination.

    A zero minor aborts the sweep; the remaining entries are reported as 0,
    which is enough to refute definiteness.
    """
    n = len(mat)
    a = [list(map(int, row)) for row in mat]
    minors = []
    prev = 1
    for k in range(n):
        piv = a[k][k]
        minors.append(piv)
        if piv == 0:
            minors.extend([0] * (n - k - 1))
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) // prev
        prev = piv
    return minors


def solve_exact(mat: list[list], rhs: list) -> list[Fraction]:
    """Solve mat x = rhs over the rationals (Gaussian elimination)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(mat, rhs)]
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
    return [a[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# plumbing graphs
# ---------------------------------------------------------------------------


class PlumbingGraph:
    """A connected negative definite plumbing tree.

    Vertices are 0..n-1 with Euler numbers euler[j]; the intersection form B
    has euler[j] on the diagonal and 1 for each tree edge.  `distinguished`
    is the vertex whose weight drop makes the graph rational (v0);  `arrow`
    marks the vertex supporting the knot arrow in an embedded resolution
    graph (None for closed-manifold graphs).

    Both the tree property and negative definiteness (signs of all leading
    principal minors, exact integer arithmetic) are enforced on creation;
    the last of those minors is kept as `det`, the determinant of B.
    Instances are immutable after construction and safe to share; oracle
    runs for distinct spin^c classes are independent of each other.
    """

    def __init__(self, euler, edges, distinguished: Optional[int] = None, arrow: Optional[int] = None):
        self.euler = tuple(int(e) for e in euler)
        self.edges = tuple(sorted(tuple(sorted((int(a), int(b)))) for a, b in edges))
        self.distinguished = distinguished
        self.arrow = arrow
        n = len(self.euler)
        if n == 0:
            raise ValueError("empty plumbing graph")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b or (a, b) in seen:
                raise ValueError(f"bad edge ({a},{b})")
            seen.add((a, b))
            adj[a].append(b)
            adj[b].append(a)
        self.adj = tuple(tuple(sorted(x)) for x in adj)
        if len(self.edges) != n - 1:
            raise ValueError("a plumbing tree needs exactly n - 1 edges")
        stack, visited = [0], {0}
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        if len(visited) != n:
            raise ValueError("plumbing graph is not connected")
        for v in (self.distinguished, self.arrow):
            if v is not None and not 0 <= v < n:
                raise ValueError(f"vertex index {v} out of range")
        minors = leading_principal_minors(self.bmatrix())
        for k, m in enumerate(minors, start=1):
            if m == 0 or (m > 0) != (k % 2 == 0):
                raise ValueError("intersection form is not negative definite")
        self.det = minors[-1]

    @property
    def n(self) -> int:
        return len(self.euler)

    def degree(self, j: int) -> int:
        return len(self.adj[j])

    def bmatrix(self) -> list[list[int]]:
        b = [[0] * self.n for _ in range(self.n)]
        for j, e in enumerate(self.euler):
            b[j][j] = e
        for a, c in self.edges:
            b[a][c] = b[c][a] = 1
        return b

    def apply_form(self, x):
        """B x, computed edge-wise; exact for int or Fraction entries."""
        out = [self.euler[j] * x[j] for j in range(self.n)]
        for j in range(self.n):
            for w in self.adj[j]:
                out[j] += x[w]
        return out

    def pairing(self, x, y):
        """(x, y) with respect to the intersection form."""
        by = self.apply_form(y)
        return sum(xi * bi for xi, bi in zip(x, by))

    def __repr__(self):
        return f"PlumbingGraph(n={self.n}, euler={list(self.euler)})"


@dataclass(frozen=True)
class CharacteristicVector:
    """A characteristic element of the dual lattice, in rational coordinates."""

    coeffs: tuple[Fraction, ...]


# JSON schema (stable field names):
#   {"vertices": [{"index": 0, "euler": -2}, ...],   # sorted by index
#    "edges": [[0, 1], ...],                          # each sorted, list sorted
#    "distinguished": 0 | null,
#    "arrow": 0 | null}


def graph_to_json(g: PlumbingGraph) -> str:
    doc = {
        "vertices": [{"index": j, "euler": g.euler[j]} for j in range(g.n)],
        "edges": [list(e) for e in g.edges],
        "distinguished": g.distinguished,
        "arrow": g.arrow,
    }
    return json.dumps(doc, indent=2) + "\n"


def graph_from_json(text: str) -> PlumbingGraph:
    doc = json.loads(text)
    verts = sorted(doc["vertices"], key=lambda v: v["index"])
    if [v["index"] for v in verts] != list(range(len(verts))):
        raise ValueError("vertex indices must be 0..n-1")
    return PlumbingGraph(
        euler=[v["euler"] for v in verts],
        edges=[tuple(e) for e in doc["edges"]],
        distinguished=doc.get("distinguished"),
        arrow=doc.get("arrow"),
    )


# ---------------------------------------------------------------------------
# embedded resolution and surgery graphs
# ---------------------------------------------------------------------------


def _mediant_walk(euler: list[int], edge_set: set, attach: Optional[int], P: int, Q: int) -> int:
    """Blow-up walk resolving v^P = u^Q at a free point of `attach`.

    The u-axis ray (1,0) carries `attach` (None for the first Newton pair,
    where both axes are mere coordinate axes).  Returns the vertex of the
    final ray (P, Q), which supports the strict transform afterwards.
    """
    lray, rray = (1, 0), (0, 1)
    lcur: Optional[int] = attach
    rcur: Optional[int] = None
    for _ in range(P + Q + 1):
        mray = (lray[0] + rray[0], lray[1] + rray[1])
        v = len(euler)
        euler.append(-1)
        if lcur is not None and rcur is not None:
            edge_set.discard((min(lcur, rcur), max(lcur, rcur)))
        for c in (lcur, rcur):
            if c is not None:
                euler[c] -= 1
                edge_set.add((min(c, v), max(c, v)))
        if mray == (P, Q):
            return v
        if mray[0] * Q - mray[1] * P > 0:
            lray, lcur = mray, v
        else:
            rray, rcur = mray, v
    raise InternalInvariantError("mediant walk failed to reach its target ray")


def _acampo_check(g: PlumbingGraph, mults: tuple[int, ...], alexander: tuple[int, ...]):
    """A'Campo: product of (t^{m_j} - 1)^(degree_j - 2) equals Delta/(t - 1).

    Degrees count the arrow.  Checked multiplicatively to stay in integer
    polynomials: Delta * (denominator factors) == (t-1) * (numerator factors).
    """
    lhs = list(alexander)
    rhs = [-1, 1]
    for j in range(g.n):
        s = g.degree(j) + (1 if j == g.arrow else 0)
        for _ in range(s - 2, 0, -1):
            rhs = poly_mul(rhs, t_power_minus_one(mults[j]))
        for _ in range(2 - s, 0, -1):
            lhs = poly_mul(lhs, t_power_minus_one(mults[j]))
    if lhs != rhs:
        raise InternalInvariantError("A'Campo product does not match the Alexander polynomial")


@lru_cache(maxsize=None)
def embedded_resolution(knot: AlgebraicKnot) -> PlumbingGraph:
    """Embedded minimal good resolution graph of the knot's germ.

    The arrow (and the distinguished vertex) is the unique (-1)-vertex.
    Self-validates: |det B| = 1, multiplicity mf at the arrow vertex,
    A'Campo's formula, and sum (2 - degree_j) m_j = 1 - 2 delta.
    """
    euler: list[int] = []
    edge_set: set[tuple[int, int]] = set()
    attach: Optional[int] = None
    for p_i, q_i in knot.newton_pairs:
        attach = _mediant_walk(euler, edge_set, attach, p_i, q_i)
    g = PlumbingGraph(euler, sorted(edge_set), distinguished=attach, arrow=attach)

    if abs(g.det) != 1:
        raise InternalInvariantError("resolution graph is not unimodular")
    ones = [j for j in range(g.n) if g.euler[j] == -1]
    if ones != [attach]:
        raise InternalInvariantError("the (-1)-vertex is not unique at the arrow")
    mults = divisorial_cycle(g)
    if mults[attach] != knot.mf:
        raise InternalInvariantError(f"multiplicity {mults[attach]} at v0, expected {knot.mf}")
    _acampo_check(g, mults, knot.alexander)
    total = sum((2 - g.degree(j) - (1 if j == g.arrow else 0)) * mults[j] for j in range(g.n))
    if total != 1 - 2 * knot.delta:
        raise InternalInvariantError("Euler-characteristic identity for multiplicities failed")
    return g


def divisorial_cycle(gf: PlumbingGraph) -> tuple[int, ...]:
    """The divisorial cycle of the germ on its resolution graph.

    Unique solution of (Z, b_j) = 0 for j != v0 and (Z, b_{v0}) = -1; the
    coefficients are the vanishing orders of the pulled-back germ, so they
    must come out integral and strictly positive.
    """
    if gf.distinguished is None:
        raise ValueError("graph has no distinguished vertex")
    rhs = [0] * gf.n
    rhs[gf.distinguished] = -1
    sol = solve_exact(gf.bmatrix(), rhs)
    if any(x.denominator != 1 for x in sol):
        raise InternalInvariantError("divisorial cycle is not integral")
    coeffs = tuple(int(x) for x in sol)
    if any(c <= 0 for c in coeffs):
        raise InternalInvariantError("divisorial cycle must be strictly positive")
    return coeffs


def surgery_graph(knot: AlgebraicKnot, cfrac: NegContinuedFraction) -> PlumbingGraph:
    """Plumbing graph of S^3_{-p/q}(K): the resolution graph with its arrow
    replaced by the chain -k_1 - mf, -k_2, ..., -k_s hanging at v0.

    The chain occupies the last s vertex indices, in chain order; spin^c
    bookkeeping relies on that convention.  |det B| must equal p.
    """
    gf = embedded_resolution(knot)
    terms = cfrac.terms
    euler = list(gf.euler)
    edges = list(gf.edges)
    prev = gf.distinguished
    for j, k in enumerate(terms):
        v = len(euler)
        euler.append(-k - knot.mf if j == 0 else -k)
        edges.append((prev, v))
        prev = v
    gm = PlumbingGraph(euler, edges, distinguished=gf.distinguished, arrow=None)
    if abs(gm.det) != cfrac.p:
        raise InternalInvariantError("surgery graph determinant is not +-p")
    return gm


def _check_characteristic(g: PlumbingGraph, coeffs) -> None:
    """(k, b_j) + (b_j, b_j) must be even on every basis vector."""
    for j, v in enumerate(g.apply_form(list(coeffs))):
        if v.denominator != 1 or (int(v) + g.euler[j]) % 2:
            raise InternalInvariantError("vector is not characteristic")


def canonical_class(g: PlumbingGraph) -> CharacteristicVector:
    """The canonical characteristic element, from the adjunction equations
    (K, b_j) = -e_j - 2, solved exactly over the rationals."""
    rhs = [-e - 2 for e in g.euler]
    k = CharacteristicVector(tuple(solve_exact(g.bmatrix(), rhs)))
    _check_characteristic(g, k.coeffs)
    return k


# ---------------------------------------------------------------------------
# spin^c classes on the surgery graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpincClass:
    """One spin^c structure of the surgery manifold, lattice-side data.

    a_coeffs are the chain coefficients of the minimal dual-lattice
    representative (they obey the strict inequalities (SI)); l_prime is that
    representative pulled back to the surgery lattice; k_r = K + 2 l_prime
    is the distinguished characteristic vector of the class.
    """

    a: int
    a_coeffs: tuple[int, ...]
    l_prime: tuple[Fraction, ...]
    k_r: CharacteristicVector


def _si_coefficients(cfrac: NegContinuedFraction, a: int) -> tuple[int, ...]:
    """Greedy floor recursion for the chain coefficients of class a."""
    s = cfrac.s
    out = []
    rem = a
    for i in range(1, s + 1):
        ai, rem = divmod(rem, cfrac.n(i + 1, s))
        out.append(ai)
    coeffs = tuple(out)
    # (SI): a_i >= 0 and sum_{t>=i} n(t+1,s) a_t < n(i,s), plus reconstruction
    if any(x < 0 for x in coeffs):
        raise InternalInvariantError("(SI) violated: negative coefficient")
    for i in range(1, s + 1):
        tail = sum(cfrac.n(t + 1, s) * coeffs[t - 1] for t in range(i, s + 1))
        if tail >= cfrac.n(i, s):
            raise InternalInvariantError("(SI) violated: tail bound")
    if sum(cfrac.n(t + 1, s) * coeffs[t - 1] for t in range(1, s + 1)) != a:
        raise InternalInvariantError("(SI) coefficients do not reconstruct a")
    return coeffs


def _chain_graph(cfrac: NegContinuedFraction) -> PlumbingGraph:
    """The lens-space chain -k_1, ..., -k_s (the blow-down of the surgery
    graph along the resolution part)."""
    s = cfrac.s
    return PlumbingGraph(
        euler=[-k for k in cfrac.terms],
        edges=[(i, i + 1) for i in range(s - 1)],
    )


def spinc_classes(gm: PlumbingGraph, spec: SurgerySpec) -> list[SpincClass]:
    """All spin^c classes of the surgery graph, with their k_r vectors.

    gm must be the graph produced by surgery_graph(spec.knot, spec.cfrac);
    the chain convention (last s indices) is validated before use.
    """
    cfrac = spec.cfrac
    s = cfrac.s
    nf = gm.n - s
    gf = embedded_resolution(spec.knot)
    if nf != gf.n or gm.euler[:nf] != gf.euler:
        raise ValueError("graph does not extend the knot's resolution graph")
    chain = list(range(nf, gm.n))
    if gm.euler[chain[0]] != -cfrac.terms[0] - spec.knot.mf or any(
        gm.euler[chain[j]] != -cfrac.terms[j] for j in range(1, s)
    ):
        raise ValueError("chain decorations do not match the continued fraction")

    zf = divisorial_cycle(gf)
    k_gm = canonical_class(gm).coeffs
    chain_b = _chain_graph(cfrac).bmatrix()

    # pull-back images of the chain basis: b~_1 -> Z_f + b_1, b~_j -> b_j
    pullback = []
    img1 = [Fraction(zf[j]) for j in range(nf)] + [Fraction(0)] * s
    img1[chain[0]] += 1
    pullback.append(img1)
    for j in range(1, s):
        img = [Fraction(0)] * gm.n
        img[chain[j]] = Fraction(1)
        pullback.append(img)

    out = []
    for a in range(spec.p):
        acoef = _si_coefficients(cfrac, a)
        tilde = solve_exact(chain_b, [-c for c in acoef])  # l~' in the chain basis
        lprime = [Fraction(0)] * gm.n
        for coef, img in zip(tilde, pullback):
            if coef:
                for j in range(gm.n):
                    lprime[j] += coef * img[j]
        pair = gm.apply_form(lprime)
        if any(x.denominator != 1 for x in pair):
            raise InternalInvariantError("l' is not in the dual lattice")
        if any(x > 0 for x in pair) or pair[gm.distinguished] != 0:
            raise InternalInvariantError("l' is not the minimal representative")
        kr = CharacteristicVector(tuple(k + 2 * l for k, l in zip(k_gm, lprime)))
        _check_characteristic(gm, kr.coeffs)
        out.append(SpincClass(a=a, a_coeffs=acoef, l_prime=tuple(lprime), k_r=kr))
    return out


def lattice_grading_shift(gm: PlumbingGraph, cls: SpincClass) -> Fraction:
    """-(k_r^2 + #vertices) / 4, evaluated in the lattice."""
    return -(gm.pairing(cls.k_r.coeffs, cls.k_r.coeffs) + gm.n) / 4


def grading_shift_formula(p: int, q: int, delta: int, a: int) -> Fraction:
    """-(k_r^2 + s)/4 on the chain lattice, via Dedekind sums; no graphs.

    Assembled from the chain identities: the canonical square
    K~^2 + s = 2(p-1)/p - 12 s(q,p), its delta-correction through the first
    dual basis vector, and the pairing of the minimal representative
    (K~ + l~', l~') = a(p-1)/p - 2 sum_{j<=a} {j q'/p}.
    """
    if not 0 <= a < p:
        raise ValueError(f"spin^c index a={a} outside [0, {p})")
    qp = mod_inverse(q, p)
    ksq_s = Fraction(2 * (p - 1), p) - 12 * dedekind_sum(q, p)
    dksq_s = ksq_s - 4 * delta * (1 - Fraction(q + 1, p)) - 4 * delta * delta * Fraction(q, p)
    pair = Fraction(a * (p - 1), p) - 2 * sum(Fraction((j * qp) % p, p) for j in range(1, a + 1))
    krsq_s = dksq_s + 4 * pair + 8 * delta * Fraction(a, p)
    return -krsq_s / 4


# ---------------------------------------------------------------------------
# Laufer computation sequences
# ---------------------------------------------------------------------------


def _laufer_run(g: PlumbingGraph, offsets: list[int], i_max: int):
    """Laufer engine: starting from x = 0, step pr_{v0} up by 1 and then add
    base vectors b_j (j != v0, lowest index first) while (x + l', b_j) > 0,
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
    budget = _LAUFER_STEP_CAP

    def add(j):
        nonlocal chi, budget
        chi += 1 - w[j]
        x[j] += 1
        w[j] += g.euler[j]
        for nb in g.adj[j]:
            w[nb] += 1
        budget -= 1
        if budget < 0:
            raise InternalInvariantError("Laufer iteration exceeded its safety bound")

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


def laufer_sequence(gm: PlumbingGraph, cls: SpincClass, i_max: int):
    """chi values and cycles of the generalized Laufer sequence x(i).

    x(i) is minimal with pr_{v0} = i and (x(i) + l', b_j) <= 0 for j != v0;
    chi is taken with respect to k_r.
    """
    pair = gm.apply_form(list(cls.l_prime))
    offsets = []
    for v in pair:
        if v.denominator != 1:
            raise InternalInvariantError("(l', b_j) must be integral")
        offsets.append(int(v))
    return _laufer_run(gm, offsets, i_max)


def condense_tau(tau: TauFunction, mf: int) -> TauFunction:
    """Collapse a full Laufer tau over blocks of length mf to the short form
    tau(0), max(block 0), tau(mf), max(block 1), ..., tau(T).

    The block maxima sit strictly above both block ends, so the graded root
    is unchanged; the result is directly comparable with the closed-form tau.
    """
    vals = tau.values
    if (len(vals) - 1) % mf != 0:
        raise ValueError("tau length is not a whole number of mf-blocks")
    blocks = (len(vals) - 1) // mf
    out = [vals[0]]
    for t in range(blocks):
        seg = vals[t * mf: (t + 1) * mf + 1]
        out.append(max(seg))
        out.append(vals[(t + 1) * mf])
    return TauFunction(tuple(out))


# ---------------------------------------------------------------------------
# brute-force sublevel roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SublevelRoot:
    """Result of a brute-force sublevel computation.

    boundary_contact means some connected component continues past the
    search box (an in-set point on the boundary has an in-set neighbour
    outside), so the root may be truncated and must not be trusted.
    """

    root: GradedRoot
    boundary_contact: bool


def exact_sublevel_box(g: PlumbingGraph, kr: CharacteristicVector, n_max: int) -> tuple[tuple[int, int], ...]:
    """The smallest coordinate box certain to contain {x : chi_{k_r}(x) <= n_max}.

    Completing the square, chi(x) <= n says -(y, y) <= 2 n - (k, k)/4 for
    y = x + k/2, a positive definite ellipsoid condition, so coordinate j is
    bounded by y_j^2 <= R * (-B^{-1})_{jj}.  All bounds are taken with exact
    integer square roots.  A run over this box can never leak.
    """
    bm = g.bmatrix()
    ksq = g.pairing(kr.coeffs, kr.coeffs)
    radius = 2 * n_max - Fraction(ksq) / 4
    box = []
    for j in range(g.n):
        kj = Fraction(kr.coeffs[j])
        if radius < 0:
            box.append((0, -1))  # empty range: the sublevel set is empty
            continue
        rhs = [0] * g.n
        rhs[j] = 1
        diag = -solve_exact(bm, rhs)[j]  # -(B^{-1})_{jj} > 0
        bound = radius * diag
        kd, kn = kj.denominator, kj.numerator
        cap = 4 * kd * kd * bound
        t = isqrt(cap.numerator // cap.denominator)
        lo = -((t + kn) // (2 * kd))
        hi = (t - kn) // (2 * kd)
        box.append((lo, hi))
    return tuple(box)


def sublevel_root(g: PlumbingGraph, kr: CharacteristicVector, n_max: int, box) -> SublevelRoot:
    """Graded root of the sublevel sets {x : chi_{k_r}(x) <= n}, n <= n_max,
    enumerated over an explicit coordinate box.

    Vertices at level n are the connected components of the sublevel set,
    where x and x + b_j are adjacent whenever both lie in the set; edges
    follow component inclusion from level n to n + 1.  Correct only when the
    box contains every relevant component; contact with the box boundary is
    reported via boundary_contact.  Intended for tiny graphs (enumeration is
    exhaustive; the box volume is capped at 10^7 points).
    """
    n = g.n
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != n:
        raise ValueError("box must give one (lo, hi) range per vertex")
    volume = 1
    for lo, hi in box:
        volume *= max(hi - lo + 1, 0)
    if volume > _SUBLEVEL_VOLUME_CAP:
        raise ValueError(f"box volume {volume} exceeds the enumeration cap")

    kb = g.apply_form(list(kr.coeffs))  # (k_r, b_j), must be integers
    if any(v.denominator != 1 for v in kb):
        raise ValueError("k_r is not in the dual lattice")
    kb = [int(v) for v in kb]
    if any((kb[j] + g.euler[j]) % 2 for j in range(n)):
        raise ValueError("k_r is not characteristic")

    def chi(x) -> int:
        bx = [g.euler[j] * x[j] for j in range(n)]
        for j in range(n):
            for w in g.adj[j]:
                bx[j] += x[w]
        xsq = sum(a * b for a, b in zip(x, bx))
        kx = sum(a * b for a, b in zip(kb, x))
        q, r = divmod(-(kx + xsq), 2)
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
    contact = False
    for x in pts:
        for j in range(n):
            for d in (1, -1):
                xj = x[j] + d
                if box[j][0] <= xj <= box[j][1]:
                    continue
                y = list(x)
                y[j] = xj
                if chi(tuple(y)) <= n_max:
                    contact = True
                    break
            if contact:
                break
        if contact:
            break

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
        raise ValueError("n_max is below the merge level; raise it to close the root")
    return SublevelRoot(GradedRoot(chi_out, parent_out), contact)


# ---------------------------------------------------------------------------
# lens space correction terms
# ---------------------------------------------------------------------------


def lens_d_invariants(p: int, q: int) -> list[Fraction]:
    """Correction terms of the surgered lens space, one per spin^c class,
    through the delta = 0 degeneration of the grading-shift formula
    (every class has depth -1, a bare-stem root, and d = shift)."""
    if p < 1:
        raise ValueError("p must be positive")
    if p == 1:
        return [Fraction(0)]
    if not (0 < q < p):
        raise ValueError("lens parameters need 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("lens parameters must be coprime")
    return [grading_shift_formula(p, q, 0, a) for a in range(p)]


@lru_cache(maxsize=None)
def _lens_d_rec(p: int, q: int, i: int) -> Fraction:
    if p == 1:
        return Fraction(0)
    return Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q) - Fraction(1, 4) - _lens_d_rec(q, p % q, i % q)


def lens_d_classical(p: int, q: int) -> list[Fraction]:
    """Independent oracle: the classical lens-space recursion

    d(1, 0, 0) = 0,
    d(p, q, i) = (2i + 1 - p - q)^2 / (4pq) - 1/4 - d(q, p mod q, i mod q).

    Folklore identity, kept separate from the formula path on purpose; the
    two routes are compared as multisets because they index spin^c
    structures differently.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if p == 1:
        return [Fraction(0)]
    if not (0 < q < p):
        raise ValueError("lens parameters need 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("lens parameters must be coprime")
    return [_lens_d_rec(p, q, i) for i in range(p)]
