"""Plumbing graphs and the lattice oracle.

This module rebuilds the surgery invariants from the intersection lattice of
a negative definite plumbing tree, independently of the closed formulas in
`hfcore` and `lens`, so the paths can be cross-checked on every example.

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

All the linear algebra of a graph is one leaf-to-root elimination of the
tree, run once when the graph is built: its subtree determinants give the
pivots that certify negative definiteness and det B, and `solve` reuses them
for any B x = y in O(n) integer operations, returning the numerators over
det B.  Each B x = y below (the divisorial cycle, the k_r of a spin^c
class for its square and as the centre of the sublevel search, and, once
per graph, the diagonal of B^{-1} that bounds that search) is one such
solve, and the sublevel enumeration walks the same pivots, parents first.

Oracle paths implemented here:
  * spin^c class a as its chain digits alone (`chain_digits`), read off the
    continued fraction of p/q with no graph; the pairings (l', b_j) and
    (k_r, b_j) of l' and k_r = K + 2 l' are built from the digits by their
    definitions on the graph a consumer holds (`class_pairings`), no linear
    algebra per class;
  * -(k_r^2 + #vertices)/4 from the lattice, one tree solve of the pairings
    (k_r, b_j) checked by pairing back, itself checked against the Dedekind
    sum closed form of `lens.grading_shift_formula` and (in hfcore) the
    shift r_a;
  * generalized Laufer computation sequences x(i) and their chi values,
    whose condensation reproduces the tau function; split at v0, the
    resolution graph's branches run once per surgery (every class pairs to 0
    there) and only the surgery chain runs per class; a string hanging from
    v0 or from any vertex of a branch is answered by its response (a ceiling
    recursion on its own Euler numbers and offsets), and only the vertices
    on no string, nodes and the vertices between them, are walked, one
    addition at a time, so the cost grows with their additions, not with the
    strings' or the steps of v0;
  * sublevel-set roots on small graphs, by exact enumeration of the lattice
    points of the ellipsoid chi <= n (Fincke-Pohst, in integers, from the
    pairings (k_r, b_j)), closed under the steps x -> x +- b_j or refused
    with InternalInvariantError.

Lens-space correction terms need no graph: they live in `lens`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import gcd, isqrt
from operator import add, floordiv, mul, sub

from .errors import InternalInvariantError, ResourceLimitError
from .knot import AlgebraicKnot, poly_mul, t_power_minus_one
from .numtheory import NegContinuedFraction
from .root import GradedRoot

_LAUFER_STEP_CAP = 20_000_000
_WALK_BLOCK = 256  # own values an interior vertex walks at once, at most
_WALK_CHUNK = 1024  # steps of v0 between step-cap checks of a walked branch
_SUBLEVEL_POINT_CAP = 1_000_000
_RESOLUTION_CACHE_SIZE = 64  # graphs cached, one per knot; a run meets a handful


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

    Both the tree property and negative definiteness are enforced on
    creation, and every Euler number, edge endpoint and vertex index must
    be an int (a bool is not one): anything else raises TypeError.  The
    tree is eliminated once, from the leaves to vertex 0 in the order of
    the connectivity traversal, in integers: vertex v with children c gets
    P_v = prod_c D_c and the determinant of its subtree
    D_v = e_v P_v - sum_c P_c (P_v / D_c) (Eisenbud-Neumann), so its pivot
    is D_v / P_v.  The form is negative definite exactly when every pivot is
    negative, and det B = D_0.  `solve` reuses the elimination for any
    B x = y in O(n) integer operations.
    Instances are immutable after construction and safe to share; oracle
    runs for distinct spin^c classes are independent of each other.
    """

    def __init__(self, euler, edges, distinguished: int | None = None, arrow: int | None = None):
        euler, edges = tuple(euler), [(a, b) for a, b in edges]
        for v in (*euler, *(v for e in edges for v in e), *(v for v in (distinguished, arrow) if v is not None)):
            if type(v) is not int:  # no float, str, bool or Fraction is rounded into a graph
                raise TypeError(f"plumbing graph: {v!r} must be an int, not {type(v).__name__}")
        self.euler = euler
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
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
        order, parent = [0], [-1] + [None] * (n - 1)  # parents before children
        for v in order:
            for w in self.adj[v]:
                if parent[w] is None:
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            raise ValueError("plumbing graph is not connected")
        for v in (self.distinguished, self.arrow):
            if v is not None and not 0 <= v < n:
                raise ValueError(f"vertex index {v} out of range")
        prods, dets, shares = [1] * n, [0] * n, [0] * n
        for v in reversed(order):  # every child of v is done, so prods[v] is final
            d = self.euler[v] * prods[v]
            for c in self.adj[v]:
                if c != parent[v]:
                    shares[c] = prods[v] // dets[c]
                    d -= prods[c] * shares[c]
            if d == 0 or (d > 0) == (prods[v] > 0):  # the pivot d / P_v must be negative
                raise ValueError("intersection form is not negative definite")
            dets[v] = d
            if v:
                prods[parent[v]] *= d
        self._order, self._parent, self._prods, self._dets, self._shares = order, parent, prods, dets, shares
        self.det = dets[0]
        self._inverse_diagonal = None

    @property
    def inverse_diagonal(self) -> tuple[int, ...]:
        """The diagonal of det B * B^{-1}, one unit-vector solve per vertex
        on first use, then kept with the graph."""
        if self._inverse_diagonal is None:
            self._inverse_diagonal = tuple(self.solve([int(i == j) for i in range(self.n)])[j] for j in range(self.n))
        return self._inverse_diagonal

    @property
    def n(self) -> int:
        return len(self.euler)

    def solve(self, y) -> list[int]:
        """det B * x for the solution x of B x = y (integer y), in O(n).

        Forward, u_v = y_v P_v - sum_c u_c (P_v / D_c) folds each subtree into
        its root; back, X_0 = u_0 and X_v = (u_v det - X_parent P_v) / D_v.
        det * B^{-1} is the integer adjugate, so every division is exact; one
        that is not raises InternalInvariantError.
        """
        parent, prods, dets, shares, det = self._parent, self._prods, self._dets, self._shares, self.det
        u = [yv * pv for yv, pv in zip(y, prods)]
        for v in reversed(self._order[1:]):
            u[parent[v]] -= u[v] * shares[v]
        x = [0] * self.n
        x[0] = u[0]
        for v in self._order[1:]:
            x[v], r = divmod(u[v] * det - x[parent[v]] * prods[v], dets[v])
            if r:
                raise InternalInvariantError("tree solve: a division by a subtree determinant is not exact")
        return x

    def degree(self, j: int) -> int:
        return len(self.adj[j])

    def apply_form(self, x):
        """B x, computed edge-wise; exact for int or Fraction entries."""
        out = [e * xj for e, xj in zip(self.euler, x)]
        for j, nbrs in enumerate(self.adj):
            for w in nbrs:
                out[j] += x[w]
        return out

    def __repr__(self):
        return f"PlumbingGraph(n={self.n}, euler={list(self.euler)})"


# JSON schema (stable field names):
#   {"vertices": [{"index": 0, "euler": -2}, ...],   # sorted by index
#    "edges": [[0, 1], ...],                          # each sorted, list sorted
#    "distinguished": 0 | null,
#    "arrow": 0 | null}


def graph_doc(g: PlumbingGraph) -> dict:
    """The graph as a JSON-ready dict in the schema above."""
    return {
        "vertices": [{"index": j, "euler": g.euler[j]} for j in range(g.n)],
        "edges": [list(e) for e in g.edges],
        "distinguished": g.distinguished,
        "arrow": g.arrow,
    }


# ---------------------------------------------------------------------------
# embedded resolution and surgery graphs
# ---------------------------------------------------------------------------


def _mediant_walk(euler: list[int], edge_set: set, attach: int | None, P: int, Q: int) -> int:
    """Blow-up walk resolving v^P = u^Q at a free point of `attach`.

    The u-axis ray (1,0) carries `attach` (None for the first Newton pair,
    where both axes are mere coordinate axes).  Returns the vertex of the
    final ray (P, Q), which supports the strict transform afterwards.
    """
    lray, rray = (1, 0), (0, 1)
    lcur: int | None = attach
    rcur: int | None = None
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


@lru_cache(maxsize=_RESOLUTION_CACHE_SIZE)
def embedded_resolution(knot: AlgebraicKnot) -> PlumbingGraph:
    """Embedded minimal good resolution graph of the knot's germ.

    The arrow (and the distinguished vertex) is the unique (-1)-vertex.
    Self-validates: |det B| = 1, multiplicity mf at the arrow vertex,
    A'Campo's formula, and sum (2 - degree_j) m_j = 1 - 2 delta.
    """
    euler: list[int] = []
    edge_set: set[tuple[int, int]] = set()
    attach: int | None = None
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

    Unique solution of (Z, b_j) = 0 for j != v0 and (Z, b_{v0}) = -1, one
    tree solve over det; its coefficients, the vanishing orders of the
    pulled-back germ, must be integral and strictly positive.
    """
    if gf.distinguished is None:
        raise ValueError("graph has no distinguished vertex")
    sol = [divmod(x, gf.det) for x in gf.solve([-(j == gf.distinguished) for j in range(gf.n)])]
    if any(r for _, r in sol):
        raise InternalInvariantError("divisorial cycle is not integral")
    coeffs = tuple(c for c, _ in sol)
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


# ---------------------------------------------------------------------------
# spin^c classes on the surgery graph
# ---------------------------------------------------------------------------


def _si_coefficients(cfrac: NegContinuedFraction, a: int) -> tuple[int, ...]:
    """Greedy floor recursion for the chain coefficients of class a."""
    tail = cfrac.tail  # tail[i-1] = n(i, s)
    out = []
    rem = a
    for d in tail[1:]:
        ai, rem = divmod(rem, d)
        out.append(ai)
    coeffs = tuple(out)
    # (SI): a_i >= 0 and sum_{t>=i} n(t+1,s) a_t < n(i,s), plus reconstruction
    if any(x < 0 for x in coeffs):
        raise InternalInvariantError("(SI) violated: negative coefficient")
    acc = 0  # sum_{t>=i} n(t+1,s) a_t, for i from s down to 1
    for i in range(cfrac.s, 0, -1):
        acc += tail[i] * coeffs[i - 1]
        if acc >= tail[i - 1]:
            raise InternalInvariantError("(SI) violated: tail bound")
    if acc != a:
        raise InternalInvariantError("(SI) coefficients do not reconstruct a")
    return coeffs


def chain_digits(cfrac: NegContinuedFraction, a: int) -> tuple[int, ...]:
    """Spin^c class a of the -p/q surgery, p/q = cfrac, as its chain digits
    a_1..a_s, which obey the strict inequalities (SI); an a outside [0, p)
    raises ValueError.  The class is its digits and holds nothing of a
    graph: its pairings with the b_j of the surgery graph follow from them
    by definition (`class_pairings`)."""
    if not 0 <= a < cfrac.p:
        raise ValueError(f"spin^c index a={a} outside [0, {cfrac.p})")
    return _si_coefficients(cfrac, a)


def class_pairings(gm: PlumbingGraph, digits) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(l_pairs, k_pairs), the integers (l', b_j) and (k_r, b_j) of the class
    with these chain digits (`chain_digits`) on its surgery graph gm, whose
    chain takes the last s indices (`surgery_graph`): the minimal dual-lattice
    representative l' pairs to 0 on the resolution vertices and to -a_j on
    the chain by definition, and k_r = K + 2 l' then pairs with b_j as
    -e_j - 2 + 2 (l', b_j)."""
    l_pairs = (0,) * (gm.n - len(digits)) + tuple(-c for c in digits)
    return l_pairs, tuple(2 * l - e - 2 for l, e in zip(l_pairs, gm.euler))


def _k_square(g: PlumbingGraph, kb) -> tuple[list[int], int]:
    """(det k_r, det k_r^2) for the vector k_r with (k_r, b_j) = kb[j]: det k_r
    is one tree solve, checked by pairing it back to det kb, and det k_r^2 is
    its dot product with kb.  A solve that does not pair back raises
    InternalInvariantError."""
    k_num = g.solve(kb)
    if g.apply_form(k_num) != [g.det * v for v in kb]:
        raise InternalInvariantError("k_r does not pair back to its (k_r, b_j)")
    return k_num, sum(map(mul, kb, k_num))


def lattice_grading_shift(gm: PlumbingGraph, k_pairs) -> Fraction:
    """-(k_r^2 + #vertices) / 4, evaluated in the lattice as one Fraction
    from det k_r^2 (`_k_square` of a class's k_pairs, `class_pairings`)."""
    _, k_square = _k_square(gm, k_pairs)
    return Fraction(-(k_square + gm.n * gm.det), 4 * gm.det)


# ---------------------------------------------------------------------------
# Laufer computation sequences
# ---------------------------------------------------------------------------


def _step_cap_error() -> ResourceLimitError:
    return ResourceLimitError(f"Laufer iteration exceeded its step cap of {_LAUFER_STEP_CAP} additions")


def _laufer_run(g: PlumbingGraph, offsets, i_max: int, roots, base) -> list[int]:
    """Laufer engine on the branches of g - v0 hanging from `roots`, some
    neighbours of v0: base[i] plus their share of chi(x(i)), i = 0..i_max.

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

    laufer_values runs every root on v0's own steps, base None for
    base[i] = i (1 - (l', b_{v0})) - e_{v0} i (i - 1) / 2; class_laufer_values
    chains a second run, the surgery chain's, on the resolution graph's
    values.  base is read once, in order, and may be an iterator or longer
    than i_max + 1.

    With J[i] the chi change of the additions at step i and X(t) = sum_r
    x_r(t), the run adds F[t] = J[t + 1] - X(t) from t to t + 1.  An
    addition at r at step p with chi change c (with what it forces below r)
    adds c to F[p - 1] and -1 to F[t], t >= p: diffs[p - 1] += c and
    diffs[p] -= c + 1 in the run's one list, the second differences of F.
    A string at v0 is answered by its response (`_string`), and every other
    branch walked at its interior vertices (`_branch_walk`).

    The step cap counts single additions, each step of v0 included, per
    run: i_max on entry, before anything is allocated, a string at v0
    sum_j y_j(i_max), and a walked branch all its additions so far every
    _WALK_CHUNK steps and at the end.  Passing it raises ResourceLimitError.
    """
    budget = _LAUFER_STEP_CAP - i_max
    if budget < 0:
        raise _step_cap_error()
    if base is None:  # second differences of v0's own steps, to which the run adds its share
        diffs = [-g.euler[g.distinguished]] * (i_max + 1)
        diffs[0] = 1 - offsets[g.distinguished]
    else:
        diffs = [0] * (i_max + 1)  # second differences of the run's share of chi
    for r in roots:
        string = _string(g, offsets, r, g.distinguished)
        if string is None:
            budget = _branch_walk(g, offsets, i_max, r, diffs, budget)
            continue
        n, c = string
        top = _string_cycle(n, c, i_max)
        budget -= sum(top)
        if budget < 0:
            raise _step_cap_error()
        n1, n2, c1 = n[0], n[1], c[0]  # x_r passes v at the first i with i n_2 + c_1 > v n_1
        for i in map(floordiv, range(n2 - c1, top[0] * n1 + n2 - c1, n1), repeat(n2)):
            diffs[i] -= 1
    if base is None:
        return [0, *islice(accumulate(accumulate(diffs)), i_max)]
    base = iter(base)
    return [next(base), *map(add, islice(base, i_max), accumulate(accumulate(diffs)))]


def _string(g: PlumbingGraph, offsets, r: int, u: int):
    """(n, c) for the branch at r away from its neighbour u when it is a
    string r = s_1, ..., s_L (s_L a leaf) with every e_j <= -2 and offset
    o_j <= 0 whose ceiling recursion gives 0 at m = 0: n = [n_1, ...,
    n_{L+1}], the determinants of the strings s_j..s_L of -e's (n_{L+1} =
    1), and c = [c_1, ..., c_L], c_j = sum_{t>=j} n_{t+1} o_t.  None for any
    other branch.

    The least solution of w_j <= 0 on the string when x_u = m follows the
    recursion y_j = ceil((y_{j-1} n_{j+1} + c_j) / n_j), y_0 = m, monotone
    in m; giving 0 at m = 0, it is the minimal cycle for m >= 0, and the
    string answers u by x_r = f(m) = ceil((m n_2 + c_1) / n_1).  No
    addition on it changes chi: an addition at u raises w_r to at most 1
    from w <= 0, and if s_1..s_{j-1} fired and w_j = 1, s_j fires once
    (|e_j| >= 2) to w_j <= -1, s_{j-1} rises only to <= 0, and only s_{j+1}
    can reach 1; so every vertex fires at most once, at w = 1.
    """
    euler, adj = g.euler, g.adj
    path, prev = [r], u
    while True:
        j = path[-1]
        if euler[j] > -2 or offsets[j] > 0:
            return None
        nbrs = adj[j]
        if len(nbrs) == 1:
            break
        if len(nbrs) > 2:
            return None
        prev, nxt = j, nbrs[nbrs[0] == prev]
        path.append(nxt)
    n, c = [0, 1], [0]  # built from the leaf, reversed below
    for j in reversed(path):
        c.append(c[-1] + n[-1] * offsets[j])
        n.append(-euler[j] * n[-1] - n[-2])
    n, c = n[:0:-1], c[:0:-1]
    return None if any(_string_cycle(n, c, 0)) else (n, c)


def _string_cycle(n, c, m: int) -> list[int]:
    """y_1, ..., y_L: the minimal cycle on the string of (n, c) (`_string`)
    when the vertex it hangs from has coefficient m."""
    y = []
    for t, ct in enumerate(c):
        m = -(-(m * n[t + 1] + ct) // n[t])
        y.append(m)
    return y


class _Interior:
    """A vertex u of a walked branch that is on no string (`_string`): a
    node, or a vertex on a path between nodes.

    The minimal cycle below u depends only on u's value t, so u answers its
    parent by R_u(s), its value at parent value s: with g_u(t) = o_u + e_u t
    + sum_strings f(t) + sum_kids R_c(t), R_u(s) is the least t with
    g_u(t) <= -s, and the addition from t to t + 1 lands at parent value
    q_t + 1, q_t = max(floor - 1, max_{t' <= t} -g_u(t')), floor 1 at the
    root (what positive offsets force lands at step 1) and 0 below it.  Made
    before the children move on to t + 1, it changes chi by -g_u(t) - q_t.

    u walks t = 0, 1, ... in blocks of at most _WALK_BLOCK, keeping q and a,
    the chi of its own additions below t.  Below the root it appends to
    `out` the pair R_u(s), C_u(s), C_u the chi of its subtree's additions up
    to s, for s = 0, 1, ...; a parent reads them from its own value lo on.
    A block asks the children for data only as far as u expects to need
    it: what a vertex walks past its parent's need makes its children walk
    past theirs, and along a path that grows with every vertex.
    """

    __slots__ = ("o", "e", "floor", "out", "strings", "kids", "t", "q", "a", "lo")

    def __init__(self, o: int, e: int, floor: int, out):
        self.o, self.e, self.floor, self.out = o, e, floor, out
        self.strings, self.kids = [], []
        self.t, self.q, self.a, self.lo = 0, floor - 1, 0, 0

    def _block(self, t: int, s_hi: int, extra: int, stack):
        """(-g_u, sum_kids C_c) at u's values t, t + 1, ... (the second one
        `extra` further); None, with a request pushed for a child that lags
        behind."""
        q, covered = self.q, self.q - self.floor + 1
        if covered > 0:  # as many values per parent value as so far
            size = -(-(s_hi - q) * t // covered)
        else:  # no value adds more than |e| to -g_u
            size = -(-(s_hi - q) // -self.e)
        end, lo = t + min(size, _WALK_BLOCK), self.lo
        for kid in self.kids:
            if len(kid.out) < 2 * (end + extra - lo):
                stack.append((kid, end + extra - 1))
                return None
        neg_g = range(-self.o - self.e * t, -self.o - self.e * end, -self.e)
        for n, c in self.strings:  # -f(t) = floor((-c_1 - t n_2) / n_1)
            neg_g = map(add, neg_g, map(floordiv, range(-c[0] - t * n[1], -c[0] - end * n[1], -n[1]), repeat(n[0])))
        i0, i1 = 2 * (t - lo), 2 * (end + extra - lo)
        for kid in self.kids:
            neg_g = map(sub, neg_g, kid.out[i0:i1:2])
        chis = [kid.out[i0 + 1:i1:2] for kid in self.kids] or [[0] * (end + extra - t)]
        return neg_g, (chis[0] if len(chis) == 1 else list(map(sum, zip(*chis))))

    def emit(self, s_hi: int, stack) -> bool:
        """Append the pairs up to parent value s_hi; False if a child must walk first."""
        q, t, a, out = self.q, self.t, self.a, self.out
        while q < s_hi:
            block = self._block(t, s_hi, 0, stack)
            if block is None:
                return False
            for ng, sc in zip(*block):
                if ng <= q:
                    a += ng - q
                else:  # parent values q + 1 .. ng see u at t
                    out += (t, a + sc) * (ng - q)
                    q = ng
                    if q >= s_hi:
                        t += 1
                        break
                t += 1
            self.q, self.t, self.a = q, t, a
        return True

    def run(self, diffs, s_hi: int, stack) -> bool:
        """The root: each addition at a step <= s_hi into diffs; False if a
        child must walk first."""
        q, t = self.q, self.t
        while True:
            block = self._block(t, s_hi, 1, stack)
            if block is None:
                return False
            neg_g, chis = block
            for ng, sc, sn in zip(neg_g, chis, chis[1:]):
                if ng > q:
                    if ng >= s_hi:  # the addition from t lands after s_hi
                        self.q, self.t = q, t
                        return True
                    q = ng
                c = ng - q + sn - sc
                diffs[q] += c
                diffs[q + 1] -= c + 1
                t += 1
            self.q, self.t = q, t


def _branch_walk(g: PlumbingGraph, offsets, i_max: int, r: int, diffs, budget: int) -> int:
    """The walk of `_laufer_run` on the branch at r (`_Interior`), into diffs;
    returns the budget left.  Requests for more go through one stack, so
    no path is too long for it.

    `_string` runs only at the vertices whose side away from the parent is
    a path of e <= -2 and offsets <= 0 ending in a leaf, marked in one pass
    from the leaves up: on a path above a node it would walk down to the
    node from every vertex."""
    if not i_max:
        return budget
    euler, adj = g.euler, g.adj
    order = [(r, g.distinguished)]
    for u, up in order:  # parents first
        order += [(c, u) for c in adj[u] if c != up]
    path = {}
    for u, up in reversed(order):
        below = [path[c] for c in adj[u] if c != up]
        path[u] = euler[u] <= -2 and offsets[u] <= 0 and len(below) < 2 and all(below)
    root = _Interior(offsets[r], euler[r], 1, None)
    todo = [(root, r, g.distinguished)]
    for node, u, up in todo:  # parents first
        for c in adj[u]:
            if c != up:
                string = _string(g, offsets, c, u) if path[c] else None
                if string is None:
                    node.kids.append(_Interior(offsets[c], euler[c], 0, []))
                    todo.append((node.kids[-1], c, u))
                else:
                    node.strings.append(string)
    s_hi = 0
    while s_hi < i_max:
        s_hi = min(s_hi + _WALK_CHUNK, i_max)
        stack = [(root, s_hi)]
        while stack:
            node, s = stack[-1]
            if node.run(diffs, s, stack) if node is root else node.emit(s, stack):
                stack.pop()
        if s_hi <= _WALK_CHUNK:  # the children's additions at root value 0 land at step 1
            x0 = sum(kid.out[1] for kid in root.kids)
            diffs[0] += x0
            diffs[1] -= x0
        count, todo = 0, [(root, root.t)]
        for node, t in todo:  # each value at step s_hi, parents first
            count += t + sum(sum(_string_cycle(n, c, t)) for n, c in node.strings)
            cut, node.lo = 2 * (t - node.lo), t
            for kid in node.kids:
                todo.append((kid, kid.out[cut]))
                del kid.out[:cut]  # pairs below the parent's value are never read again
        if count > budget:
            raise _step_cap_error()
    return budget - count


def laufer_values(g: PlumbingGraph, offsets, i_max: int) -> list[int]:
    """chi(x(i)), i = 0..i_max, of the generalized Laufer sequence on the
    whole graph: x(i) is minimal with pr_{v0} = i and (x(i) + l', b_j) <= 0
    for j != v0, where offsets[j] = (l', b_j).  On a resolution graph with
    zero offsets x(i) is the minimal cycle y(i)."""
    v0 = g.distinguished
    if v0 is None:
        raise ValueError("graph has no distinguished vertex")
    return _laufer_run(g, offsets, i_max, g.adj[v0], None)


def class_laufer_values(gm: PlumbingGraph, l_pairs, resolution_values, i_max: int) -> list[int]:
    """chi_{k_r}(x(i)), i = 0..i_max, of a class's Laufer sequence on the
    surgery graph, from its l_pairs (`class_pairings`) and resolution_values
    = laufer_values(gf, zeros, >= i_max) of the knot's resolution graph gf:
    only the surgery chain runs.

    The chain takes the last indices, from nf = gf.n on, and nf is v0's
    highest neighbour (`surgery_graph`).  Removing v0 from gm leaves gf's
    branches and the chain; a class pairs to 0 on gf's vertices, so x(i)
    there is gf's minimal cycle in every class (the split in _laufer_run).
    l_pairs that do not vanish below nf raise InternalInvariantError.
    """
    nf = max(gm.adj[gm.distinguished])
    if any(l_pairs[:nf]):
        raise InternalInvariantError("the class's Laufer run cannot share the resolution side: "
                                     "its pairings must vanish below the chain")
    if len(resolution_values) <= i_max:
        raise InternalInvariantError(f"the resolution-side Laufer run stops before step {i_max}")
    return _laufer_run(gm, l_pairs, i_max, (nf,), resolution_values)


def condense_tau(values, mf: int) -> tuple[int, ...]:
    """Collapse a full Laufer tau, the values tau(0..T), over blocks of
    length mf to the short form tau(0), max(block 0), tau(mf), max(block 1),
    ..., tau(T).

    The block maxima sit strictly above both block ends, so the graded root
    is unchanged; the result is directly comparable with the closed-form tau.
    """
    if (len(values) - 1) % mf != 0:
        raise ValueError("tau length is not a whole number of mf-blocks")
    out = [values[0]]
    for t in range(mf, len(values), mf):
        out += (max(values[t - mf:t + 1]), values[t])
    return tuple(out)


# ---------------------------------------------------------------------------
# sublevel roots
# ---------------------------------------------------------------------------


def _completed_square(g: PlumbingGraph, kb, n_max: int) -> tuple[list[int], int]:
    """(k, R) with chi_{k_r}(x) <= n_max exactly when -(z, z) <= R for the
    integer vector z = 2 det x + k: k = det k_r are k_r's numerators over
    det, and R = 8 det^2 n_max - det * (det k_r^2) is
    4 det^2 (2 n_max - (k_r, k_r)/4), both from `_k_square`."""
    k_num, k_square = _k_square(g, kb)
    return k_num, 8 * g.det * g.det * n_max - g.det * k_square


def exact_sublevel_box(g: PlumbingGraph, kb, n_max: int) -> tuple[tuple[int, int], ...]:
    """The smallest coordinate box certain to contain {x : chi_{k_r}(x) <= n_max},
    from the integers kb = ((k_r, b_j))_j (a class's k_pairs, `class_pairings`).

    Completing the square, -(z, z) <= R (`_completed_square`) is a positive
    definite ellipsoid condition, so coordinate j is bounded by
    z_j^2 <= R |(det B^{-1})_{jj}| / |det|, read off the graph's
    `inverse_diagonal` and taken with an exact integer square root.  The
    box holds the whole sublevel set, so the closure check of
    `sublevel_root` fires on it only on a fault.
    """
    k_num, radius = _completed_square(g, kb, n_max)
    if radius < 0:
        return ((0, -1),) * g.n  # empty ranges: the sublevel set is empty
    det, sign = abs(g.det), (1 if g.det > 0 else -1)
    box = []
    for j, inv in enumerate(g.inverse_diagonal):  # |2 |det| x_j + sign k_j| <= t
        t = isqrt(radius * abs(inv) // det)
        kj = sign * k_num[j]
        box.append((-((t + kj) // (2 * det)), (t - kj) // (2 * det)))
    return tuple(box)


def _ellipsoid_points(g: PlumbingGraph, kb, n_max: int, box) -> list[tuple[int, ...]]:
    """The lattice points x of `box` with chi_{k_r}(x) <= n_max, sorted
    (Fincke-Pohst enumeration on the tree's own elimination).

    The pivots of `PlumbingGraph` split -(z, z) (`_completed_square`) into
    sum_v w_v^2 / |D_v P_v| with the integers
    w_v = D_v z_v + P_v z_parent = 2 det (D_v x_v + P_v x_parent) + D_v k_v + P_v k_parent
    (no parent terms at vertex 0).  Visited parents first, coordinate v,
    given its parent's, ranges over one exact interval found with isqrt; the
    slack is carried as the integer L (R - sum of the terms so far),
    L = lcm_v |D_v P_v|.  The work grows with the points of the ellipsoid,
    not the box volume; more than _SUBLEVEL_POINT_CAP = 10^6 points raise
    ResourceLimitError.
    """
    k_num, radius = _completed_square(g, kb, n_max)
    if radius < 0:
        return []
    det, dets, prods = g.det, g._dets, g._prods
    weights = [abs(d * p) for d, p in zip(dets, prods)]
    scale = 1  # lcm of the weights
    for wt in weights:
        scale *= wt // gcd(scale, wt)
    steps = []
    for v in g._order:  # w_v = sign (a x_v + b x_parent + c) with a > 0; no parent at vertex 0
        d, p, par = dets[v], prods[v], g._parent[v]
        sign = 1 if det * d > 0 else -1
        b, k_par = (2 * det * p, k_num[par]) if v else (0, 0)
        steps.append((v, par, sign * 2 * det * d, sign * b, sign * (d * k_num[v] + p * k_par), scale // weights[v]))
    pts: list[tuple[int, ...]] = []
    x = [0] * g.n

    def descend(t: int, slack: int) -> None:
        if t == g.n:
            if len(pts) == _SUBLEVEL_POINT_CAP:
                raise ResourceLimitError(f"sublevel set exceeds the enumeration cap of {_SUBLEVEL_POINT_CAP} points")
            pts.append(tuple(x))
            return
        v, par, a, b, c, m = steps[t]
        c += b * x[par]  # b = 0 at vertex 0, whose parent index is -1
        w_max = isqrt(slack // m)
        for xv in range(max(box[v][0], -((w_max + c) // a)), min(box[v][1], (w_max - c) // a) + 1):
            x[v] = xv
            w = a * xv + c
            descend(t + 1, slack - m * w * w)

    descend(0, scale * radius)
    pts.sort()
    return pts


def sublevel_root(g: PlumbingGraph, kb, n_max: int, box) -> GradedRoot:
    """Graded root of the sublevel sets {x : chi_{k_r}(x) <= n}, n <= n_max,
    restricted to an explicit coordinate box of int bounds (any other bound
    raises TypeError); kb = ((k_r, b_j))_j are a class's k_pairs
    (`class_pairings`).

    Vertices at level n are the connected components of the sublevel set,
    where x and x + b_j are adjacent whenever both lie in the set; edges
    follow component inclusion from level n to n + 1.  The points are found
    by exact enumeration of the ellipsoid chi <= n_max (`_ellipsoid_points`),
    which the box only clips; the enumeration caps the points it produces at
    10^6 and raises ResourceLimitError beyond that.  Each point gets one
    apply_form, whose (x, b_j) give its chi and its neighbours' chi, and one
    integer code over the box, so a neighbour is its code plus or minus a
    stride (a step out of the box is never looked up, so it cannot wrap into
    the next row).  The level sweep checks closure as it looks up the 2n
    neighbours of each point: a neighbour with chi <= n_max that was not
    enumerated (a box that cuts the set, or a point the enumeration skipped)
    raises InternalInvariantError.
    """
    n, euler = g.n, g.euler
    box = tuple((lo, hi) for lo, hi in box)
    if len(box) != n:
        raise ValueError("box must give one (lo, hi) range per vertex")
    for v in (v for bounds in box for v in bounds):
        if type(v) is not int:
            raise TypeError(f"box bound {v!r} must be an int, not {type(v).__name__}")
    if any((kb[j] + euler[j]) % 2 for j in range(n)):
        raise ValueError("k_r is not characteristic")

    pts = _ellipsoid_points(g, kb, n_max, box)
    if not pts:
        raise ValueError(f"empty sublevel set: no lattice point in the box has chi <= {n_max}")
    strides, size = [], 1  # x in the box has the code sum_j (x_j - lo_j) strides[j]
    for lo, hi in box:
        strides.append(size)
        size *= hi - lo + 1
    origin = sum(lo * stride for (lo, _), stride in zip(box, strides))
    pairs = [g.apply_form(x) for x in pts]  # ((x, b_j))_j, for chi and the closure check
    levels = []
    for x, bx in zip(pts, pairs):
        level, r = divmod(-(sum(map(mul, kb, x)) + sum(map(mul, x, bx))), 2)
        if r:
            raise InternalInvariantError("chi is not an integer on the lattice")
        levels.append(level)
    if max(levels) > n_max:
        raise InternalInvariantError("an enumerated point lies outside the sublevel set")

    codes = [sum(map(mul, x, strides)) - origin for x in pts]
    index = {code: i for i, code in enumerate(codes)}
    order = sorted(range(len(pts)), key=levels.__getitem__)
    parent_dsu = list(range(len(pts)))

    def find(i):
        while parent_dsu[i] != i:
            parent_dsu[i] = parent_dsu[parent_dsu[i]]
            i = parent_dsu[i]
        return i

    chi_out: list[int] = []
    parent_out: list[int | None] = []
    prev: dict[int, int] = {}  # dsu root -> vertex id at the previous level
    active: list[int] = []
    pos = 0
    lo_level = levels[order[0]]
    for level in range(lo_level, n_max + 1):
        while pos < len(order) and levels[order[pos]] == level:
            i = order[pos]
            pos += 1
            active.append(i)
            x, bx, code = pts[i], pairs[i], codes[i]
            for j, (lo, hi) in enumerate(box):
                for d, inside in ((1, x[j] < hi), (-1, x[j] > lo)):
                    # a step out of the box must not wrap into the next row's codes
                    k = index.get(code + d * strides[j]) if inside else None
                    if k is None:  # closure: chi(y) = chi(x) - (d (k_j + 2 (x, b_j)) + e_j) / 2
                        if level - (d * (kb[j] + 2 * bx[j]) + euler[j]) // 2 <= n_max:
                            raise InternalInvariantError("the sublevel set leaves the enumeration")
                    elif levels[k] <= level:
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
    return GradedRoot(chi_out, parent_out)
