"""Abstract graded roots and their Z[U]-modules.

A graded root is an infinite tree R with an integer grading chi on the
vertices such that chi changes by exactly 1 along every edge, every vertex
with two neighbours lies above one of them, chi is bounded below with finite
levels, and all sufficiently high levels contain a single vertex.  We store
only the finite part up to the first level from which the tree is a single
upward stem; `top` marks the base of that implicit stem.

A finite integer sequence tau, a plain tuple of ints with tau(i) = tau[i]
(an empty one raises ValueError), produces a graded root: vertex classes at
level k are the maximal index intervals on which tau <= k (the merge tree of
tau), so local minima of tau become the leaves.  The associated graded
Z[U]-module is the 0-dimensional sublevel persistence of tau under the elder
rule (Edelsbrunner-Harer, Computational Topology, ch. VII): switch the
indices on in (value, index) order; when two runs of switched-on indices
meet at level k, the one whose oldest minimum is younger dies there and
contributes the finite tower T_{2 b}(k - b), b its birth level, and the run
that survives to the end carries the infinite tower T+ at twice its birth.

The module's grades are the even integers 2 b and 2 min tau, and
`module_from_tau` returns just those ints as (tower, towers).  The homology
of -M in sigma_a is that module with every grade raised by r_a, so each of
its grades reads as r_a + g, g even (Ozsvath-Szabo, Absolutely graded Floer
homologies, Adv. Math. 173, 2003); no module holds r_a.  With r_a = N/D in
lowest terms, gcd(N + g D, D) = gcd(N, D) = 1, so (N + g D)/D is r_a + g
already reduced: writing a grade needs neither a gcd nor a Fraction
(`grade_text`, and the JSON writer `cli._group_blocks`).

`module_from_tau` needs only the order in which runs meet, which one
left-to-right pass with a stack finds, in O(n) for n = len(tau) plus the
sort of its towers.  `root_from_tau` sweeps tau in (value, index) order,
keeping only the two ends of every run; it costs O(n log n + |V|) for a root
with |V| vertices, and is needed only to draw a root or to compare it with
another one.  Two roots are compared by their `level_keys`, a dict of flat
keys, one tuple of ranked child labels per level (AHU), so a root thousands
of levels tall compares without deep recursion.  `render` draws a root as
SVG, laid out in ints with no Fraction: a position is a pair (num, den) in
lowest terms, a leaf takes (slot, 1), a vertex with one child shares its
child's pair, and a vertex with two or more children takes the mean of its
children's, reduced by one gcd; every coordinate is unit * num // den.
`reduced_rank` reads the downward jumps of tau off sum |tau(i) - tau(i+1)|
and tau(0) - tau(-1).
"""

from __future__ import annotations

from itertools import groupby
from math import gcd
from operator import sub


class GradedRoot:
    """Finite part of a graded root: a tree with integer levels.

    Vertices are 0..n-1 with grading chi[v]; parent[v] is the unique
    neighbour one level up (None exactly for `top`).  Above chi[top] the
    root continues with one implicit vertex per level.
    """

    def __init__(self, chi: list[int], parent: list[int | None]):
        self.chi = tuple(chi)
        self.parent = tuple(parent)
        n = len(self.chi)
        if len(self.parent) != n or n == 0:
            raise ValueError("chi and parent must be nonempty and equally long")
        tops = [v for v, p in enumerate(self.parent) if p is None]
        if len(tops) != 1:
            raise ValueError(f"expected a unique top vertex, found {len(tops)}")
        self.top = tops[0]
        chi = self.chi
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                if chi[p] != chi[v] + 1:
                    raise ValueError("edge levels must differ by exactly 1")
                children[p].append(v)
        self.children = tuple(map(tuple, children))
        top_level = chi[self.top]
        if max(chi) > top_level:
            raise ValueError("top vertex must carry the maximal level")
        if chi.count(top_level) != 1:
            raise ValueError("the top level must contain a single vertex")
        # connectivity: every vertex reaches top through parents (acyclic by levels)

    def __len__(self):
        return len(self.chi)

    @property
    def leaves(self) -> tuple[int, ...]:
        """Local minimum vertices, i.e. vertices with no child."""
        return tuple(v for v in range(len(self.chi)) if not self.children[v])

    def min_level(self) -> int:
        return min(self.chi)

    def level_keys(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The sorted labels of each level, by level (AHU): a vertex's label
        is the sorted tuple of its children's ranks, and a rank numbers the
        distinct labels of one level in sorted order.  Below the lowest level
        where two roots' keys differ, their ranks name the same subtrees, so
        equal keys at every level <=> grading-preserving isomorphism.  The
        keys are flat tuples of ints however tall the root."""
        by_level: dict[int, list[int]] = {}
        for v, k in enumerate(self.chi):
            by_level.setdefault(k, []).append(v)
        rank = [0] * len(self.chi)
        keys = {}
        for k in sorted(by_level):  # children before parents
            level = by_level[k]
            labels = [tuple(sorted([rank[c] for c in self.children[v]])) for v in level]
            ranks = {label: i for i, label in enumerate(sorted(set(labels)))}
            for v, label in zip(level, labels):
                rank[v] = ranks[label]
            keys[k] = tuple(sorted(labels))
        return keys


def root_from_tau(tau: tuple[int, ...]) -> GradedRoot:
    """Merge tree of tau: level-k vertices are runs of {i : tau(i) <= k}.

    Vertices are numbered by ascending level, left to right within a level.
    """
    if not tau:
        raise ValueError("tau needs at least one value")
    n = len(tau)
    order = sorted(range(n), key=tau.__getitem__)
    # Switching index i on joins the runs ending at i - 1 and starting at
    # i + 1: `end` holds, at each end of a run, the index of its other end,
    # and -1 at indices still off and at the pad end[n], which end[-1] also
    # reads; values left inside a run are never read again.
    end = [-1] * (n + 1)
    chi: list[int] = []
    parent: list[int | None] = []
    lefts: list[int] = []  # left ends of the runs at level k - 1, in index order
    pos = 0
    for k in range(tau[order[0]], tau[order[-1]] + 1):
        start = pos
        while pos < n and tau[order[pos]] == k:
            i = order[pos]
            l, r = end[i - 1], end[i + 1]
            if l < 0:
                l = i
            if r < 0:
                r = i
            end[l], end[r] = r, l
            pos += 1
        # Every level-k run starts at an old left end or at an index switched
        # on at k, so walking both in index order meets each run at its start.
        # The runs at level k - 1 are the last len(lefts) vertices, in order.
        below = len(chi) - len(lefts)
        starts = sorted(lefts + order[start:pos])  # two sorted runs: merged in linear time
        lefts.append(n)  # past every index: j never runs off the end
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


def grade_text(num: int, den: int, g: int) -> str:
    """The grade N/D + g, for N/D in lowest terms (D > 0) and an integer g,
    as str(Fraction) prints it: (N + g D)/D, or a bare integer when D = 1."""
    return str(num + g * den) if den == 1 else f"{num + g * den}/{den}"


def grouped(towers) -> list[tuple[int, int, int]]:
    """(g, length, multiplicity) of each distinct pair of the sorted `towers`."""
    return [(g, n, len([*same])) for (g, n), same in groupby(towers)]


def module_text(num: int, den: int, tower: int, groups) -> str:
    """The module with infinite tower at grade offset `tower` and the finite
    towers `groups` (g, length, multiplicity) of `grouped`, shifted by N/D,
    as "T+[d] + m*T[g](n) + ...", each grade written by `grade_text`."""
    parts = [f"T+[{grade_text(num, den, tower)}]"]
    for g, n, mult in groups:
        text = grade_text(num, den, g)
        parts.append(f"{mult}*T[{text}]({n})" if mult > 1 else f"T[{text}]({n})")
    return " + ".join(parts)


def module_from_tau(tau: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Z[U]-module of the graded root of tau, by the elder rule, in one
    left-to-right pass with a stack: the int pair (tower, towers), the grade
    of T+ and the sorted (grade, length) pairs of the finite towers T(n).

    Index i of value k switches on at level k, joining its left run (values
    <= k) to its right run up to the first value >= k (values < k).  The
    stack holds the indices whose right run is still open, each with the
    elder (lowest value) of its left run and itself; the index that closes
    i's right run pops i.  Of the two elders then meeting, the younger, b,
    dies and adds the finite tower T_{2b}(k - b) when b < k.  A sentinel
    max tau + 1 pops every index; the last elder standing gives the
    infinite tower at twice its level.
    """
    if not tau:
        raise ValueError("tau needs at least one value")
    stack: list[tuple[int, int]] = []  # (value, elder of its left run and itself)
    towers = []
    for k in (*tau, max(tau) + 1):
        low = k  # the elder of the runs k has closed so far
        while stack and stack[-1][0] <= k:
            v, e = stack.pop()
            if e > low:
                e, low = low, e
            if low < v:  # low is now the younger elder
                towers.append((2 * low, v - low))
            low = e
        stack.append((k, low))
    return 2 * low, tuple(sorted(towers))


def reduced_rank(tau: tuple[int, ...]) -> int:
    """Total rank of the finite towers, straight from the tau values.

    Valid under the normalisation tau(1) > tau(0) = 0:
    rank = min tau + sum of the downward jumps of tau.  The jumps down and
    up add to sum |tau(i) - tau(i+1)| and differ by tau(0) - tau(-1), so
    the drops are half of their sum.
    """
    if len(tau) < 2 or tau[0] != 0 or tau[1] <= tau[0]:
        raise ValueError("reduced_rank requires tau(1) > tau(0) = 0")
    return min(tau) + (sum(map(abs, map(sub, tau, tau[1:]))) + tau[0] - tau[-1]) // 2


# ---------------------------------------------------------------------------
# drawing a root
# ---------------------------------------------------------------------------


def _layout(root: GradedRoot, unit: int) -> list[int]:
    """x-coordinates by vertex, floor(unit * x) for the position x: leaves at
    x = 0, 1, 2, ... in planar order, parents centred over their children.

    A position is a pair (num, den) of ints in lowest terms, den > 0.  A leaf
    takes (slot, 1) and a vertex with one child shares its child's pair; a
    vertex with k >= 2 children adds theirs up as num/den and takes num/(den k)
    reduced by one gcd.  So every floor is unit * num // den, as a Fraction
    position would give, without a Fraction.
    """
    children = root.children
    pos: list = [None] * len(children)
    order = []  # the inner vertices in pre-order: reversed, children come first
    next_slot = 0
    stack = [root.top]
    while stack:
        v = stack.pop()
        kids = children[v]
        if kids:
            order.append(v)
            stack += reversed(kids)
        else:
            pos[v] = (next_slot, 1)
            next_slot += 1
    for v in reversed(order):
        kids = children[v]
        if len(kids) == 1:
            pos[v] = pos[kids[0]]
            continue
        total, d = 0, 1  # the sum of the k children's positions, total/d
        for c in kids:
            num, den = pos[c]
            if den == d:
                total += num
            else:
                g = gcd(d, den)
                total, d = total * (den // g) + num * (d // g), d // g * den
        d *= len(kids)
        g = gcd(total, d)
        pos[v] = (total // g, d // g)
    return [unit * num // den for num, den in pos]


def render(root: GradedRoot) -> str:
    """The root as SVG text, deterministic byte for byte: each x is written
    once per vertex and each y once per level, and the edges and circles
    paste those texts."""
    unit, level_h = 48, 24
    margin_x, margin_y = 60, 30
    stem = 30
    lo, hi = root.min_level(), root.chi[root.top]
    x = [margin_x + c for c in _layout(root, unit)]
    xs = [*map(int.__repr__, x)]
    level_y = [margin_y + stem + level_h * i for i in range(hi - lo + 1)]  # level hi - i
    level_ys = [*map(int.__repr__, level_y)]
    ys = [level_ys[hi - k] for k in root.chi]
    width = max(x) + margin_x
    height = level_y[-1] + margin_y
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    x1, x2 = str(margin_x // 2), str(width - 10)
    for k, gy, gys in zip(range(hi, lo - 1, -1), level_y, level_ys):
        out.append(f'<line x1="{x1}" y1="{gys}" x2="{x2}" y2="{gys}" '
                   'stroke="#999" stroke-width="1" stroke-dasharray="3,4"/>')
        if k % 5 == 0:
            out.append(f'<text x="4" y="{gy + 4}" font-size="11" fill="#333">{k}</text>')
    tx, ty = x[root.top], level_y[0]
    out.append(f'<line x1="{tx}" y1="{ty}" x2="{tx}" y2="{ty - stem}" stroke="#000" stroke-width="1.5"/>')
    out += [f'<line x1="{xs[v]}" y1="{ys[v]}" x2="{xs[p]}" y2="{ys[p]}" stroke="#000" stroke-width="1.5"/>'
            for v, p in enumerate(root.parent) if p is not None]
    out += [f'<circle cx="{cx}" cy="{cy}" r="3" fill="#000"/>' for cx, cy in zip(xs, ys)]
    out.append("</svg>")
    return "\n".join(out) + "\n"
