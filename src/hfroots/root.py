"""Abstract graded roots and their Z[U]-modules.

A graded root is an infinite tree R with an integer grading chi on the
vertices such that chi changes by exactly 1 along every edge, every vertex
with two neighbours lies above one of them, chi is bounded below with finite
levels, and all sufficiently high levels contain a single vertex.  We store
only the finite part up to the first level from which the tree is a single
upward stem; `top` marks the base of that implicit stem.

A finite integer sequence tau produces a graded root: vertex classes at
level k are the maximal index intervals on which tau <= k (the merge tree of
tau), so local minima of tau become the leaves.  The associated graded
Z[U]-module is the 0-dimensional sublevel persistence of tau under the elder
rule (Edelsbrunner-Harer, Computational Topology, ch. VII): switch the
indices on in (value, index) order; when two runs of switched-on indices
meet at level k, the one whose oldest minimum is younger dies there and
contributes the finite tower T_{2 b}(k - b), b its birth level, and the run
that survives to the end carries the infinite tower T+ at twice its birth.

Both constructions are one sweep over that order, keeping only the two ends
of every run.  `module_from_tau` costs O(n log n) for n = len(tau);
`root_from_tau` costs O(n log n + |V|) for a root with |V| vertices, and is
needed only to draw a root or to compare it with another one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Optional


@dataclass(frozen=True)
class TauFunction:
    """An integer sequence tau(0..T) defining a graded root."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("tau needs at least one value")

    def __len__(self):
        return len(self.values)

    def min(self) -> int:
        return min(self.values)

    def max(self) -> int:
        return max(self.values)


class GradedRoot:
    """Finite part of a graded root: a tree with integer levels.

    Vertices are 0..n-1 with grading chi[v]; parent[v] is the unique
    neighbour one level up (None exactly for `top`).  Above chi[top] the
    root continues with one implicit vertex per level.
    """

    def __init__(self, chi: list[int], parent: list[Optional[int]]):
        self.chi = tuple(chi)
        self.parent = tuple(parent)
        n = len(self.chi)
        if len(self.parent) != n or n == 0:
            raise ValueError("chi and parent must be nonempty and equally long")
        tops = [v for v in range(n) if self.parent[v] is None]
        if len(tops) != 1:
            raise ValueError(f"expected a unique top vertex, found {len(tops)}")
        self.top = tops[0]
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            p = self.parent[v]
            if p is not None:
                if self.chi[p] != self.chi[v] + 1:
                    raise ValueError("edge levels must differ by exactly 1")
                children[p].append(v)
        self.children = tuple(tuple(c) for c in children)
        top_level = self.chi[self.top]
        if any(self.chi[v] > top_level for v in range(n)):
            raise ValueError("top vertex must carry the maximal level")
        if sum(1 for v in range(n) if self.chi[v] == top_level) != 1:
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

    def canonical_key(self):
        """Canonical encoding; equal keys <=> grading-preserving isomorphism.

        Children subtrees are sorted recursively, so the key is independent
        of vertex numbering.  Computed iteratively (trees can be deep).
        """
        n = len(self.chi)
        key: list = [None] * n
        order = sorted(range(n), key=lambda v: self.chi[v])  # children before parents
        for v in order:
            key[v] = tuple(sorted(key[c] for c in self.children[v]))
        return (self.chi[self.top], key[self.top])


def _switch_on(end: list[int], i: int) -> tuple[int, int]:
    """Switch index i on and return the run [l, r] of on-indices it joins.

    `end` holds, at each end of a run, the index of its other end, and -1 at
    indices still off; values left inside a run are never read again.
    """
    l = end[i - 1] if i > 0 and end[i - 1] >= 0 else i
    r = end[i + 1] if i + 1 < len(end) and end[i + 1] >= 0 else i
    end[l], end[r] = r, l
    return l, r


def root_from_tau(tau: TauFunction) -> GradedRoot:
    """Merge tree of tau: level-k vertices are runs of {i : tau(i) <= k}.

    Vertices are numbered by ascending level, left to right within a level.
    """
    vals = tau.values
    order = sorted(range(len(vals)), key=vals.__getitem__)
    end = [-1] * len(vals)
    chi: list[int] = []
    parent: list[Optional[int]] = []
    below: list[tuple[int, int]] = []  # (left end, vertex) of the runs at level k - 1
    pos = 0
    for k in range(vals[order[0]], vals[order[-1]] + 1):
        start = pos
        while pos < len(order) and vals[order[pos]] == k:
            _switch_on(end, order[pos])
            pos += 1
        # Every level-k run starts at an old left end or at an index switched
        # on at k, so walking both in index order meets each run at its start.
        level = []
        right = -1
        born = [(i, None) for i in order[start:pos]]
        for i, v in sorted(below + born):  # two sorted runs: merged in linear time
            if i > right:
                right = end[i]
                chi.append(k)
                parent.append(None)
                level.append((i, len(chi) - 1))
            if v is not None:
                parent[v] = len(chi) - 1
        below = level
    return GradedRoot(chi, parent)


@dataclass(frozen=True)
class UModuleDecomposition:
    """T+_{d}  plus a multiset of finite towers T_{r}(n), all in even degrees.

    finite_towers is kept sorted, so equality is multiset equality.
    Gradings are exact rationals.
    """

    tower_grade: Fraction
    finite_towers: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_parts(tower_grade, towers) -> "UModuleDecomposition":
        canon = tuple(sorted((Fraction(g), int(n)) for g, n in towers))
        return UModuleDecomposition(Fraction(tower_grade), canon)

    def shifted(self, r) -> "UModuleDecomposition":
        r = Fraction(r)
        return UModuleDecomposition(
            self.tower_grade + r,
            tuple((g + r, n) for g, n in self.finite_towers),
        )

    @property
    def reduced_rank(self) -> int:
        return sum(n for _, n in self.finite_towers)

    def grouped(self) -> Iterator[tuple[Fraction, int, int]]:
        """(grade, length, multiplicity) of each distinct finite tower, in order."""
        for (g, n), same in groupby(self.finite_towers):
            yield g, n, sum(1 for _ in same)

    def __str__(self):
        parts = [f"T+[{self.tower_grade}]"]
        for g, n, mult in self.grouped():
            parts.append(f"{mult}*T[{g}]({n})" if mult > 1 else f"T[{g}]({n})")
        return " + ".join(parts)


def module_from_tau(tau: TauFunction) -> UModuleDecomposition:
    """Z[U]-module of the graded root of tau, by the elder rule.

    Indices are switched on in (value, index) order.  Each run of on-indices
    remembers its elder, the (value, index) of its oldest minimum; when two
    runs meet at level k the younger elder dies, adding the finite tower
    T_{2b}(k - b) for its birth level b < k.  The last elder standing gives
    the infinite tower at twice its birth level.
    """
    vals = tau.values
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
    return UModuleDecomposition.from_parts(2 * elder[0][0], towers)


def reduced_rank(tau: TauFunction) -> int:
    """Total rank of the finite towers, straight from the tau values.

    Valid under the normalisation tau(1) > tau(0) = 0:
    rank = min tau + sum of the downward jumps of tau.
    """
    vals = tau.values
    if len(vals) < 2 or vals[0] != 0 or vals[1] <= vals[0]:
        raise ValueError("reduced_rank requires tau(1) > tau(0) = 0")
    drops = sum(max(vals[i] - vals[i + 1], 0) for i in range(len(vals) - 1))
    return min(vals) + drops


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _layout(root: GradedRoot) -> dict[int, Fraction]:
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


def render_ascii(root: GradedRoot) -> str:
    pos = _layout(root)
    col = {v: int(4 * pos[v]) for v in pos}
    width = max(col.values()) + 1
    lo, hi = root.min_level(), root.chi[root.top]
    label_w = max(len(str(lo)), len(str(hi))) + 1
    by_level: dict[int, list[int]] = {}
    for v in range(len(root.chi)):
        by_level.setdefault(root.chi[v], []).append(v)
    lines = [" " * label_w + " : " + " " * col[root.top] + ":"]
    for k in range(hi, lo - 1, -1):
        row = [" "] * width
        for v in by_level.get(k, []):
            row[col[v]] = "*"
        lines.append(f"{k:>{label_w}} | " + "".join(row).rstrip())
        if k > lo:
            conn = [" "] * width
            for v in range(len(root.chi)):
                p = root.parent[v]
                if p is None or root.chi[v] != k - 1:
                    continue
                cv, cp = col[v], col[p]
                if cv == cp:
                    conn[cv] = "|"
                elif cv < cp:
                    conn[(cv + cp + 1) // 2] = "/"
                else:
                    conn[(cv + cp) // 2] = "\\"
            lines.append(" " * label_w + " | " + "".join(conn).rstrip())
    return "\n".join(lines) + "\n"


def render_svg(root: GradedRoot) -> str:
    pos = _layout(root)
    unit, level_h = 48, 24
    margin_x, margin_y = 60, 30
    stem = 30
    lo, hi = root.min_level(), root.chi[root.top]
    x = {v: margin_x + int(unit * pos[v]) for v in pos}
    y = {v: margin_y + stem + level_h * (hi - root.chi[v]) for v in pos}
    width = max(x.values()) + margin_x
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
    for v in range(len(root.chi)):
        p = root.parent[v]
        if p is not None:
            out.append(
                f'<line x1="{x[v]}" y1="{y[v]}" x2="{x[p]}" y2="{y[p]}" '
                f'stroke="#000" stroke-width="1.5"/>'
            )
    for v in range(len(root.chi)):
        out.append(f'<circle cx="{x[v]}" cy="{y[v]}" r="3" fill="#000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(root: GradedRoot, format: str) -> str:
    """Deterministic text rendering of a graded root ('ascii' or 'svg')."""
    if format == "ascii":
        return render_ascii(root)
    if format == "svg":
        return render_svg(root)
    raise ValueError(f"unknown render format: {format!r}")
