"""Slow reference implementations kept to test the fast paths against.

These are the original graded-root algorithms: the merge tree of tau by
rescanning tau at every level, and the Z[U]-module by a parent-pointer walk
for every pair of leaves.  `hfroots.root` replaces both by one sweep over
tau in (value, index) order; the tests require identical results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from hfroots.errors import InternalInvariantError
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
