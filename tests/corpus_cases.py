"""Shared test corpora.

KNOT_CORPUS: every valid Newton-pair sequence with at most two pairs and all
parameters <= 7 (319 knots); used where only arithmetic per knot is needed.

ORACLE_CASES: curated (pairs, p, q) list for the lattice-oracle comparisons,
on torus knots and knots of two and three Newton pairs; all graphs stay well
under 40 vertices and the Laufer runs stay short enough that the whole sweep
finishes in seconds.  (`bench/workloads.py` keeps its own copy of the
two-pair corpus, so that the benchmark's inputs do not move with the tests.)

SUBLEVEL_CASES: the subset whose sublevel sets are enumerated (graphs of at
most 6 vertices, sublevel sets of at most 1,888 points, far under the cap
of 10^6 enumerated points).  SUBLEVEL_REFERENCE_CASES, its first
seven entries, keep boxes under 3 * 10^5 points, small enough for the
box-sweep reference to sweep every point.
"""

from math import gcd

FIRST_PAIRS = [(p, q) for p in range(2, 7) for q in range(p + 1, 8) if gcd(p, q) == 1]
SECOND_PAIRS = [(p, q) for p in range(2, 8) for q in range(1, 8) if gcd(p, q) == 1]

KNOT_CORPUS = [(fp,) for fp in FIRST_PAIRS] + [
    (fp, sp) for fp in FIRST_PAIRS for sp in SECOND_PAIRS
]

SURGERY_CORPUS = [
    (p, q) for p in range(1, 13) for q in range(1, 13) if gcd(p, q) == 1
]

ORACLE_KNOTS = [
    ((2, 3),),
    ((2, 5),),
    ((2, 7),),
    ((3, 4),),
    ((3, 5),),
    ((4, 5),),
    ((2, 3), (2, 1)),
    ((2, 3), (2, 3)),
    ((2, 3), (3, 2)),
    ((3, 4), (2, 1)),
    ((2, 5), (2, 1)),
    ((2, 3), (2, 1), (2, 1)),
    ((2, 3), (2, 1), (2, 3)),
    ((3, 4), (2, 1), (2, 1)),
]

ORACLE_SURGERIES = [
    (1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (2, 3), (3, 2), (5, 3), (7, 5), (12, 7),
]

# three pairs make mf 106-202, so their Laufer references cost more per case
THREE_PAIR_SURGERIES = [(1, 1), (2, 1), (3, 2), (5, 3)]

ORACLE_CASES = [
    (k, p, q) for k in ORACLE_KNOTS for (p, q) in (THREE_PAIR_SURGERIES if len(k) == 3 else ORACLE_SURGERIES)
]

SUBLEVEL_CASES = [
    (((2, 3),), 1, 1),
    (((2, 3),), 2, 1),
    (((2, 3),), 3, 1),
    (((2, 3),), 1, 2),
    (((2, 3),), 2, 3),
    (((2, 5),), 2, 1),
    (((2, 5),), 3, 1),
    (((2, 3),), 5, 1),
    (((2, 3),), 3, 2),
    (((2, 3),), 5, 3),
    (((2, 3),), 7, 5),
    (((2, 5),), 1, 1),
    (((2, 5),), 5, 1),
    (((2, 5),), 3, 2),
    (((3, 4),), 2, 1),
    (((3, 4),), 3, 1),
    (((3, 5),), 2, 1),
    (((2, 3),), 12, 7),
    (((3, 4),), 5, 1),
    (((2, 5),), 5, 3),
    (((3, 5),), 5, 1),
]

SUBLEVEL_REFERENCE_CASES = SUBLEVEL_CASES[:7]
