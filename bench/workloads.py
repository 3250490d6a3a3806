"""Seeded workload generation for the hfroots benchmark.

A workload is a list of documents, each one `hfroots` CLI invocation whose
output goes to a file.  Every workload is a size ladder of rungs; for each
rung the seed picks the knot from a named pool and the `q` coprime to `p`
from a small window, and shuffles the order of the documents.  Knots in one
pool share `delta`, which fixes the tau length, leaf count and level range
of every spin^c structure at the same `p/q`.  Where `q` sets the rung's size
(`p = 1`, where every `q` is coprime) its window is a single value.  The
exact fractions of the grading shift cost more for some `q` than others, so
each window holds only values measured to cost within a few percent of each
other.  So the seed changes the inputs without changing how much work they
cost, and runs on different seeds can be compared.

The program receives only the generated argument lists.  Every input a seed
can produce is enumerated by `candidates()`, whose documents are pinned by
sha256 in `digests.json`.
"""

from __future__ import annotations

import random
from math import gcd

# Named knot pools; all knots of one pool have the same delta.
POOLS = {
    "delta1": (((2, 3),),),
    "delta2": (((2, 5),),),
    "delta3": (((3, 4),), ((2, 7),)),
    "delta6": (((4, 5),), ((3, 7),), ((2, 13),)),
    "delta60": (((11, 13),), ((5, 31),), ((4, 41),), ((3, 61),), ((2, 121),)),
}

# (pool, p, q window, format, ladder, copies).  Only the q of the window
# coprime to p are eligible.  `ladder` names the slope fit the rung's calls
# feed.  Each copy picks its own knot and q.  Copies make blocks of documents
# of equal cost, placed so that doc_p50_s and doc_p90_s each fall inside one
# block, away from its ends; neighbouring rungs differ in cost by at least a
# factor two.  Otherwise a percentile can jump from one rung to the next, or
# rest on one document's fastest or slowest runs, and move between runs.
DEEP_TAU = (
    ("delta6", 1, (4,), "json", "tau", 1),
    ("delta6", 1, (8,), "json", "tau", 1),
    ("delta6", 1, (8,), "svg", "tau", 1),
    ("delta6", 1, (12,), "svg", "tau", 1),
    ("delta6", 1, (16,), "json", "tau", 7),  # ranks 5-11 of 15: doc_p50_s
    ("delta60", 1, (1,), "json", None, 4),  # ranks 12-15: doc_p90_s
)

MANY_SPINC = (
    ("delta2", 101, (2, 3, 4, 5), "json", "p", 2),  # ranks 1-2 of 12, the lens doc 3
    ("delta3", 256, (249, 251, 253, 255), "json", "p", 6),  # ranks 4-9: doc_p50_s
    ("delta6", 401, (1,), "json", "p", 1),
    ("delta1", 599, (397, 398, 399), "json", "p", 2),  # ranks 11-12: doc_p90_s
)
LENS = (211, (71, 73, 74, 75, 76, 77))

# The lattice-oracle corpus of the test suite, copied so that the benchmark
# keeps measuring the same inputs when the tests change.
ORACLE_KNOTS = (
    ((2, 3),), ((2, 5),), ((2, 7),), ((3, 4),), ((3, 5),), ((4, 5),),
    ((2, 3), (2, 1)), ((2, 3), (2, 3)), ((2, 3), (3, 2)), ((3, 4), (2, 1)),
    ((2, 5), (2, 1)),
)
ORACLE_SURGERIES = (
    (1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (2, 3), (3, 2), (5, 3), (7, 5), (12, 7),
)
SUBLEVEL_CASES = (
    (((2, 3),), 1, 1), (((2, 3),), 2, 1), (((2, 3),), 3, 1), (((2, 3),), 1, 2),
    (((2, 3),), 2, 3), (((2, 5),), 2, 1), (((2, 5),), 3, 1),
)

NAMES = ("deep_tau", "many_spinc", "oracle")


def newton_arg(pairs) -> str:
    return ",".join(f"{a},{b}" for a, b in pairs)


def _compute(pairs, p, q, fmt, ladder):
    argv = ["compute", "--newton", newton_arg(pairs), "--surgery", f"{p}/{q}",
            "--spinc", "all", "--format", fmt]
    return {"argv": argv, "kind": "svg" if fmt == "svg" else "compute", "ladder": ladder}


def _lens(p, q):
    argv = ["verify", "--lens", f"{p}/{q}", "--format", "json"]
    return {"argv": argv, "kind": "lens", "ladder": None}


def _verify(pairs, p, q, oracle):
    argv = ["verify", "--newton", newton_arg(pairs), "--surgery", f"{p}/{q}",
            "--oracle", oracle, "--format", "json"]
    return {"argv": argv, "kind": "verify", "ladder": "laufer"}


def _coprime(p, window):
    qs = [q for q in window if gcd(p, q) == 1]
    if not qs:
        raise ValueError(f"no q coprime to {p} in {window}")
    return qs


def _rung_docs(rungs, pick):
    return [_compute(pick(POOLS[pool]), p, pick(_coprime(p, window)), fmt, ladder)
            for pool, p, window, fmt, ladder, copies in rungs for _ in range(copies)]


def _oracle_docs():
    docs = [_verify(k, p, q, "laufer") for k in ORACLE_KNOTS for p, q in ORACLE_SURGERIES]
    docs += [_verify(k, p, q, "both") for k, p, q in SUBLEVEL_CASES]
    return docs


def generate(name: str, seed: int, quick: bool = False) -> list[dict]:
    """The documents of workload `name` for `seed`, in the order to run them.

    `quick` keeps only the smallest rung (for `oracle`, the first case of
    each oracle kind).
    """
    rng = random.Random(f"hfroots-bench:{name}:{seed}")
    pick = rng.choice
    if name == "deep_tau":
        docs = _rung_docs(DEEP_TAU[:1] if quick else DEEP_TAU, pick)
    elif name == "many_spinc":
        docs = _rung_docs(MANY_SPINC[:1] if quick else MANY_SPINC, pick)
        if not quick:
            docs.append(_lens(LENS[0], pick(_coprime(*LENS))))
    elif name == "oracle":
        docs = _oracle_docs()
        if quick:
            docs = [docs[0], docs[-len(SUBLEVEL_CASES)]]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng.shuffle(docs)
    return docs


def candidates() -> list[dict]:
    """Every document any seed of any workload can produce."""
    docs = []
    for rungs in (DEEP_TAU, MANY_SPINC):
        for pool, p, window, fmt, ladder, _ in rungs:
            for pairs in POOLS[pool]:
                docs += [_compute(pairs, p, q, fmt, ladder) for q in _coprime(p, window)]
    docs += [_lens(LENS[0], q) for q in _coprime(*LENS)]
    return docs + _oracle_docs()


def doc_key(doc: dict) -> str:
    return " ".join(doc["argv"])
