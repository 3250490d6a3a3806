"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is exact rational/integer equality (zero tolerance); the
two runtime budgets are asserted with wall-clock measurements.  A summary
line per criterion is printed at the end of the pytest run (see conftest).
"""

import time
from fractions import Fraction
from math import gcd

import pytest
from corpus_cases import KNOT_CORPUS, ORACLE_CASES, ORACLE_KNOTS, SUBLEVEL_CASES, SURGERY_CORPUS
from oracles import closed_form_p1q1, laufer_tau, minimal_cycle_sequence

import hfroots.plumbing as pl
from hfroots import (
    SurgerySpec,
    compute_spinc,
    from_newton_pairs,
    grading_shift,
    root_from_tau,
    tau_depth,
)
from hfroots.root import UModuleDecomposition


def module(tower, pairs, shift):
    return UModuleDecomposition.from_parts(tower, pairs).shifted(shift)


@pytest.mark.criterion(1, "(4,5), -2/1, a=0: module T+[-18] + 2 T[-16](2) + 2 T[-10](1) + 2 T[0](1), shift 71/4, < 1 s")
def test_criterion_1():
    start = time.perf_counter()
    knot = from_newton_pairs([(4, 5)])
    res = compute_spinc(SurgerySpec(knot, 2, 1), 0)
    elapsed = time.perf_counter() - start
    expected = module(
        -18, [(-16, 2), (-16, 2), (-10, 1), (-10, 1), (0, 1), (0, 1)], Fraction(71, 4)
    )
    assert res.shift == Fraction(71, 4)
    assert res.module == expected
    assert elapsed < 1.0


@pytest.mark.criterion(2, "(4,5), -2/1, a=1: module T+[-12] + T[-12](3) + 2 T[-8](1) + 2 T[0](1), shift 49/4, < 1 s")
def test_criterion_2():
    start = time.perf_counter()
    knot = from_newton_pairs([(4, 5)])
    res = compute_spinc(SurgerySpec(knot, 2, 1), 1)
    elapsed = time.perf_counter() - start
    expected = module(-12, [(-12, 3), (-8, 1), (-8, 1), (0, 1), (0, 1)], Fraction(49, 4))
    assert res.shift == Fraction(49, 4)
    assert res.module == expected
    assert elapsed < 1.0


@pytest.mark.criterion(3, "the five published grading shifts for (4,5): 30, 71/4, 49/4, ((p+10)^2-p)/(4p), 60")
def test_criterion_3():
    knot = from_newton_pairs([(4, 5)])
    assert grading_shift(SurgerySpec(knot, 1, 1), 0) == 30
    assert grading_shift(SurgerySpec(knot, 2, 1), 0) == Fraction(71, 4)
    assert grading_shift(SurgerySpec(knot, 2, 1), 1) == Fraction(49, 4)
    for p in (11, 12, 13, 17):
        assert grading_shift(SurgerySpec(knot, p, 1), 0) == Fraction((p + 10) ** 2 - p, 4 * p)
    assert grading_shift(SurgerySpec(knot, 1, 2), 0) == 60


@pytest.mark.criterion(4, "(4,5), p = 1, q in {1, 2}: d(-M) = 0")
def test_criterion_4():
    knot = from_newton_pairs([(4, 5)])
    for q in (1, 2):
        assert compute_spinc(SurgerySpec(knot, 1, q), 0).d_invariant == 0


@pytest.mark.criterion(5, "rank ker U = p + (2 delta - 1) q over the full corpus (g <= 2, params <= 7, p,q <= 12)")
def test_criterion_5():
    for pairs in KNOT_CORPUS:
        knot = from_newton_pairs(list(pairs))
        for p, q in SURGERY_CORPUS:
            spec = SurgerySpec(knot, p, q)
            total = sum(tau_depth(spec, a) + 2 for a in range(p))
            assert total == p + (2 * knot.delta - 1) * q


@pytest.mark.criterion(6, "-1-surgery closed form matches the pipeline for 10 knots")
def test_criterion_6():
    knots = [
        [(2, 3)], [(2, 5)], [(2, 7)], [(3, 4)], [(3, 5)],
        [(3, 7)], [(4, 5)], [(4, 7)], [(2, 3), (2, 1)], [(2, 3), (2, 3)],
    ]
    assert len(knots) == 10
    for pairs in knots:
        knot = from_newton_pairs(pairs)
        res = compute_spinc(SurgerySpec(knot, 1, 1), 0)
        assert res.module == closed_form_p1q1(knot)


@pytest.mark.criterion(7, "oracle equivalence: Laufer tau, lattice and formula shifts on the oracle corpus; sublevel roots on tiny graphs; < 5 min")
def test_criterion_7():
    start = time.perf_counter()
    for pairs, p, q in ORACLE_CASES:
        knot = from_newton_pairs(list(pairs))
        spec = SurgerySpec(knot, p, q)
        gm = pl.surgery_graph(knot, spec.cfrac)
        assert gm.n <= 40
        classes = pl.spinc_classes(gm, spec)
        for a in range(p):
            res = compute_spinc(spec, a)
            assert pl.lattice_grading_shift(gm, classes[a]) == res.shift
            assert pl.grading_shift_formula(p, q, knot.delta, a) == res.shift
            tau = laufer_tau(gm, classes[a], (res.depth + 1) * knot.mf)
            assert pl.condense_tau(tau, knot.mf).values == res.tau.values
    for pairs, p, q in SUBLEVEL_CASES:
        knot = from_newton_pairs(list(pairs))
        spec = SurgerySpec(knot, p, q)
        gm = pl.surgery_graph(knot, spec.cfrac)
        assert gm.n <= 10
        classes = pl.spinc_classes(gm, spec)
        for a in range(p):
            res = compute_spinc(spec, a)
            box = pl.exact_sublevel_box(gm, classes[a].k_r, res.tau.max())
            sub = pl.sublevel_root(gm, classes[a].k_r, res.tau.max(), box)
            assert not sub.boundary_contact
            assert sub.root.canonical_key() == root_from_tau(res.tau).canonical_key()
    assert time.perf_counter() - start < 300.0


@pytest.mark.criterion(8, "Alexander/semigroup identities on the full knot corpus")
def test_criterion_8():
    for pairs in KNOT_CORPUS:
        knot = from_newton_pairs(list(pairs))
        alex = knot.alexander
        assert sum(alex) == 1
        assert sum(e * c for e, c in enumerate(alex)) == knot.delta
        acc = 0
        for k in range(knot.mu + 11):
            acc += alex[k] if k < len(alex) else 0
            assert acc == (1 if k in knot.semigroup else 0)
        for k in range(knot.mu):
            assert (k in knot.semigroup) != ((knot.mu - 1 - k) in knot.semigroup)


@pytest.mark.criterion(9, "lens spaces: delta = 0 formula path equals the classical recursion for all coprime (p, q), p <= 50")
def test_criterion_9():
    assert pl.lens_d_invariants(1, 1) == pl.lens_d_classical(1, 1) == [0]
    for p in range(2, 51):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert sorted(pl.lens_d_invariants(p, q)) == sorted(pl.lens_d_classical(p, q))


@pytest.mark.criterion(10, "minimal-cycle laws: periodicity and node pairings up to 3 mf on the oracle knots")
def test_criterion_10():
    for pairs in ORACLE_KNOTS:
        knot = from_newton_pairs(list(pairs))
        gf = pl.embedded_resolution(knot)
        mf = knot.mf
        zf = pl.divisorial_cycle(gf)
        seq = minimal_cycle_sequence(gf, 3 * mf)
        for i, (cyc, hit) in enumerate(seq):
            assert hit <= 1
            if i < mf:
                assert hit == (0 if i in knot.semigroup else 1)
            t, i0 = divmod(i, mf)
            assert cyc == tuple(t * z + y for z, y in zip(zf, seq[i0][0]))
