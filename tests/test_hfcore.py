from fractions import Fraction

import pytest
from corpus_cases import KNOT_CORPUS
from oracles import closed_form_p1q1, sw_invariant

import hfroots.hfcore as hfcore
from hfroots import (
    InternalInvariantError,
    SurgerySpec,
    compute_all,
    compute_spinc,
    from_newton_pairs,
    grading_shift,
    tau_depth,
    tau_function,
)
from hfroots.root import UModuleDecomposition, reduced_rank


K23 = from_newton_pairs([(2, 3)])
K45 = from_newton_pairs([(4, 5)])


def expected_module(tower, pairs, shift):
    return UModuleDecomposition.from_parts(tower, pairs).shifted(Fraction(*shift))


class TestDepth:
    def test_examples(self):
        assert tau_depth(SurgerySpec(K45, 2, 1), 0) == 5
        assert tau_depth(SurgerySpec(K45, 1, 1), 0) == 10  # 2 delta - 2 = mu - 2
        spec = SurgerySpec(K23, 6, 1)
        assert [tau_depth(spec, a) for a in range(6)] == [0, -1, -1, -1, -1, -1]

    def test_range_check(self):
        spec = SurgerySpec(K23, 3, 1)
        with pytest.raises(ValueError):
            tau_depth(spec, 3)
        with pytest.raises(ValueError):
            tau_depth(spec, -1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SurgerySpec(K23, 4, 2)
        with pytest.raises(ValueError):
            SurgerySpec(K23, 0, 1)


class TestShift:
    def test_known_shift_values(self):
        assert grading_shift(SurgerySpec(K45, 1, 1), 0) == 30
        assert grading_shift(SurgerySpec(K45, 2, 1), 0) == Fraction(71, 4)
        assert grading_shift(SurgerySpec(K45, 2, 1), 1) == Fraction(49, 4)
        assert grading_shift(SurgerySpec(K45, 1, 2), 0) == 60  # q delta (delta - 1)

    def test_integer_surgery_closed_form(self):
        # q = 1: r_a = ((p + 2 delta - 2 - 2a)^2 - p) / (4p)
        for knot in (K23, K45):
            d = knot.delta
            for p in (1, 2, 3, 7, 11, 14):
                spec = SurgerySpec(knot, p, 1)
                for a in range(p):
                    expected = Fraction((p + 2 * d - 2 - 2 * a) ** 2 - p, 4 * p)
                    assert grading_shift(spec, a) == expected

    def test_one_over_q(self):
        for q in (1, 2, 3, 5):
            for knot in (K23, K45):
                d = knot.delta
                assert grading_shift(SurgerySpec(knot, 1, q), 0) == q * d * (d - 1)


class TestTau:
    def test_torus_45_sequences(self):
        assert tau_function(SurgerySpec(K45, 2, 1), 0).values == (
            0, 1, -5, -4, -8, -6, -9, -6, -8, -4, -5, 1, 0
        )
        assert tau_function(SurgerySpec(K45, 2, 1), 1).values == (
            0, 1, -4, -3, -6, -3, -6, -3, -4, 1, 0
        )
        assert tau_function(SurgerySpec(K23, 1, 1), 0).values == (0, 1, 0)

    def test_depth_minus_one(self):
        assert tau_function(SurgerySpec(K23, 6, 1), 3).values == (0,)

    def test_oddity_bounds(self):
        # odd entries rise from the left and drop to the right, strictly
        for spec, a in [(SurgerySpec(K45, 7, 5), 3), (SurgerySpec(K23, 2, 3), 1)]:
            vals = tau_function(spec, a).values
            t_a = (len(vals) - 3) // 2
            for t in range(t_a + 1):
                assert vals[2 * t + 1] > vals[2 * t]
                assert vals[2 * t + 1] > vals[2 * t + 2]

    def test_counting_identity(self):
        # tau(2t+1) - tau(2t) counts semigroup elements <= (t p + a)/q
        for pairs, p, q in [([(4, 5)], 2, 1), ([(4, 5)], 7, 5), ([(2, 3), (2, 1)], 3, 2)]:
            knot = from_newton_pairs(pairs)
            spec = SurgerySpec(knot, p, q)
            for a in range(p):
                vals = tau_function(spec, a).values
                t_a = (len(vals) - 3) // 2
                for t in range(t_a + 1):
                    count = sum(1 for k in range((t * p + a) // q + 1) if k in knot.semigroup)
                    assert vals[2 * t + 1] == vals[2 * t] + count

    def test_p1_palindrome(self):
        for q in (1, 2, 3):
            for knot in (K23, K45):
                vals = tau_function(SurgerySpec(knot, 1, q), 0).values
                assert vals == vals[::-1]


class TestComputeSpinc:
    def test_module_45_surgery2_a0(self):
        res = compute_spinc(SurgerySpec(K45, 2, 1), 0)
        assert res.module == expected_module(
            -18, [(-16, 2), (-16, 2), (-10, 1), (-10, 1), (0, 1), (0, 1)], (71, 4)
        )
        assert res.d_invariant == Fraction(-1, 4)

    def test_module_45_surgery2_a1(self):
        res = compute_spinc(SurgerySpec(K45, 2, 1), 1)
        assert res.module == expected_module(
            -12, [(-12, 3), (-8, 1), (-8, 1), (0, 1), (0, 1)], (49, 4)
        )

    def test_module_45_surgery11(self):
        res = compute_spinc(SurgerySpec(K45, 11, 1), 0)
        shift = Fraction((11 + 10) ** 2 - 11, 44)
        assert res.module == expected_module(-10, [(0, 1)], (shift, 1))

    def test_trefoil_minus_one(self):
        res = compute_spinc(SurgerySpec(K23, 1, 1), 0)
        assert res.module == expected_module(0, [(0, 1)], (0, 1))
        assert res.d_invariant == 0

    def test_d_zero_for_p1(self):
        for q in (1, 2):
            assert compute_spinc(SurgerySpec(K45, 1, q), 0).d_invariant == 0

    def test_deep_tau_7_11_sixteenth(self):
        # tau of length 1889, far beyond the reach of the pairwise-leaf module walk
        spec = SurgerySpec(from_newton_pairs([(7, 11)]), 1, 16)
        res = compute_spinc(spec, 0)
        d = spec.knot.delta
        assert len(res.tau) == 1889
        assert res.module.reduced_rank == reduced_rank(res.tau)
        assert res.d_invariant == 0
        assert res.shift == 16 * d * (d - 1)

    def test_reduced_rank_guard(self, monkeypatch):
        real = hfcore.module_from_tau

        def lossy(tau):
            mod = real(tau)
            return UModuleDecomposition.from_parts(mod.tower_grade, mod.finite_towers[1:])

        monkeypatch.setattr(hfcore, "module_from_tau", lossy)
        with pytest.raises(InternalInvariantError, match="reduced_rank"):
            compute_spinc(SurgerySpec(K45, 2, 1), 0)

    def test_ker_u(self):
        res = compute_spinc(SurgerySpec(K45, 2, 1), 0)
        assert len(res.ker_u) == res.depth + 2
        assert res.ker_u == tuple(
            sorted(2 * res.tau.values[2 * t] + res.shift for t in range(res.depth + 2))
        )
        # depth -1: one generator at r_a, trivial cokernel
        res = compute_spinc(SurgerySpec(K23, 6, 1), 5)
        assert res.ker_u == (res.shift,)
        assert res.coker_u == ()

    def test_ker_u_depends_only_on_delta(self):
        # same delta, different alpha: (4,5) against a 2-stranded knot found by search
        target = K45.delta
        other = None
        for q1 in range(3, 40, 2):
            cand = from_newton_pairs([(2, q1)])
            if cand.delta == target:
                other = cand
                break
        assert other is not None and other.alpha != K45.alpha
        for p, q in [(2, 1), (3, 2), (5, 3)]:
            sa, sb = SurgerySpec(K45, p, q), SurgerySpec(other, p, q)
            for a in range(p):
                ra, rb = compute_spinc(sa, a), compute_spinc(sb, a)
                assert tuple(x - ra.shift for x in ra.ker_u) == tuple(x - rb.shift for x in rb.ker_u)

    def test_reduced_never_trivial_at_a0(self):
        for pairs, p, q in [([(2, 3)], 12, 1), ([(4, 5)], 9, 2), ([(2, 3), (2, 1)], 5, 1)]:
            spec = SurgerySpec(from_newton_pairs(pairs), p, q)
            bound = (2 * spec.knot.delta - 1) * q
            for a in range(p):
                res = compute_spinc(spec, a)
                assert (res.module.reduced_rank == 0) == (a >= bound)
            assert compute_spinc(spec, 0).module.reduced_rank > 0


class TestSw:
    def test_examples(self):
        assert sw_invariant(SurgerySpec(K23, 1, 1), 0) == -1
        assert sw_invariant(SurgerySpec(K45, 2, 1), 0) == Fraction(71, 8) - 17

    def test_empty_sum(self):
        spec = SurgerySpec(K23, 6, 1)
        for a in range(1, 6):  # a >= (2 delta - 1) q = 1
            assert sw_invariant(spec, a) == grading_shift(spec, a) / 2

    def test_pipeline_matches_reference(self):
        # the pipeline reads the alpha terms off tau; the reference sums them directly
        for pairs in KNOT_CORPUS:
            knot = from_newton_pairs(list(pairs))
            for p, q in [(3, 1), (2, 3)]:
                spec = SurgerySpec(knot, p, q)
                for a in range(p):
                    assert compute_spinc(spec, a).sw_invariant == sw_invariant(spec, a)

    def test_euler_characteristic_identity(self):
        # sw = d/2 - rank H_red, by the orientation-reversal conventions
        for pairs, p, q in [([(4, 5)], 2, 1), ([(2, 3)], 2, 3), ([(2, 3), (2, 1)], 4, 3)]:
            spec = SurgerySpec(from_newton_pairs(pairs), p, q)
            for a in range(p):
                res = compute_spinc(spec, a)
                assert res.sw_invariant == res.d_invariant / 2 - res.module.reduced_rank


class TestComputeAll:
    def test_total_rank(self):
        results = compute_all(SurgerySpec(K45, 2, 1))
        assert sum(r.depth + 2 for r in results) == 13
        results = compute_all(SurgerySpec(K23, 6, 1))
        assert sum(r.depth + 2 for r in results) == 7

    def test_single_class(self):
        assert len(compute_all(SurgerySpec(K45, 1, 2))) == 1

    def test_global_identity_guard(self, monkeypatch):
        monkeypatch.setattr(hfcore, "tau_depth", lambda spec, a: 0)
        with pytest.raises(InternalInvariantError):
            compute_all(SurgerySpec(K45, 2, 1))


class TestClosedForm:
    def test_trefoil(self):
        assert closed_form_p1q1(K23) == UModuleDecomposition.from_parts(0, [(0, 1)])

    def test_2_5(self):
        k = from_newton_pairs([(2, 5)])
        assert closed_form_p1q1(k) == UModuleDecomposition.from_parts(
            0, [(0, k.alpha[1]), (2, k.alpha[2]), (2, k.alpha[2])]
        )

    def test_45_towers(self):
        mod = closed_form_p1q1(K45)
        assert mod.finite_towers == tuple(
            sorted(
                [(Fraction(0), 3)]
                + [(Fraction(i * (i + 1)), L) for i, L in [(1, 2), (2, 1), (3, 1), (4, 1), (5, 1)] for _ in (0, 1)]
            )
        )

    @pytest.mark.parametrize(
        "pairs",
        [[(2, 3)], [(2, 5)], [(2, 7)], [(3, 4)], [(3, 5)], [(4, 5)], [(2, 3), (2, 1)]],
    )
    def test_matches_pipeline(self, pairs):
        knot = from_newton_pairs(pairs)
        res = compute_spinc(SurgerySpec(knot, 1, 1), 0)
        assert res.module == closed_form_p1q1(knot)
