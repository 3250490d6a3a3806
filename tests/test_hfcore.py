import json
import pickle
import tracemalloc
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from operator import attrgetter

import pytest
from corpus_cases import KNOT_CORPUS
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    casson_walker_sw_sum,
    closed_form_p1q1,
    compute_all_per_class,
    grading_shift_direct,
    lens_d_recursion_of_surgery,
    module_from_parts,
    shift_numerators_stepped,
    spinc_block,
    spinc_fractions,
    spinc_fractions_block,
    spinc_text,
    surgery_d_from_lens,
    sw_invariant,
    tau_values_direct,
)
from test_knot import newton_pair_sequences

import hfroots.cli as cli
import hfroots.hfcore as hfcore
from hfroots import (
    InternalInvariantError,
    SurgerySpec,
    compute_all,
    compute_spinc,
    dedekind_sum,
    from_newton_pairs,
    grading_shift,
    tau_depth,
    tau_function,
)
from hfroots.hfcore import SpincResult, SpincRun, compute_run, compute_runs
from hfroots.knot import AlgebraicKnot
from hfroots.root import UModuleDecomposition, reduced_rank


K23 = from_newton_pairs([(2, 3)])
K45 = from_newton_pairs([(4, 5)])
RATIO_SLOTS = {"numerator": "r_num", "denominator": "r_den"}  # r_a = r_num/r_den, by the parametrize ids


def run_of(res):
    """The class `res` as a run of one."""
    return SpincRun(res.a, res.a + 1, res.depth, res.tau, res.tau_module, res.alpha_sum, (res.r_num,), (res.r_den,))


def class_block(res, piece=None):
    """One class's block through the document writer: `cli._run_blocks` on
    its run of one, with the `_tau_piece` of its own tau unless given."""
    run = run_of(res)
    return cli._run_blocks(piece or cli._tau_piece(run), run)[0]


@cache
def corpus_knots():
    return [from_newton_pairs(list(pairs)) for pairs in KNOT_CORPUS]


def knots_within(p, q, depth=3000):
    """Corpus knots whose classes have t_a <= depth at -p/q, that is
    (2 delta - 1) q <= depth p; the trefoil qualifies for every q <= 3000."""
    return [k for k in corpus_knots() if (2 * k.delta - 1) * q <= depth * p]


def shallow_knot(pairs, pick, p, q):
    """A corpus knot of `pairs` Newton pairs with t_a <= 20 at -p/q where q
    allows, else the one of least delta, so the p classes hold O(p + q) tau
    values; `pick` chooses among them."""
    kind = [k for k in corpus_knots() if len(k.newton_pairs) == pairs]
    least = min(kind, key=attrgetter("delta"))
    kind = [k for k in kind if k in knots_within(p, q, max(20, -(-(2 * least.delta - 1) * q // p)))]
    return kind[pick % len(kind)]


def expected_module(tower, pairs, shift):
    return module_from_parts(tower, pairs).shifted(Fraction(*shift))


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

    @pytest.mark.parametrize("p, q, message", [
        (True, 1, "p = True must be an int, not bool"),  # bool passes p >= 1 and gcd as the integer 1
        (3, 2.0, "q = 2.0 must be an int, not float"),
        (Fraction(3), 2, "p = Fraction\\(3, 1\\) must be an int, not Fraction"),
        (3, "2", "q = '2' must be an int, not str"),
    ])
    def test_spec_rejects_inexact_coefficients(self, p, q, message):
        with pytest.raises(TypeError, match=f"^surgery coefficient: {message}$"):
            SurgerySpec(K23, p, q)


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

    def test_matches_direct_up_to_40(self):
        # both routes are quadratic in delta, the only knot datum they read, so
        # three distinct deltas of the corpus pin them for every knot in it
        by_delta = sorted(corpus_knots(), key=lambda k: k.delta)
        knots = (by_delta[0], by_delta[len(by_delta) // 2], by_delta[-1])
        assert len({k.delta for k in knots}) == 3
        for p in range(1, 41):
            for q in range(1, 41):
                if gcd(p, q) != 1:
                    continue
                for knot in knots:
                    spec = SurgerySpec(knot, p, q)
                    for a in range(p):
                        assert grading_shift(spec, a) == grading_shift_direct(spec, a), (knot, p, q, a)

    def test_matches_direct_on_knot_corpus(self):
        for knot in corpus_knots():
            for p in range(1, 6):
                for q in range(1, 6):
                    if gcd(p, q) != 1:
                        continue
                    spec = SurgerySpec(knot, p, q)
                    for a in range(p):
                        assert grading_shift(spec, a) == grading_shift_direct(spec, a), (knot, p, q, a)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, len(KNOT_CORPUS) - 1), st.integers(1, 3000), st.integers(1, 3000), st.data())
    def test_matches_direct_random(self, k, p, q, data):
        g = gcd(p, q)
        p, q = p // g, q // g
        spec = SurgerySpec(corpus_knots()[k], p, q)
        a = data.draw(st.integers(0, p - 1))
        assert grading_shift(spec, a) == grading_shift_direct(spec, a)

    def test_huge_p_closed_form(self):
        # O(log p) per class: a direct sum over p = 10**30 + 7 terms would never finish
        p = 10**30 + 7
        for knot in (K23, K45):
            spec = SurgerySpec(knot, p, 1)
            d = knot.delta
            for a in (0, 1, p // 2, p - 1):
                expected = Fraction((p + 2 * d - 2 - 2 * a) ** 2 - p, 4 * p)
                assert grading_shift(spec, a) == expected
                # one class is one floor sum, not a pass over the classes below it
                res = compute_spinc(spec, a)
                assert (res.a, res.depth, res.shift) == (a, (2 * d - 2 - a) // p, expected)

    def test_spec_constants(self):
        for p, q in [(1, 1), (7, 5), (12, 7), (5, 12), (101, 4)]:
            spec = SurgerySpec(K45, p, q)
            assert (q * spec.cfrac.q_prime) % p == 1 % p
            assert spec.dedekind_6p == 6 * p * dedekind_sum(q, p)

    def test_integrality_guard(self, monkeypatch):
        monkeypatch.setattr(hfcore, "dedekind_sum", lambda q, p: Fraction(1, 7 * p))
        with pytest.raises(InternalInvariantError, match="6 p s"):
            SurgerySpec(K45, 2, 1)


class TestTau:
    def test_torus_45_sequences(self):
        assert tau_function(SurgerySpec(K45, 2, 1), 0) == (
            0, 1, -5, -4, -8, -6, -9, -6, -8, -4, -5, 1, 0
        )
        assert tau_function(SurgerySpec(K45, 2, 1), 1) == (
            0, 1, -4, -3, -6, -3, -6, -3, -4, 1, 0
        )
        assert tau_function(SurgerySpec(K23, 1, 1), 0) == (0, 1, 0)

    def test_depth_minus_one(self):
        assert tau_function(SurgerySpec(K23, 6, 1), 3) == (0,)

    def test_oddity_bounds(self):
        # odd entries rise from the left and drop to the right, strictly
        for spec, a in [(SurgerySpec(K45, 7, 5), 3), (SurgerySpec(K23, 2, 3), 1)]:
            vals = tau_function(spec, a)
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
                vals = tau_function(spec, a)
                t_a = (len(vals) - 3) // 2
                for t in range(t_a + 1):
                    count = sum(1 for k in range((t * p + a) // q + 1) if k in knot.semigroup)
                    assert vals[2 * t + 1] == vals[2 * t] + count

    def test_p1_palindrome(self):
        for q in (1, 2, 3):
            for knot in (K23, K45):
                vals = tau_function(SurgerySpec(knot, 1, q), 0)
                assert vals == vals[::-1]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(newton_pair_sequences(), st.integers(1, 40), st.data())
    def test_matches_definition(self, pairs, q, data):
        # p from where t_a <= 300, so that the definition's sums stay small
        knot = from_newton_pairs(pairs)
        lo = -(-(2 * knot.delta - 1) * q // 300)
        p = data.draw(st.integers(lo, lo + 500))
        g = gcd(p, q)
        spec = SurgerySpec(knot, p // g, q // g)
        a = data.draw(st.integers(0, spec.p - 1))
        assert tau_function(spec, a) == tau_values_direct(spec, a)

    def test_alpha_bound_guard(self):
        # a knot whose mu is one short: at -1/1 the last floor of the depth
        # is mu - 2 of the true knot, one past the lowered bound
        fields = {name: getattr(K45, name) for name in AlgebraicKnot.__slots__}
        short = AlgebraicKnot(**{**fields, "mu": K45.mu - 1})
        with pytest.raises(InternalInvariantError, match="alpha index beyond mu - 2"):
            compute_spinc(SurgerySpec(short, 1, 1), 0)


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
            return module_from_parts(mod.tower_grade, mod.finite_towers[1:])

        monkeypatch.setattr(hfcore, "module_from_tau", lossy)
        with pytest.raises(InternalInvariantError, match="reduced_rank"):
            compute_spinc(SurgerySpec(K45, 2, 1), 0)

    def test_ker_u(self):
        res = compute_spinc(SurgerySpec(K45, 2, 1), 0)
        assert len(res.ker_u) == res.depth + 2
        assert res.ker_u == tuple(
            sorted(2 * res.tau[2 * t] + res.shift for t in range(res.depth + 2))
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


def check_surgery_formulas(spec):
    """d of every class as the lens-space term of Ni-Wu (indexed, and as a
    multiset against the classical recursion), and sum_a sw by Casson-Walker."""
    results = compute_all(spec)
    d = [r.d_invariant for r in results]
    assert d == surgery_d_from_lens(spec)
    assert sorted(d) == sorted(lens_d_recursion_of_surgery(spec))
    assert sum(r.sw_invariant for r in results) == casson_walker_sw_sum(spec)


class TestSurgeryFormulas:
    """d and sw against surgery formulas that never build tau."""

    def test_corpus_sample(self):
        # every 9th corpus knot with delta <= 150 (18 knots) at every coprime
        # -p/q with p, q <= 7, p = 1 as S^3
        for knot in corpus_knots()[::9]:
            if knot.delta > 150:
                continue
            for p in range(1, 8):
                for q in range(1, 8):
                    if gcd(p, q) == 1:
                        check_surgery_formulas(SurgerySpec(knot, p, q))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([((2, 3),), ((2, 5),), ((3, 4),), ((2, 3), (2, 1))]),
        st.integers(1, 2000),
        st.integers(1, 60),
    )
    def test_random_surgeries(self, pairs, p, q):
        if gcd(p, q) == 1:
            check_surgery_formulas(SurgerySpec(from_newton_pairs(list(pairs)), p, q))

    def test_large_p(self):
        check_surgery_formulas(SurgerySpec(K23, 9973, 5))


class TestComputeAll:
    def test_total_rank(self):
        results = compute_all(SurgerySpec(K45, 2, 1))
        assert sum(r.depth + 2 for r in results) == 13
        results = compute_all(SurgerySpec(K23, 6, 1))
        assert sum(r.depth + 2 for r in results) == 7

    def test_single_class(self):
        assert len(compute_all(SurgerySpec(K45, 1, 2))) == 1

    def test_results_are_the_values_init_builds(self):
        # __init__ fills the slots through their member descriptors, past
        # Frozen's __setattr__: still frozen, and equal, hashed and pickled
        # like a copy built from the same fields and one restored by pickle
        for spec in (SurgerySpec(K23, 599, 397), SurgerySpec(K45, 13, 2), SurgerySpec(K45, 1, 16)):
            for res in compute_all(spec)[::37]:
                built = SpincResult(res.a, res.depth, res.r_num, res.r_den, res.tau, res.tau_module, res.alpha_sum)
                assert type(res) is SpincResult
                assert res == built and built == res and hash(res) == hash(built)
                assert pickle.dumps(res) == pickle.dumps(built)
                assert pickle.loads(pickle.dumps(res)) == built
                for name in SpincResult.__slots__:
                    with pytest.raises(AttributeError):
                        setattr(res, name, getattr(res, name))
                    with pytest.raises(AttributeError):
                        delattr(res, name)
                    assert getattr(res, name) is getattr(built, name)

    def test_global_identity_guard(self, monkeypatch):
        # the pass reads every t_a off one numerator; p - 1 makes each t_a 0
        monkeypatch.setattr(hfcore, "_depth_top", lambda spec: spec.p - 1)
        with pytest.raises(InternalInvariantError, match="^ker U rank 4 != p"):
            compute_all(SurgerySpec(K45, 2, 1))

    def test_one_floor_sum_per_pass(self, monkeypatch):
        # r_a steps a running floor sum from one floor_sum at the first class
        # of the pass: one call for all 599 classes, one for a single class
        calls = []
        real = hfcore.floor_sum

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hfcore, "floor_sum", counting)
        for pairs, p, q in [([(2, 3)], 599, 397), ([(4, 5)], 401, 1), ([(2, 5)], 1, 7)]:
            spec = SurgerySpec(from_newton_pairs(pairs), p, q)
            calls.clear()
            compute_all(spec)
            assert len(calls) == 1
            for a in {0, p // 2, p - 1}:
                calls.clear()
                compute_spinc(spec, a)
                assert len(calls) == 1

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(newton_pair_sequences(), st.data())
    def test_matches_oracles(self, pairs, data):
        # every class of the pass against the definitions: t_a by its formula,
        # r_a term by term (grading_shift_direct), tau by its sums
        # (tau_values_direct, O(t_a^2)).  p <= 200 and q <= 400, with
        # t_a <= sqrt(B/p) so that the p classes cost the definitions about B
        # steps: p = 1 and q > p come with the smaller knots, classes with
        # t_a = -1 with p > (2 delta - 1) q
        knot = from_newton_pairs(pairs)
        width, budget = 2 * knot.delta - 1, 160_000

        def q_max(p):  # (2 delta - 1) q <= p sqrt(B/p)
            return min(400, isqrt(budget // p) * p // width)

        lo = next(p for p in range(1, 201) if q_max(p) >= 1)
        p = data.draw(st.integers(lo, 200) | st.just(lo), label="p")
        q = data.draw(st.integers(1, q_max(p)), label="q")
        assume(gcd(p, q) == 1)
        spec = SurgerySpec(knot, p, q)
        results = compute_all(spec)
        assert len(results) == p
        for a, res in enumerate(results):
            assert res.a == a
            assert res.depth == (width * q - a - 1) // p
            assert res.shift == grading_shift_direct(spec, a)
            assert res.tau == tau_values_direct(spec, a)
        a = data.draw(st.integers(0, p - 1), label="a")
        assert compute_spinc(spec, a) == results[a]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 2]), st.integers(0, 10**4), st.integers(1, 700) | st.just(1),
           st.integers(1, 900) | st.just(1))
    @example(pairs=1, pick=0, p=1, q=1)
    @example(pairs=2, pick=0, p=1, q=1)
    @example(pairs=2, pick=7, p=3, q=899)
    def test_matches_the_per_class_pass(self, pairs, pick, p, q):
        # the pass that builds tau once per run of equal taus and r_a as two
        # ints, field by field against one that builds both for every class.
        # Knots of `pairs` Newton pairs with t_a <= 20 where q allows, else
        # the one of least delta, so the classes hold O(p + q) tau values
        assume(gcd(p, q) == 1)
        spec = SurgerySpec(shallow_knot(pairs, pick, p, q), p, q)
        results, refs = compute_all(spec), compute_all_per_class(spec)
        assert len(results) == len(refs) == p
        first = {}  # tau -> the first tuple of the pass equal to it
        for res, ref in zip(results, refs):
            assert (res.a, res.depth, Fraction(res.r_num, res.r_den)) == (ref.a, ref.depth, ref.shift)
            assert res.tau == ref.tau and first.setdefault(res.tau, res.tau) is res.tau
            assert (res.tau_module.shift, res.tau_module.tower, res.tau_module.towers) == (
                ref.tau_module.shift, ref.tau_module.tower, ref.tau_module.towers)
            assert res.alpha_sum == ref.alpha_sum
            assert type(res.r_num) is type(res.r_den) is int
            assert res.r_den > 0 and gcd(res.r_num, res.r_den) == 1
        assert len(first) == 1 + sum(r.tau is not prev.tau for r, prev in zip(results[1:], results))

    @pytest.mark.parametrize("pairs, p, q, runs", [([(2, 3)], 599, 397, 2), ([(3, 4)], 256, 253, 6),
                                                   ([(4, 5)], 401, 1, 12)])
    def test_one_tau_per_run_of_equal_taus_and_no_fraction(self, monkeypatch, pairs, p, q, runs):
        # tau is built at the first class of each run of consecutive classes
        # with equal tau (for q = 1 a floor steps up at every a with t_a >= 0),
        # no tau comes back after its run, and r_a is two ints: no Fraction
        # until `shift` is read
        spec = SurgerySpec(from_newton_pairs(pairs), p, q)
        built, fractions = [], []
        real_tau = hfcore._tau_values

        def counting_tau(spec, a, t_a):
            built.append(a)
            return real_tau(spec, a, t_a)

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                fractions.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(hfcore, "_tau_values", counting_tau)
        monkeypatch.setattr(hfcore, "Fraction", CountingFraction)
        results = compute_all(spec)
        starts = [0] + [r.a for r, prev in zip(results[1:], results) if r.tau != prev.tau]
        assert built == starts
        assert len(starts) == len({r.tau for r in results}) == runs
        assert fractions == []
        assert results[7].shift == grading_shift_direct(spec, 7)  # the counter sees a read
        assert len(fractions) == 1

    def test_tower_guard(self, monkeypatch):
        # the tower grade of each distinct tau's module must be 2 min tau; a
        # wrong one keeps reduced_rank, so only this check can see it
        real = hfcore.module_from_tau

        def wrong_tower(tau):
            module = real(tau)
            return UModuleDecomposition(module.shift, module.tower + 2, module.towers)

        monkeypatch.setattr(hfcore, "module_from_tau", wrong_tower)
        spec = SurgerySpec(K23, 6, 1)  # a = 0 has a finite tower, a = 1 the stem tau = [0]
        for run in (compute_all, lambda spec: compute_spinc(spec, 0), lambda spec: compute_spinc(spec, 1)):
            with pytest.raises(InternalInvariantError, match="^tower grade disagrees with 2 min tau$"):
                run(spec)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 300),
        st.one_of(st.integers(1, 9), st.integers(1, 900)),
        st.sampled_from([1, 20]),
        st.data(),
    )
    def test_matches_per_class_runs(self, p, q, depth, data):
        # classes sharing a tau share its module, never another class's r_a;
        # depth 1 draws knots with (2 delta - 1) q <= p where q allows, which
        # leaves classes with t_a = -1
        assume(gcd(p, q) == 1)
        depth = max(depth, -(-3 * q // p))  # the trefoil always qualifies
        spec = SurgerySpec(data.draw(st.sampled_from(knots_within(p, q, depth))), p, q)
        results, refs = compute_all(spec), [compute_spinc(spec, a) for a in range(p)]
        assert results == refs
        for a, (res, ref) in enumerate(zip(results, refs)):
            assert (res.a, res.depth, res.shift, res.tau) == (a, ref.depth, ref.shift, ref.tau)
            assert res.module.shift == ref.module.shift == res.shift
            assert res.module.tower == ref.module.tower
            assert res.module.towers == ref.module.towers
            assert res.d_invariant == ref.d_invariant
            assert res.sw_invariant == ref.sw_invariant

    def test_one_module_per_distinct_tau(self, monkeypatch):
        # 599 classes on 2 taus, 401 on 12; the third call has the first's
        # two taus and builds both again: no module outlives its call
        cases = [([(2, 3)], 599, 397, 2), ([(2, 13)], 401, 1, 12), ([(2, 3)], 601, 397, 2)]
        specs = [SurgerySpec(from_newton_pairs(pairs), p, q) for pairs, p, q, _ in cases]
        fresh = [[compute_spinc(spec, a) for a in range(spec.p)] for spec in specs]
        built = []
        real = hfcore.module_from_tau

        def counting(tau):
            built.append(tau)
            return real(tau)

        monkeypatch.setattr(hfcore, "module_from_tau", counting)
        for spec, ref, (*_, taus) in zip(specs, fresh, cases):
            built.clear()
            assert compute_all(spec) == ref
            assert len(built) == len(set(built)) == taus
            assert set(built) == {r.tau for r in ref}
        assert set(built) == {r.tau for r in fresh[0]}

    def test_no_class_builds_a_shifted_module(self, monkeypatch):
        # per class the pipeline stores r_a and the writer formats it; a
        # shifted module is built only where `res.module` is read
        spec = SurgerySpec(K23, 599, 397)
        shifts = []
        real = UModuleDecomposition.shifted

        def counting(module, r):
            shifts.append(r)
            return real(module, r)

        monkeypatch.setattr(UModuleDecomposition, "shifted", counting)
        results = compute_all(spec)
        cli._compute_json(K23, 599, 397, spec, compute_runs(spec))
        assert shifts == []
        assert results[7].module.shift == results[7].shift
        assert shifts == [results[7].shift]


class TestComputeRuns:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 2]), st.integers(0, 10**4), st.integers(1, 700) | st.just(1),
           st.integers(1, 900) | st.just(1))
    @example(pairs=1, pick=0, p=1, q=1)
    @example(pairs=2, pick=0, p=1, q=1)
    @example(pairs=1, pick=3, p=401, q=1)  # q = 1, p > 2 delta - 1: tau steps at every a with t_a >= 0
    @example(pairs=2, pick=1, p=97, q=1)
    @example(pairs=1, pick=5, p=7, q=640)  # q > p
    @example(pairs=2, pick=7, p=3, q=899)
    @example(pairs=2, pick=2, p=120, q=77)
    def test_runs_match_the_per_class_pass(self, pairs, pick, p, q):
        # the runs start at 0, follow each other and end at p, and are
        # maximal: neighbouring runs differ in tau.  Every class of a run
        # agrees with the pass that builds tau and r_a for each class
        assume(gcd(p, q) == 1)
        spec = SurgerySpec(shallow_knot(pairs, pick, p, q), p, q)
        runs, refs = compute_runs(spec), compute_all_per_class(spec)
        assert runs[0].start == 0 and runs[-1].stop == p
        for run, after in zip(runs, runs[1:]):
            assert run.stop == after.start and run.tau != after.tau
        for run in runs:
            assert type(run.r_num) is type(run.r_den) is tuple and len(run.r_num) == len(run.r_den) == run.stop - run.start
            module = (run.tau_module.shift, run.tau_module.tower, run.tau_module.towers)
            for a, num, den in zip(range(run.start, run.stop), run.r_num, run.r_den):
                ref = refs[a]
                assert type(num) is type(den) is int and den > 0 and gcd(num, den) == 1
                assert (run.depth, run.tau, Fraction(num, den), run.alpha_sum) == (ref.depth, ref.tau, ref.shift,
                                                                                  ref.alpha_sum)
                assert module == (ref.tau_module.shift, ref.tau_module.tower, ref.tau_module.towers)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 900), st.integers(1, 900), st.data())
    def test_a_range_of_classes_is_the_runs_clipped_to_it(self, p, q, data):
        # the pass over [start, stop) cuts where the pass over [0, p) cuts,
        # and its column of numerators is the one stepped class by class
        assume(gcd(p, q) == 1)
        spec = SurgerySpec(data.draw(st.sampled_from(knots_within(p, q, max(20, -(-q // p))))), p, q)
        start = data.draw(st.integers(0, p - 1), label="start")
        stop = data.draw(st.integers(start + 1, p), label="stop")
        assert hfcore._shift_numerators(spec, start, stop) == [*shift_numerators_stepped(spec, start, stop)]
        clipped = [(max(r.start, start), min(r.stop, stop), r.tau, r.r_num[max(start - r.start, 0):stop - r.start])
                   for r in compute_runs(spec) if r.start < stop and start < r.stop]
        assert [(r.start, r.stop, r.tau, r.r_num) for r in hfcore._runs(spec, start, stop)] == clipped

    def test_rank_identity_reads_the_depths_of_the_runs(self, monkeypatch):
        # a depth planted one too deep in the first run, of 241 classes, adds
        # 241 to the ker U rank p + (2 delta - 1) q = 256 + 5 * 253
        real = hfcore._runs

        def deeper(spec, start, stop):
            runs = real(spec, start, stop)
            first = runs[0]
            parts = {name: getattr(first, name) for name in SpincRun.__slots__}
            return [SpincRun(**{**parts, "depth": first.depth + 1}), *runs[1:]]

        spec = SurgerySpec(from_newton_pairs([(3, 4)]), 256, 253)
        assert compute_runs(spec)[0].stop == 241
        monkeypatch.setattr(hfcore, "_runs", deeper)
        with pytest.raises(InternalInvariantError, match=r"^ker U rank 1762 != p \+ \(2 delta - 1\) q = 1521$"):
            compute_runs(spec)
        assert compute_run(spec, 0).depth == real(spec, 0, 1)[0].depth + 1  # one class has no identity to check


class TestClosedForm:
    def test_trefoil(self):
        assert closed_form_p1q1(K23) == module_from_parts(0, [(0, 1)])

    def test_2_5(self):
        k = from_newton_pairs([(2, 5)])
        assert closed_form_p1q1(k) == module_from_parts(
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


class TestIntegerGrades:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3000), st.integers(1, 3000), st.data())
    def test_match_fraction_assembly(self, p, q, data):
        g = gcd(p, q)
        p, q = p // g, q // g
        spec = SurgerySpec(data.draw(st.sampled_from(knots_within(p, q))), p, q)
        a = data.draw(st.integers(0, p - 1))
        res, ref = compute_spinc(spec, a), spinc_fractions(spec, a)
        assert res.shift == ref.shift
        assert res.module.tower_grade == ref.tower_grade
        assert res.module.finite_towers == ref.finite_towers
        assert res.d_invariant == ref.d_invariant
        assert res.sw_invariant == ref.sw_invariant
        assert res.ker_u == ref.ker_u
        assert res.coker_u == ref.coker_u
        # written as (N + g D)/D and printed without Fractions, against Fraction's own
        assert class_block(res) == cli._json(spinc_fractions_block(ref), "    ")
        assert cli._run_text(run_of(res)) == ["", *spinc_text(ref)]

    def test_stored_grades_are_ints(self):
        for pairs, p, q in [([(4, 5)], 2, 1), ([(2, 3)], 7, 5), ([(2, 3), (2, 1)], 4, 3), ([(3, 4)], 1, 2)]:
            for res in compute_all(SurgerySpec(from_newton_pairs(pairs), p, q)):
                module = res.module
                stored = (module.tower, *(g for g, _ in module.towers), *res.ker, *res.coker)
                assert all(type(g) is int for g in stored)
                assert all(g % 2 == 0 for g in stored)
                assert type(res.alpha_sum) is int
                assert module.shift == res.shift and res.tau_module.shift == 0
                assert (module.tower, module.towers) == (res.tau_module.tower, res.tau_module.towers)
                assert module.tower == 2 * min(res.tau)
                # d and sw stay exact Fractions, built from the ints when read
                assert type(res.d_invariant) is type(res.sw_invariant) is Fraction
                assert res.d_invariant == res.shift + module.tower
                assert res.sw_invariant == res.shift / 2 - res.alpha_sum

    def test_module_equality_is_on_absolute_grades(self):
        mod = module_from_parts(Fraction(-1, 4), [(Fraction(7, 4), 2)])
        assert mod == module_from_parts(-2, [(0, 2)]).shifted(Fraction(7, 4))
        assert hash(mod) == hash(module_from_parts(-2, [(0, 2)]).shifted(Fraction(7, 4)))
        assert mod != module_from_parts(-2, [(0, 2)]).shifted(Fraction(3, 4))
        with pytest.raises(ValueError, match="even integer"):
            module_from_parts(0, [(1, 1)])
        with pytest.raises(ValueError, match="even integer"):
            module_from_parts(0, [(Fraction(1, 2), 1)])


class TestSpincTemplate:
    """`cli._group_blocks` writes a class's block straight from its integers;
    the reference is the dict `oracles.spinc_block` run through `cli._json`."""

    @staticmethod
    def reference(res):
        return cli._json(spinc_block(res), "    ")

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 700), st.integers(1, 700), st.data())
    def test_matches_reference(self, p, q, data):
        g = gcd(p, q)
        p, q = p // g, q // g
        depth = max(40, -(-q // p))  # the trefoil always qualifies
        spec = SurgerySpec(data.draw(st.sampled_from(knots_within(p, q, depth))), p, q)
        res = compute_spinc(spec, data.draw(st.integers(0, p - 1)))
        assert class_block(res) == self.reference(res)

    @pytest.mark.parametrize(
        "pairs, p, q, a, shape",
        [
            ([(2, 3)], 6, 1, 1, "stem"),             # t_a = -1: tau = [0], no finite tower, no coker
            ([(2, 3)], 3, 7, 0, "q > p"),
            ([(3, 4)], 5, 11, 4, "q > p"),
            ([(2, 3), (2, 1)], 4, 3, 1, "two pairs"),
            ([(2, 3), (3, 2)], 7, 2, 5, "two pairs"),
            ([(4, 5)], 2, 1, 0, "multiplicity"),
            ([(4, 5)], 1, 1, 0, "multiplicity"),
        ],
    )
    def test_named_cases(self, pairs, p, q, a, shape):
        res = compute_spinc(SurgerySpec(from_newton_pairs(pairs), p, q), a)
        text = class_block(res)
        assert text == self.reference(res)
        if shape == "stem":
            assert res.depth == -1 and res.tau == (0,)
            assert '"finite_towers": []' in text and '"coker_u": []' in text
        elif shape == "q > p":
            assert q > p
        elif shape == "two pairs":
            assert len(pairs) == 2
        else:
            assert any(m > 1 for *_, m in res.module.grouped())

    def test_d_and_sw_in_lowest_terms(self):
        # r_a with an odd numerator, an even one, and an integral r_a
        seen = set()
        for pairs, p, q in [([(2, 3)], 7, 5), ([(4, 5)], 2, 1), ([(3, 4)], 1, 2), ([(2, 5)], 9, 4)]:
            for res in compute_all(SurgerySpec(from_newton_pairs(pairs), p, q)):
                seen.add((res.shift.numerator % 2, res.shift.denominator))
                block = json.loads(class_block(res))
                for key in ("d_invariant", "sw_invariant"):
                    x = getattr(res, key)
                    assert block[key] == f"{x.numerator}/{x.denominator}"
        assert {1, 0} == {odd for odd, den in seen if den > 1}
        assert (0, 1) in seen

    @staticmethod
    def broken(res, field, bad):
        """res with one stored int replaced by `bad`."""
        module, vals = res.tau_module, res.tau
        parts = {"a": res.a, "depth": res.depth, "r_num": res.r_num, "r_den": res.r_den, "tau": res.tau,
                 "tau_module": module, "alpha_sum": res.alpha_sum}
        if field == "tau":
            parts["tau"] = (*vals[:-1], bad)
        elif field == "tower":
            parts["tau_module"] = UModuleDecomposition(module.shift, bad, module.towers)
        elif field in ("tower grade", "tower length"):
            (g, n), *rest = module.towers
            first = (bad, n) if field == "tower grade" else (g, bad)
            parts["tau_module"] = UModuleDecomposition(module.shift, module.tower, (first, *rest))
        elif field == "low":
            # tau's minimum and the tower grade 2 min tau read from it, together
            i = vals.index(min(vals))
            parts["tau"] = (*vals[:i], bad, *vals[i + 1:])
            parts["tau_module"] = UModuleDecomposition(module.shift, 2 * bad, module.towers)
        else:
            parts[field] = bad
        return SpincResult(**parts)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4), 0.5, 2.0, True, False])
    @pytest.mark.parametrize("field", ["a", "depth", "tau", "tower", "tower grade", "tower length", "low", "alpha_sum"])
    def test_rejects_everything_else(self, field, bad):
        res = compute_spinc(SurgerySpec(K45, 2, 1), 0)
        assert res.tau_module.towers
        broken = self.broken(res, field, bad)
        with pytest.raises(TypeError):
            class_block(broken)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4), 0.5, 2.0, True, False])
    @pytest.mark.parametrize("field", ["tau", "tower", "tower grade", "tower length", "low", "alpha_sum"])
    def test_shared_piece_rejects_everything_else(self, field, bad):
        # a value of tau alone is checked once, when its piece is built
        res = compute_spinc(SurgerySpec(K45, 2, 1), 0)
        with pytest.raises(TypeError):
            cli._tau_piece(run_of(self.broken(res, field, bad)))

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4), 0.5, 2.0, True, False])
    @pytest.mark.parametrize("field", ["a", "depth", "numerator", "denominator"])
    def test_class_on_a_shared_piece_rejects_everything_else(self, field, bad):
        # -13/2 on (4,5): classes 10 and 11 share tau = [0, 3, 0], so class
        # 11 reuses the piece of class 10; its own a, t_a and r_a are still checked
        spec = SurgerySpec(K45, 13, 2)
        results = compute_all(spec)
        first, res = results[10:12]
        assert first.tau is res.tau and res.module.towers
        broken = self.broken(res, RATIO_SLOTS.get(field, field), bad)
        piece = cli._tau_piece(run_of(first))
        assert class_block(res, piece) == self.reference(res)
        with pytest.raises(TypeError):
            class_block(broken, piece)
        with pytest.raises(TypeError):
            cli._compute_json(K45, 13, 2, spec, [*map(run_of, results[:11]), run_of(broken),
                                                 *map(run_of, results[12:])])


class TestComputeDocument:
    """`cli._compute_json` writes each run's piece once per document."""

    @staticmethod
    def reference(knot, p, q, spec, results):
        """The whole document through `cli._json`: each class is
        `_json(spinc_block(res), "    ")`, joined as `_json` joins a list."""
        doc = {"knot": cli._knot_block(knot), "surgery": cli._surgery_block(p, q, spec),
               "spinc": [spinc_block(res) for res in results]}
        return cli._json(doc) + "\n"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 60), st.integers(1, 120), st.data())
    def test_matches_reference(self, p, q, data):
        assume(gcd(p, q) == 1)
        knot = data.draw(st.sampled_from(knots_within(p, q, max(30, -(-q // p)))))  # the trefoil always qualifies
        spec = SurgerySpec(knot, p, q)
        assert cli._compute_json(knot, p, q, spec, compute_runs(spec)) == self.reference(knot, p, q, spec,
                                                                                          compute_all(spec))

    @pytest.mark.parametrize("pairs, p, q, taus", [([(2, 3)], 599, 397, 2), ([(4, 5)], 401, 1, 12), ([(4, 5)], 1, 16, 1)])
    def test_one_piece_per_distinct_tau(self, monkeypatch, pairs, p, q, taus):
        knot = from_newton_pairs(pairs)
        spec = SurgerySpec(knot, p, q)
        runs = compute_runs(spec)
        assert len(runs) == len({run.tau for run in runs}) == taus
        built = []
        real = cli._tau_piece

        def counting(run):
            built.append(run.tau)
            return real(run)

        monkeypatch.setattr(cli, "_tau_piece", counting)
        for _ in range(2):  # no piece outlives its document
            built.clear()
            assert cli._compute_json(knot, p, q, spec, runs) == self.reference(knot, p, q, spec, compute_all(spec))
            assert len(built) == len(set(built)) == taus

    def test_classes_with_equal_but_unshared_taus(self):
        # the same classes cut into runs of one, each holding its tau in its
        # own object: one piece each, and the same document.  Each tau is
        # copied here, as two compute_run calls may return one object (at
        # t_a = -1 tau is the constant (0,))
        spec = SurgerySpec(K23, 7, 1)
        shared = compute_runs(spec)
        single = [SpincRun(r.start, r.stop, r.depth, tuple(list(r.tau)), r.tau_module, r.alpha_sum, r.r_num, r.r_den)
                  for r in (compute_run(spec, a) for a in range(7))]
        assert [(r.start, r.stop) for r in shared] == [(0, 1), (1, 7)]
        assert single[1].tau is not single[2].tau and single[1].tau == single[2].tau == shared[1].tau
        assert cli._compute_json(K23, 7, 1, spec, single) == cli._compute_json(K23, 7, 1, spec, shared)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(1, 700), st.sampled_from([360, 420, 480, 504, 540, 600, 630, 660, 672, 700])),
           st.integers(1, 700), st.data())
    def test_matches_reference_up_to_p_700(self, p, q, data):
        # even p and p with many divisors give one tau several denominators of r_a
        while gcd(p, q) != 1:
            q += 1
        knot = data.draw(st.sampled_from(knots_within(p, q, max(6, -(-q // p)))))  # the trefoil always qualifies
        spec = SurgerySpec(knot, p, q)
        assert cli._compute_json(knot, p, q, spec, compute_runs(spec)) == self.reference(knot, p, q, spec,
                                                                                          compute_all(spec))

    @pytest.mark.parametrize("pairs, p, q, groups", [
        ([(2, 3)], 599, 397, 3), ([(3, 4)], 256, 253, 17), ([(4, 5)], 401, 1, 12), ([(4, 5)], 1, 16, 1),
    ])
    def test_named_documents(self, pairs, p, q, groups):
        # groups: the distinct (run, denominator of r_a); more than the runs
        # where one run carries several denominators
        knot = from_newton_pairs(pairs)
        spec = SurgerySpec(knot, p, q)
        runs = compute_runs(spec)
        assert sum(len(set(run.r_den)) for run in runs) == groups
        assert cli._compute_json(knot, p, q, spec, runs) == self.reference(knot, p, q, spec, compute_all(spec))

    @staticmethod
    def planted(runs, a, field, bad):
        """`runs` with `bad` in the start or t_a of the run of class a, or in
        the numerator or denominator of r_a of class a."""
        i = next(i for i, run in enumerate(runs) if run.start <= a < run.stop)
        run = runs[i]
        parts = {name: getattr(run, name) for name in SpincRun.__slots__}
        if field in RATIO_SLOTS:
            column = list(parts[RATIO_SLOTS[field]])
            column[a - run.start] = bad
            parts[RATIO_SLOTS[field]] = tuple(column)
        else:
            parts[{"a": "start", "depth": "depth"}[field]] = bad
        return [*runs[:i], SpincRun(**parts), *runs[i + 1:]]

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1198), 0.5, 1198.0, True, False])
    @pytest.mark.parametrize("field", ["a", "depth", "numerator", "denominator"])
    def test_rejects_a_value_planted_inside_a_large_group(self, field, bad):
        # class 300 of -599/397 shares its run and D = 1198 with 395 other
        # classes; Fraction(1198) and 1198.0 are equal keys to 1198.  Its a
        # is its run's start plus its place, so "a" plants the start
        spec = SurgerySpec(K23, 599, 397)
        results, runs = compute_all(spec), compute_runs(spec)
        res = results[300]
        assert sum(r.tau is res.tau and r.r_den == 1198 for r in results) == 396
        with pytest.raises(TypeError):
            cli._compute_json(K23, 599, 397, spec, self.planted(runs, 300, field, bad))

    @pytest.mark.parametrize("bad", [True, Fraction(1), 1.0])
    def test_rejects_a_denominator_equal_to_1_as_a_key(self, bad):
        # -9/2: classes 2, 5 and 8 share tau (0,) and r_a = 0/1; True == 1
        # would put class 5 in their group, where only its own D shows the bool
        spec = SurgerySpec(K23, 9, 2)
        results = compute_all(spec)
        assert [r.a for r in results if r.tau is results[5].tau and r.r_den == 1] == [2, 5, 8]
        with pytest.raises(TypeError):
            cli._compute_json(K23, 9, 2, spec, self.planted(compute_runs(spec), 5, "denominator", bad))

    def test_memory_of_a_long_tau(self):
        # one class with 66,001 tau values: the peak (about 3.8x the document)
        # stays within 5x, which catches a whole extra copy of the block text
        # alive at once, not smaller per-grade overheads
        spec = SurgerySpec(K45, 1, 3000)
        runs = compute_runs(spec)
        tracemalloc.start()
        try:
            text = cli._compute_json(K45, 1, 3000, spec, runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs[0].tau) == 66001
        assert peak <= 5 * len(text)
