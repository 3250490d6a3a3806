import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import merge_level, module_from_root, root_from_tau_rescan

from hfroots import SurgerySpec, compute_spinc, from_newton_pairs
from hfroots.root import (
    GradedRoot,
    TauFunction,
    UModuleDecomposition,
    module_from_tau,
    reduced_rank,
    render,
    root_from_tau,
)

GOLDEN = Path(__file__).parent / "golden"

TAU_45_2_1_A0 = (0, 1, -5, -4, -8, -6, -9, -6, -8, -4, -5, 1, 0)
TAU_45_2_1_A1 = (0, 1, -4, -3, -6, -3, -6, -3, -4, 1, 0)


def towers(*pairs):
    return tuple(sorted((Fraction(g), n) for g, n in pairs))


# the fast path and the reference (rescanned root, pairwise leaf walk)
MODULE_ROUTES = (module_from_tau, lambda tau: module_from_root(root_from_tau_rescan(tau)))

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# Small value ranges and flat steps make plateaus, repeated minima and ties common.
TAUS = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=30),
    st.builds(
        lambda start, steps: [start + sum(steps[:i]) for i in range(len(steps) + 1)],
        st.integers(-10, 10),
        st.lists(st.integers(-3, 3), max_size=40),
    ),
).map(lambda vals: TauFunction(tuple(vals)))


class TestRootFromTau:
    def test_single_stem(self):
        root = root_from_tau(TauFunction((0,)))
        assert len(root) == 1
        assert root.chi[root.top] == 0
        assert root.leaves == (root.top,)

    def test_two_leaves(self):
        root = root_from_tau(TauFunction((0, 3, 1, 5)))
        leaf_levels = sorted(root.chi[v] for v in root.leaves)
        assert leaf_levels == [0, 1]
        v0, v1 = sorted(root.leaves, key=lambda v: root.chi[v])
        assert merge_level(root, v0, v1) == 3
        assert root.chi[root.top] == 5

    def test_torus_45_leaf_levels(self):
        root = root_from_tau(TauFunction(TAU_45_2_1_A0))
        leaf_levels = sorted(root.chi[v] for v in root.leaves)
        assert leaf_levels == [-9, -8, -8, -5, -5, 0, 0]

    def test_leaves_are_strict_local_minima(self):
        rng = random.Random(31)
        for _ in range(300):
            # sample without plateaus so minima are unambiguous
            vals = [rng.randint(-8, 8)]
            while len(vals) < rng.randint(2, 14):
                step = rng.choice([-3, -2, -1, 1, 2, 3])
                vals.append(vals[-1] + step)
            minima = [
                i
                for i in range(len(vals))
                if (i == 0 or vals[i] < vals[i - 1]) and (i == len(vals) - 1 or vals[i] < vals[i + 1])
            ]
            root = root_from_tau(TauFunction(tuple(vals)))
            assert sorted(root.chi[v] for v in root.leaves) == sorted(vals[i] for i in minima)

    def test_plateau_insertion_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            vals = [rng.randint(-6, 6) for _ in range(rng.randint(1, 12))]
            i = rng.randrange(len(vals))
            doubled = vals[: i + 1] + [vals[i]] + vals[i + 1:]
            a = root_from_tau(TauFunction(tuple(vals)))
            b = root_from_tau(TauFunction(tuple(doubled)))
            assert a.canonical_key() == b.canonical_key()

    def test_mirror_symmetry(self):
        rng = random.Random(11)
        for _ in range(200):
            vals = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 12)))
            a = root_from_tau(TauFunction(vals))
            b = root_from_tau(TauFunction(vals[::-1]))
            assert a.canonical_key() == b.canonical_key()

    @PROPERTY
    @given(TAUS)
    def test_matches_rescan_numbering(self, tau):
        fast, ref = root_from_tau(tau), root_from_tau_rescan(tau)
        assert (fast.chi, fast.parent) == (ref.chi, ref.parent)

    def test_validation(self):
        with pytest.raises(ValueError):
            GradedRoot([0, 2], [1, None])  # edge jumps two levels
        with pytest.raises(ValueError):
            GradedRoot([0, 1, 1], [1, None, None])  # two tops


class TestModule:
    def test_bare_stem(self):
        for route in MODULE_ROUTES:
            mod = route(TauFunction((0,)))
            assert mod.tower_grade == 0
            assert mod.finite_towers == ()

    def test_two_leaves(self):
        for route in MODULE_ROUTES:
            mod = route(TauFunction((0, 3, 1, 5)))
            assert mod.tower_grade == 0
            assert mod.finite_towers == towers((2, 2))

    def test_torus_45_modules(self):
        for route in MODULE_ROUTES:
            mod = route(TauFunction(TAU_45_2_1_A0))
            assert mod.tower_grade == -18
            assert mod.finite_towers == towers((-16, 2), (-16, 2), (-10, 1), (-10, 1), (0, 1), (0, 1))
            mod = route(TauFunction(TAU_45_2_1_A1))
            assert mod.tower_grade == -12
            assert mod.finite_towers == towers((-12, 3), (-8, 1), (-8, 1), (0, 1), (0, 1))

    @PROPERTY
    @given(TAUS)
    def test_matches_reference(self, tau):
        assert module_from_tau(tau) == module_from_root(root_from_tau_rescan(tau))

    @pytest.mark.parametrize(
        "pairs, p, q",
        [(((4, 5),), 1, 16), (((2, 13),), 1, 1), (((11, 13),), 1, 1), (((7, 11),), 1, 4),
         (((2, 3), (2, 1)), 5, 3), (((3, 4),), 7, 5)],
    )
    def test_matches_reference_on_corpus_taus(self, pairs, p, q):
        spec = SurgerySpec(from_newton_pairs(list(pairs)), p, q)
        for a in range(spec.p):
            tau = compute_spinc(spec, a).tau
            assert module_from_tau(tau) == module_from_root(root_from_tau_rescan(tau))

    def test_tie_break_invariance(self):
        rng = random.Random(23)
        for _ in range(300):
            vals = [0] + [rng.randint(-5, 8) for _ in range(rng.randint(1, 14))]
            vals[1] = abs(vals[1]) + 1
            root = root_from_tau(TauFunction(tuple(vals)))
            base = module_from_root(root)
            perm = list(range(len(root.chi)))
            rng.shuffle(perm)
            shuffled = module_from_root(root, tie_key=lambda v: perm[v])
            assert shuffled == base

    def test_shift(self):
        mod = UModuleDecomposition.from_parts(-18, [(-16, 2), (0, 1)])
        shifted = mod.shifted(Fraction(71, 4))
        assert shifted.tower_grade == Fraction(-1, 4)
        assert shifted.finite_towers == towers((Fraction(7, 4), 2), (Fraction(71, 4), 1))
        assert shifted.reduced_rank == 3

    def test_grouped_towers(self):
        mod = UModuleDecomposition.from_parts(-18, [(0, 1), (-16, 2), (-10, 1), (-16, 2)])
        assert list(mod.grouped()) == [(-16, 2, 2), (-10, 1, 1), (0, 1, 1)]
        assert str(mod) == "T+[-18] + 2*T[-16](2) + T[-10](1) + T[0](1)"


class TestReducedRank:
    def test_examples(self):
        assert reduced_rank(TauFunction((0, 1))) == 0
        assert reduced_rank(TauFunction((0, 3, 1, 5))) == 2
        assert reduced_rank(TauFunction(TAU_45_2_1_A0)) == 8

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            reduced_rank(TauFunction((0,)))
        with pytest.raises(ValueError):
            reduced_rank(TauFunction((0, 0, 3)))
        with pytest.raises(ValueError):
            reduced_rank(TauFunction((1, 2)))

    def test_matches_module_rank(self):
        rng = random.Random(5)
        for _ in range(1000):
            vals = [0, rng.randint(1, 10)]
            vals += [rng.randint(-10, 10) for _ in range(rng.randint(0, 18))]
            tau = TauFunction(tuple(vals))
            assert reduced_rank(tau) == module_from_tau(tau).reduced_rank


class TestRender:
    @pytest.mark.parametrize(
        "name, tau",
        [
            ("root_45_1_1_a0", None),  # filled in below from the closed form
            ("root_45_2_1_a0", TAU_45_2_1_A0),
            ("root_45_2_1_a1", TAU_45_2_1_A1),
        ],
    )
    def test_golden(self, name, tau):
        if tau is None:
            # tau(2t) = t(t - 11)/2 for the -1-surgery on the (4,5) torus knot
            even = [t * (t - 11) // 2 for t in range(12)]
            alpha = (6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1)
            vals = []
            for t in range(11):
                vals += [even[t], even[t + 1] + alpha[t]]
            vals.append(even[11])
            tau = tuple(vals)
        root = root_from_tau(TauFunction(tau))
        for fmt, ext in (("ascii", "txt"), ("svg", "svg")):
            got = render(root, fmt)
            path = GOLDEN / f"{name}.{ext}"
            assert got == path.read_text(), f"regenerate with tests/make_goldens.py ({path})"

    def test_bad_format(self):
        with pytest.raises(ValueError):
            render(root_from_tau(TauFunction((0,))), "png")
