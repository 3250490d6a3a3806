import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    layout_fractions,
    merge_level,
    module_from_root,
    module_from_tau_sweep,
    reduced_rank_drops,
    render_svg_rows,
    root_from_tau_rescan,
    root_from_tau_switch,
    subtree_keys_nested,
)

from hfroots import SurgerySpec, compute_run, from_newton_pairs
from hfroots.root import (
    GradedRoot,
    _layout,
    grade_text,
    grouped,
    module_from_tau,
    module_text,
    reduced_rank,
    render,
    root_from_tau,
)

GOLDEN = Path(__file__).parent / "golden"

TAU_45_2_1_A0 = (0, 1, -5, -4, -8, -6, -9, -6, -8, -4, -5, 1, 0)
TAU_45_2_1_A1 = (0, 1, -4, -3, -6, -3, -6, -3, -4, 1, 0)


def towers(*pairs):
    return tuple(sorted(pairs))


# the stack pass and the references: the (value, index) sweep, and the
# rescanned root's pairwise leaf walk
MODULE_ROUTES = (module_from_tau, module_from_tau_sweep, lambda tau: module_from_root(root_from_tau_rescan(tau)))

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# Small value ranges and flat steps make plateaus, repeated minima and ties common.
TAUS = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=30),
    st.builds(
        lambda start, steps: [start + sum(steps[:i]) for i in range(len(steps) + 1)],
        st.integers(-10, 10),
        st.lists(st.integers(-3, 3), max_size=40),
    ),
).map(tuple)


class TestRootFromTau:
    def test_single_stem(self):
        root = root_from_tau((0,))
        assert len(root) == 1
        assert root.chi[root.top] == 0
        assert root.leaves == (root.top,)

    def test_two_leaves(self):
        root = root_from_tau((0, 3, 1, 5))
        leaf_levels = sorted(root.chi[v] for v in root.leaves)
        assert leaf_levels == [0, 1]
        v0, v1 = sorted(root.leaves, key=lambda v: root.chi[v])
        assert merge_level(root, v0, v1) == 3
        assert root.chi[root.top] == 5

    def test_torus_45_leaf_levels(self):
        root = root_from_tau(TAU_45_2_1_A0)
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
            root = root_from_tau(tuple(vals))
            assert sorted(root.chi[v] for v in root.leaves) == sorted(vals[i] for i in minima)

    def test_plateau_insertion_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            vals = [rng.randint(-6, 6) for _ in range(rng.randint(1, 12))]
            i = rng.randrange(len(vals))
            doubled = vals[: i + 1] + [vals[i]] + vals[i + 1:]
            a = root_from_tau(tuple(vals))
            b = root_from_tau(tuple(doubled))
            assert a.level_keys() == b.level_keys()

    def test_mirror_symmetry(self):
        rng = random.Random(11)
        for _ in range(200):
            vals = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 12)))
            a = root_from_tau(vals)
            b = root_from_tau(vals[::-1])
            assert a.level_keys() == b.level_keys()

    @PROPERTY
    @given(TAUS)
    def test_matches_rescan_numbering(self, tau):
        # and the sweep through the bounds-checked `_switch_on`
        fast = root_from_tau(tau)
        for ref in (root_from_tau_rescan(tau), root_from_tau_switch(tau)):
            assert (fast.chi, fast.parent) == (ref.chi, ref.parent)

    @PROPERTY
    @given(TAUS, st.sampled_from(["same", "mirror", "plateau", "bump"]), st.integers(0, 10**6), st.integers(-2, 2))
    def test_keys_match_nested_keys(self, tau, twist, at, step):
        # the flat level keys tell roots apart exactly as the nested subtree keys do
        vals = list(tau)
        i = at % len(vals)
        if twist == "mirror":
            vals.reverse()
        elif twist == "plateau":
            vals.insert(i, vals[i])
        elif twist == "bump":
            vals[i] += step
        a, b = root_from_tau(tau), root_from_tau(tuple(vals))

        def nested(root):
            return root.chi[root.top], subtree_keys_nested(root)[root.top]

        assert (a.level_keys() == b.level_keys()) == (nested(a) == nested(b))

    def test_tall_root_keys(self):
        # height 6001: nested keys overflow the recursion limit when compared
        tau = compute_run(SurgerySpec(from_newton_pairs([(4, 5)]), 1, 400), 0).tau
        root = root_from_tau(tau)
        assert root.chi[root.top] - root.min_level() == 6001
        vals = list(tau)
        assert root.level_keys() == root_from_tau(tuple(vals)).level_keys()
        middle = next(i for i in range(len(vals) // 2, len(vals) - 1)
                      if vals[i - 1] > vals[i] < vals[i + 1])  # a leaf well above the lowest
        for i, step in ((vals.index(min(vals)), -1), (middle, -1), (middle, 1)):
            bumped = vals[:i] + [vals[i] + step] + vals[i + 1:]
            assert root.level_keys() != root_from_tau(tuple(bumped)).level_keys()

    def test_validation(self):
        with pytest.raises(ValueError):
            GradedRoot([0, 2], [1, None])  # edge jumps two levels
        with pytest.raises(ValueError):
            GradedRoot([0, 1, 1], [1, None, None])  # two tops


@pytest.mark.parametrize("route", [root_from_tau, module_from_tau])
def test_empty_tau_is_refused(route):
    with pytest.raises(ValueError, match="^tau needs at least one value$"):
        route(())


class TestModule:
    def test_bare_stem(self):
        for route in MODULE_ROUTES:
            assert route((0,)) == (0, ())

    def test_two_leaves(self):
        for route in MODULE_ROUTES:
            assert route((0, 3, 1, 5)) == (0, towers((2, 2)))

    def test_torus_45_modules(self):
        for route in MODULE_ROUTES:
            assert route(TAU_45_2_1_A0) == (-18, towers((-16, 2), (-16, 2), (-10, 1), (-10, 1), (0, 1), (0, 1)))
            assert route(TAU_45_2_1_A1) == (-12, towers((-12, 3), (-8, 1), (-8, 1), (0, 1), (0, 1)))

    def test_a_pair_of_ints(self):
        # the module is (tower, towers) itself, no record around it
        for tau in ((0,), TAU_45_2_1_A0, TAU_45_2_1_A1):
            tower, pairs = module = module_from_tau(tau)
            assert type(module) is tuple and type(pairs) is tuple and type(tower) is int
            assert all(type(g) is int and type(n) is int for g, n in pairs)

    @PROPERTY
    @given(TAUS)
    def test_matches_reference(self, tau):
        assert module_from_tau(tau) == module_from_tau_sweep(tau) == module_from_root(root_from_tau_rescan(tau))

    @pytest.mark.parametrize(
        "pairs, p, q",
        [(((4, 5),), 1, 16), (((2, 13),), 1, 1), (((11, 13),), 1, 1), (((7, 11),), 1, 4),
         (((2, 3), (2, 1)), 5, 3), (((3, 4),), 7, 5)],
    )
    def test_matches_reference_on_corpus_taus(self, pairs, p, q):
        spec = SurgerySpec(from_newton_pairs(list(pairs)), p, q)
        for a in range(spec.p):
            tau = compute_run(spec, a).tau
            assert module_from_tau(tau) == module_from_tau_sweep(tau) == module_from_root(root_from_tau_rescan(tau))

    def test_tie_break_invariance(self):
        rng = random.Random(23)
        for _ in range(300):
            vals = [0] + [rng.randint(-5, 8) for _ in range(rng.randint(1, 14))]
            vals[1] = abs(vals[1]) + 1
            root = root_from_tau(tuple(vals))
            base = module_from_root(root)
            perm = list(range(len(root.chi)))
            rng.shuffle(perm)
            shuffled = module_from_root(root, tie_key=lambda v: perm[v])
            assert shuffled == base

    def test_shift(self):
        # a class's grades are its module's plus r_a, added as they are written
        tower, pairs = -18, towers((-16, 2), (0, 1))
        assert grade_text(71, 4, tower) == "-1/4"
        assert module_text(71, 4, tower, grouped(pairs)) == "T+[-1/4] + T[7/4](2) + T[71/4](1)"

    def test_grouped_towers(self):
        tower, pairs = -18, towers((0, 1), (-16, 2), (-10, 1), (-16, 2))
        assert grouped(pairs) == [(-16, 2, 2), (-10, 1, 1), (0, 1, 1)]
        assert module_text(0, 1, tower, grouped(pairs)) == "T+[-18] + 2*T[-16](2) + T[-10](1) + T[0](1)"
        assert module_text(71, 4, tower, grouped(pairs)) == "T+[-1/4] + 2*T[7/4](2) + T[31/4](1) + T[71/4](1)"

    def test_grouped_keys_on_grade_and_length(self):
        # a grade repeated with two lengths is two groups; a tower repeated
        # three times is one group of multiplicity 3
        pairs = towers((-2, 1), (-2, 3), (-2, 1), (0, 1), (0, 1), (0, 1))
        assert grouped(pairs) == [(-2, 1, 2), (-2, 3, 1), (0, 1, 3)]
        assert module_text(0, 1, -4, grouped(pairs)) == "T+[-4] + 2*T[-2](1) + T[-2](3) + 3*T[0](1)"
        assert grouped(()) == []


class TestReducedRank:
    def test_examples(self):
        assert reduced_rank((0, 1)) == 0
        assert reduced_rank((0, 3, 1, 5)) == 2
        assert reduced_rank(TAU_45_2_1_A0) == 8

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError, match=r"^reduced_rank requires tau\(1\) > tau\(0\) = 0$"):
            reduced_rank(())  # its own check, not the empty-tau one
        with pytest.raises(ValueError):
            reduced_rank((0,))
        with pytest.raises(ValueError):
            reduced_rank((0, 0, 3))
        with pytest.raises(ValueError):
            reduced_rank((1, 2))

    @PROPERTY
    @given(st.tuples(st.integers(1, 10), st.lists(st.integers(-10, 10), max_size=40)))
    def test_matches_the_sum_of_drops(self, start):
        tau = (0, start[0], *start[1])
        assert reduced_rank(tau) == reduced_rank_drops(tau)

    def test_matches_module_rank(self):
        rng = random.Random(5)
        for _ in range(1000):
            vals = [0, rng.randint(1, 10)]
            vals += [rng.randint(-10, 10) for _ in range(rng.randint(0, 18))]
            tau = tuple(vals)
            assert reduced_rank(tau) == sum([n for _, n in module_from_tau(tau)[1]])


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
        path = GOLDEN / f"{name}.svg"
        assert render(root_from_tau(tau)) == path.read_text(), f"regenerate with tests/make_goldens.py ({path})"

    @PROPERTY
    @given(TAUS)
    def test_svg_matches_the_row_writer(self, tau):
        root = root_from_tau(tau)
        assert render(root) == render_svg_rows(root)


def assert_layout_matches(root):
    ref = layout_fractions(root)
    for unit in (4, 48):  # a narrow unit, where floors collide, and render's
        cols = _layout(root, unit)
        assert cols == [unit * ref[v].numerator // ref[v].denominator for v in range(len(root))]
        assert {type(c) for c in cols} == {int}


class TestLayout:
    @PROPERTY
    @given(TAUS)
    def test_matches_fraction_layout(self, tau):
        assert_layout_matches(root_from_tau(tau))

    @pytest.mark.parametrize(
        "pairs, p, q",
        [(((4, 5),), 1, 16), (((7, 11),), 1, 16), (((3, 7),), 1, 12), (((2, 13),), 1, 8),
         (((11, 13),), 1, 1), (((2, 3), (2, 1)), 5, 3)],
    )
    def test_matches_fraction_layout_on_corpus_taus(self, pairs, p, q):
        spec = SurgerySpec(from_newton_pairs(list(pairs)), p, q)
        for a in range(spec.p):
            assert_layout_matches(root_from_tau(compute_run(spec, a).tau))

    def test_fractions_only_at_branching_vertices(self, monkeypatch):
        # `layout_fractions` alone builds 747 Fractions for this 374-vertex
        # root; the renderer's layout keeps integer pairs and builds none
        root = root_from_tau(compute_run(SurgerySpec(from_newton_pairs([(3, 7)]), 1, 12), 0).tau)
        branching = sum(1 for kids in root.children if len(kids) > 1)
        assert (len(root), branching) == (374, 61)
        built = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic results skip __new__ there
            make = Fraction._from_coprime_ints.__func__
            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(lambda cls, *args: built.append(cls) or make(cls, *args)))
        render(root)
        assert built == []
        layout_fractions(root)
        assert built  # the counter sees the Fractions a layout would build
