import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from corpus_cases import ORACLE_CASES, SUBLEVEL_CASES
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import chain_coefficients, determinant, laufer_tau, minimal_cycle_sequence

import hfroots.plumbing as pl
from hfroots import SurgerySpec, compute_spinc, from_newton_pairs, root_from_tau

K23 = from_newton_pairs([(2, 3)])
K45 = from_newton_pairs([(4, 5)])


def surgery_setup(pairs, p, q):
    knot = from_newton_pairs(pairs)
    spec = SurgerySpec(knot, p, q)
    gm = pl.surgery_graph(knot, spec.cfrac)
    classes = pl.spinc_classes(gm, spec)
    return knot, spec, gm, classes


class TestGraphType:
    def test_tree_and_definite_enforced(self):
        with pytest.raises(ValueError):
            pl.PlumbingGraph([-2, -2], [])  # disconnected
        with pytest.raises(ValueError):
            pl.PlumbingGraph([0], [])  # not negative definite
        with pytest.raises(ValueError):
            pl.PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])  # cycle

    def test_pairing(self):
        g = pl.PlumbingGraph([-2, -3], [(0, 1)])
        assert g.pairing([1, 0], [1, 0]) == -2
        assert g.pairing([1, 0], [0, 1]) == 1
        assert g.pairing([1, 1], [1, 1]) == -3

    def test_json_roundtrip(self):
        g = pl.surgery_graph(K23, SurgerySpec(K23, 7, 5).cfrac)
        g2 = pl.graph_from_json(pl.graph_to_json(g))
        assert g2.euler == g.euler
        assert g2.edges == g.edges
        assert g2.distinguished == g.distinguished
        assert g2.arrow is None

    def test_json_validation(self):
        with pytest.raises(ValueError):
            pl.graph_from_json('{"vertices": [{"index": 1, "euler": -2}], "edges": []}')


class TestEmbeddedResolution:
    def test_trefoil_graph(self):
        g = pl.embedded_resolution(K23)
        assert sorted(g.euler) == [-3, -2, -1]
        assert g.euler[g.arrow] == -1
        assert g.degree(g.arrow) == 2  # plus the arrow makes it a node

    def test_torus_4_5(self):
        g = pl.embedded_resolution(K45)
        assert g.n == 5
        nodes = [j for j in range(g.n) if g.degree(j) + (1 if j == g.arrow else 0) >= 3]
        assert nodes == [g.arrow]
        assert pl.divisorial_cycle(g)[g.arrow] == 20

    def test_two_newton_pairs(self):
        k = from_newton_pairs([(2, 3), (2, 1)])
        g = pl.embedded_resolution(k)
        nodes = [j for j in range(g.n) if g.degree(j) + (1 if j == g.arrow else 0) >= 3]
        assert len(nodes) == 2
        assert pl.divisorial_cycle(g)[g.arrow] == 26

    @pytest.mark.parametrize(
        "pairs", [[(2, 3)], [(2, 5)], [(3, 4)], [(4, 7)], [(2, 3), (2, 3)], [(3, 4), (5, 3)]]
    )
    def test_self_checks_are_live(self, pairs):
        # construction already runs the four validations; re-check two here
        k = from_newton_pairs(pairs)
        g = pl.embedded_resolution(k)
        assert g.det == determinant(g.bmatrix())
        assert abs(g.det) == 1
        m = pl.divisorial_cycle(g)
        assert all(c > 0 for c in m)
        assert g.pairing(m, [1 if j == g.distinguished else 0 for j in range(g.n)]) == -1


class TestSurgeryGraph:
    def test_trefoil_minus_one(self):
        gm = pl.surgery_graph(K23, SurgerySpec(K23, 1, 1).cfrac)
        assert gm.euler[-1] == -7  # -k_1 - mf = -1 - 6
        assert gm.n == 4

    def test_45_chains(self):
        gm = pl.surgery_graph(K45, SurgerySpec(K45, 2, 1).cfrac)
        assert gm.euler[-1:] == (-22,)
        gm = pl.surgery_graph(K45, SurgerySpec(K45, 7, 5).cfrac)
        assert gm.euler[-3:] == (-22, -2, -3)

    def test_determinant_is_p(self):
        for p, q in [(1, 1), (2, 1), (7, 5), (5, 12)]:
            gm = pl.surgery_graph(K23, SurgerySpec(K23, p, q).cfrac)
            assert gm.det == determinant(gm.bmatrix())
            assert abs(gm.det) == p

    def test_det_matches_reference_on_oracle_corpus(self):
        # the last leading minor of the definiteness check is det B, sign (-1)^n
        for pairs, p, q in ORACLE_CASES:
            knot = from_newton_pairs(list(pairs))
            gm = pl.surgery_graph(knot, SurgerySpec(knot, p, q).cfrac)
            for g in (pl.embedded_resolution(knot), gm):
                assert g.det == determinant(g.bmatrix()) == (-1) ** g.n * abs(g.det)


class TestCanonicalClass:
    def test_minus_two_chains_have_zero_class(self):
        for n in (1, 2, 5):
            g = pl.PlumbingGraph([-2] * n, [(i, i + 1) for i in range(n - 1)])
            assert all(c == 0 for c in pl.canonical_class(g).coeffs)

    def test_adjunction(self):
        gm = pl.surgery_graph(K45, SurgerySpec(K45, 7, 5).cfrac)
        k = pl.canonical_class(gm).coeffs
        for j in range(gm.n):
            basis = [1 if i == j else 0 for i in range(gm.n)]
            assert gm.pairing(k, basis) == -gm.euler[j] - 2


class TestSpincClasses:
    def test_class_zero_is_canonical(self):
        knot, spec, gm, classes = surgery_setup([(4, 5)], 7, 5)
        cls = classes[0]
        assert cls.a_coeffs == (0,) * spec.cfrac.s
        assert all(c == 0 for c in cls.l_prime)
        assert cls.k_r.coeffs == pl.canonical_class(gm).coeffs

    def test_si_coefficients_7_5(self):
        cf = SurgerySpec(K23, 7, 5).cfrac
        assert pl._si_coefficients(cf, 3) == (0, 1, 0)
        for a in range(7):
            coeffs = pl._si_coefficients(cf, a)
            assert sum(cf.n(t + 2, cf.s) * coeffs[t] for t in range(cf.s)) == a

    def test_shift_triple_equality(self):
        for pairs, p, q in [([(2, 3)], 5, 3), ([(4, 5)], 2, 1), ([(2, 3), (2, 1)], 7, 4)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                lattice = pl.lattice_grading_shift(gm, classes[a])
                formula = pl.grading_shift_formula(p, q, knot.delta, a)
                from hfroots import grading_shift

                assert lattice == formula == grading_shift(spec, a)

    def test_projection_formula(self):
        # (pullback(x~), y) = (x~, projection(y)) for the two lattice maps
        rng = random.Random(3)
        for pairs, p, q in [([(2, 3), (2, 1)], 7, 4), ([(2, 3)], 5, 3), ([(4, 5)], 7, 5)]:
            knot, spec, gm, _ = surgery_setup(pairs, p, q)
            s = spec.cfrac.s
            nf = gm.n - s
            chain_graph = pl._chain_graph(spec.cfrac)
            zf = pl.divisorial_cycle(pl.embedded_resolution(knot))
            for _ in range(30):
                xt = [rng.randint(-4, 4) for _ in range(s)]
                y = [rng.randint(-4, 4) for _ in range(gm.n)]
                # pullback: b~_1 -> Z_f + b_{chain 0}, b~_j -> b_{chain j}
                px = [xt[0] * zf[j] for j in range(nf)] + [0] * s
                for j in range(s):
                    px[nf + j] += xt[j]
                proj_y = y[nf:]
                assert gm.pairing(px, y) == chain_graph.pairing(xt, proj_y)

    def test_projected_canonical_class(self):
        # chain coordinates of K match the chain class corrected by 2 delta g~_1
        knot, spec, gm, _ = surgery_setup([(2, 3), (3, 2)], 7, 5)
        s = spec.cfrac.s
        chain_graph = pl._chain_graph(spec.cfrac)
        k_chain = pl.canonical_class(gm).coeffs[gm.n - s:]
        k_tilde = pl.canonical_class(chain_graph).coeffs
        g1 = pl.solve_exact(chain_graph.bmatrix(), [1] + [0] * (s - 1))
        expected = [kt + 2 * knot.delta * g for kt, g in zip(k_tilde, g1)]
        assert list(k_chain) == expected


class TestCycles:
    def test_y_cycle_laws(self):
        for pairs in [[(2, 3)], [(2, 5)], [(3, 4)], [(2, 3), (2, 1)]]:
            knot = from_newton_pairs(pairs)
            gf = pl.embedded_resolution(knot)
            mf = knot.mf
            seq = minimal_cycle_sequence(gf, 3 * mf)
            zf = pl.divisorial_cycle(gf)
            assert seq[0][0] == (0,) * gf.n
            for i, (cyc, hit) in enumerate(seq):
                assert hit <= 1
                if i < mf:
                    assert hit == (0 if i in knot.semigroup else 1)
                t, i0 = divmod(i, mf)
                expected = tuple(t * z + y for z, y in zip(zf, seq[i0][0]))
                assert cyc == expected

    def test_chain_coefficients_examples(self):
        spec = SurgerySpec(K45, 7, 5)
        assert chain_coefficients(spec, 0, 0) == (0,) * spec.cfrac.s

    def test_chain_coefficients_match_laufer(self):
        rng = random.Random(9)
        for pairs, p, q in [([(2, 3)], 7, 5), ([(2, 5)], 5, 3), ([(2, 3), (2, 1)], 4, 3)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            s = spec.cfrac.s
            for a in rng.sample(range(p), min(3, p)):
                i_max = 2 * knot.mf + 3
                _, cycles = pl.laufer_sequence(gm, classes[a], i_max)
                for i in range(i_max + 1):
                    assert cycles[i][gm.n - s:] == chain_coefficients(spec, a, i)


class TestLauferTau:
    def test_torus_45_condensation(self):
        knot, spec, gm, classes = surgery_setup([(4, 5)], 2, 1)
        tau = laufer_tau(gm, classes[0], 6 * knot.mf)
        condensed = pl.condense_tau(tau, knot.mf)
        assert condensed.values == (0, 1, -5, -4, -8, -6, -9, -6, -8, -4, -5, 1, 0)

    def test_increment_formula(self):
        # chi(x(i+1)) - chi(x(i)) = t + 1 - ceil((iq - a)/(q mf + p)) - [i0 not in semigroup]
        for pairs, p, q in [([(2, 3)], 3, 2), ([(4, 5)], 2, 1)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            mf = knot.mf
            for a in range(p):
                values, _ = pl.laufer_sequence(gm, classes[a], 2 * mf)
                for i in range(2 * mf):
                    t, i0 = divmod(i, mf)
                    ceil_term = -((-(i * q - a)) // (q * mf + p))
                    gap = 0 if i0 in knot.semigroup else 1
                    assert values[i + 1] - values[i] == t + 1 - ceil_term - gap

    def test_matches_tau_function_and_root(self):
        for pairs, p, q in [([(2, 3)], 5, 3), ([(2, 5)], 3, 2), ([(2, 3), (2, 1)], 2, 1)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                res = compute_spinc(spec, a)
                i_max = (res.depth + 1) * knot.mf
                tau = laufer_tau(gm, classes[a], i_max)
                condensed = pl.condense_tau(tau, knot.mf)
                assert condensed.values == res.tau.values
                assert (
                    root_from_tau(tau).canonical_key()
                    == root_from_tau(res.tau).canonical_key()
                )

    def test_d_from_lattice(self):
        for pairs, p, q in [([(4, 5)], 2, 1), ([(2, 3)], 7, 5)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                res = compute_spinc(spec, a)
                i_max = (res.depth + 1) * knot.mf
                values, _ = pl.laufer_sequence(gm, classes[a], i_max)
                d = pl.lattice_grading_shift(gm, classes[a]) + 2 * min(values)
                assert d == res.d_invariant


class TestSublevel:
    def test_lens_space_is_bare_stem(self):
        g = pl.PlumbingGraph([-3], [])
        kr = pl.canonical_class(g)
        box = pl.exact_sublevel_box(g, kr, 3)
        sub = pl.sublevel_root(g, kr, 3, box)
        assert not sub.boundary_contact
        assert len(sub.root.leaves) == 1
        assert sub.root.min_level() == 0

    def test_trefoil_minus_one_root(self):
        knot, spec, gm, classes = surgery_setup([(2, 3)], 1, 1)
        res = compute_spinc(spec, 0)
        box = pl.exact_sublevel_box(gm, classes[0].k_r, res.tau.max())
        sub = pl.sublevel_root(gm, classes[0].k_r, res.tau.max(), box)
        assert not sub.boundary_contact
        leaf_levels = sorted(sub.root.chi[v] for v in sub.root.leaves)
        assert leaf_levels == [0, 0]
        assert sub.root.chi[sub.root.top] == 1
        assert sub.root.canonical_key() == root_from_tau(res.tau).canonical_key()

    def test_empty_sublevel(self):
        g = pl.PlumbingGraph([-3], [])
        kr = pl.canonical_class(g)
        with pytest.raises(ValueError, match="empty sublevel"):
            pl.sublevel_root(g, kr, -1, ((-3, 3),))

    def test_volume_cap(self):
        g = pl.PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2)])
        kr = pl.canonical_class(g)
        with pytest.raises(ValueError, match="volume"):
            pl.sublevel_root(g, kr, 0, ((-300, 300),) * 3)

    def test_laufer_cycles_inside_exact_box(self):
        # the search box the sublevel oracle uses already holds every Laufer cycle
        for pairs, p, q in SUBLEVEL_CASES:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                res = compute_spinc(spec, a)
                box = pl.exact_sublevel_box(gm, classes[a].k_r, res.tau.max())
                _, cycles = pl.laufer_sequence(gm, classes[a], (res.depth + 1) * knot.mf)
                for cyc in cycles:
                    assert all(lo <= x <= hi for x, (lo, hi) in zip(cyc, box))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-4, -1), min_size=n, max_size=n),
                st.tuples(*(st.integers(0, j - 1) for j in range(1, n))),
                st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            )
        ),
        st.integers(-2, 3),
    )
    def test_exact_box_holds_the_sublevel_set(self, graph, n_max):
        # brute force over the exact box widened by 2 on every side
        euler, parents, shifts = graph
        try:
            g = pl.PlumbingGraph(euler, [(j + 1, par) for j, par in enumerate(parents)])
        except ValueError:
            assume(False)
        # characteristic: (k, b_j) = e_j + 2 m_j, any integer m_j
        kb = [e + 2 * m for e, m in zip(euler, shifts)]
        kr = pl.CharacteristicVector(tuple(pl.solve_exact(g.bmatrix(), kb)))
        box = pl.exact_sublevel_box(g, kr, n_max)
        wide = [range(lo - 2, hi + 3) for lo, hi in box]
        assume(prod(len(r) for r in wide) <= 20_000)
        for x in itertools.product(*wide):
            if any(not lo <= xj <= hi for xj, (lo, hi) in zip(x, box)):
                two_chi = -(sum(k * xj for k, xj in zip(kb, x)) + g.pairing(x, x))
                assert two_chi > 2 * n_max

    def test_truncated_box_is_flagged(self):
        knot, spec, gm, classes = surgery_setup([(2, 3)], 2, 1)
        res = compute_spinc(spec, 0)
        tight = tuple((0, 1) for _ in range(gm.n))
        sub = pl.sublevel_root(gm, classes[0].k_r, res.tau.max(), tight)
        assert sub.boundary_contact


class TestLens:
    def test_l21(self):
        assert sorted(pl.lens_d_invariants(2, 1)) == [Fraction(-1, 4), Fraction(1, 4)]

    def test_trivial(self):
        assert pl.lens_d_invariants(1, 1) == [0]
        assert pl.lens_d_classical(1, 1) == [0]

    def test_dual_paths_small(self):
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                assert sorted(pl.lens_d_invariants(p, q)) == sorted(pl.lens_d_classical(p, q))

    def test_validation(self):
        with pytest.raises(ValueError):
            pl.lens_d_invariants(4, 2)
        with pytest.raises(ValueError):
            pl.lens_d_invariants(3, 4)
        with pytest.raises(ValueError, match="coprime"):
            pl.lens_d_classical(4, 2)
        with pytest.raises(ValueError):
            pl.lens_d_classical(3, 4)
