import io
import itertools
import random
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd, prod

import pytest
from corpus_cases import ORACLE_CASES, ORACLE_KNOTS, SUBLEVEL_CASES, SUBLEVEL_REFERENCE_CASES
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    canonical_class,
    chain_coefficients,
    chain_graph,
    determinant,
    exact_sublevel_box_fractions,
    grading_shift_formula_per_class,
    graph_from_json,
    graph_to_json,
    k_r,
    l_prime,
    laufer_branch_events,
    laufer_run_rescan,
    laufer_run_stepwise,
    laufer_tau,
    lens_d_recursive,
    minimal_cycle_sequence,
    over,
    pairing,
    pullback_spinc_class,
    solve,
    solve_exact,
    sublevel_root_box,
)
from test_knot import newton_pair_sequences

import hfroots.lens as lens
import hfroots.plumbing as pl
from hfroots import (
    InternalInvariantError,
    ResourceLimitError,
    SurgerySpec,
    compute_run,
    compute_runs,
    from_newton_pairs,
    root_from_tau,
)
from hfroots.cli import main

K23 = from_newton_pairs([(2, 3)])
K45 = from_newton_pairs([(4, 5)])


def surgery_setup(pairs, p, q):
    knot = from_newton_pairs(pairs)
    spec = SurgerySpec(knot, p, q)
    gm = pl.surgery_graph(knot, spec.cfrac)
    classes = [pl.chain_digits(spec.cfrac, a) for a in range(spec.p)]  # class a as its chain digits
    return knot, spec, gm, classes


def run_shifts(spec):
    """r_a of every class, as Fractions of the r_num and r_den columns of `compute_runs`."""
    return [Fraction(n, d) for run in compute_runs(spec) for n, d in zip(run.r_num, run.r_den)]


def l_pairs(gm, digits):
    """The pairings (l', b_j) on gm of the class with these chain digits."""
    return pl.class_pairings(gm, digits)[0]


def k_pairs(gm, digits):
    """The pairings (k_r, b_j) on gm of the class with these chain digits."""
    return pl.class_pairings(gm, digits)[1]


def digits_and_pairings(gm, classes):
    """Each class's digits and its pairings on gm, as pullback_spinc_class
    gives them."""
    return [(digits, *pl.class_pairings(gm, digits)) for digits in classes]


def random_trees(vertex_data, max_n=4):
    """Trees on 1 to max_n vertices with Euler numbers in [-4, -1], vertex
    j + 1 hanging from an earlier vertex, and one vertex_data draw per vertex."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-4, -1), min_size=n, max_size=n),
            st.tuples(*(st.integers(0, j - 1) for j in range(1, n))),
            st.lists(vertex_data, min_size=n, max_size=n),
        )
    )


def laufer_trees(vertex_data, max_n=9):
    """Trees on 1 to max_n vertices with Euler numbers in [-9, -1], biased
    towards paths: vertex j + 1 hangs from vertex j at least half the time,
    so the branches at vertex 0 are often strings.  One vertex_data draw per
    vertex."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, -1), min_size=n, max_size=n),
            st.tuples(*(st.one_of(st.just(j - 1), st.integers(0, j - 1)) for j in range(1, n))),
            st.lists(vertex_data, min_size=n, max_size=n),
        )
    )


# (euler, parents, offsets) with vertex 0 as v0: a leaf root with e = -7 and
# an offset the response must carry in c_1; a string of six -2s, the
# (k, k+1) leg; a string through a -1 vertex; a string with a positive offset
LAUFER_LEAF = ([-1, -7], (0,), [2, -3])
LAUFER_LEG = ([-1, -2, -2, -2, -2, -2, -2], (0, 1, 2, 3, 4, 5), [0] * 7)
LAUFER_MINUS_ONE = ([-3, -2, -1, -3], (0, 1, 2), [0, 0, 0, 0])
LAUFER_POSITIVE = ([-2, -2, -2, -2], (0, 1, 2), [0, 0, 2, 0])


def branch_outcome(engine, g, offsets, i_max, r, budget):
    """(budget left, second differences) of one branch engine on the branch
    at r, or the step-cap message it raises."""
    diffs = [0] * (i_max + 1)
    try:
        return engine(g, offsets, i_max, r, diffs, budget), diffs
    except ResourceLimitError as exc:
        return str(exc)


def check_walk(g, offsets, i_max, budget=10**9):
    # the walk against the event loop, root by root, with the step cap
    # checked at every chunk end as well as at the last step
    for r in g.adj[g.distinguished]:
        expected = branch_outcome(laufer_branch_events, g, offsets, i_max, r, budget)
        assert branch_outcome(pl._branch_walk, g, offsets, i_max, r, budget) == expected, r
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl, "_WALK_CHUNK", 3)
            assert branch_outcome(pl._branch_walk, g, offsets, i_max, r, budget) == expected, r


def tree_form(euler, edges):
    """The intersection matrix of a tree, built by hand."""
    n = len(euler)
    b = [[euler[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v in edges:
        b[u][v] = b[v][u] = 1
    return b


def definite_by_reference(b):
    """Negative definiteness from the signs of the reference leading minors."""
    minors = [determinant([row[:k] for row in b[:k]]) for k in range(1, len(b) + 1)]
    return all(m != 0 and (m > 0) == (k % 2 == 0) for k, m in enumerate(minors, start=1))


def sublevel_outcome(g, kb, n_max, box):
    """(chi, parent) of the package's sublevel root, "leaves" if its closure
    check raises, or the ValueError text."""
    try:
        root = pl.sublevel_root(g, kb, n_max, box)
    except InternalInvariantError:
        return "leaves"
    except ValueError as exc:
        return str(exc)
    return root.chi, root.parent


def reference_outcome(g, kb, n_max, box):
    """The same outcome from the box sweep: "leaves" exactly on box contact.
    The sweep pairs k_r = B^{-1} kb, solved in Fractions, with the form itself."""
    try:
        root, contact = sublevel_root_box(g, tuple(solve(g, kb)), n_max, box)
    except ValueError as exc:
        return str(exc)
    return "leaves" if contact else (root.chi, root.parent)


def cube_euler_characteristics(weight, n_levels):
    """Euler characteristic of the cubical complex {cubes of weight <= n} for
    each n in n_levels; a cube's weight is the largest weight of its vertices."""
    cubes = {(x, ()): w for x, w in weight.items()}
    totals = dict.fromkeys(n_levels, 0)
    sign = 1
    while cubes:
        for w in cubes.values():
            for n in n_levels:
                if w <= n:
                    totals[n] += sign
        grown = {}
        for (x, dirs), w in cubes.items():
            for j in range(dirs[-1] + 1 if dirs else 0, len(x)):
                w2 = cubes.get((x[:j] + (x[j] + 1,) + x[j + 1:], dirs))
                if w2 is not None:
                    grown[x, dirs + (j,)] = max(w, w2)
        cubes = grown
        sign = -sign
    return totals


def check_fraction_route(gm, spec, classes):
    """Each class's l' and k_r, dense Fraction solves of its pairings, are
    the solve of l''s system in the surgery lattice and K + 2 l' with the
    dense canonical class K, and equal the chain-lattice pull-back's, which
    builds its vectors in Fractions."""
    nf = gm.n - spec.cfrac.s
    k_gm = canonical_class(gm)
    for a, digits in enumerate(classes):
        lp, kr = l_prime(gm, digits), k_r(gm, digits)
        assert list(lp) == solve(gm, [0] * nf + [-c for c in digits])
        assert list(kr) == [k + 2 * l for k, l in zip(k_gm, lp)]
        _, l_ref, k_ref = pullback_spinc_class(gm, spec, a)
        assert (lp, kr) == (tuple(solve(gm, l_ref)), tuple(solve(gm, k_ref)))


def moved_solve(monkeypatch, g, rhs):
    """Patch g.solve so that for the right-hand side rhs alone it returns
    det more at entry 0, as if the solution had moved by the unit vector at
    vertex 0."""
    real = g.solve

    def solve_moved(y):
        x = real(y)
        if tuple(y) == rhs:
            x[0] += g.det
        return x

    monkeypatch.setattr(g, "solve", solve_moved)


def tree_path(g, u, v):
    """The vertices of the path from u to v in the tree g."""
    back, todo = {u: None}, [u]
    for x in todo:
        for w in g.adj[x]:
            if w not in back:
                back[w] = x
                todo.append(w)
    path = [v]
    while path[-1] != u:
        path.append(back[path[-1]])
    return path


def check_sweep(g):
    """The tree elimination's det is the reference determinant, and its
    solve gives det times the reference solution for every basis vector."""
    b = tree_form(g.euler, g.edges)
    det = determinant(b)
    assert g.det == det
    for j in range(g.n):
        e = [1 if i == j else 0 for i in range(g.n)]
        assert g.solve(e) == [det * x for x in solve_exact(b, e)]


class TestGraphType:
    def test_tree_and_definite_enforced(self):
        with pytest.raises(ValueError):
            pl.PlumbingGraph([-2, -2], [])  # one edge short
        with pytest.raises(ValueError):
            pl.PlumbingGraph([0], [])  # not negative definite
        with pytest.raises(ValueError):
            pl.PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])  # cycle
        with pytest.raises(ValueError, match="negative definite"):
            pl.PlumbingGraph([-1, -1], [(0, 1)])  # second minor 0 stops the sweep
        with pytest.raises(ValueError, match="negative definite"):
            pl.PlumbingGraph([-2, 0], [(0, 1)])  # second minor -1 has the wrong sign
        with pytest.raises(ValueError, match="empty plumbing graph"):
            pl.PlumbingGraph([], [])
        for edges in ([(0, 2)], [(-1, 0)], [(1, 1)], [(0, 1), (1, 0)]):  # out of range, a loop, a repeat
            with pytest.raises(ValueError, match="bad edge"):
                pl.PlumbingGraph([-2, -2], edges)
        with pytest.raises(ValueError, match="not connected"):
            pl.PlumbingGraph([-2] * 4, [(0, 1), (1, 2), (0, 2)])  # n - 1 edges, vertex 3 alone
        with pytest.raises(ValueError, match="vertex index 2 out of range"):
            pl.PlumbingGraph([-2, -2], [(0, 1)], distinguished=2)
        with pytest.raises(ValueError, match="vertex index -1 out of range"):
            pl.PlumbingGraph([-2, -2], [(0, 1)], arrow=-1)

    @pytest.mark.parametrize(
        "euler, edges, marks",
        [
            ([-2.9, -2.0], [(0, 1.7)], {}),  # int() would make the -2, -2 chain of it
            ([-2, Fraction(-2)], [(0, 1)], {}),
            ([-2, "-2"], [(0, 1)], {}),
            ([True, -2], [(0, 1)], {}),
            ([-2, -2], [(0, True)], {}),
            ([-2, -2], [("0", 1)], {}),
            ([-2, -2], [(0, 1)], {"distinguished": True}),
            ([-2, -2], [(0, 1)], {"arrow": True}),
            ([-2, -2], [(0, 1)], {"distinguished": 0.0}),
        ],
        ids=["float", "fraction", "str", "bool-euler", "bool-edge", "str-edge", "bool-v0", "bool-arrow", "float-v0"],
    )
    def test_takes_ints_only(self, euler, edges, marks):
        pl.PlumbingGraph([-2, -2], [(0, 1)], distinguished=0, arrow=1)
        with pytest.raises(TypeError, match="must be an int"):
            pl.PlumbingGraph(euler, edges, **marks)

    def test_pairing(self):
        g = pl.PlumbingGraph([-2, -3], [(0, 1)])
        assert pairing(g, [1, 0], [1, 0]) == -2
        assert pairing(g, [1, 0], [0, 1]) == 1
        assert pairing(g, [1, 1], [1, 1]) == -3

    def test_json_roundtrip(self):
        g = pl.surgery_graph(K23, SurgerySpec(K23, 7, 5).cfrac)
        g2 = graph_from_json(graph_to_json(g))
        assert g2.euler == g.euler
        assert g2.edges == g.edges
        assert g2.distinguished == g.distinguished
        assert g2.arrow is None

    def test_json_validation(self):
        with pytest.raises(ValueError):
            graph_from_json('{"vertices": [{"index": 1, "euler": -2}], "edges": []}')


class TestElimination:
    def test_sweep_matches_reference_on_oracle_corpus(self):
        graphs = {}
        for pairs, p, q in ORACLE_CASES:
            knot = from_newton_pairs(list(pairs))
            cfrac = SurgerySpec(knot, p, q).cfrac
            for g in (pl.embedded_resolution(knot), pl.surgery_graph(knot, cfrac), chain_graph(cfrac)):
                graphs[g.euler, g.edges] = g
        for g in graphs.values():
            check_sweep(g)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(random_trees(st.integers(-3, 3), max_n=8))
    # vertex 0 of degree 3, each child with a child: definite, then not
    @example(([-3, -2, -2, -2, -2, -2, -2, -2], (0, 0, 0, 1, 2, 3, 4), [1, -2, 0, 3, 0, 0, -1, 2]))
    @example(([-2] * 8, (0, 0, 0, 1, 2, 3, 4), [0] * 8))
    def test_sweep_matches_reference_on_random_trees(self, graph):
        # definiteness is decided by the reference minors, so an elimination
        # that rejects a definite tree fails here instead of being filtered out
        euler, parents, rhs = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        b = tree_form(euler, edges)
        if not definite_by_reference(b):
            with pytest.raises(ValueError, match="negative definite"):
                pl.PlumbingGraph(euler, edges)
            return
        g = pl.PlumbingGraph(euler, edges)
        check_sweep(g)
        assert g.solve(rhs) == [g.det * x for x in solve_exact(b, rhs)]
        # Eisenbud-Neumann: on a tree, (det B^{-1})_{uv} is (-1)^{d(u,v)} times
        # the determinant of B on the vertices off the path from u to v
        for v in range(g.n):
            column = g.solve([int(i == v) for i in range(g.n)])
            for u in range(g.n):
                path = tree_path(g, u, v)
                off = [i for i in range(g.n) if i not in path]
                minor = determinant([[b[i][j] for j in off] for i in off]) if off else 1
                assert column[u] == (-1) ** (len(path) - 1) * minor

    def test_long_chain(self):
        # the A_n chain of -2 vertices: det B = (-1)^n (n + 1), and column 0
        # of the Cartan inverse min(i, j) (n + 1 - max(i, j)) / (n + 1)
        # (1-based) is (n - i) / (n + 1) at 0-based row i
        n = 2000
        g = pl.PlumbingGraph([-2] * n, [(i, i + 1) for i in range(n - 1)])
        assert g.det == (-1) ** n * (n + 1)
        assert g.solve([1] + [0] * (n - 1)) == [-g.det * (n - i) // (n + 1) for i in range(n)]


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(newton_pair_sequences())
    @example([(2, 3), (2, 1), (2, 1)])
    @example([(3, 5), (3, 1), (3, 1)])
    def test_self_checks_hold_on_random_knots(self, pairs):
        # 1-3 pairs with mf <= 5000; the uncached construction runs the four
        # self-checks (|det B| = 1, the one (-1)-vertex at the arrow, mf at v0,
        # A'Campo, the Euler-characteristic identity) and raises on a failure
        knot = from_newton_pairs(pairs)
        g = pl.embedded_resolution.__wrapped__(knot)
        assert g.euler.count(-1) == 1 and g.euler[g.arrow] == -1
        assert pl.divisorial_cycle(g)[g.arrow] == knot.mf
        nodes = [j for j in range(g.n) if g.degree(j) + (1 if j == g.arrow else 0) >= 3]
        assert len(nodes) == len(pairs)

    @pytest.mark.parametrize(
        "pairs", [[(2, 3)], [(2, 5)], [(3, 4)], [(4, 7)], [(2, 3), (2, 3)], [(3, 4), (5, 3)]]
    )
    def test_self_checks_are_live(self, pairs):
        # construction already runs the four validations; re-check two here
        k = from_newton_pairs(pairs)
        g = pl.embedded_resolution(k)
        assert g.det == determinant(tree_form(g.euler, g.edges))
        assert abs(g.det) == 1
        m = pl.divisorial_cycle(g)
        assert all(c > 0 for c in m)
        assert pairing(g, m, [1 if j == g.distinguished else 0 for j in range(g.n)]) == -1


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
            assert gm.det == determinant(tree_form(gm.euler, gm.edges))
            assert abs(gm.det) == p

    def test_det_matches_reference_on_oracle_corpus(self):
        # the last leading minor of the definiteness check is det B, sign (-1)^n
        for pairs, p, q in ORACLE_CASES:
            knot = from_newton_pairs(list(pairs))
            gm = pl.surgery_graph(knot, SurgerySpec(knot, p, q).cfrac)
            for g in (pl.embedded_resolution(knot), gm):
                assert g.det == determinant(tree_form(g.euler, g.edges)) == (-1) ** g.n * abs(g.det)


class TestCanonicalClass:
    def test_minus_two_chains_have_zero_class(self):
        for n in (1, 2, 5):
            g = pl.PlumbingGraph([-2] * n, [(i, i + 1) for i in range(n - 1)])
            assert all(c == 0 for c in canonical_class(g))

    def test_adjunction(self):
        gm = pl.surgery_graph(K45, SurgerySpec(K45, 7, 5).cfrac)
        k = canonical_class(gm)
        for j in range(gm.n):
            basis = [1 if i == j else 0 for i in range(gm.n)]
            assert pairing(gm, k, basis) == -gm.euler[j] - 2


class TestSpincClasses:
    def test_class_zero_is_canonical(self):
        knot, spec, gm, classes = surgery_setup([(4, 5)], 7, 5)
        assert classes[0] == (0,) * spec.cfrac.s
        assert all(c == 0 for c in l_prime(gm, classes[0]))
        assert k_r(gm, classes[0]) == canonical_class(gm)

    def test_si_coefficients_7_5(self):
        cf = SurgerySpec(K23, 7, 5).cfrac
        assert pl._si_coefficients(cf, 3) == (0, 1, 0)
        for a in range(7):
            coeffs = pl._si_coefficients(cf, a)
            assert sum(cf.tail[t + 1] * coeffs[t] for t in range(cf.s)) == a
        # the (SI) checks are live: a = p meets the tail bound with equality
        with pytest.raises(InternalInvariantError, match="tail bound"):
            pl._si_coefficients(cf, 7)
        with pytest.raises(InternalInvariantError, match="negative coefficient"):
            pl._si_coefficients(cf, -1)

    def test_shift_triple_equality(self):
        for pairs, p, q in [([(2, 3)], 5, 3), ([(4, 5)], 2, 1), ([(2, 3), (2, 1)], 7, 4)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            formulas = over(lens.grading_shift_formula(p, q, knot.delta, p - 1), 2 * p)
            assert len(formulas) == p
            shifts = run_shifts(spec)
            for a in range(p):
                lattice = Fraction(*pl.lattice_grading_shift(gm, k_pairs(gm, classes[a])))
                assert lattice == formulas[a] == shifts[a]

    def test_projection_formula(self):
        # (pullback(x~), y) = (x~, projection(y)) for the two lattice maps
        rng = random.Random(3)
        for pairs, p, q in [([(2, 3), (2, 1)], 7, 4), ([(2, 3)], 5, 3), ([(4, 5)], 7, 5)]:
            knot, spec, gm, _ = surgery_setup(pairs, p, q)
            s = spec.cfrac.s
            nf = gm.n - s
            chain = chain_graph(spec.cfrac)
            zf = pl.divisorial_cycle(pl.embedded_resolution(knot))
            for _ in range(30):
                xt = [rng.randint(-4, 4) for _ in range(s)]
                y = [rng.randint(-4, 4) for _ in range(gm.n)]
                # pullback: b~_1 -> Z_f + b_{chain 0}, b~_j -> b_{chain j}
                px = [xt[0] * zf[j] for j in range(nf)] + [0] * s
                for j in range(s):
                    px[nf + j] += xt[j]
                proj_y = y[nf:]
                assert pairing(gm, px, y) == pairing(chain, xt, proj_y)

    def test_pullback_pairs_as_the_chain_representative(self):
        # pullback(l~') pairs to 0 with the resolution vertices and to -a_j
        # with the chain, by the projection formula, as l' does by definition
        for pairs, p, q in ORACLE_CASES:
            knot, spec, gm, classes = surgery_setup(list(pairs), p, q)
            nf = gm.n - spec.cfrac.s
            for a, digits in enumerate(classes):
                _, l_ref, _ = pullback_spinc_class(gm, spec, a)
                assert l_ref == l_pairs(gm, digits) == (0,) * nf + tuple(-c for c in digits)

    def test_matches_pullback_reference_on_oracle_corpus(self):
        # the digits and the pairings built from them are the chain-lattice
        # pull-back's
        for pairs, p, q in ORACLE_CASES:
            knot, spec, gm, classes = surgery_setup(list(pairs), p, q)
            expected = [pullback_spinc_class(gm, spec, a) for a in range(p)]
            assert digits_and_pairings(gm, classes) == expected, (pairs, p, q)
            check_fraction_route(gm, spec, classes)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(ORACLE_KNOTS),
        st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda pq: gcd(*pq) == 1),
    )
    @example(((2, 3), (2, 1)), (13, 12))  # the chain [2] * 12
    @example(((4, 5),), (1, 30))  # [1, 2, ..., 2], s = 30
    def test_matches_pullback_reference_on_long_chains(self, pairs, pq):
        p, q = pq
        knot, spec, gm, classes = surgery_setup(list(pairs), p, q)
        assert digits_and_pairings(gm, classes) == [pullback_spinc_class(gm, spec, a) for a in range(p)]
        check_fraction_route(gm, spec, classes)

    def test_classes_do_no_linear_algebra(self, monkeypatch):
        # a class is its digits: its pairings come from their definitions
        knot, spec, gm, classes = surgery_setup([(2, 3), (2, 1)], 12, 7)
        expected = digits_and_pairings(gm, classes)

        def refuse(*args):
            raise AssertionError("a class was built with the intersection form")

        monkeypatch.setattr(gm, "solve", refuse)
        monkeypatch.setattr(gm, "apply_form", refuse)
        assert digits_and_pairings(gm, classes) == expected

    def test_k_square_check_is_live(self, monkeypatch):
        # det added at entry 0 of the solve of class 3's k_pairs moves its k_r
        # by the unit vector at vertex 0, which no longer pairs back; both the
        # shift and the sublevel search solve through the one check
        knot, spec, gm, classes = surgery_setup([(2, 3)], 7, 5)
        kb = k_pairs(gm, classes[3])
        n_top = max(compute_run(spec, 3).tau)
        pl.lattice_grading_shift(gm, k_pairs(gm, classes[3]))
        pl.exact_sublevel_box(gm, kb, n_top)
        moved_solve(monkeypatch, gm, kb)
        with pytest.raises(InternalInvariantError, match="does not pair back"):
            pl.lattice_grading_shift(gm, k_pairs(gm, classes[3]))
        with pytest.raises(InternalInvariantError, match="does not pair back"):
            pl.exact_sublevel_box(gm, kb, n_top)

    def test_verify_holds_one_class_at_a_time(self, tmp_path):
        # verify builds each class's digits and pairings in its loop and drops
        # them with it; with the digits of all 400 classes on their chain of
        # 399 held in a list before the loop, this run peaked at 1.97 MiB
        out = str(tmp_path / "verify.json")
        assert main(["verify", "--newton", "2,3", "--surgery", "7/6", "--format", "json", "--out", out]) == 0
        tracemalloc.start()
        try:
            assert main(["verify", "--newton", "2,3", "--surgery", "400/399", "--format", "json", "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("p, q", [(12, 7), (11, 7)])
    def test_one_gcd_per_class_shift(self, monkeypatch, p, q):
        # the classes are integers; each lattice shift reduces its one pair
        # (num, den), den > 0, by one gcd at the end: r_num and r_den of its
        # class, on a graph with det > 0 (8 vertices) and one with det < 0 (9)
        knot, spec, gm, _ = surgery_setup([(2, 3), (2, 1)], p, q)
        assert (gm.det > 0) == (gm.n % 2 == 0)
        reduced = []
        real = pl.gcd

        def counting(*args):
            reduced.append(args)
            return real(*args)

        monkeypatch.setattr(pl, "gcd", counting)
        classes = [pl.chain_digits(spec.cfrac, a) for a in range(spec.p)]
        digits_and_pairings(gm, classes)
        assert reduced == []
        shifts = [pl.lattice_grading_shift(gm, k_pairs(gm, digits)) for digits in classes]
        assert len(reduced) == len(classes) == spec.p  # the wrapper is live: each shift's gcd counts
        assert shifts == [(n, d) for run in compute_runs(spec) for n, d in zip(run.r_num, run.r_den)]

    def test_verify_builds_two_graphs(self, monkeypatch):
        # the resolution graph and the surgery graph; no chain graph besides
        builds = []
        real = pl.PlumbingGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(pl.PlumbingGraph, "__init__", counted)
        base = ["verify", "--newton", "2,3,2,1", "--surgery", "12/7", "--oracle", "laufer"]
        for argv in (base, base + ["--spinc", "3"]):
            pl.embedded_resolution.cache_clear()
            builds.clear()
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert len(builds) == 2, argv

    def test_stored_pairings_match_the_lattice(self):
        # the pairings of l' and of k_r = K + 2 l', with the dense canonical
        # class K, are class_pairings'; its shift is -(k_r^2 + #vertices)/4
        for pairs, p, q in ORACLE_CASES:
            knot, spec, gm, classes = surgery_setup(list(pairs), p, q)
            k_gm = canonical_class(gm)
            for digits in classes:
                kr = [k + 2 * l for k, l in zip(k_gm, l_prime(gm, digits))]
                assert k_pairs(gm, digits) == tuple(gm.apply_form(kr))
                assert all(type(v) is int for v in l_pairs(gm, digits) + k_pairs(gm, digits))
                assert Fraction(*pl.lattice_grading_shift(gm, k_pairs(gm, digits))) == -(pairing(gm, kr, kr) + gm.n) / 4

    def test_consumers_do_not_pair_again(self, monkeypatch):
        # class_pairings and class_laufer_values never pair; the shift solves
        # once and pairs once, to check that solve
        knot, spec, gm, classes = surgery_setup([(2, 3), (2, 1)], 7, 4)
        gf = pl.embedded_resolution(knot)
        chi_gf = pl.laufer_values(gf, [0] * gf.n, 2 * knot.mf)
        calls = Counter()
        for name in ("solve", "apply_form"):
            real = getattr(gm, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(gm, name, counted)
        digits_and_pairings(gm, classes)
        for digits in classes:
            pl.class_laufer_values(gm, l_pairs(gm, digits), chi_gf, 2 * knot.mf)
        assert calls == Counter()
        for digits in classes:
            pl.lattice_grading_shift(gm, k_pairs(gm, digits))
        assert calls == Counter(solve=spec.p, apply_form=spec.p)

    def test_chain_digits_checks_the_range(self):
        # in [0, p) the digits are the (SI) recursion's; outside it the
        # index is refused before the recursion, whose own checks would
        # raise InternalInvariantError
        for pairs, p, q in ORACLE_CASES:
            cfrac = SurgerySpec(from_newton_pairs(list(pairs)), p, q).cfrac
            assert [pl.chain_digits(cfrac, a) for a in range(p)] == [pl._si_coefficients(cfrac, a) for a in range(p)]
            for a in (-1, p):
                with pytest.raises(ValueError, match=f"spin\\^c index a={a} outside \\[0, {p}\\)"):
                    pl.chain_digits(cfrac, a)

    def test_projected_canonical_class(self):
        # chain coordinates of K match the chain class corrected by 2 delta g~_1
        knot, spec, gm, _ = surgery_setup([(2, 3), (3, 2)], 7, 5)
        s = spec.cfrac.s
        chain = chain_graph(spec.cfrac)
        k_chain = canonical_class(gm)[gm.n - s:]
        k_tilde = canonical_class(chain)
        g1 = solve(chain, [1] + [0] * (s - 1))
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
        # the cycles come from the rescanning engine, whose chi values are
        # first checked against the package's split run
        rng = random.Random(9)
        for pairs, p, q in [([(2, 3)], 7, 5), ([(2, 5)], 5, 3), ([(2, 3), (2, 1)], 4, 3)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            s = spec.cfrac.s
            for a in rng.sample(range(p), min(3, p)):
                i_max = 2 * knot.mf + 3
                values, cycles = laufer_run_rescan(gm, list(l_pairs(gm, classes[a])), i_max)
                assert tuple(values) == laufer_tau(pl.embedded_resolution(knot), gm, classes[a], i_max)
                for i in range(i_max + 1):
                    assert cycles[i][gm.n - s:] == chain_coefficients(spec, a, i)


class TestLauferEngine:
    def test_matches_rescan_on_oracle_corpus(self):
        # every class, by the split route verify takes (the resolution graph
        # once per surgery, then the class's chain) and by the whole-graph run
        for pairs, p, q in ORACLE_CASES:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            gf = pl.embedded_resolution(knot)
            top = (compute_run(spec, 0).depth + 1) * knot.mf
            chi_gf = pl.laufer_values(gf, [0] * gf.n, top)
            assert chi_gf == laufer_run_rescan(gf, [0] * gf.n, top)[0]
            for a, digits in enumerate(classes):
                i_max = (compute_run(spec, a).depth + 1) * knot.mf
                offsets = list(l_pairs(gm, digits))
                expected, _ = laufer_run_rescan(gm, offsets, i_max)
                assert pl.class_laufer_values(gm, l_pairs(gm, digits), chi_gf, i_max) == expected, (pairs, p, q, a)
                assert pl.laufer_values(gm, offsets, i_max) == expected, (pairs, p, q, a)

    def test_matches_stepwise_engine_on_oracle_corpus(self):
        # route by route: the resolution run and each class's chain run, on
        # the same roots and base as the per-step engine
        for pairs, p, q in ORACLE_CASES:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            gf = pl.embedded_resolution(knot)
            v0 = gf.distinguished
            top = (compute_run(spec, 0).depth + 1) * knot.mf
            base = [i - gf.euler[v0] * i * (i - 1) // 2 for i in range(top + 1)]
            chi_gf = pl.laufer_values(gf, [0] * gf.n, top)
            assert chi_gf == laufer_run_stepwise(gf, [0] * gf.n, top, gf.adj[v0], base), (pairs, p, q)
            nf = gf.n
            for a, digits in enumerate(classes):
                i_max = (compute_run(spec, a).depth + 1) * knot.mf
                expected = laufer_run_stepwise(gm, l_pairs(gm, digits), i_max, (nf,), chi_gf)
                assert pl.class_laufer_values(gm, l_pairs(gm, digits), chi_gf, i_max) == expected, (pairs, p, q, a)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(laufer_trees(st.integers(-3, 3)), st.integers(0, 60))
    @example(LAUFER_LEAF, 60)
    @example(LAUFER_LEG, 60)
    @example(LAUFER_MINUS_ONE, 60)
    @example(LAUFER_POSITIVE, 60)
    def test_matches_rescan_on_random_trees(self, graph, i_max):
        euler, parents, offsets = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        if not definite_by_reference(tree_form(euler, edges)):
            return
        g = pl.PlumbingGraph(euler, edges, distinguished=0)
        assert pl.laufer_values(g, offsets, i_max) == laufer_run_rescan(g, offsets, i_max)[0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(laufer_trees(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.booleans())), st.integers(0, 60))
    def test_split_runs_chain_to_the_whole_run(self, graph, i_max):
        # v0's neighbours in two groups: the first run, on the first group's
        # branches, gives the base of the second; each run sees its own
        # branches' offsets and junk everywhere else, which it must not read
        euler, parents, data = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        if not definite_by_reference(tree_form(euler, edges)):
            return
        g = pl.PlumbingGraph(euler, edges, distinguished=0)
        offsets = [o for o, _, _ in data]
        expected = laufer_run_rescan(g, offsets, i_max)[0]
        assert pl.laufer_values(g, offsets, i_max) == expected
        side = {0: None}  # the group of each vertex's branch, v0 in none
        for j, par in enumerate(parents, start=1):
            side[j] = data[j][2] if par == 0 else side[par]
        groups = [tuple(r for r in g.adj[0] if side[r] is flag) for flag in (True, False)]
        values = [i * (1 - offsets[0]) - euler[0] * i * (i - 1) // 2 for i in range(i_max + 1)]
        for flag, roots in zip((True, False), groups):
            own = [o if side[j] is flag else junk for j, (o, junk, _) in enumerate(data)]
            values = pl._laufer_run(g, own, i_max, roots, values)
        assert values == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(laufer_trees(st.integers(-3, 3)), st.integers(0, 60), st.one_of(st.just(10**9), st.integers(0, 300)))
    @example(LAUFER_MINUS_ONE, 60, 10**9)
    @example(LAUFER_POSITIVE, 60, 10**9)
    @example(([-2, -2, -2, -3, -2], (0, 1, 2, 2), [0, 0, 2, 0, 0]), 40, 10**9)
    def test_walk_matches_event_loop_on_random_trees(self, graph, i_max, budget):
        # diffs and the budget left, or the same step-cap refusal; -1
        # vertices, positive offsets and strings that fail their recursion
        # make interior vertices of every kind
        euler, parents, offsets = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        if not definite_by_reference(tree_form(euler, edges)):
            return
        check_walk(pl.PlumbingGraph(euler, edges, distinguished=0), offsets, i_max, budget)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(newton_pair_sequences(), st.integers(0, 300))
    @example([(2, 3), (3, 2)], 300)
    @example([(2, 3), (2, 1), (2, 3)], 300)
    @example([(3, 5), (3, 1), (3, 1)], 300)
    def test_walk_matches_event_loop_on_resolution_graphs(self, pairs, i_max):
        gf = pl.embedded_resolution(from_newton_pairs(pairs))
        check_walk(gf, [0] * gf.n, i_max)

    def test_long_interior_path(self):
        # 6,7,2,43: the first pair's node under a path of 21 vertices, all
        # -2 but the -3 at its top, the branch root at v0
        knot = from_newton_pairs([(6, 7), (2, 43)])
        gf = pl.embedded_resolution(knot)
        node = next(j for j in range(gf.n) if gf.degree(j) == 3)
        path = tree_path(gf, node, gf.distinguished)[1:-1]
        assert sorted(gf.euler[j] for j in path) == [-3] + [-2] * 20
        i_max = 2 * knot.mf
        assert pl.laufer_values(gf, [0] * gf.n, i_max) == laufer_run_rescan(gf, [0] * gf.n, i_max)[0]
        check_walk(gf, [0] * gf.n, i_max)

    def test_strings_found_without_walking_the_path(self, monkeypatch):
        # (5,14),(2,N): the first pair's node under a path of about N/2
        # vertices; the path is no string, and asking `_string` at each of
        # its vertices would walk down to the node from every one
        calls = []
        string = pl._string
        monkeypatch.setattr(pl, "_string", lambda *args: calls.append(args) or string(*args))
        counts = []
        for n in (743, 1483):
            knot = from_newton_pairs([(5, 14), (2, n)])
            gf = pl.embedded_resolution(knot)
            i_max = knot.mf // 20
            calls.clear()
            values = pl.laufer_values(gf, [0] * gf.n, i_max)
            counts.append(len(calls))
            with monkeypatch.context() as mp:
                mp.setattr(pl, "_branch_walk", laufer_branch_events)
                assert pl.laufer_values(gf, [0] * gf.n, i_max) == values
            check_walk(gf, [0] * gf.n, i_max)
        assert counts[0] == counts[1]

    def test_walk_memory_grows_with_the_steps_only(self):
        # x(i) on 6,7,2,43 makes about 10 additions per step of v0; a walk
        # that kept them would grow by hundreds of bytes a step, where the
        # run's values and second differences take about 50
        gf = pl.embedded_resolution(from_newton_pairs([(6, 7), (2, 43)]))
        peaks = []
        for i_max in (4_000, 12_000):
            tracemalloc.start()
            try:
                pl.laufer_values(gf, [0] * gf.n, i_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2**22  # the chunks' buffers: O(n) for a fixed chunk
        assert (peaks[1] - peaks[0]) / 8_000 < 100

    def test_step_cap_on_a_node_branch(self, monkeypatch):
        # 2,3,2,1: the branch at v0 holding the first pair's node is walked;
        # its single additions are the rescanning engine's cycles, and the
        # cap is checked at every chunk end, exactly
        gf = pl.embedded_resolution(from_newton_pairs([(2, 3), (2, 1)]))
        i_max = 60
        values, cycles = laufer_run_rescan(gf, [0] * gf.n, i_max)
        steps = sum(cycles[-1])
        monkeypatch.setattr(pl, "_WALK_CHUNK", 7)
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", steps)
        assert pl.laufer_values(gf, [0] * gf.n, i_max) == values
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", steps - 1)
        with pytest.raises(ResourceLimitError, match=f"step cap of {steps - 1} additions"):
            pl.laufer_values(gf, [0] * gf.n, i_max)

    def test_step_cap_counts_single_additions(self, monkeypatch):
        # x(1) = (1, 3, 2) on the chain -2 - -2 - -2 from offsets (0, 3, 0):
        # six additions, the step of v0 and then the first two to b_1 in one batch
        g = pl.PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2)], distinguished=0)
        values, cycles = laufer_run_rescan(g, [0, 3, 0], 1)
        assert pl.laufer_values(g, [0, 3, 0], 1) == values
        steps = sum(cycles[-1])
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", steps)
        pl.laufer_values(g, [0, 3, 0], 1)
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", steps - 1)
        with pytest.raises(ResourceLimitError, match=f"step cap of {steps - 1} additions"):
            pl.laufer_values(g, [0, 3, 0], 1)

    def test_string_responses_take_only_strings(self):
        # the leaf and the -2 leg are answered by their response; a -1 vertex
        # or a positive offset makes the string's vertices interior
        for (euler, parents, offsets), response in [
            (LAUFER_LEAF, ([7, 1], [-3])),
            (LAUFER_LEG, ([7, 6, 5, 4, 3, 2, 1], [0] * 6)),
            (LAUFER_MINUS_ONE, None),
            (LAUFER_POSITIVE, None),
        ]:
            g = pl.PlumbingGraph(euler, [(j + 1, par) for j, par in enumerate(parents)], distinguished=0)
            assert pl._string(g, offsets, 1, 0) == response
        # strings hung from a node: on 2,3,2,1's resolution graph the node
        # next to v0 carries the first pair's legs, a -2 and a -3 vertex, and
        # from the node's side the path to v0 is no string
        gf = pl.embedded_resolution(from_newton_pairs([(2, 3), (2, 1)]))
        v0 = gf.distinguished
        node = next(j for j in gf.adj[v0] if gf.degree(j) == 3)
        legs = {gf.euler[j]: pl._string(gf, [0] * gf.n, j, node) for j in gf.adj[node] if j != v0}
        assert legs == {-2: ([2, 1], [0]), -3: ([3, 1], [0])}
        assert pl._string(gf, [0] * gf.n, v0, node) is None
        assert pl._string(gf, [0] * gf.n, node, v0) is None
        # offsets <= 0 whose recursion does not give 0 at m = 0: the Laufer
        # cycle starts at 0, below the least integer solution
        g = pl.PlumbingGraph([-1, -2], [(0, 1)], distinguished=0)
        assert pl._string(g, [0, -2], 1, 0) is None
        assert pl.laufer_values(g, [0, -2], 8) == laufer_run_rescan(g, [0, -2], 8)[0]

    def test_step_cap_refuses_before_allocating(self, monkeypatch):
        # 10^6 steps of v0 alone pass a cap of 10: nothing of size i_max is built
        g = pl.PlumbingGraph([-2, -2], [(0, 1)], distinguished=0)
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", 10)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="step cap of 10 additions"):
                pl.laufer_values(g, [0, 0], 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_class_run_refuses_a_class_it_cannot_split(self):
        knot, spec, gm, classes = surgery_setup([(2, 3)], 7, 5)
        gf = pl.embedded_resolution(knot)
        chi_gf = pl.laufer_values(gf, [0] * gf.n, 2 * knot.mf)
        offsets = l_pairs(gm, classes[5])
        assert offsets[gf.n]  # the class pairs to nonzero at the chain's first vertex
        pl.class_laufer_values(gm, offsets, chi_gf, 2 * knot.mf)
        shifted = offsets[1:] + (0,)  # one vertex down: nonzero on the resolution side
        with pytest.raises(InternalInvariantError, match="cannot share the resolution side"):
            pl.class_laufer_values(gm, shifted, chi_gf, 2 * knot.mf)
        with pytest.raises(InternalInvariantError, match="stops before step"):
            pl.class_laufer_values(gm, offsets, chi_gf, 2 * knot.mf + 1)


class TestLauferTau:
    def test_torus_45_condensation(self):
        knot, spec, gm, classes = surgery_setup([(4, 5)], 2, 1)
        values = laufer_tau(pl.embedded_resolution(knot), gm, classes[0], 6 * knot.mf)
        assert pl.condense_tau(values, knot.mf) == (0, 1, -5, -4, -8, -6, -9, -6, -8, -4, -5, 1, 0)
        with pytest.raises(ValueError, match="whole number of mf-blocks"):
            pl.condense_tau(values[:-1], knot.mf)

    def test_increment_formula(self):
        # chi(x(i+1)) - chi(x(i)) = t + 1 - ceil((iq - a)/(q mf + p)) - [i0 not in semigroup]
        for pairs, p, q in [([(2, 3)], 3, 2), ([(4, 5)], 2, 1)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            mf = knot.mf
            gf = pl.embedded_resolution(knot)
            for a in range(p):
                values = laufer_tau(gf, gm, classes[a], 2 * mf)
                for i in range(2 * mf):
                    t, i0 = divmod(i, mf)
                    ceil_term = -((-(i * q - a)) // (q * mf + p))
                    gap = 0 if i0 in knot.semigroup else 1
                    assert values[i + 1] - values[i] == t + 1 - ceil_term - gap

    def test_matches_tau_function_and_root(self):
        for pairs, p, q in [([(2, 3)], 5, 3), ([(2, 5)], 3, 2), ([(2, 3), (2, 1)], 2, 1)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                res = compute_run(spec, a)
                i_max = (res.depth + 1) * knot.mf
                tau = laufer_tau(pl.embedded_resolution(knot), gm, classes[a], i_max)
                assert pl.condense_tau(tau, knot.mf) == res.tau
                assert (
                    root_from_tau(tau).level_keys()
                    == root_from_tau(res.tau).level_keys()
                )

    def test_d_from_lattice(self):
        for pairs, p, q in [([(4, 5)], 2, 1), ([(2, 3)], 7, 5)]:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                run = compute_run(spec, a)
                i_max = (run.depth + 1) * knot.mf
                values = laufer_tau(pl.embedded_resolution(knot), gm, classes[a], i_max)
                d = Fraction(*pl.lattice_grading_shift(gm, k_pairs(gm, classes[a]))) + 2 * min(values)
                assert d == Fraction(run.r_num[0], run.r_den[0]) + run.tower


class TestSublevel:
    def test_lens_space_is_bare_stem(self):
        g = pl.PlumbingGraph([-3], [])
        kb = [-e - 2 for e in g.euler]  # the canonical class's pairings
        box = pl.exact_sublevel_box(g, kb, 3)
        root = pl.sublevel_root(g, kb, 3, box)
        assert len(root.leaves) == 1
        assert root.min_level() == 0

    def test_trefoil_minus_one_root(self):
        knot, spec, gm, classes = surgery_setup([(2, 3)], 1, 1)
        res = compute_run(spec, 0)
        box = pl.exact_sublevel_box(gm, k_pairs(gm, classes[0]), max(res.tau))
        root = pl.sublevel_root(gm, k_pairs(gm, classes[0]), max(res.tau), box)
        leaf_levels = sorted(root.chi[v] for v in root.leaves)
        assert leaf_levels == [0, 0]
        assert root.chi[root.top] == 1
        assert root.level_keys() == root_from_tau(res.tau).level_keys()

    def test_empty_sublevel(self):
        g = pl.PlumbingGraph([-3], [])
        with pytest.raises(ValueError, match="empty sublevel"):
            pl.sublevel_root(g, [1], -1, ((-3, 3),))

    @pytest.mark.parametrize("bound", [3.0, Fraction(3), True, "3"])
    def test_box_takes_ints_only(self, bound):
        g = pl.PlumbingGraph([-3], [])
        pl.sublevel_root(g, [1], 3, ((-3, 3),))
        with pytest.raises(TypeError, match="must be an int"):
            pl.sublevel_root(g, [1], 3, ((-3, bound),))

    def test_parity_check(self):
        g = pl.PlumbingGraph([-3, -2], [(0, 1)])
        with pytest.raises(ValueError, match="k_r is not characteristic"):
            pl.sublevel_root(g, [1, 1], 3, ((-3, 3),) * 2)

    def test_volume_cap(self, monkeypatch):
        # the cap counts enumerated points, not the box volume: a 601^3 box
        # gives the exact box's root, and only a sublevel set over the cap
        # (19 points at n_max = 2) is refused
        g = pl.PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2)])
        kb = [-e - 2 for e in g.euler]
        wide = ((-300, 300),) * 3
        for n_max in (0, 2):
            exact = pl.exact_sublevel_box(g, kb, n_max)
            assert sublevel_outcome(g, kb, n_max, wide) == sublevel_outcome(g, kb, n_max, exact)
        monkeypatch.setattr(pl, "_SUBLEVEL_POINT_CAP", 19)
        pl.sublevel_root(g, kb, 2, wide)  # exactly at the cap
        monkeypatch.setattr(pl, "_SUBLEVEL_POINT_CAP", 18)
        with pytest.raises(ResourceLimitError, match="enumeration cap of 18 points"):
            pl.sublevel_root(g, kb, 2, wide)

    def test_box_rows_do_not_wrap(self):
        # a box one column wide on vertex 0: x + b_0 leaves it, and x's code
        # plus that stride is the next row's point, also in the set; the set
        # goes on outside the box, so the closure check must fire
        g = pl.PlumbingGraph([-5, -3], [(0, 1)])
        kb = [1, -3]
        assert pl.exact_sublevel_box(g, kb, 3) == ((-1, 1), (-2, 1))
        box = ((0, 0), (-2, 1))
        assert sublevel_outcome(g, kb, 3, box) == reference_outcome(g, kb, 3, box) == "leaves"

    def test_laufer_cycles_inside_exact_box(self):
        # the search box the sublevel oracle uses, which is the Fraction
        # route's box, already holds every Laufer cycle; the cycles come from
        # the rescanning engine, whose chi values are first checked against
        # the package's split run
        for pairs, p, q in SUBLEVEL_CASES:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            gf = pl.embedded_resolution(knot)
            for a in range(p):
                res = compute_run(spec, a)
                box = pl.exact_sublevel_box(gm, k_pairs(gm, classes[a]), max(res.tau))
                assert box == exact_sublevel_box_fractions(gm, k_r(gm, classes[a]), max(res.tau))
                i_max = (res.depth + 1) * knot.mf
                values, cycles = laufer_run_rescan(gm, list(l_pairs(gm, classes[a])), i_max)
                assert tuple(values) == laufer_tau(gf, gm, classes[a], i_max)
                for cyc in cycles:
                    assert all(lo <= x <= hi for x, (lo, hi) in zip(cyc, box))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(random_trees(st.integers(-2, 2)), st.integers(-2, 3))
    # visited parents first, the order is 0, 1, 3, 2, not the index order
    @example(([-2, -2, -2, -3], (0, 1, 0), [0, 1, 0, -1]), 2)
    def test_exact_box_holds_the_sublevel_set(self, graph, n_max):
        # brute force over the exact box widened by 2 on every side; the
        # enumeration must give the points inside in lexicographic order.
        # definiteness is decided by the reference minors, and PlumbingGraph
        # must accept exactly the definite trees
        euler, parents, shifts = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        definite = definite_by_reference(tree_form(euler, edges))
        if not definite:
            with pytest.raises(ValueError, match="negative definite"):
                pl.PlumbingGraph(euler, edges)
        assume(definite)
        g = pl.PlumbingGraph(euler, edges)
        # characteristic: (k, b_j) = e_j + 2 m_j, any integer m_j
        kb = [e + 2 * m for e, m in zip(euler, shifts)]
        box = pl.exact_sublevel_box(g, kb, n_max)
        wide = [range(lo - 2, hi + 3) for lo, hi in box]
        assume(prod(len(r) for r in wide) <= 20_000)
        inside = []
        for x in itertools.product(*wide):
            two_chi = -(sum(k * xj for k, xj in zip(kb, x)) + pairing(g, x, x))
            if any(not lo <= xj <= hi for xj, (lo, hi) in zip(x, box)):
                assert two_chi > 2 * n_max
            elif two_chi <= 2 * n_max:
                inside.append(x)
        assert pl._ellipsoid_points(g, kb, n_max, box) == inside

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(random_trees(st.integers(-3, 3), max_n=8), st.integers(-3, 6))
    # vertex 0 of degree 3, each child with a child: |det| = 4 * 4 * 4 * 3 - ... > 1
    @example(([-3, -2, -2, -2, -2, -2, -2, -2], (0, 0, 0, 1, 2, 3, 4), [1, -2, 0, 3, 0, 0, -1, 2]), 2)
    def test_integer_box_matches_fraction_reference(self, graph, n_max):
        # the box from (k_r, b_j) in integers is the box the Fraction route
        # gives from k_r = B^{-1} kb, range for range, on every definite tree
        euler, parents, shifts = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        assume(definite_by_reference(tree_form(euler, edges)))
        g = pl.PlumbingGraph(euler, edges)
        kb = [e + 2 * m for e, m in zip(euler, shifts)]
        assert pl.exact_sublevel_box(g, kb, n_max) == exact_sublevel_box_fractions(g, tuple(solve(g, kb)), n_max)

    def test_box_solves_the_diagonal_once_per_graph(self, monkeypatch):
        # verify's 7 classes share one 6-vertex graph: one unit-vector solve
        # per vertex, not one per vertex and class (42)
        units = []
        real = pl.PlumbingGraph.solve

        def counted(self, y):
            if sorted(y) == [0] * (len(y) - 1) + [1]:
                units.append(tuple(y))
            return real(self, y)

        monkeypatch.setattr(pl.PlumbingGraph, "solve", counted)
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--newton", "2,3", "--surgery", "7/5", "--oracle", "sublevel"]) == 0
        assert len(units) == len(set(units)) == 6
        g = pl.PlumbingGraph([-2, -3, -2], [(0, 1), (1, 2)])
        assert [solve(g, [int(i == j) for i in range(3)])[j] * g.det for j in range(3)] == list(g.inverse_diagonal)

    def test_matches_box_sweep_on_corpus(self):
        for pairs, p, q in SUBLEVEL_REFERENCE_CASES:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                kb = k_pairs(gm, classes[a])
                n_top = max(compute_run(spec, a).tau)
                box = pl.exact_sublevel_box(gm, kb, n_top)
                args = (gm, kb, n_top, box)
                assert sublevel_outcome(*args) == reference_outcome(*args)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(random_trees(st.integers(-2, 2), max_n=6), st.integers(-2, 3))
    # vertex 0 of degree 3, each child with a child: visited parents first,
    # the order is 0, 1, 3, 5, 2, 4, 6, not the index order
    @example(([-4, -3, -4, -3, -4, -3, -4], (0, 1, 0, 3, 0, 5), [1, 0, -1, 0, 2, -1, 0]), 0)
    def test_matches_box_sweep_on_random_trees(self, graph, n_max):
        # the exact box, and a box one step tighter on every side that cuts
        # into most sublevel sets: the package's closure check must raise
        # exactly when the reference reports box contact
        euler, parents, shifts = graph
        edges = [(j + 1, par) for j, par in enumerate(parents)]
        assume(definite_by_reference(tree_form(euler, edges)))
        g = pl.PlumbingGraph(euler, edges)
        kb = [e + 2 * m for e, m in zip(euler, shifts)]
        box = pl.exact_sublevel_box(g, kb, n_max)
        assume(prod(hi - lo + 1 for lo, hi in box) <= 20_000)
        tight = tuple((lo + 1, hi - 1) for lo, hi in box)
        assert sublevel_outcome(g, kb, n_max, box) != "leaves"
        for b in (box, tight):
            args = (g, kb, n_max, b)
            assert sublevel_outcome(*args) == reference_outcome(*args)

    def test_lattice_cohomology_vanishes_above_degree_zero(self):
        # for almost-rational graphs H^q = 0 for q >= 1, so at every level the
        # Euler characteristic of the cubical complex S_n counts its components
        for pairs, p, q in SUBLEVEL_CASES:
            knot, spec, gm, classes = surgery_setup(pairs, p, q)
            for a in range(p):
                kb = k_pairs(gm, classes[a])
                n_top = max(compute_run(spec, a).tau)
                box = pl.exact_sublevel_box(gm, kb, n_top)
                root = pl.sublevel_root(gm, kb, n_top, box)
                weight = {
                    x: -(sum(k * xj for k, xj in zip(kb, x)) + pairing(gm, x, x)) // 2
                    for x in pl._ellipsoid_points(gm, kb, n_top, box)
                }
                levels = range(min(weight.values()), n_top + 1)
                totals = cube_euler_characteristics(weight, levels)
                assert totals == {n: root.chi.count(n) for n in levels}

    def test_truncated_box_is_flagged(self):
        knot, spec, gm, classes = surgery_setup([(2, 3)], 2, 1)
        res = compute_run(spec, 0)
        tight = tuple((0, 1) for _ in range(gm.n))
        with pytest.raises(InternalInvariantError, match="leaves the enumeration"):
            pl.sublevel_root(gm, k_pairs(gm, classes[0]), max(res.tau), tight)

    def test_closure_check_catches_each_skipped_point(self, monkeypatch):
        # (2,3) at -2/1, class 0: dropping any one of its 64 enumerated points
        # must raise, whether or not the root would still come out right
        knot, spec, gm, classes = surgery_setup([(2, 3)], 2, 1)
        kb, n_top = k_pairs(gm, classes[0]), max(compute_run(spec, 0).tau)
        box = pl.exact_sublevel_box(gm, kb, n_top)
        real = pl._ellipsoid_points
        pts = real(gm, kb, n_top, box)
        assert len(pts) == 64
        for dropped in pts:
            monkeypatch.setattr(pl, "_ellipsoid_points", lambda *args: [x for x in real(*args) if x != dropped])
            with pytest.raises(InternalInvariantError, match="leaves the enumeration"):
                pl.sublevel_root(gm, kb, n_top, box)


class TestLens:
    def test_l21(self):
        assert sorted(over(lens.lens_d_invariants(2, 1), 4)) == [Fraction(-1, 4), Fraction(1, 4)]

    def test_trivial(self):
        assert lens.lens_d_invariants(1, 1) == [0]
        assert lens.lens_d_classical(1, 1) == ([0], 1)

    def test_dual_paths_small(self):
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                assert sorted(over(lens.lens_d_invariants(p, q), 2 * p)) == sorted(over(*lens.lens_d_classical(p, q)))

    def test_fibonacci_chain(self):
        # 987/610 = F_16/F_15 runs the deepest Euclidean chain below 1000:
        # fourteen levels, every partial quotient 1 but the last
        nums, den = lens.lens_d_classical(987, 610)
        recursive = lens_d_recursive(987, 610)
        assert over(nums, den) == recursive
        assert sorted(over(lens.lens_d_invariants(987, 610), 2 * 987)) == sorted(recursive)

    def test_classical_denominator_is_its_own(self):
        # the lcm of the 4 m n of the levels (7, 3) and (3, 1), not 2p = 14
        nums, den = lens.lens_d_classical(7, 3)
        assert den == 84
        assert over(nums, den) == lens_d_recursive(7, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            lens.lens_d_invariants(4, 2)
        with pytest.raises(ValueError):
            lens.lens_d_invariants(3, 4)
        with pytest.raises(ValueError, match="coprime"):
            lens.lens_d_classical(4, 2)
        with pytest.raises(ValueError):
            lens.lens_d_classical(3, 4)


SHIFT_KNOTS = [from_newton_pairs([pair]) for pair in [(2, 3), (2, 5), (3, 4)]]


class TestShiftPrefix:
    """The one-pass prefix [r_0, ..., r_a] and the bottom-up lens recursion
    against the per-class references, index by index."""

    def test_prefix_matches_per_class_exhaustive(self):
        for p in range(1, 30):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                for delta in (0, 1, 3):
                    expected = [grading_shift_formula_per_class(p, q, delta, a) for a in range(p)]
                    assert over(lens.grading_shift_formula(p, q, delta, p - 1), 2 * p) == expected, (p, q, delta)

    @given(st.data())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_lens_routes_match_references(self, data):
        p = data.draw(st.integers(2, 2000), label="p")
        q = data.draw(st.integers(1, p - 1), label="q")
        assume(gcd(p, q) == 1)
        formula = over(lens.lens_d_invariants(p, q), 2 * p)
        assert len(formula) == p
        for a in data.draw(st.lists(st.integers(0, p - 1), max_size=6), label="a") + [0, p - 1]:
            assert formula[a] == grading_shift_formula_per_class(p, q, 0, a)
        assert over(*lens.lens_d_classical(p, q)) == lens_d_recursive(p, q)

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_prefix_matches_hfcore_and_per_class(self, data):
        knot = data.draw(st.sampled_from(SHIFT_KNOTS), label="knot")
        p = data.draw(st.integers(1, 2000), label="p")
        q = data.draw(st.integers(1, 2 * p), label="q")
        assume(gcd(p, q) == 1)
        a = data.draw(st.integers(0, p - 1), label="a")
        prefix = over(lens.grading_shift_formula(p, q, knot.delta, a), 2 * p)
        spec = SurgerySpec(knot, p, q)
        assert prefix == run_shifts(spec)[:a + 1]
        for b in data.draw(st.lists(st.integers(0, a), max_size=6), label="b") + [0, a]:
            assert prefix[b] == grading_shift_formula_per_class(p, q, knot.delta, b)

    def test_index_outside_range(self):
        for a in (-1, 7):
            with pytest.raises(ValueError, match="outside"):
                lens.grading_shift_formula(7, 5, 1, a)

    def test_non_integer_dedekind_term_is_a_fault(self, monkeypatch):
        # every term is an integer over 2p only while 6 p s(q, p) is one
        monkeypatch.setattr(lens, "dedekind_sum", lambda q, p: (1, 5 * 6 * p))
        with pytest.raises(InternalInvariantError, match="not an integer"):
            lens.grading_shift_formula(7, 5, 1, 0)


@pytest.fixture
def counted(monkeypatch):
    """Calls of lens's dedekind_sum and mod_inverse, by name."""
    calls = Counter()
    for name in ("dedekind_sum", "mod_inverse"):
        real = getattr(lens, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(lens, name, counting)
    return calls


class TestOnePass:
    """The formula constants are computed once per surgery, not once per class."""

    def test_lens(self, counted):
        assert len(lens.lens_d_invariants(211, 37)) == 211
        assert counted == {"dedekind_sum": 1, "mod_inverse": 1}

    def test_verify_all_classes(self, counted, capsys):
        assert main(["verify", "--newton", "2,3", "--surgery", "7/5"]) == 0
        assert "result: AGREE" in capsys.readouterr().out
        assert counted == {"dedekind_sum": 1, "mod_inverse": 1}

    def test_verify_one_class_asks_for_its_prefix(self, monkeypatch, capsys):
        asked = []
        real = lens.grading_shift_formula

        def recording(p, q, delta, a):
            asked.append(a)
            return real(p, q, delta, a)

        monkeypatch.setattr(lens, "grading_shift_formula", recording)
        assert main(["verify", "--newton", "2,3", "--surgery", "7/5", "--spinc", "3"]) == 0
        assert "a = 3: shift ok, tau ok" in capsys.readouterr().out
        assert asked == [3]

