from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hfroots.knot as knot_mod
from hfroots.errors import ResourceLimitError
from hfroots.knot import from_newton_pairs, poly_mul, t_power_minus_one

from corpus_cases import KNOT_CORPUS
from oracles import poly_divexact, product_invariants

MF_MAX = 5000


@st.composite
def newton_pair_sequences(draw):
    """1-3 valid Newton pairs with mf = a_g p_g <= MF_MAX; a pair that cannot
    keep mf under the bound ends the sequence early.  Half the q draws are
    small, so that later pairs still fit."""
    pairs = []
    a = p_prev = 0
    for i in range(draw(st.integers(1, 3))):
        # mf = p (q + p p_prev a) for this pair as the last one
        q_range = {p: (1 if i else p + 1, MF_MAX // p - p * p_prev * a) for p in range(2, 13)}
        fits = [p for p, (lo, hi) in q_range.items() if lo <= hi]
        if not fits:
            break
        p = draw(st.sampled_from(fits))
        lo, hi = q_range[p]
        q = draw(st.integers(lo, min(hi, lo + 8)) | st.integers(lo, hi))  # small q leaves room
        assume(gcd(p, q) == 1)
        pairs.append((p, q))
        a, p_prev = q + p * p_prev * a, p
    return pairs


def series_from_alexander(alex, order):
    """Coefficients of Delta(t)/(1-t) up to the given order (prefix sums)."""
    out = []
    acc = 0
    for k in range(order + 1):
        acc += alex[k] if k < len(alex) else 0
        out.append(acc)
    return out


class TestConstruction:
    def test_trefoil(self):
        k = from_newton_pairs([(2, 3)])
        assert (k.delta, k.mu, k.mf) == (1, 2, 6)
        assert k.gaps == (1,)
        assert k.alexander == (1, -1, 1)
        assert k.alpha == (1,)

    def test_torus_4_5(self):
        k = from_newton_pairs([(4, 5)])
        assert (k.delta, k.mu) == (6, 12)
        assert k.gaps == (1, 2, 3, 6, 7, 11)
        assert k.alpha == (6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1)
        assert k.semigroup.generators == (0, 4, 5)

    def test_linking_recursion(self):
        k = from_newton_pairs([(2, 3), (2, 1)])
        assert k.linking_pairs == ((2, 3), (2, 13))
        assert k.mf == 26

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(2, 2)], "gcd"),
            ([(3, 2)], "q_1 > p_1"),
            ([(1, 5)], ">= 2"),
            ([(2, 3), (2, 0)], ">= 1"),
            ([], "at least one"),
        ],
    )
    def test_rejects_invalid(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            from_newton_pairs(pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(2.5, 3.9)], "Newton pair 1: p_1 = 2.5 must be an int, not float"),  # int() would make the trefoil
            ([(2, "3")], "Newton pair 1: q_1 = '3' must be an int, not str"),
            ([(2, 3), (True, 1)], "Newton pair 2: p_2 = True must be an int, not bool"),
            ([(2, Fraction(3))], "Newton pair 1: q_1 = Fraction\\(3, 1\\) must be an int, not Fraction"),
        ],
    )
    def test_rejects_inexact_entries(self, pairs, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            from_newton_pairs(pairs)

    def test_table_cap_is_checked_before_allocating(self, monkeypatch):
        # the trefoil has mf = 6, so its table holds mf + 11 = 17 entries
        monkeypatch.setattr(knot_mod, "_SEMIGROUP_TABLE_CAP", 17)
        assert from_newton_pairs([(2, 3)]).mf == 6
        monkeypatch.setattr(knot_mod, "_SEMIGROUP_TABLE_CAP", 16)
        monkeypatch.setattr(knot_mod, "_membership", lambda gens, bound: pytest.fail("table allocated"))
        with pytest.raises(ResourceLimitError, match="mf \\+ 11 = 17 entries, over the cap of 16"):
            from_newton_pairs([(2, 3)])

    def test_alpha_extension(self):
        # alpha_i counts the gaps above i; the tuple stops where that count
        # reaches 0, at the largest gap mu - 1, so its zero tail is implicit
        for pairs in [[(2, 3)], [(4, 5)], [(2, 3), (2, 1)]]:
            k = from_newton_pairs(pairs)
            assert len(k.alpha) == k.mu - 1
            assert k.alpha == tuple(sum(1 for g in k.gaps if g > i) for i in range(k.mu - 1))
            assert not any(g > k.mu - 1 for g in k.gaps)


class TestAlexander:
    def test_normalisation_and_derivative(self):
        k = from_newton_pairs([(4, 5)])
        alex = k.alexander
        assert sum(alex) == 1
        assert sum(e * c for e, c in enumerate(alex)) == k.delta

    def test_semigroup_series(self):
        for pairs in [[(2, 3)], [(4, 5)], [(2, 3), (2, 1)], [(3, 4), (3, 2)]]:
            k = from_newton_pairs(pairs)
            order = k.mu + 10
            series = series_from_alexander(k.alexander, order)
            assert series == [1 if i in k.semigroup else 0 for i in range(order + 1)]

    def test_q_polynomial_identity(self):
        # Delta(t) = 1 + delta (t - 1) + (t - 1)^2 Q(t), exactly
        for pairs in [[(2, 3)], [(2, 5)], [(4, 5)], [(2, 3), (2, 3)]]:
            k = from_newton_pairs(pairs)
            alpha = k.alpha
            sq = poly_mul([-1, 1], [-1, 1])
            rebuilt = poly_mul(sq, list(alpha))
            rebuilt[0] += 1 - k.delta
            rebuilt[1] += k.delta
            trimmed = rebuilt[: len(k.alexander)]
            assert tuple(trimmed) == k.alexander
            assert all(c == 0 for c in rebuilt[len(k.alexander):])


class TestInvariants:
    @pytest.mark.parametrize("pairs", [[(2, 3)], [(4, 5)], [(2, 3), (2, 1)], [(5, 6), (3, 4)]])
    def test_gap_symmetry(self, pairs):
        k = from_newton_pairs(pairs)
        for j in range(k.mu):
            assert (j in k.semigroup) != ((k.mu - 1 - j) in k.semigroup)

    @pytest.mark.parametrize("pairs", [[(2, 3)], [(4, 5)], [(2, 3), (2, 3)]])
    def test_alpha_monotone(self, pairs):
        k = from_newton_pairs(pairs)
        assert k.alpha[0] == k.delta
        assert k.alpha[-1] == 1
        assert all(a >= b for a, b in zip(k.alpha, k.alpha[1:]))
        assert all(a > 0 for a in k.alpha)

    @pytest.mark.parametrize("pairs", [[(2, 3)], [(4, 5)], [(3, 4), (2, 1)]])
    def test_alpha_reversal_identity(self, pairs):
        # t^{mu-2} Q(1/t) - Q(t) = (delta (1 + t^{mu-1}) - sum_{j<mu} t^j)/(t - 1)
        k = from_newton_pairs(pairs)
        mu = k.mu
        lhs = [k.alpha[mu - 2 - i] - k.alpha[i] for i in range(mu - 1)]
        num = [-1] * mu
        num[0] += k.delta
        num[mu - 1] += k.delta
        rhs = poly_divexact(num, [-1, 1])
        rhs += [0] * (len(lhs) - len(rhs))
        assert lhs == rhs

    def test_gaps_below_mf_full_corpus(self):
        for pairs in KNOT_CORPUS:
            k = from_newton_pairs(list(pairs))
            assert all(g < k.mf for g in k.gaps)
            assert k.mu == 2 * k.delta
            assert k.gaps[-1] == k.mu - 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(newton_pair_sequences())
    def test_gap_route_matches_product_formula(self, pairs):
        # Delta, mu, delta and alpha from the gap set against the cyclotomic
        # product and exact division, on knots beyond the corpus
        k = from_newton_pairs(pairs)
        assert k.mf <= MF_MAX
        assert (k.alexander, k.mu, k.delta, k.alpha) == product_invariants(k)
        for j in range(k.mu):
            assert (j in k.semigroup) != ((k.mu - 1 - j) in k.semigroup)

    def test_semigroup_closed_under_addition(self):
        import random

        rng = random.Random(17)
        k = from_newton_pairs([(3, 4), (2, 1)])
        members = [i for i in range(k.mu + k.mf + 11) if i in k.semigroup]
        for _ in range(500):
            a, b = rng.choice(members), rng.choice(members)
            assert (a + b) in k.semigroup

    def test_membership_answers_every_integer(self):
        # membership reads the gap set, so it needs no table bound: every
        # k >= mu is in S, far past the table the construction builds
        k = from_newton_pairs([(2, 3)])
        assert 13 in k.semigroup
        assert 10**30 in k.semigroup
        assert -1 not in k.semigroup and -(10**30) not in k.semigroup
        for pairs in [[(2, 3)], [(4, 5)], [(2, 3), (2, 1)]]:
            k = from_newton_pairs(pairs)
            gens = k.semigroup.generators[1:]
            reachable = {0}
            for i in range(1, 3 * k.mf):
                if any(i - g in reachable for g in gens):
                    reachable.add(i)
            assert [i in k.semigroup for i in range(-5, 3 * k.mf)] == [i in reachable for i in range(-5, 3 * k.mf)]


class TestPolyHelpers:
    def test_divexact_remainder(self):
        from hfroots.errors import InternalInvariantError

        with pytest.raises(InternalInvariantError):
            poly_divexact([1, 1, 1], [1, 1])

    def test_mul_div_roundtrip(self):
        a = [3, 0, -2, 1]
        b = t_power_minus_one(4)
        assert poly_divexact(poly_mul(a, b), b) == a
