from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import NumeratorTable, dedekind_sum_direct

from hfroots.numtheory import NegContinuedFraction, dedekind_sum, floor_sum, mod_inverse, neg_cfrac


def reciprocity_rhs(p, q):
    # s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq))/12 for coprime p, q >= 1
    return Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(5, 7) == 3
        assert mod_inverse(1, 1) == 1
        for p in (2, 3, 10, 97):
            assert mod_inverse(1, p) == 1

    def test_window(self):
        for p in range(1, 40):
            for q in range(1, 3 * p):
                if gcd(q, p) != 1:
                    continue
                r = mod_inverse(q, p)
                assert 1 <= r <= p
                assert (q * r) % p == 1 % p

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            mod_inverse(4, 6)
        with pytest.raises(ValueError):
            mod_inverse(0, 5)


class TestNegCfrac:
    def test_examples(self):
        assert neg_cfrac(2, 1).terms == (2,)
        assert neg_cfrac(1, 2).terms == (1, 2)
        cf = neg_cfrac(7, 5)
        assert cf.terms == (2, 2, 3)
        assert cf.q_prime == 3
        assert (5 * 3) % 7 == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            neg_cfrac(4, 2)
        with pytest.raises(ValueError):
            neg_cfrac(0, 1)
        with pytest.raises(ValueError):
            neg_cfrac(3, -1)

    def test_reevaluation_and_normalisation(self):
        for p in range(1, 30):
            for q in range(1, 30):
                if gcd(p, q) != 1:
                    continue
                cf = neg_cfrac(p, q)
                value = Fraction(cf.terms[-1])
                for k in reversed(cf.terms[:-1]):
                    value = k - 1 / value
                assert value == Fraction(p, q)
                assert cf.terms[0] >= 1
                assert all(k >= 2 for k in cf.terms[1:])
                assert (cf.terms[0] == 1) == (q >= p)

    def test_table_boundaries(self):
        cf = neg_cfrac(7, 5)
        assert cf.tail == (7, 5, 3, 1)  # n(1, 3), n(2, 3), n(3, 3), n(4, 3)
        assert cf.q_prime == 3  # n(1, 2)
        assert neg_cfrac(1, 1).tail == (1, 1)
        assert neg_cfrac(1, 2).tail == (1, 2, 1)
        table = NumeratorTable(cf.terms)
        assert table.n(1, 3) == 7
        assert table.n(2, 3) == 5
        assert table.n(1, 0) == 1
        assert table.n(3, 1) == 0
        assert table.n(1, 2) == 3

    def test_three_term_recursion(self):
        for p, q in [(7, 5), (12, 7), (11, 4), (5, 12), (9, 2)]:
            cf = neg_cfrac(p, q)
            tail, s = cf.tail, cf.s
            assert len(tail) == s + 1 and tail[s] == 1
            for j in range(1, s + 1):
                assert tail[j - 1] == cf.terms[j - 1] * tail[j] - (tail[j + 1] if j + 1 <= s else 0)

    def test_column_matches_reference_table(self):
        for p in range(1, 201):
            for q in range(1, 201):
                if gcd(p, q) != 1:
                    continue
                cf = neg_cfrac(p, q)
                table, s = NumeratorTable(cf.terms), cf.s
                assert cf.tail == tuple(table.n(i, s) for i in range(1, s + 2))
                assert cf.q_prime == table.n(1, s - 1)

    def test_rejects_inconsistent_expansion(self):
        with pytest.raises(ValueError, match="normalised"):
            NegContinuedFraction(7, 5, (2, 1, 3))
        with pytest.raises(ValueError, match="reproduce p"):
            NegContinuedFraction(8, 5, (2, 2, 3))
        with pytest.raises(ValueError, match="reproduce q"):
            NegContinuedFraction(7, 4, (2, 2, 3))
        with pytest.raises(ValueError, match="empty"):
            NegContinuedFraction(1, 1, ())

    def test_q_prime_is_mod_inverse_exhaustive(self):
        for p in range(1, 201):
            for q in range(1, 201):
                if gcd(p, q) != 1:
                    continue
                assert neg_cfrac(p, q).q_prime == mod_inverse(q, p)


def dedekind_fraction(q, p):
    """dedekind_sum(q, p), read as a Fraction."""
    return Fraction(*dedekind_sum(q, p))


class TestDedekindSum:
    def test_examples(self):
        assert dedekind_sum(1, 1) == (0, 1)
        assert dedekind_sum(1, 2) == (0, 1)
        assert dedekind_sum(1, 3) == (1, 18)
        assert dedekind_sum(2, 3) == (-1, 18)

    def test_reciprocity(self):
        # the classical identity, on the direct sum: dedekind_sum is built on it
        for p in range(1, 101):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                assert dedekind_sum_direct(q, p) + dedekind_sum_direct(p, q) == reciprocity_rhs(p, q)

    def test_matches_direct_sum(self):
        # every residue, negative and non-coprime q included: the pair is two
        # ints in lowest terms with den > 0, the direct sum's own numerator
        # and denominator
        for p in range(1, 60):
            for q in range(-2 * p, 2 * p + 1):
                num, den = pair = dedekind_sum(q, p)
                assert type(pair) is tuple and type(num) is int and type(den) is int
                assert den > 0 and gcd(num, den) == 1, (q, p)
                direct = dedekind_sum_direct(q, p)
                assert pair == (direct.numerator, direct.denominator), (q, p)

    def test_huge_fibonacci_reciprocity(self):
        # consecutive Fibonacci numbers make the longest Euclid run for their size;
        # a direct sum over 10**30 terms would never finish
        a, b = 1, 1
        while b < 10**30:
            a, b = b, a + b
        assert gcd(a, b) == 1
        assert dedekind_fraction(a, b) + dedekind_fraction(b, a) == reciprocity_rhs(b, a)
        assert dedekind_fraction(-a, b) == -dedekind_fraction(a, b)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            dedekind_sum(1, 0)

    def test_periodicity_and_sign(self):
        for p in (5, 8, 13):
            for q in range(1, 3 * p):
                if gcd(q, p) != 1:
                    continue
                assert dedekind_sum(q, p) == dedekind_sum(q % p, p)
                assert dedekind_fraction(-q % p, p) == -dedekind_fraction(q, p)


def floor_sum_brute(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


class TestFloorSum:
    def test_exhaustive_small(self):
        for n in range(0, 9):
            for m in range(1, 9):
                for a in range(-10, 20):
                    for b in range(-10, 20):
                        assert floor_sum(n, m, a, b) == floor_sum_brute(n, m, a, b), (n, m, a, b)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 400),
        st.integers(1, 10**6),
        st.integers(-(10**7), 10**7),
        st.integers(-(10**7), 10**7),
    )
    def test_matches_brute_force(self, n, m, a, b):
        assert floor_sum(n, m, a, b) == floor_sum_brute(n, m, a, b)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 200), st.data())
    def test_coefficients_beyond_modulus(self, m, data):
        n = data.draw(st.integers(0, 300))
        a = data.draw(st.integers(m, 20 * m))
        b = data.draw(st.integers(m, 20 * m))
        assert floor_sum(n, m, a, b) == floor_sum_brute(n, m, a, b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            floor_sum(-1, 3, 1, 0)
        with pytest.raises(ValueError):
            floor_sum(3, 0, 1, 0)
