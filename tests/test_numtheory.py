from fractions import Fraction
from math import gcd

import pytest

from hfroots.numtheory import dedekind_sum, mod_inverse, neg_cfrac


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
        s = cf.s
        assert cf.n(1, s) == 7
        assert cf.n(2, s) == 5
        assert cf.n(1, 0) == 1
        assert cf.n(3, 1) == 0
        assert cf.n(1, 2) == 3

    def test_three_term_recursion(self):
        for p, q in [(7, 5), (12, 7), (11, 4), (5, 12), (9, 2)]:
            cf = neg_cfrac(p, q)
            s = cf.s
            for j in range(1, s + 1):
                assert cf.n(j, s) == cf.terms[j - 1] * cf.n(j + 1, s) - (
                    cf.n(j + 2, s) if j + 2 <= s + 1 else 0
                )

    def test_q_prime_is_mod_inverse_exhaustive(self):
        for p in range(1, 201):
            for q in range(1, 201):
                if gcd(p, q) != 1:
                    continue
                assert neg_cfrac(p, q).q_prime == mod_inverse(q, p)


class TestDedekindSum:
    def test_examples(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_reciprocity(self):
        # s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq))/12, classical identity
        for p in range(1, 101):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
                rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
                assert lhs == rhs

    def test_periodicity_and_sign(self):
        for p in (5, 8, 13):
            for q in range(1, 3 * p):
                if gcd(q, p) != 1:
                    continue
                assert dedekind_sum(q, p) == dedekind_sum(q % p, p)
                assert dedekind_sum(-q % p, p) == -dedekind_sum(q, p)
