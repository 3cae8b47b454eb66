import random
from fractions import Fraction

import pytest

from dortho import Poly, binomial, rational_from_str, rational_to_str

from conftest import rand_poly, rand_rational


def P(*coeffs):
    return Poly(coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_add_zero_identity(self):
        p = P(3, Fraction(1, 2), 7)
        assert p + Poly.zero() == p

    def test_scale(self):
        assert P(-1, 0, 1).scale(Fraction(1, 2)) == P(Fraction(-1, 2), 0, Fraction(1, 2))

    def test_mul_degree_bookkeeping(self, rng):
        for _ in range(50):
            a = rand_poly(rng, 8)
            b = rand_poly(rng, 8)
            if a.is_zero or b.is_zero:
                assert (a * b).is_zero
            else:
                assert (a * b).degree == a.degree + b.degree

    def test_zero_degree_sentinel(self):
        assert Poly.zero().degree == -1
        assert Poly([0, 0, 0]).degree == -1
        assert (P(1, 2) - P(1, 2)).degree == -1

    def test_partial_leading_cancellation_is_trimmed(self):
        s = P(1, 2, 3) + P(0, 0, -3)
        assert s == P(1, 2)
        assert s.coeffs[-1] != 0
        d = P(1, 2, 3) - P(0, 0, 3)
        assert d == P(1, 2)
        assert d.coeffs[-1] != 0
        d = P(0, 0, 3) - P(1, 2, 3)
        assert d == P(-1, -2)
        assert d.coeffs[-1] != 0

    def test_scale_by_zero_is_zero(self):
        assert P(1, 2, 3).scale(0) == Poly.zero()

    def test_int_built_results_hold_fractions(self):
        p = P(0, 2, 0, 5)
        q = P(1, 0, -3)
        for r in (p.derivative(), p.derivative(2), p.scale(2), p * q, q * p, p + q, p - q, -p):
            assert r.coeffs
            assert all(type(c) is Fraction for c in r.coeffs)


class TestDerivative:
    def test_first(self):
        assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)

    def test_third(self):
        assert P(0, 0, 0, 1).derivative(3) == P(6)

    def test_order_exceeds_degree(self):
        assert P(0, 0, 0, 1).derivative(4).is_zero


class TestEval:
    def test_horner(self):
        assert P(-1, 0, 1)(2) == 3

    def test_constant_term(self, rng):
        p = rand_poly(rng, 6)
        assert p(0) == p.coeff(0)

    def test_zero_poly(self):
        assert Poly.zero()(Fraction(7, 3)) == 0

    def test_int_point_gives_fraction(self):
        assert type(P(1, 2, 3)(2)) is Fraction
        assert type(Poly.zero()(2)) is Fraction


class TestRingAxioms:
    def test_random_axioms(self):
        rng = random.Random(1234)
        for _ in range(200):
            a = rand_poly(rng)
            b = rand_poly(rng)
            c = rand_poly(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_product_rule(self, rng):
        for _ in range(100):
            f = rand_poly(rng, 8)
            g = rand_poly(rng, 8)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_eval_multiplicative(self, rng):
        for _ in range(100):
            f = rand_poly(rng, 8)
            g = rand_poly(rng, 8)
            x0 = rand_rational(rng)
            assert (f * g)(x0) == f(x0) * g(x0)


class TestJson:
    def test_rational_strings(self):
        assert rational_to_str(Fraction(-3, 4)) == "-3/4"
        assert rational_to_str(Fraction(6, 2)) == "3"
        assert rational_from_str("-3/4") == Fraction(-3, 4)

    def test_poly_round_trip(self, rng):
        for _ in range(20):
            p = rand_poly(rng)
            assert Poly.from_json(p.to_json()) == p

    def test_zero_poly_is_empty_list(self):
        assert Poly.zero().to_json() == []
        assert Poly.from_json([]).is_zero


class TestImmutability:
    def test_setattr_raises(self):
        p = P(1, 2)
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(5),)

    def test_hashable(self):
        assert hash(P(1, 2)) == hash(P(1, 2))


class TestBinomial:
    def test_matches_comb(self):
        import math

        for n in range(12):
            for r in range(12):
                assert binomial(n, r) == math.comb(n, r)

    def test_negative_upper_index(self):
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4
