import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dortho import Poly, binomial, rational_from_json, rational_to_str
from dortho.errors import OutputTooLarge

from conftest import polys, rand_poly, rand_rational, small_rationals


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

    @settings(max_examples=150, deadline=None)
    @given(polys(8), st.integers(-20, 20), st.integers(0, 15))
    @example(Poly.zero(), -3, 7)
    def test_values_is_pointwise_evaluation(self, p, a, length):
        # one integer Horner over the coefficients' common denominator
        values = p.values(range(a, a + length))
        assert values == [p(n) for n in range(a, a + length)]
        assert all(type(v) is Fraction for v in values)


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
        assert rational_from_json("-3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize(
        "value, expected",
        [
            (7, Fraction(7)),
            (-(10**80), Fraction(-(10**80))),
            (0.5, Fraction(1, 2)),
            (0.1, Fraction(1, 10)),
            (1e-05, Fraction(1, 100000)),
            ("12", Fraction(12)),
            ("-3/4", Fraction(-3, 4)),
            ("2.5", Fraction(5, 2)),
        ],
    )
    def test_rational_from_json_accepts(self, value, expected):
        assert rational_from_json(value) == expected

    @pytest.mark.parametrize(
        "value",
        [True, None, [1], {"p": 1}, float("inf"), float("nan"), "1e3", "1E100000", "x", ""],
    )
    def test_rational_from_json_rejects(self, value):
        with pytest.raises(ValueError):
            rational_from_json(value)

    def test_rational_past_the_digit_limit(self):
        with pytest.raises(OutputTooLarge, match="more than 4300 digits"):
            rational_to_str(Fraction(10**4300))
        assert rational_to_str(Fraction(1, 10**4299)) == "1/1" + "0" * 4299

    def test_rational_to_str_of_int_and_fraction(self):
        # a Fraction is printed as it is, anything else through Fraction(r)
        assert rational_to_str(-7) == "-7"
        assert rational_to_str(Fraction(-35, 12)) == "-35/12"
        for r in (10**4300, Fraction(1, 10**4300)):
            with pytest.raises(OutputTooLarge, match="more than 4300 digits"):
                rational_to_str(r)

    # numerator and denominator are each up to three of these, so a
    # string near dortho's own spelling is likely
    SPELLING_PIECES = ["1", "0", "25", "\u0663", "-", "+", "_", ".", " ", "e", "E"]

    @staticmethod
    def parsed(read, v):
        """read(v), or the type and message of the error it raises."""
        try:
            r = read(v)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        assert type(r) is Fraction
        return r

    @staticmethod
    def fraction_route(v):
        """rational_from_json's reading of a str through Fraction's parser
        alone: the exponent screen, then Fraction(str(v))."""
        if "e" in v.lower():
            raise ValueError(f"rational with an exponent: {v!r}")
        return Fraction(str(v))

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="0123456789\u0663-+/._ eE", max_size=12),
            st.builds(
                lambda p, slash, q: p + slash + q,
                st.lists(st.sampled_from(SPELLING_PIECES), max_size=3).map("".join),
                st.sampled_from(["", "/"]),
                st.lists(st.sampled_from(SPELLING_PIECES), max_size=3).map("".join),
            ),
        )
    )
    @example("1" * 4301)
    @example("-1/" + "1" * 4301)
    @example("5/0")
    @example("-0/7")
    @example("007/0100")
    @example("\u0663/4")
    @example("1_000/3")
    def test_rational_from_json_matches_fractions_parser(self, v):
        # int() reads dortho's own "p" and "p/q"; any other string, and any
        # error, must be exactly Fraction's
        assert self.parsed(rational_from_json, v) == self.parsed(self.fraction_route, v)

    @pytest.mark.parametrize("data", ["12", 12, {"a": [1]}, None])
    def test_poly_from_json_needs_an_array(self, data):
        with pytest.raises(ValueError, match="array"):
            Poly.from_json(data)

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
        hash(p)
        for name in ("coeffs", "_hash"):
            with pytest.raises(AttributeError):
                setattr(p, name, (Fraction(5),))

    def test_hashable(self):
        assert hash(P(1, 2)) == hash(P(1, 2))

    @settings(max_examples=100, deadline=None)
    @given(polys(5), polys(5), small_rationals)
    def test_equal_polys_hash_equal(self, a, b, c):
        # a hash cached on one Poly agrees with every equal Poly's, however built
        for p in (a + b, a * b, a.scale(c)):
            q = Poly(list(p.coeffs))
            assert p == q
            h = hash(p)
            assert hash(p) == h == hash(q) == hash(q)
            assert {q: True}[p]


class TestBinomial:
    def test_matches_comb(self):
        import math

        for n in range(12):
            for r in range(12):
                assert binomial(n, r) == math.comb(n, r)

    def test_negative_upper_index(self):
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4
