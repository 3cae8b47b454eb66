import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dortho import (
    DiffOperator,
    Poly,
    classify,
    corollary42_operator,
    from_action,
    lambda_at,
    leibniz_expand,
)
from dortho.diffop import nonneg_integer_roots
from dortho.errors import DegreeViolation

from conftest import operators, polys, rand_operator, rand_poly

X = Poly.x()
D = DiffOperator([Poly.zero(), Poly.one()])
IDENT = DiffOperator([Poly.one()])


class TestApply:
    def test_derivative_operator(self):
        assert D.apply(Poly([0, 0, 1])) == Poly([0, 2])

    def test_explicit_family_on_cube(self):
        J = corollary42_operator(0)
        # direct hand evaluation: (x/24)*3x^2 + (x-1)^2 = x^3/8 + x^2 - 2x + 1
        assert J.apply(Poly([0, 0, 0, 1])) == Poly([1, -2, 1, Fraction(1, 8)])

    def test_eigen_relation_degree3(self):
        J = corollary42_operator(0)
        p = Poly([8, -24, 24, 1])
        assert J.apply(p) == p.scale(Fraction(1, 8))

    def test_degree_never_increases(self, rng):
        for _ in range(50):
            J = rand_operator(rng)
            p = rand_poly(rng, 8)
            assert J.apply(p).degree <= p.degree or p.is_zero


class TestApplyMonomial:
    def test_derivative(self):
        assert D.apply_monomial(5) == Poly([0, 0, 0, 0, 5])

    def test_identity(self):
        for n in range(6):
            assert IDENT.apply_monomial(n) == Poly.monomial(n)

    def test_euler_type(self):
        # a_1(x) = x: the binomial sum collapses to n*x^n
        E = DiffOperator([Poly.zero(), X])
        assert E.apply_monomial(4) == Poly.monomial(4, 4)
        assert E.apply_monomial(4) == E.apply(Poly.monomial(4))

    def test_matches_apply(self, rng):
        for _ in range(30):
            J = rand_operator(rng)
            n = rng.randint(0, 8)
            assert J.apply_monomial(n) == J.apply(Poly.monomial(n))


class TestFromAction:
    def test_small_example(self):
        J = from_action([Poly([1]), X, Poly([2, 0, 1])])
        assert J.a(0) == Poly.one()
        assert J.a(1).is_zero
        assert J.a(2) == Poly([2])
        assert J.apply(Poly([0, 0, 1])) == Poly([2, 0, 1])

    def test_monomial_images_give_identity(self):
        J = from_action([Poly.monomial(n) for n in range(6)])
        assert J == IDENT

    def test_round_trip(self, rng):
        for _ in range(50):
            J = rand_operator(rng)
            images = [J.apply_monomial(n) for n in range(J.order + 2)]
            assert from_action(images) == J

    @settings(max_examples=100, deadline=None)
    @given(operators(max_order=4), st.integers(0, 3))
    def test_round_trip_property(self, J, extra):
        K = J.order + extra
        assert from_action([J.apply_monomial(n) for n in range(K + 1)]) == J

    def test_degree_violation(self):
        with pytest.raises(DegreeViolation) as ei:
            from_action([Poly.one(), Poly([0, 0, 1])])
        assert ei.value.index == 1


class TestShifted:
    def test_shift_zero_is_same(self, rng):
        J = rand_operator(rng)
        assert J.shifted(0) is J

    def test_shift_exhausts(self, rng):
        J = rand_operator(rng)
        p = rand_poly(rng, 6)
        assert J.shifted(J.order + 1).apply(p).is_zero

    def test_triple_shift_multiplies_by_top_coefficient(self):
        J = corollary42_operator(1)
        p = Poly([3, -1, 2])
        assert J.shifted(3).apply(p) == Poly([1, -2, 1]) * p

    def test_shift_identity(self, rng):
        # J^(i)(x p) = J^(i+1)(p) + x J^(i)(p)
        for _ in range(100):
            J = rand_operator(rng)
            p = rand_poly(rng, 8)
            i = rng.randint(0, J.order + 1)
            lhs = J.shifted(i).apply(X * p)
            rhs = J.shifted(i + 1).apply(p) + X * J.shifted(i).apply(p)
            assert lhs == rhs


class TestLeibniz:
    def test_g_constant_one(self, rng):
        J = rand_operator(rng)
        f = rand_poly(rng, 6)
        assert leibniz_expand(J, f, Poly.one()) == J.apply(f)

    def test_explicit_family_x_times_x(self):
        J = corollary42_operator(0)
        assert leibniz_expand(J, X, X) == J.apply(X * X)
        assert J.apply(X * X) == Poly([0, 0, Fraction(1, 12)])

    def test_equals_direct_application(self, rng):
        for _ in range(100):
            J = rand_operator(rng)
            f = rand_poly(rng, 10)
            g = rand_poly(rng, 10)
            assert leibniz_expand(J, f, g) == J.apply(f * g)

    @settings(max_examples=100, deadline=None)
    @given(operators(max_order=4), polys(8), polys(8))
    def test_equals_direct_application_property(self, J, f, g):
        assert leibniz_expand(J, f, g) == J.apply(f * g)

    def test_symmetric(self, rng):
        for _ in range(50):
            J = rand_operator(rng)
            f = rand_poly(rng, 8)
            g = rand_poly(rng, 8)
            assert leibniz_expand(J, f, g) == leibniz_expand(J, g, f)

    def test_power_product_displays(self, rng):
        # J(x^k p) expansions for k = 1, 2, 3
        for _ in range(100):
            J = rand_operator(rng)
            p = rand_poly(rng, 8)
            J1 = J.shifted(1).apply(p)
            J2 = J.shifted(2).apply(p)
            J3 = J.shifted(3).apply(p)
            Jp = J.apply(p)
            assert J.apply(X * p) == X * Jp + J1
            assert J.apply(X * X * p) == X * X * Jp + (X * J1).scale(2) + J2
            assert J.apply(X * X * X * p) == (
                X * X * X * Jp + (X * X * J1).scale(3) + (X * J2).scale(3) + J3
            )


class TestLambdaTable:
    def test_identity_operator(self):
        assert all(lambda_at(IDENT, 0, n) == 1 for n in range(11))

    def test_affine_case(self):
        J = DiffOperator([Poly.one(), Poly([0, 1])])
        assert [lambda_at(J, 0, n) for n in range(11)] == [n + 1 for n in range(11)]

    def test_explicit_family(self):
        J = corollary42_operator(Fraction(1))
        assert all(lambda_at(J, 0, n) == Fraction(n, 24) + 1 for n in range(9))

    def test_negative_extension(self):
        J = corollary42_operator(Fraction(1))
        assert lambda_at(J, 0, -3) == Fraction(-3, 24) + 1

    def test_shifted_diagonal(self):
        # for D, lambda_(n+1)^[1] = n + 1
        assert [lambda_at(D, 1, n) for n in range(7)] == [n + 1 for n in range(7)]


class TestClassify:
    def test_derivative_is_lowering(self):
        c = classify(D)
        assert c["class"] == "derivative-like"
        assert c["k"] == 1

    def test_euler_type_degenerate(self):
        E = DiffOperator([Poly.zero(), X])
        assert classify(E)["class"] == "degenerate"

    def test_explicit_family_isomorphism(self):
        c = classify(corollary42_operator(1))
        assert c["class"] == "isomorphism"
        assert c["certified_all_n"] is True

    def test_vanishing_diagonal_sum(self):
        # a_0 = 1, a_1 = -x: lambda_n = 1 - n vanishes at n = 1
        J = DiffOperator([Poly.one(), Poly([0, -1])])
        c = classify(J)
        assert c["class"] == "degenerate"
        assert "n=1" in c["witness"]

    def test_isomorphism_iff_degree_preserved(self, rng):
        for _ in range(30):
            J = rand_operator(rng)
            c = classify(J)
            bound = J.order + 5
            preserved = all(
                J.apply_monomial(n).degree == n for n in range(bound)
            ) and not J.apply(Poly.one()).is_zero
            if c["class"] == "isomorphism":
                assert preserved
            elif preserved:
                # degree preserved on a finite probe can still degenerate later;
                # the closed-form certificate must then name a larger witness
                assert not c["certified_all_n"] or "witness" in c


class TestNonnegIntegerRoots:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-4, 12), max_size=3),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=3),
        st.fractions(min_value=1, max_value=4, max_denominator=3),
    )
    def test_matches_trial_below_the_cauchy_bound(self, roots, extra, scale):
        # q = scale * prod (x - r) * (extra factor), so roots repeat and mix
        q = Poly([scale])
        for r in roots:
            q = q * Poly([-r, 1])
        q = q * Poly([*extra, 1])
        # the screen reads q's values at 0..deg q, as ints at one scale
        values = q.int_values(range(q.degree + 1))[0]
        if q.degree == 0:
            assert nonneg_integer_roots(values) == []
            return
        lead = q.leading_coefficient
        top = int(1 + max(abs(c / lead) for c in q.coeffs))
        assert nonneg_integer_roots(values) == [n for n in range(top + 1) if q(n) == 0]

    def test_huge_cauchy_bound(self):
        # roots near 10**40 and a tiny leading coefficient: trial up to the
        # bound would never end
        a = 10**40
        q = Poly([-a * (a + 7), 2 * a + 7, -1])
        assert nonneg_integer_roots(q.int_values(range(3))[0]) == [a, a + 7]
        q = Poly([3, -1, Fraction(1, 10**99)])
        assert nonneg_integer_roots(q.int_values(range(3))[0]) == []
        # values past the degree add nothing
        assert nonneg_integer_roots([0, 1, 2, 3, 4]) == [0]
        with pytest.raises(ValueError):
            nonneg_integer_roots([0, 0, 0])

    def test_operator_with_huge_coefficients_classifies(self):
        J = DiffOperator([Poly([10**80]), Poly([0, -3]), Poly([-2, -2, -2])])
        assert classify(J)["class"] == "isomorphism"


class TestJson:
    def test_round_trip(self, rng):
        J = rand_operator(rng)
        assert DiffOperator.from_json(J.to_json()) == J

    def test_validation_reports_index(self):
        data = {"a": [["1"], ["0", "1"], ["0", "0", "0", "1"]]}
        with pytest.raises(DegreeViolation) as ei:
            DiffOperator.from_json(data)
        assert ei.value.index == 2
