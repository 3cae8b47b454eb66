from fractions import Fraction

import pytest

from dortho import (
    Case1Params,
    Case2Params,
    DiffOperator,
    Poly,
    RecurrenceTable,
    ThirdOrderParams,
    case1_coeffs,
    case2_coeffs,
    classify_solvability,
    corollary42_coeffs,
    corollary42_operator,
    derivative_sequence,
    derive_recurrence,
    eigenpoly,
    generate,
    lambda_table,
    steptwo_coeffs,
    verify_expansions,
)
from dortho.errors import (
    DiscriminantNonzero,
    EigenvalueCollision,
    IndexOutOfRange,
    NotIsomorphism,
    NotTwoOrthogonal,
    ZeroParameter,
)

CASE1 = Case1Params(Fraction(1), Fraction(0), Fraction(1), Fraction(-2), Fraction(-6))
CORO_PARAMS = Case2Params(
    Fraction(1), Fraction(0), Fraction(1, 24), Fraction(1), Fraction(-2), Fraction(1)
)


class TestEigenpoly:
    def test_degree_zero(self):
        assert eigenpoly(corollary42_operator(1), 0) == Poly.one()

    def test_explicit_family(self):
        J = corollary42_operator(1)
        assert eigenpoly(J, 2) == Poly([0, 0, 1])
        assert eigenpoly(J, 3) == Poly([8, -24, 24, 1])

    def test_eigen_identity(self):
        J = CASE1.operator()
        for n in range(12):
            p = eigenpoly(J, n)
            assert J.apply(p) == p.scale(n + 1)

    def test_not_isomorphism(self):
        D = DiffOperator([Poly.zero(), Poly.one()])
        with pytest.raises(NotIsomorphism):
            eigenpoly(D, 3)

    def test_eigenvalue_collision(self):
        # a_2^[2] = -1 makes lambda_n = 1 + n(3-n)/2 collide: lambda_0 = lambda_3
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly([0, 0, -1])])
        with pytest.raises(EigenvalueCollision) as ei:
            eigenpoly(J, 3)
        assert (ei.value.k, ei.value.n) == (0, 3)


class TestDeriveRecurrence:
    def test_case1_tables(self):
        rt, rep = derive_recurrence(CASE1.operator(), 26)
        assert rep.passed
        for n in range(26):
            assert rt.beta(n) == 0
        for n in range(26):
            assert rt.alpha(n + 1) == n + 1
        for n in range(25):
            assert rt.gamma(n + 1) == (n + 1) * (n + 2)

    def test_explicit_family_tables(self):
        rt, _ = derive_recurrence(corollary42_operator(1), 26)
        closed = corollary42_coeffs(26)
        assert all(rt.beta(n) == closed.beta(n) for n in range(27))
        assert all(rt.alpha(n) == closed.alpha(n) for n in range(1, 27))
        assert all(rt.gamma(n) == closed.gamma(n) for n in range(1, 26))

    def test_linear_cubic_not_two_orthogonal(self):
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly.zero(), Poly([0, 1])])
        with pytest.raises(NotTwoOrthogonal):
            derive_recurrence(J, 8)


class TestCase1Coeffs:
    def test_reference_parameters(self):
        rt = case1_coeffs(CASE1, 20)
        assert all(rt.beta(n) == 0 for n in range(21))
        assert all(rt.alpha(n + 1) == n + 1 for n in range(20))
        assert all(rt.gamma(n + 1) == (n + 1) * (n + 2) for n in range(20))

    def test_zero_alpha_still_two_orthogonal(self):
        p = Case1Params(Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(-6))
        rt = case1_coeffs(p, 10)
        assert all(rt.alpha(n) == 0 for n in range(1, 11))
        assert rt.regular

    def test_gamma_ratio(self):
        rt = case1_coeffs(CASE1, 10)
        for n in range(1, 10):
            assert rt.gamma(n + 1) / rt.gamma(n) == Fraction(n + 2, n)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameter):
            Case1Params(Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        with pytest.raises(ZeroParameter):
            Case1Params(Fraction(1), Fraction(0), Fraction(1), Fraction(1), Fraction(0))


class TestCase2Coeffs:
    def test_auxiliary_constants(self):
        assert CORO_PARAMS.b_constants == (252, 192, 48)
        assert CORO_PARAMS.f_constants == (60, 96, -96, -192, -64)

    def test_specializes_to_explicit_family(self):
        assert case2_coeffs(CORO_PARAMS, 25) == corollary42_coeffs(25)

    def test_discriminant_enforced(self):
        with pytest.raises(DiscriminantNonzero):
            Case2Params(
                Fraction(1), Fraction(0), Fraction(1), Fraction(1), Fraction(1), Fraction(1)
            )

    def test_constant_cubic_degenerates_to_case1(self):
        # a_13 = a_23 = 0 must reproduce the constant-coefficient tables
        p2 = Case2Params(
            Fraction(1), Fraction(2), Fraction(3), Fraction(-6), Fraction(0), Fraction(0)
        )
        p1 = Case1Params(Fraction(1), Fraction(2), Fraction(3), Fraction(0), Fraction(-6))
        assert case2_coeffs(p2, 15) == case1_coeffs(p1, 15)


class TestCorollaryCoeffs:
    def test_spot_values(self):
        rt = corollary42_coeffs(5)
        assert rt.beta(2) == -24
        assert rt.alpha(1) == 0
        assert rt.gamma(1) == -8
        assert rt.gamma(2) == -216
        assert rt.gamma(3) == -10800


class TestStepTwo:
    def test_affine_lambda_second_difference(self):
        J = CASE1.operator()
        rt = case1_coeffs(CASE1, 20)
        lam = lambda_table(J, 0, 20)
        for n in range(10):
            c = steptwo_coeffs(lam, rt, n)
            assert c.A == 0
            assert c.B == 0  # constant beta

    def test_matches_direct_application(self):
        J = corollary42_operator(1)
        rt = corollary42_coeffs(40)
        seq = generate(rt, 20)
        lam = lambda_table(J, 0, 40)
        for n in range(8):
            lhs = J.shifted(2).apply(seq[n])
            rhs = Poly.zero()
            for off, pick in [
                (2, lambda c: c.A),
                (1, lambda c: c.B),
                (0, lambda c: c.C),
                (-1, lambda c: c.D),
                (-2, lambda c: c.F),
                (-3, lambda c: c.G),
                (-4, lambda c: c.H),
            ]:
                if n + off >= 0:
                    c = steptwo_coeffs(lam, rt, n + off)
                    rhs = rhs + seq[n + off].scale(pick(c))
            assert lhs == rhs

    def test_exhausted_table_is_index_out_of_range(self):
        lam = lambda_table(corollary42_operator(1), 0, 40)
        with pytest.raises(IndexOutOfRange, match=r"gamma\^1_6 not tabulated"):
            steptwo_coeffs(lam, corollary42_coeffs(5), 5)

    def test_d3_table_is_value_error(self):
        lam = lambda_table(corollary42_operator(1), 0, 40)
        rt = RecurrenceTable(3, [1] * 10, [[1] * 10] * 3)
        with pytest.raises(ValueError, match="d=2 only"):
            steptwo_coeffs(lam, rt, 5)


class TestVerifyExpansions:
    def test_case1(self):
        rt = case1_coeffs(CASE1, 30)
        rep = verify_expansions(CASE1.operator(), rt, 15)
        assert rep.passed
        names = {e.identity for e in rep.entries}
        assert "case1-second-order" in names
        assert "case1-appell-derivative" in names

    def test_explicit_family(self):
        rt = corollary42_coeffs(30)
        rep = verify_expansions(corollary42_operator(1), rt, 15)
        assert rep.passed
        names = {e.identity for e in rep.entries}
        assert "corollary-second-order" in names
        assert "corollary-first-order" in names

    def test_case1_displayed_identity_n2(self):
        # (x I - 2 D - 3 D^2)(P_2) = x^3 - 5x - 6 = P_3 - 2 P_1 - 4 P_0
        rt = case1_coeffs(CASE1, 10)
        seq = generate(rt, 5)
        L = DiffOperator([Poly([0, 1]), Poly([-2]), Poly([-6])], relaxed=True)
        lhs = L.apply(seq[2])
        assert lhs == Poly([-6, -5, 0, 1])
        assert lhs == seq[3] - seq[1].scale(2) - seq[0].scale(4)

    def test_case1_lowering_derivative(self):
        rt = case1_coeffs(CASE1, 25)
        seq = generate(rt, 21)
        for n in range(1, 21):
            assert seq[n].derivative() == seq[n - 1].scale(n)

    def test_appell(self):
        rt = case1_coeffs(CASE1, 25)
        seq = generate(rt, 20)
        dseq = derivative_sequence(seq)
        for n in range(20):
            assert dseq[n] == seq[n]


class TestDifferenceEquations:
    def test_case1_tables_satisfy_them(self):
        p = Case1Params(
            Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-1, 3), Fraction(7)
        )
        rt = case1_coeffs(p, 30)
        for n in range(20):
            assert rt.beta(n + 4) - 2 * rt.beta(n + 3) + rt.beta(n + 2) == 0
            assert (
                -2 * rt.alpha(n + 2)
                + 4 * rt.alpha(n + 3)
                - 2 * rt.alpha(n + 4)
                + (rt.beta(n + 2) - rt.beta(n + 3)) ** 2
                == 0
            )
            assert (
                -3
                * p.a11
                * (rt.gamma(n + 1) - 2 * rt.gamma(n + 2) + rt.gamma(n + 3))
                == p.a03
            )


class TestClassifySolvability:
    def test_constant_cubic(self):
        res = classify_solvability(
            ThirdOrderParams(a00=Fraction(1), a11=Fraction(1), a02=Fraction(1), a03=Fraction(2))
        )
        assert res.tag == "case1"
        assert any("forced" in note for note in res.notes)

    def test_linear_cubic_no_solution(self):
        res = classify_solvability(
            ThirdOrderParams(a00=Fraction(1), a11=Fraction(1), a13=Fraction(1))
        )
        assert res.tag == "no-solution"

    def test_no_cubic_reduced(self):
        res = classify_solvability(ThirdOrderParams(a00=Fraction(1), a01=Fraction(2)))
        assert res.tag == "reduced"

    def test_quadratic_cubic_with_zero_discriminant(self):
        res = classify_solvability(
            ThirdOrderParams(
                a00=Fraction(1),
                a11=Fraction(1, 24),
                a03=Fraction(1),
                a13=Fraction(-2),
                a23=Fraction(1),
            )
        )
        assert res.tag == "case2"

    def test_nonzero_discriminant_unclassified(self):
        res = classify_solvability(
            ThirdOrderParams(
                a00=Fraction(1), a11=Fraction(1), a03=Fraction(1), a23=Fraction(1)
            )
        )
        assert res.tag == "unclassified"
        assert res.residues is not None
        assert res.residues["discriminant"] == Fraction(-4)


class TestHahn:
    def test_explicit_family_derivatives_two_orthogonal(self):
        from dortho import check_d_orthogonality, structure_coeffs

        seq = generate(corollary42_coeffs(40), 26)
        dseq = derivative_sequence(seq)
        assert check_d_orthogonality(dseq, 2, 6).passed
        sc = structure_coeffs(dseq)
        for n in range(1, 20):
            assert sc.gamma(n) != 0
