from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dortho import (
    MonicSequence,
    Poly,
    RecurrenceTable,
    check_d_orthogonality,
    corollary42_coeffs,
    derivative_sequence,
    dual_moments,
    expand_in_basis,
    generate,
    multiply_by_x,
    seqkit,
    structure_coeffs,
)
from dortho.errors import (
    DegreeTooLarge,
    IndexOutOfRange,
    InsufficientDegree,
    MissingCoefficient,
)
from dortho.polycore import rational_to_str
from dortho.report import VerificationReport

from conftest import rand_poly


def zero_tables(N):
    return RecurrenceTable.two_orthogonal([0] * (N + 1), [0] * N, [0] * N)


# Reference oracle: each pairing <u_nu, q> read off as the nu-th basis
# coefficient of q, with q = P_m * P_n formed and expanded in full.  Slow,
# but independent of the x-multiplication rows the library uses.


def reference_d_orthogonality(seq, d, M):
    report = VerificationReport()
    for m in range(M + 1):
        for nu in range(d):
            n0 = m * d + nu
            if m + n0 > seq.N:
                raise InsufficientDegree(
                    f"need degree {m + n0} products; sequence stops at {seq.N}"
                )
            for n in range(n0, seq.N - m + 1):
                val = expand_in_basis(seq[m] * seq[n], seq).coeff(nu)
                if n == n0:
                    report.record(
                        "regularity",
                        (m, nu, n),
                        val != 0,
                        witness=None if val != 0 else {"value": "0"},
                    )
                else:
                    report.record(
                        "orthogonality",
                        (m, nu, n),
                        val == 0,
                        witness=None if val == 0 else {"value": rational_to_str(val)},
                    )
    return report


def reference_dual_moments(seq, d):
    return [
        [
            rational_to_str(expand_in_basis(Poly.monomial(n), seq).coeff(i))
            for n in range(seq.N + 1)
        ]
        for i in range(d)
    ]


def outcome(check, seq, d, M):
    """The report's JSON, or the InsufficientDegree message it raised."""
    try:
        return check(seq, d, M).to_json()
    except InsufficientDegree as exc:
        return ("InsufficientDegree", str(exc))


def assert_matches_reference(seq, d, M):
    assert outcome(check_d_orthogonality, seq, d, M) == outcome(
        reference_d_orthogonality, seq, d, M
    )
    for dd in (d, seq.N + 3):
        assert dual_moments(seq, dd).to_json() == reference_dual_moments(seq, dd)


small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def banded_tables(draw):
    """A random (d+1)-term table, d in {1, 2, 3}, with its lowest level
    sometimes zeroed, and the degree N it is generated to."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, 14))
    beta = draw(st.lists(small_rationals, min_size=N + 1, max_size=N + 1))
    levels = [
        draw(st.lists(small_rationals, min_size=N, max_size=N)) for _ in range(d - 1)
    ]
    lowest = draw(
        st.lists(
            st.one_of(
                st.fractions(min_value=1, max_value=3, max_denominator=2),
                st.fractions(min_value=-3, max_value=-1, max_denominator=2),
            ),
            min_size=N,
            max_size=N,
        )
    )
    for i in draw(st.sets(st.integers(0, N - 1), max_size=2)):
        lowest[i] = Fraction(0)
    return RecurrenceTable(d, beta, [lowest, *levels]), N


@st.composite
def two_orthogonal_tables(draw):
    """A random d = 2 table (zeros allowed anywhere) and a degree N."""
    N = draw(st.integers(1, 14))
    beta = draw(st.lists(small_rationals, min_size=N + 1, max_size=N + 1))
    alpha = draw(st.lists(small_rationals, min_size=N, max_size=N))
    gamma = draw(st.lists(small_rationals, min_size=N, max_size=N))
    return RecurrenceTable.two_orthogonal(beta, alpha, gamma), N


@st.composite
def dense_sequences(draw):
    """Random monic polynomials P_0..P_N, generated by no short recurrence."""
    N = draw(st.integers(0, 10))
    polys = [
        Poly([*draw(st.lists(small_rationals, min_size=n, max_size=n)), 1])
        for n in range(N + 1)
    ]
    return MonicSequence(polys)


@pytest.fixture(scope="module")
def coro_rt():
    return corollary42_coeffs(40)


@pytest.fixture(scope="module")
def coro_seq(coro_rt):
    return generate(coro_rt, 30)


class TestGenerate:
    def test_explicit_family_low_degrees(self, coro_seq):
        assert coro_seq[0] == Poly.one()
        assert coro_seq[1] == Poly.x()
        assert coro_seq[2] == Poly([0, 0, 1])
        assert coro_seq[3] == Poly([8, -24, 24, 1])

    def test_all_zero_tables_give_monomials(self):
        seq = generate(zero_tables(10), 10)
        for n in range(11):
            assert seq[n] == Poly.monomial(n)

    def test_missing_coefficient(self):
        rt = RecurrenceTable.two_orthogonal([0, 0], [1], [1])
        with pytest.raises(MissingCoefficient):
            generate(rt, 6)

    def test_general_d3(self):
        # d = 3: five-term recurrence; all-zero tables still give monomials
        rt = RecurrenceTable(3, [0] * 8, [[0] * 8, [0] * 8, [0] * 8])
        seq = generate(rt, 7)
        assert seq[7] == Poly.monomial(7)

    def test_negative_index_is_zero_poly(self, coro_seq):
        assert coro_seq[-1].is_zero
        assert coro_seq[-2].is_zero


class TestMultiplyByX:
    def test_n0_lower_terms_vanish(self, coro_seq, coro_rt):
        exp = multiply_by_x(coro_seq, coro_rt, 0)
        assert exp.coefficients == (coro_rt.beta(0), Fraction(1))

    def test_explicit_family_n2(self, coro_seq, coro_rt):
        exp = multiply_by_x(coro_seq, coro_rt, 2)
        assert exp.coefficients == (Fraction(-8), Fraction(24), Fraction(-24), Fraction(1))

    def test_reconstruction(self, coro_seq, coro_rt):
        for n in range(12):
            exp = multiply_by_x(coro_seq, coro_rt, n)
            assert exp.reconstruct(coro_seq) == Poly.x() * coro_seq[n]

    def test_out_of_range(self, coro_seq, coro_rt):
        with pytest.raises(IndexOutOfRange):
            multiply_by_x(coro_seq, coro_rt, coro_seq.N)

    def test_matches_expand(self, coro_seq, coro_rt):
        for n in range(10):
            exp = multiply_by_x(coro_seq, coro_rt, n)
            direct = expand_in_basis(Poly.x() * coro_seq[n], coro_seq)
            assert exp.coefficients == direct.coefficients


class TestExpandInBasis:
    def test_basis_element(self, coro_seq):
        exp = expand_in_basis(coro_seq[5], coro_seq)
        assert exp.coeff(5) == 1
        assert all(exp.coeff(i) == 0 for i in range(5))

    def test_x_squared(self, coro_seq):
        exp = expand_in_basis(Poly([0, 0, 1]), coro_seq)
        assert exp.coeff(2) == 1

    def test_zero_polynomial(self, coro_seq):
        assert expand_in_basis(Poly.zero(), coro_seq).coefficients == ()

    def test_reconstruction_random(self, coro_seq, rng):
        for _ in range(30):
            p = rand_poly(rng, 12)
            assert expand_in_basis(p, coro_seq).reconstruct(coro_seq) == p

    def test_degree_too_large(self, coro_seq):
        with pytest.raises(DegreeTooLarge):
            expand_in_basis(Poly.monomial(coro_seq.N + 1), coro_seq)


class TestStructureCoeffs:
    def test_round_trip(self, coro_seq, coro_rt):
        sc = structure_coeffs(coro_seq)
        for n in range(10):
            assert sc.beta[n] == coro_rt.beta(n)
        for n in range(1, 10):
            assert sc.alpha(n) == coro_rt.alpha(n)
            assert sc.gamma(n) == coro_rt.gamma(n)

    def test_below_diagonal_vanishes(self, coro_seq):
        sc = structure_coeffs(coro_seq)
        for n, row in enumerate(sc.chi):
            for nu in range(len(row) - 2):
                assert row[nu] == 0

    def test_monomials_all_zero(self):
        sc = structure_coeffs(generate(zero_tables(8), 8))
        assert all(b == 0 for b in sc.beta)
        assert all(all(c == 0 for c in row) for row in sc.chi)

    def test_explicit_family_gamma1(self, coro_seq):
        sc = structure_coeffs(coro_seq)
        assert sc.gamma(1) == -8

    @settings(max_examples=100, deadline=None)
    @given(two_orthogonal_tables())
    def test_recovers_random_table(self, table):
        rt, N = table
        sc = structure_coeffs(generate(rt, N))
        # x*P_m is read for m < N: beta_m, alpha_m and gamma_(m-1)
        assert list(sc.beta) == [rt.beta(m) for m in range(N)]
        assert [sc.alpha(m) for m in range(1, N)] == [rt.alpha(m) for m in range(1, N)]
        assert [sc.gamma(m) for m in range(1, N - 1)] == [
            rt.gamma(m) for m in range(1, N - 1)
        ]
        assert all(c == 0 for row in sc.chi for c in row[:-2])


class TestDualMoments:
    def test_first_moments(self, coro_seq):
        dm = dual_moments(coro_seq, 2)
        assert dm.moment(0, 0) == 1
        assert dm.moment(1, 0) == 0
        assert dm.moment(1, 1) == 1
        # beta_0 = 0 for the explicit family
        assert dm.moment(0, 1) == 0

    def test_beta0_moment(self):
        rt = RecurrenceTable.two_orthogonal([5, 0, 0, 0], [0, 0, 0], [0, 0, 0])
        dm = dual_moments(generate(rt, 3), 2)
        assert dm.moment(0, 1) == 5

    def test_matches_expansion(self, coro_seq):
        dm = dual_moments(coro_seq, 2)
        for n in range(10):
            exp = expand_in_basis(Poly.monomial(n), coro_seq)
            assert dm.moment(0, n) == exp.coeff(0)
            assert dm.moment(1, n) == exp.coeff(1)


class TestDOrthogonality:
    def test_delta_duality(self, coro_seq):
        exp = expand_in_basis(coro_seq[0] * coro_seq[1], coro_seq)
        assert exp.coeff(0) == 0

    def test_regular_family_passes(self, coro_seq):
        assert check_d_orthogonality(coro_seq, 2, 6).passed

    def test_random_regular_table_passes(self, rng):
        beta = [Fraction(rng.randint(-4, 4)) for _ in range(25)]
        alpha = [Fraction(rng.randint(-4, 4)) for _ in range(25)]
        gamma = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(25)]
        rt = RecurrenceTable.two_orthogonal(beta, alpha, gamma)
        seq = generate(rt, 17)
        assert check_d_orthogonality(seq, 2, 5).passed

    def test_vanishing_gamma_reported(self, coro_rt):
        gamma = [coro_rt.gamma(n) for n in range(1, 40)]
        gamma[2] = Fraction(0)  # kill gamma_3
        rt = RecurrenceTable.two_orthogonal(
            [coro_rt.beta(n) for n in range(40)],
            [coro_rt.alpha(n) for n in range(1, 40)],
            gamma,
        )
        assert not rt.regular
        assert rt.first_vanishing_gamma() == 3
        rep = check_d_orthogonality(generate(rt, 20), 2, 6)
        assert not rep.passed
        first = rep.first_failure()
        assert first.identity == "regularity"
        assert first.index == (2, 0, 4)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(banded_tables(), st.integers(0, 4))
    def test_banded_tables(self, table, M):
        rt, N = table
        assert_matches_reference(generate(rt, N), rt.d, M)

    @settings(max_examples=40, deadline=None)
    @given(banded_tables(), st.integers(0, 4))
    def test_derivative_sequences(self, table, M):
        rt, N = table
        assert_matches_reference(derivative_sequence(generate(rt, N)), rt.d, M)

    @settings(max_examples=40, deadline=None)
    @given(dense_sequences(), st.integers(1, 3), st.integers(0, 3))
    def test_dense_sequences(self, seq, d, M):
        assert_matches_reference(seq, d, M)

    def test_mutated_table_first_failure(self, coro_rt):
        gamma = [coro_rt.gamma(n) for n in range(1, 40)]
        gamma[2] = Fraction(0)
        rt = RecurrenceTable.two_orthogonal(
            [coro_rt.beta(n) for n in range(40)],
            [coro_rt.alpha(n) for n in range(1, 40)],
            gamma,
        )
        assert_matches_reference(generate(rt, 14), 2, 4)


class TestEdgeCases:
    def test_m_zero(self, coro_seq):
        rep = check_d_orthogonality(coro_seq, 2, 0)
        assert rep.to_json() == reference_d_orthogonality(coro_seq, 2, 0).to_json()
        assert len(rep.entries) == 2 * coro_seq.N + 1

    def test_degree_zero_sequence(self):
        seq = MonicSequence([Poly.one()])
        rep = check_d_orthogonality(seq, 1, 0)
        assert [e.to_json() for e in rep.entries] == [
            {"identity": "regularity", "n": [0, 0, 0], "status": "pass"}
        ]
        with pytest.raises(InsufficientDegree):
            check_d_orthogonality(seq, 2, 0)
        assert dual_moments(seq, 3).to_json() == [["1"], ["0"], ["0"]]

    def test_degree_one_sequence(self):
        seq = MonicSequence([Poly.one(), Poly([-2, 1])])
        assert dual_moments(seq, 2).to_json() == [["1", "2"], ["0", "1"]]
        for d, M in ((1, 0), (2, 0), (1, 1)):
            assert outcome(check_d_orthogonality, seq, d, M) == outcome(
                reference_d_orthogonality, seq, d, M
            )

    def test_more_duals_than_basis(self, coro_rt):
        seq = generate(coro_rt, 4)
        dm = dual_moments(seq, 8)
        assert dm.to_json() == reference_dual_moments(seq, 8)
        assert all(dm.moment(i, n) == 0 for i in range(5, 8) for n in range(5))

    def test_insufficient_degree_message(self, coro_rt):
        seq = generate(coro_rt, 10)
        with pytest.raises(InsufficientDegree) as info:
            check_d_orthogonality(seq, 2, 5)
        # (m, nu) = (4, 0) is the first probe out of reach: degree 4 + 8
        assert str(info.value) == "need degree 12 products; sequence stops at 10"

    def test_x_rows_read_once(self, coro_rt, monkeypatch):
        calls = []
        original = seqkit.structure_coeffs
        monkeypatch.setattr(
            seqkit, "structure_coeffs", lambda s: calls.append(s) or original(s)
        )
        seq = generate(coro_rt, 12)
        dual_moments(seq, 2)
        check_d_orthogonality(seq, 2, 3)
        assert calls == [seq]

    def test_x_rows_are_sparse(self, coro_seq, coro_rt):
        # a 2-orthogonal sequence keeps at most beta, alpha and gamma
        assert all(len(row) <= 3 for row in coro_seq.x_rows)
        for n in range(10):
            exp = multiply_by_x(coro_seq, coro_rt, n)
            assert dict(coro_seq.x_rows[n]) == {
                j: c for j, c in enumerate(exp.coefficients[: n + 1]) if c
            }


class TestDerivativeSequence:
    def test_monomials_fixed(self):
        seq = generate(zero_tables(8), 8)
        dseq = derivative_sequence(seq)
        for n in range(8):
            assert dseq[n] == Poly.monomial(n)

    def test_hahn_property_explicit_family(self, coro_seq):
        dseq = derivative_sequence(coro_seq)
        assert check_d_orthogonality(dseq, 2, 6).passed


class TestTableJson:
    def test_round_trip_d2(self, coro_rt):
        assert RecurrenceTable.from_json(coro_rt.to_json()) == coro_rt

    def test_round_trip_general(self):
        rt = RecurrenceTable(3, [1, 2], [[1], [2], [3]])
        assert RecurrenceTable.from_json(rt.to_json()) == rt
