from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dortho import (
    Case1Params,
    Case2Params,
    MonicSequence,
    Poly,
    RecurrenceTable,
    case1_coeffs,
    case2_coeffs,
    check_d_orthogonality,
    corollary42_coeffs,
    derivative_sequence,
    dual_moments,
    expand_in_basis,
    generate,
    seqkit,
    structure_coeffs,
)
from dortho.errors import (
    DegreeTooLarge,
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
    top = len(seq) - 1
    report = VerificationReport()
    for m in range(M + 1):
        for nu in range(d):
            n0 = m * d + nu
            if m + n0 > top:
                raise InsufficientDegree(
                    f"need degree {m + n0} products; sequence stops at {top}"
                )
            for n in range(n0, top - m + 1):
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


def reference_generate(rt, N):
    """P_0..P_N by the recursion with its own index arithmetic:
    P_n = (x - beta_(n-1)) P_(n-1) - sum_nu gamma^(d-1-nu)_(n-1-nu) P_(n-2-nu)."""
    polys = [Poly.one()]
    for n in range(1, N + 1):
        p = (Poly.x() - Poly.constant(rt.beta(n - 1))) * polys[n - 1]
        for nu in range(min(rt.d - 1, n - 2) + 1):
            p = p - polys[n - 2 - nu].scale(rt.level(rt.d - 1 - nu, n - 1 - nu))
        polys.append(p)
    return polys


def coeff(rows, k, j):
    """c_(k,j) of x*P_k = P_(k+1) + sum_j c_(k,j) P_j, from sparse rows."""
    return dict(rows[k]).get(j, 0)


def reference_dual_moments(seq, d):
    return [
        [
            rational_to_str(expand_in_basis(Poly.monomial(n), seq).coeff(i))
            for n in range(len(seq))
        ]
        for i in range(d)
    ]


def outcome(check, seq, d, M):
    """The report's JSON, or the InsufficientDegree message it raised."""
    try:
        return check(seq, d, M).to_json()
    except InsufficientDegree as exc:
        return ("InsufficientDegree", str(exc))


def assert_matches_reference(seq, d, M, polys=None):
    """The row routes on seq against the references on polys (default seq)."""
    polys = seq if polys is None else polys
    assert outcome(check_d_orthogonality, seq, d, M) == outcome(
        reference_d_orthogonality, polys, d, M
    )
    for dd in (d, seq.N + 3):
        assert dual_moments(seq, dd).to_json() == reference_dual_moments(polys, dd)


small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def banded_tables(draw, ds=st.integers(1, 3)):
    """A random (d+1)-term table, d drawn from ds, with its lowest level
    sometimes zeroed, and the degree N it is generated to."""
    d = draw(ds)
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
    return [
        Poly([*draw(st.lists(small_rationals, min_size=n, max_size=n)), 1])
        for n in range(N + 1)
    ]


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

    def test_negative_index_raises(self, coro_seq):
        # P_(-i) = 0 is the band reader's rule, not an alias of the last entry
        for n in (-1, -2):
            with pytest.raises(IndexError):
                coro_seq[n]


def built(seq):
    """How many of P_0, P_1, ... a sequence has built so far."""
    return len(seq._polys)


class TestRowsFirst:
    """generate reads the table's rows now and builds each P_n on first read."""

    @settings(max_examples=60, deadline=None)
    @given(banded_tables(), st.data())
    def test_entries_match_reference(self, table, data):
        rt, N = table
        n = data.draw(st.integers(0, N))
        assert generate(rt, N)[n] == reference_generate(rt, N)[n]

    @settings(max_examples=60, deadline=None)
    @given(banded_tables(), st.data())
    def test_reading_p_k_builds_only_up_to_k(self, table, data):
        rt, N = table
        seq = generate(rt, N)
        k = data.draw(st.integers(0, N))
        seq[k]
        assert built(seq) == k + 1
        seq[data.draw(st.integers(0, k))]
        assert built(seq) == k + 1

    def test_size_and_rows_build_nothing(self, coro_rt):
        seq = generate(coro_rt, 20)
        assert (seq.N, len(seq)) == (20, 21)
        assert seq.x_rows == tuple(coro_rt.x_row(k) for k in range(20))
        assert built(seq) == 1

    @pytest.mark.parametrize("n", [-1, 21])
    def test_index_out_of_range(self, coro_rt, n):
        seq = generate(coro_rt, 20)
        with pytest.raises(IndexError):
            seq[n]
        assert built(seq) == 1

    def test_short_table_fails_before_any_polynomial(self, monkeypatch):
        calls = []
        for name in ("__sub__", "__add__", "scale"):
            original = getattr(Poly, name)
            monkeypatch.setattr(
                Poly, name, lambda *a, _f=original: calls.append(a) or _f(*a)
            )
        rt = RecurrenceTable.two_orthogonal([0, 0], [1], [1])
        with pytest.raises(MissingCoefficient, match="^beta_2 not tabulated$"):
            generate(rt, 6)
        assert calls == []


def reconstruct_x_times(seq, row, k):
    """P_(k+1) + sum_j c P_j over one x-row."""
    out = seq[k + 1]
    for j, c in row:
        out = out + seq[j].scale(c)
    return out


class TestXRow:
    def test_k0_lower_terms_vanish(self, coro_rt):
        # corollary 4.2 has beta_0 = 0, so x*P_0 = P_1 exactly
        assert coro_rt.x_row(0) == ()
        rt = RecurrenceTable.two_orthogonal([5, 1], [2], [3])
        assert rt.x_row(0) == ((0, Fraction(5)),)

    def test_explicit_family_k2(self, coro_rt):
        assert coro_rt.x_row(2) == ((0, Fraction(-8)), (1, Fraction(24)), (2, Fraction(-24)))

    def test_reconstruction(self, coro_seq, coro_rt):
        for k in range(12):
            assert reconstruct_x_times(coro_seq, coro_rt.x_row(k), k) == Poly.x() * coro_seq[k]

    def test_matches_expand(self, coro_seq, coro_rt):
        for k in range(10):
            direct = expand_in_basis(Poly.x() * coro_seq[k], coro_seq)
            assert coro_rt.x_row(k) == tuple(
                (j, c) for j, c in enumerate(direct.coefficients[: k + 1]) if c
            )

    def test_d3_positions(self):
        rt = RecurrenceTable(3, [1, 2, 3, 4, 5], [[6, 7, 8, 9], [10, 11, 12, 13], [14, 15, 16, 17]])
        # x*P_4 = P_5 + beta_4 P_4 + gamma^2_4 P_3 + gamma^1_3 P_2 + gamma^0_2 P_1
        assert rt.x_row(4) == tuple(
            (j, Fraction(c)) for j, c in ((1, 7), (2, 12), (3, 17), (4, 5))
        )
        assert rt.x_row(1) == ((0, Fraction(14)), (1, Fraction(2)))
        seq = generate(rt, 5)
        for k in range(5):
            assert reconstruct_x_times(seq, rt.x_row(k), k) == Poly.x() * seq[k]

    def test_missing_coefficient_where_the_recursion_stops(self):
        # beta_2 and alpha_2 are both absent; generate reads beta_2 first
        rt = RecurrenceTable.two_orthogonal([0, 0], [1], [1])
        with pytest.raises(MissingCoefficient, match="^beta_2 not tabulated$"):
            rt.x_row(2)
        with pytest.raises(MissingCoefficient, match="^beta_2 not tabulated$"):
            generate(rt, 3)


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
            exp = expand_in_basis(p, coro_seq)
            assert sum(
                (coro_seq[i].scale(c) for i, c in enumerate(exp.coefficients)),
                Poly.zero(),
            ) == p

    def test_degree_too_large(self, coro_seq):
        with pytest.raises(DegreeTooLarge):
            expand_in_basis(Poly.monomial(coro_seq.N + 1), coro_seq)


class TestStructureCoeffs:
    def test_round_trip(self, coro_seq, coro_rt):
        rows = structure_coeffs(coro_seq)
        for n in range(10):
            assert coeff(rows, n, n) == coro_rt.beta(n)
        for n in range(1, 10):
            assert coeff(rows, n, n - 1) == coro_rt.alpha(n)
            assert coeff(rows, n + 1, n - 1) == coro_rt.gamma(n)

    def test_below_diagonal_vanishes(self, coro_seq):
        for k, row in enumerate(structure_coeffs(coro_seq)):
            assert all(j >= k - 2 for j, _ in row)

    def test_monomials_all_zero(self):
        assert structure_coeffs(generate(zero_tables(8), 8)) == ((),) * 8

    def test_explicit_family_gamma1(self, coro_seq):
        assert coeff(structure_coeffs(coro_seq), 2, 0) == -8

    @settings(max_examples=100, deadline=None)
    @given(two_orthogonal_tables())
    def test_recovers_random_table(self, table):
        rt, N = table
        rows = structure_coeffs(generate(rt, N))
        # x*P_m is read for m < N: beta_m, alpha_m and gamma_(m-1)
        assert [coeff(rows, m, m) for m in range(N)] == [rt.beta(m) for m in range(N)]
        assert [coeff(rows, m, m - 1) for m in range(1, N)] == [
            rt.alpha(m) for m in range(1, N)
        ]
        assert [coeff(rows, m + 1, m - 1) for m in range(1, N - 1)] == [
            rt.gamma(m) for m in range(1, N - 1)
        ]
        assert all(j >= k - 2 for k, row in enumerate(rows) for j, _ in row)

    @settings(max_examples=100, deadline=None)
    @given(banded_tables())
    def test_carried_rows_match_expansion_and_table(self, table):
        rt, N = table
        seq = generate(rt, N)
        assert list(seq) == reference_generate(rt, N)
        expected = tuple(rt.x_row(k) for k in range(N))
        assert seq.x_rows == expected
        assert structure_coeffs(reference_generate(rt, N)) == expected

    @settings(max_examples=100, deadline=None)
    @given(dense_sequences())
    def test_rows_hold_any_monic_sequence(self, polys):
        # a sequence given as polynomials is its rows: dense rows round-trip
        seq = MonicSequence(structure_coeffs(polys))
        assert seq.N == len(polys) - 1
        assert [seq[n] for n in range(len(polys))] == polys


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

    @settings(max_examples=100, deadline=None)
    @given(banded_tables(st.integers(1, 4)), st.integers(1, 4))
    def test_matches_reference_for_any_width(self, table, d):
        # the kept window of x**n's expansion loses no entry a moment reads
        rt, N = table
        seq = generate(rt, N)
        for dd in (d, rt.d):
            assert dual_moments(seq, dd).to_json() == reference_dual_moments(seq, dd)


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
    def test_dense_sequences(self, polys, d, M):
        assert_matches_reference(MonicSequence(structure_coeffs(polys)), d, M, polys)

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
        seq = MonicSequence([])
        rep = check_d_orthogonality(seq, 1, 0)
        assert [e.to_json() for e in rep.entries] == [
            {"identity": "regularity", "n": [0, 0, 0], "status": "pass"}
        ]
        with pytest.raises(InsufficientDegree):
            check_d_orthogonality(seq, 2, 0)
        assert dual_moments(seq, 3).to_json() == [["1"], ["0"], ["0"]]

    def test_degree_one_sequence(self):
        polys = [Poly.one(), Poly([-2, 1])]
        seq = MonicSequence(structure_coeffs(polys))
        assert dual_moments(seq, 2).to_json() == [["1", "2"], ["0", "1"]]
        for d, M in ((1, 0), (2, 0), (1, 1)):
            assert outcome(check_d_orthogonality, seq, d, M) == outcome(
                reference_d_orthogonality, polys, d, M
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
        # a generated sequence carries its table's rows: no expansion
        seq = generate(coro_rt, 12)
        dual_moments(seq, 2)
        check_d_orthogonality(seq, 2, 3)
        assert calls == []
        # a derivative sequence's rows come from its parent's: no expansion
        dseq = derivative_sequence(seq)
        dual_moments(dseq, 2)
        check_d_orthogonality(dseq, 2, 3)
        assert calls == []

    def test_x_rows_are_sparse(self, coro_seq):
        # a 2-orthogonal sequence keeps at most beta, alpha and gamma
        assert all(len(row) <= 3 for row in coro_seq.x_rows)
        for n in range(10):
            exp = expand_in_basis(Poly.x() * coro_seq[n], coro_seq)
            assert dict(coro_seq.x_rows[n]) == {
                j: c for j, c in enumerate(exp.coefficients[: n + 1]) if c
            }


def reference_derivative_sequence(seq):
    """Q_n = P'_(n+1) / (n+1) as polynomials, differentiated one by one."""
    return [seq[n + 1].derivative().scale(Fraction(1, n + 1)) for n in range(seq.N)]


class TestDerivativeSequence:
    @settings(max_examples=60, deadline=None)
    @given(banded_tables())
    def test_rows_match_polynomial_route(self, table):
        # d = 1..3; Q's rows are dense unless the derivatives are d-orthogonal
        rt, N = table
        seq = generate(rt, N)
        dseq = derivative_sequence(seq)
        assert dseq.N == N - 1
        assert dseq.x_rows == structure_coeffs(reference_derivative_sequence(seq))

    @pytest.mark.parametrize(
        "rt",
        [
            corollary42_coeffs(40),
            case1_coeffs(Case1Params(*map(Fraction, (1, 0, 1, -2, -6))), 40),
            case2_coeffs(Case2Params(*map(Fraction, (1, 0, 1, 1, -2, 1))), 40),
        ],
        ids=["corollary42", "case1", "case2"],
    )
    def test_family_rows_match_polynomial_route(self, rt):
        seq = generate(rt, 40)
        dseq = derivative_sequence(seq)
        assert dseq.x_rows == structure_coeffs(reference_derivative_sequence(seq))
        assert all(len(row) <= 3 for row in dseq.x_rows)  # the Hahn property

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
