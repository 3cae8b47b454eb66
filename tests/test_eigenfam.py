import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dortho import (
    DiffOperator,
    Poly,
    RecurrenceTable,
    VerificationReport,
    case1_coeffs,
    case1_operator,
    case2_coeffs,
    case2_constants,
    case2_operator,
    classify_solvability,
    cli,
    corollary42_coeffs,
    corollary42_operator,
    derivative_sequence,
    derive_recurrence,
    eigenfam,
    eigenpoly,
    generate,
    rational_to_str,
    seqkit,
    structure_coeffs,
    verify_expansions,
)
from dortho.errors import (
    DiscriminantNonzero,
    EigenvalueCollision,
    MissingCoefficient,
    NotIsomorphism,
    NotTwoOrthogonal,
    ZeroParameter,
)
from dortho import diffop
from dortho.diffop import classify, from_action, lambda_at, lambda_poly

from conftest import GOLDEN, operators, small_rationals

CASE1 = case1_operator(1, 0, 1, -2, -6)
# corollary 4.2's operator as a case 2 one: a_1 = x/24, a_3 = (x - 1)^2
CORO = case2_operator(1, 0, Fraction(1, 24), 1, -2, 1)
# a_1 = 1 + x, a_3 = (x - 1)^2, lambda_n = 1 + n
CASE2 = case2_operator(1, 1, 1, 1, -2, 1)
# a_3 = x: no 2-orthogonal eigenfamily
LINEAR_CUBIC = DiffOperator([Poly.one(), Poly([0, 1]), Poly.zero(), Poly([0, 1])])
# a_3 = 1 + x: row 4 of its eigenpolynomials has two nonzero chi, at j = 0 and 1
TWO_CHI = DiffOperator([Poly.one(), Poly([2, 1]), Poly([0, -2]), Poly([1, 1])])
# operators whose eigenpolynomials are 2-orthogonal: derive_recurrence passes
FAMILY_OPERATORS = [CASE1, CASE2, corollary42_operator(1)]
# lambda_n = 1 + n(3-n)/2: lambda_0 = lambda_3 and lambda_1 = lambda_2
COLLIDING = DiffOperator([Poly.one(), Poly([0, 1]), Poly([0, 0, -1])])
# the fourth power of case 1 [1, 0, 1, -2, -6], order 12
CASE1_FOURTH_POWER = DiffOperator.from_json(
    json.loads((GOLDEN / "case1_fourth_power_operator.json").read_text())
)


def lcm_denominator(J):
    """A, the lcm of the denominators of J's coefficients: J's columns and
    diagonals are kept over it."""
    return math.lcm(*(c.denominator for a in J.coeffs for c in a.coeffs))


class TestEigenpoly:
    def test_degree_zero(self):
        assert eigenpoly(corollary42_operator(1), 0) == Poly.one()

    def test_explicit_family(self):
        J = corollary42_operator(1)
        assert eigenpoly(J, 2) == Poly([0, 0, 1])
        assert eigenpoly(J, 3) == Poly([8, -24, 24, 1])

    def test_eigen_identity(self):
        J = CASE1
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


# Reference oracle: the dense per-degree solve, which classifies J and
# recomputes every eigenvalue and monomial image for each n and sums each
# row over all j > i.  Slow, but it shares no state and assumes no band.


def reference_eigenpoly(J, n):
    tag = classify(J)["class"]
    if tag != "isomorphism":
        raise NotIsomorphism(f"operator classified as {tag}")
    lam = [lambda_at(J, 0, j) for j in range(n + 1)]
    for k in range(n):
        if lam[k] == lam[n]:
            raise EigenvalueCollision(k, n)
    images = [J.apply_monomial(j) for j in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for i in range(n - 1, -1, -1):
        rhs = Fraction(0)
        for j in range(i + 1, n + 1):
            if coeffs[j]:
                rhs += images[j].coeff(i) * coeffs[j]
        coeffs[i] = rhs / (lam[n] - lam[i])
    return Poly(coeffs)


def eigen_outcome(make):
    """make()'s value, or the exception it raised with its (k, n) or message."""
    try:
        return make()
    except EigenvalueCollision as exc:
        return (EigenvalueCollision, exc.k, exc.n)
    except NotIsomorphism as exc:
        return (NotIsomorphism, str(exc))


def solved_sequence(J, N):
    """P_0..P_N from one eigen-solver setup, as derive_recurrence reads them."""
    solve, _, _ = eigenfam._eigen_solver(J, N)
    return [Poly(reversed([Fraction(*c) for c in solve(n)])) for n in range(N + 1)]


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(operators(max_order=4), st.integers(0, 12))
    def test_eigen_sequence(self, J, N):
        # one solver setup serves every degree, collisions included
        expected = eigen_outcome(
            lambda: [reference_eigenpoly(J, n) for n in range(N + 1)]
        )
        assert eigen_outcome(lambda: solved_sequence(J, N)) == expected

    @settings(max_examples=150, deadline=None)
    @given(operators(max_order=4), st.integers(0, 12))
    def test_eigenpoly(self, J, n):
        assert eigen_outcome(lambda: eigenpoly(J, n)) == eigen_outcome(
            lambda: reference_eigenpoly(J, n)
        )

    def test_collision_is_reported_at_the_first_degree(self):
        # lambda_n = 1 + n(3-n)/2: lambda_0 = lambda_3 and lambda_1 = lambda_2;
        # the oracle's one pass over n screens as the per-degree solve did
        for derive in (derive_recurrence, eigenfam.oracle_table):
            with pytest.raises(EigenvalueCollision) as ei:
                derive(COLLIDING, 5)
            assert (ei.value.k, ei.value.n) == (1, 2)

    def test_fourth_order_band(self):
        # a_4 = x**4 reaches four degrees down; lambda_n = 2 + n + C(n, 4)
        J = DiffOperator(
            [Poly([2]), Poly([0, 1]), Poly([1]), Poly([0, 1]), Poly([1, 0, 0, 0, 1])]
        )
        assert solved_sequence(J, 12) == [reference_eigenpoly(J, n) for n in range(13)]


class TestSharedState:
    """The eigen-solver and verify_expansions compute nothing twice."""

    @staticmethod
    def count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @staticmethod
    def count_columns(monkeypatch):
        """(sequence, scale key, n) of each column computed, the key
        (coefficient tail, A, e).  The wrapper goes where seqkit's recursion
        looks operator_column up and where eigenfam, which imports it, does."""
        computed = []
        column = seqkit.operator_column

        def counted(seq, key, n):
            before = len(seq.columns.get(key, ()))
            out = column(seq, key, n)
            computed.extend((seq, key, m) for m in range(before, len(seq.columns[key])))
            return out

        monkeypatch.setattr(seqkit, "operator_column", counted)
        monkeypatch.setattr(eigenfam, "operator_column", counted)
        return computed

    @staticmethod
    def count_builds(monkeypatch):
        """(J, lo, hi) of each build of J's diagonals (diffop.diagonals),
        wherever it is looked up: in diffop (classify) and in eigenfam."""
        built = []
        build = diffop.diagonals

        def counted(J, lo, hi):
            built.append((J, lo, hi))
            return build(J, lo, hi)

        monkeypatch.setattr(diffop, "diagonals", counted)
        monkeypatch.setattr(eigenfam, "diagonals", counted)
        return built

    def test_eigen_sequence_classifies_once(self, monkeypatch):
        # the solve reads only the diagonals of J's matrix, so no image
        # J(x**j) is built
        J, N = corollary42_operator(1), 30
        classified = self.count(monkeypatch, eigenfam, "classify")
        imaged = self.count(monkeypatch, DiffOperator, "apply_monomial")
        solved_sequence(J, N)
        assert len(classified) == 1
        assert imaged == []

    def test_derive_recurrence_builds_each_image_once(self, monkeypatch, tmp_path):
        # no image at all: the diagonals hold every scalar the solve reads.
        # Derive mode computes each (coefficient tail, n) column once:
        # verify_expansions reads the levels derive_recurrence's check filled.
        classified = self.count(monkeypatch, eigenfam, "classify")
        imaged = self.count(monkeypatch, DiffOperator, "apply_monomial")
        computed = self.count_columns(monkeypatch)
        op = tmp_path / "op.json"
        argv = ["verify", "--operator", str(op), "-N", "12", "--out", str(tmp_path / "out")]
        for J in FAMILY_OPERATORS:
            classified.clear()
            computed.clear()
            op.write_text(json.dumps(J.to_json()))
            assert cli.main(argv) == cli.EXIT_OK
            assert len(classified) == 1
            assert imaged == []
            keys = [(key, m) for _, key, m in computed]
            assert len(keys) == len(set(keys))
            # derive_recurrence(J, 17) checks J's columns to 18, so J^(1)'s to
            # 17; verify_expansions alone reads J^(1) only to column 12
            assert ((J.coeffs[1:], lcm_denominator(J), 1), 17) in keys

    @pytest.mark.parametrize(
        "family, params",
        [
            ("corollary42", None),
            ("case1", '["1","0","1","-2","-6"]'),
            ("case2", '[1, 0, "1/24", 1, -2, 1]'),
        ],
    )
    def test_family_mode_computes_each_column_once(self, monkeypatch, tmp_path, family, params):
        # The oracle hands over only its table; J's columns are computed on
        # the closed-form sequence alone, each once, and the eigen identity
        # and the family relations read J's levels the shift bands filled:
        # the only other operator is case 1's d/dx, at its two levels
        computed = self.count_columns(monkeypatch)
        tables = self.count(monkeypatch, eigenfam, "oracle_table")
        derived = self.count(monkeypatch, eigenfam, "derive_recurrence")
        argv = ["verify", "--family", family, "-N", "12", "--out", str(tmp_path / "out")]
        if params is not None:
            argv += ["--params", params]
        assert cli.main(argv) == cli.EXIT_OK
        keys = [(key, m) for _, key, m in computed]
        assert len(keys) == len(set(keys))
        assert len({id(seq) for seq, _, _ in computed}) == 1  # the closed form's
        assert len(tables) == 1
        assert derived == []
        J = cli._family_setup(family, cli._parse_params(params))[0]
        A = lcm_denominator(J)
        expected = {(J.coeffs[i:], A, i) for i in range(4)}
        if family == "case1":
            d = (Poly.zero(), Poly.one())
            expected |= {(d, A, 0), (d[1:], A, 1)}
        assert {key for key, _ in keys} == expected

    @pytest.mark.parametrize("J", FAMILY_OPERATORS)
    def test_derive_recurrence_builds_no_polynomial(self, monkeypatch, J):
        # the table comes from the solver's top coefficients and is proved by
        # J's columns, and a failing column names its chi; classify's root
        # screen and the solver read one integer build of J's diagonals, so
        # no Poly operation runs at all, classify included, whatever N is
        classified = self.count(monkeypatch, eigenfam, "classify")
        built = self.count_builds(monkeypatch)
        polys = self.count(monkeypatch, diffop, "lambda_poly")
        routes = [
            self.count(monkeypatch, seqkit, "structure_coeffs"),
            self.count(monkeypatch, seqkit, "expand_in_basis"),
        ]
        ops = [
            self.count(monkeypatch, Poly, name)
            for name in ("__add__", "__sub__", "scale", "__mul__", "int_values")
        ]

        def failing(N):
            with pytest.raises(NotTwoOrthogonal, match=r"^chi_\(3,1\) = 1/4 != 0$"):
                derive_recurrence(LINEAR_CUBIC, N)

        for op, N, run in (
            (J, 10, lambda: derive_recurrence(J, 10)),
            (J, 30, lambda: derive_recurrence(J, 30)),
            (LINEAR_CUBIC, 10, lambda: failing(10)),
            (LINEAR_CUBIC, 30, lambda: failing(30)),
        ):
            classified.clear()
            built.clear()
            run()
            assert [len(calls) for calls in ops] == [0] * 5
            assert len(classified) == 1
            assert built == [(op, -4, N + 6)]
        assert polys == []
        assert routes == [[], []]

    @settings(max_examples=150, deadline=None)
    @given(operators(max_order=4), st.integers(0, 12))
    def test_diagonals_match_lambda_at_and_images(self, J, N):
        # diagonal t of J's matrix on the monomials, as the solver reads it:
        # lambda_poly(J, t) at n is lambda_at(J, t, n), negative n included,
        # and for n >= 0 the entry [x**n] J(x**(n + t)); the integer build
        # over A (diffop.diagonals) gives the same values, from n = -4 to
        # past the order
        diag = diffop.diagonals(J, -4, N + 1)
        assert diag.A == lcm_denominator(J)
        top = max(N + 1, J.order + 1)
        for t in range(J.order + 1):
            values = lambda_poly(J, t).values(range(-4, top))
            assert values == [lambda_at(J, t, n) for n in range(-4, top)]
            images = [J.apply_monomial(n + t).coeff(n) for n in range(N + 1)]
            assert values[4 : N + 5] == images
            built = [diag.at(t, n) for n in range(-4, top)]
            assert all(type(v) is int for v in built)
            assert [Fraction(v, diag.A) for v in built] == values
        with pytest.raises(IndexError):
            diag.at(0, -5)

    @pytest.mark.parametrize(
        "J, rt",
        [
            (CASE1, case1_coeffs(CASE1, 30)),
            (corollary42_operator(1), corollary42_coeffs(30)),
        ],
    )
    def test_verify_expansions_reads_each_lambda_once(self, monkeypatch, J, rt):
        # lambda_(-4)..lambda_20 come from one integer build of J's
        # diagonals, and no eigenvalue is read through lambda_poly or a Poly
        built = self.count_builds(monkeypatch)
        polys = self.count(monkeypatch, diffop, "lambda_poly")
        evaluated = self.count(monkeypatch, Poly, "int_values")
        fractions = self.count(monkeypatch, Poly, "values")
        assert verify_expansions(J, generate(rt, 20), 15).passed
        assert built == [(J, -4, 21)]
        assert polys == evaluated == fractions == []


def reference_derive(J, N):
    """derive_recurrence's table, report and sequence read as the polynomial
    route does: the rows of structure_coeffs over P_0..P_(N+1), each solved
    alone by reference_eigenpoly."""
    seq = [reference_eigenpoly(J, n) for n in range(N + 2)]
    rows = structure_coeffs(seq)
    report = VerificationReport()
    for k in range(1, N + 1):
        for j, c in rows[k]:
            if j < k - 2:
                raise NotTwoOrthogonal(
                    f"chi_({k - 1},{j}) = {rational_to_str(c)} != 0", n=k - 1, nu=j
                )
        report.record("four-term-shape", k - 1, True)
    coef = [dict(row) for row in rows]
    gammas = [coef[m + 1].get(m - 1, 0) for m in range(1, N)]
    for m, g in enumerate(gammas, start=1):
        if g == 0:
            raise NotTwoOrthogonal(f"gamma_{m} = 0", n=m)
    report.record("gamma-nonvanishing", (1, N - 1), True)
    rt = RecurrenceTable.two_orthogonal(
        beta=[coef[k].get(k, 0) for k in range(N + 1)],
        alpha=[coef[m].get(m - 1, 0) for m in range(1, N + 1)],
        gamma=gammas,
    )
    return rt, report, seq


def derive_outcome(make):
    """The table and report JSON of make(), or the exception it raised."""

    def outcome():
        try:
            rt, report = make()[:2]
        except NotTwoOrthogonal as exc:
            return (NotTwoOrthogonal, str(exc), exc.n, exc.nu)
        return rt.to_json(), report.to_json()

    return eigen_outcome(outcome)


nonzero_rationals = small_rationals.filter(bool)


@st.composite
def family_operators(draw):
    """A case 1, case 2 or corollary 4.2 operator: 2-orthogonal eigenpolynomials
    whenever it is an isomorphism."""
    kind = draw(st.sampled_from(["case1", "case2", "corollary42"]))
    if kind == "corollary42":
        return corollary42_operator(draw(small_rationals))
    a00, a01 = draw(small_rationals), draw(small_rationals)
    a11 = draw(nonzero_rationals)
    if kind == "case1":
        return case1_operator(a00, a01, a11, draw(small_rationals), draw(nonzero_rationals))
    s, r = draw(small_rationals), draw(small_rationals)  # a_3 = s (x - r)^2
    return case2_operator(a00, a01, a11, s * r * r, -2 * s * r, s)


class TestDeriveRecurrence:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(operators(max_order=4), family_operators()), st.integers(0, 12))
    @example(LINEAR_CUBIC, 3)  # rows 0..3 are four-term
    @example(LINEAR_CUBIC, 4)  # row 4 = row N is not: chi_(3,1) = 1/4
    @example(LINEAR_CUBIC, 40)
    @example(TWO_CHI, 8)  # the smallest j is named: chi_(3,0) = -4/3
    def test_matches_polynomial_route(self, J, N):
        got = derive_outcome(lambda: derive_recurrence(J, N))
        assert got == derive_outcome(lambda: reference_derive(J, N))
        if isinstance(got[0], dict):  # passed: the proved sequence is P itself
            assert list(derive_recurrence(J, N)[2]) == list(reference_derive(J, N)[2])

    def test_case1_tables(self):
        rt, rep, _, _ = derive_recurrence(CASE1, 26)
        assert rep.passed
        for n in range(26):
            assert rt.beta(n) == 0
        for n in range(26):
            assert rt.alpha(n + 1) == n + 1
        for n in range(25):
            assert rt.gamma(n + 1) == (n + 1) * (n + 2)

    def test_explicit_family_tables(self):
        rt, _, _, _ = derive_recurrence(corollary42_operator(1), 26)
        closed = corollary42_coeffs(26)
        assert all(rt.beta(n) == closed.beta(n) for n in range(27))
        assert all(rt.alpha(n) == closed.alpha(n) for n in range(1, 27))
        assert all(rt.gamma(n) == closed.gamma(n) for n in range(1, 26))

    def test_linear_cubic_not_two_orthogonal(self):
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly.zero(), Poly([0, 1])])
        with pytest.raises(NotTwoOrthogonal):
            derive_recurrence(J, 8)


# Reference for the integer eigen-oracle: the Fraction route it replaced.
# The same diagonals, evaluated as Fractions (Poly.values), the same
# top-down back-substitution in Fractions, and derive_recurrence's table,
# column check and chi witness formed from those Fractions.


def reference_solver(J, N):
    """(solve, lam): solve(n, depth) is the list of Fractions
    [x**(n - m)] P_n, m = 0..min(depth, n); lam is lambda_0..lambda_N."""
    tag = classify(J)["class"]
    if tag != "isomorphism":
        raise NotIsomorphism(f"operator classified as {tag}")
    order = J.order
    diag = [lambda_poly(J, t).values(range(N + 1)) for t in range(order + 1)]
    lam = diag[0]

    def solve(n, depth=None):
        k = lam.index(lam[n])
        if k < n:
            raise EigenvalueCollision(k, n)
        top = [Fraction(1)]
        for m in range(1, (n if depth is None else min(n, depth)) + 1):
            i = n - m
            rhs = Fraction(0)
            for t in range(1, min(m, order) + 1):
                rhs += diag[t][i] * top[m - t]
            top.append(rhs / (lam[n] - lam[i]))
        return top

    return solve, lam


def reference_fraction_table(J, N):
    """oracle_table's (beta, alpha, gamma) as lists of Fractions, read off
    the top coefficients T_n(m) of the Fraction solver's P_n by oracle_table's
    formulas, in Fractions; and lam."""
    solve, lam = reference_solver(J, N + 1)
    T = [solve(n, 3) + [Fraction(0)] * (3 - min(n, 3)) for n in range(N + 2)]
    beta = [T[k][1] - T[k + 1][1] for k in range(N + 1)]
    alpha = [T[k][2] - T[k + 1][2] - beta[k] * T[k][1] for k in range(1, N + 1)]
    gamma = [
        T[k][3] - T[k + 1][3] - beta[k] * T[k][2] - alpha[k - 1] * T[k - 1][1]
        for k in range(2, N + 1)
    ]
    return (beta, alpha, gamma), lam


def pairs(values) -> tuple:
    """Rationals as their (numerator, denominator) pairs."""
    return tuple((Fraction(c).numerator, Fraction(c).denominator) for c in values)


def table_pairs(rt) -> tuple:
    """A d = 2 table's (beta, alpha, gamma) as the pairs it holds."""
    return rt.beta_pairs, rt.level_pairs[1], rt.level_pairs[0]


def reference_fraction_derive(J, N):
    """derive_recurrence's (table, report, sequence, lam) by the Fraction route."""
    (beta, alpha, gamma), lam = reference_fraction_table(J, N)
    rt = RecurrenceTable.two_orthogonal(beta=beta, alpha=alpha, gamma=gamma)
    seq = generate(rt, N + 1)
    A, D = lcm_denominator(J), seq.weighted_rows[0]
    for n in range(N + 2):
        # entry j of the column is A D**(n - j) times J's matrix entry
        col = seqkit.operator_column(seq, (J.coeffs, A, 0), n)
        col = {j: Fraction(v, A * D ** (n - j)) for j, v in col.items()}
        if col != {n: lam[n]}:
            j = min(col.keys() - {n})
            chi = col[j] / (lam[j] - lam[n])
            raise NotTwoOrthogonal(
                f"chi_({n - 2},{j}) = {rational_to_str(chi)} != 0", n=n - 2, nu=j
            )
    report = VerificationReport()
    for k in range(N):
        report.record("four-term-shape", k, True)
    for m, g in enumerate(gamma, start=1):
        if g == 0:
            raise NotTwoOrthogonal(f"gamma_{m} = 0", n=m)
    report.record("gamma-nonvanishing", (1, N - 1), True)
    return rt, report, seq, lam


def derived_lambdas(diag, N):
    """lambda_0..lambda_(N+1) as Fractions, from the diagonals that
    derive_recurrence(J, N) returns."""
    return [Fraction(diag.at(0, n), diag.A) for n in range(N + 2)]


def integer_solved(J, N):
    """The integer solver's coefficients of P_0..P_N as Fractions, with its
    eigenvalues E lambda_n over E."""
    solve, lam, E = eigenfam._eigen_solver(J, N)
    return [[Fraction(*c) for c in solve(n)] for n in range(N + 1)], [
        Fraction(v, E) for v in lam
    ]


# a case 2 operator with 300-digit and larger entries: a_3 = s (x - r)**2
HUGE_S = Fraction(3**700 + 1, 7**360)
HUGE_R = Fraction(10**300 + 7, 11**290)
HUGE = case2_operator(
    Fraction(1, 3), Fraction(1, 2), Fraction(-2, 3), HUGE_S * HUGE_R**2, -2 * HUGE_S * HUGE_R,
    HUGE_S,
)


class TestIntegerOracle:
    """The integer solver and table against the Fraction route they replace."""

    @settings(max_examples=150, deadline=None)
    @given(operators(max_order=4), st.integers(0, 12))
    def test_solver_matches_fraction_route(self, J, N):
        # the full per-degree solve; the top coefficients at depths 0, 1
        # and 3 are the oracle's (test_oracle_pairs_match_fraction_formulas)
        def reference():
            solve, lam = reference_solver(J, N)
            return [solve(n) for n in range(N + 1)], lam

        assert eigen_outcome(lambda: integer_solved(J, N)) == eigen_outcome(reference)

    @settings(max_examples=150, deadline=None)
    @given(operators(max_order=4), st.integers(0, 12))
    def test_eigenpoly_matches_fraction_route(self, J, n):
        def reference():
            return Poly(reversed(reference_solver(J, n)[0](n)))

        assert eigen_outcome(lambda: eigenpoly(J, n)) == eigen_outcome(reference)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(operators(max_order=4), family_operators()), st.integers(0, 12))
    @example(LINEAR_CUBIC, 4)  # chi_(3,1) = 1/4
    @example(TWO_CHI, 8)  # chi_(3,0) = -4/3
    def test_derive_matches_fraction_route(self, J, N):
        got = derive_outcome(lambda: derive_recurrence(J, N))
        assert got == derive_outcome(lambda: reference_fraction_derive(J, N))
        if isinstance(got[0], dict):
            diag = derive_recurrence(J, N)[3]
            assert derived_lambdas(diag, N) == reference_fraction_derive(J, N)[3]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(operators(max_order=4), family_operators()), st.integers(0, 10))
    @example(HUGE, 6)
    @example(DiffOperator([Poly([3])]), 4)  # order 0: lambda_1 = lambda_0
    @example(DiffOperator([Poly.one(), Poly([2, 1])]), 8)  # order 1: no r2, r3
    @example(DiffOperator([Poly.one(), Poly([0, 1]), Poly([1, 1, 1])]), 8)  # no r3
    @example(COLLIDING, 5)  # lambda_1 = lambda_2: (k, n) = (1, 2)
    @example(CASE1_FOURTH_POWER, 10)  # order 12
    def test_oracle_pairs_match_fraction_formulas(self, J, N):
        # oracle_table hands the table its integers as reduced pairs, with no
        # Fraction: they are the pairs of the formulas evaluated in Fractions.
        # Its top coefficients, read in one pass over n, are the Fraction
        # solve's at depths 0, 1 and 3, each over its least common denominator
        def integer():
            rt, diag = eigenfam.oracle_table(J, N)
            assert "_fractions" not in vars(rt)
            tops = []
            for q, *top in eigenfam._top_coefficients(J, N + 1, diag):
                top = [Fraction(v, q) for v in top]
                assert q == math.lcm(*(c.denominator for c in top))
                tops.append([Fraction(1), *top])
            return table_pairs(rt), [
                [top[: min(n, depth) + 1] for n, top in enumerate(tops)] for depth in (0, 1, 3)
            ]

        def reference():
            solve = reference_solver(J, N + 1)[0]
            return tuple(map(pairs, reference_fraction_table(J, N)[0])), [
                [solve(n, depth) for n in range(N + 2)] for depth in (0, 1, 3)
            ]

        assert eigen_outcome(integer) == eigen_outcome(reference)

    @pytest.mark.parametrize("J", FAMILY_OPERATORS + [CASE1_FOURTH_POWER])
    def test_oracle_runs_no_per_degree_solve(self, monkeypatch, capsys, J):
        # the oracle reads the top coefficients in closed form, so it and
        # derive mode pass with the per-degree solve made to raise; eigen
        # still runs that solve
        setup = eigenfam._eigen_solver

        def raising(*args):
            def solve(n):
                raise RuntimeError("per-degree solve")
                yield

            return solve, *setup(*args)[1:]

        monkeypatch.setattr(eigenfam, "_eigen_solver", raising)
        rt, report, _, _ = derive_recurrence(J, 20)
        assert report.passed
        assert rt == eigenfam.oracle_table(J, 20)[0]
        with pytest.raises(RuntimeError, match="per-degree solve"):
            eigenpoly(J, 5)
        argv = ["eigen", "--operator", str(GOLDEN / "corollary_operator.json"), "-n", "3"]
        assert cli.main(argv) == cli.EXIT_INTERNAL
        assert "per-degree solve" in capsys.readouterr().err

    def test_huge_entries(self):
        # entries of hundreds of digits: the window's and the table's
        # denominators are reduced by gcds of that size
        assert min(len(str(c.denominator)) for c in HUGE.a(3).coeffs) >= 300
        assert integer_solved(HUGE, 9) == (
            [reference_solver(HUGE, 9)[0](n) for n in range(10)],
            reference_solver(HUGE, 9)[1],
        )
        assert eigenpoly(HUGE, 5) == Poly(reversed(reference_solver(HUGE, 5)[0](5)))
        got, ref = derive_recurrence(HUGE, 10), reference_fraction_derive(HUGE, 10)
        assert got[0] == ref[0] and derived_lambdas(got[3], 10) == ref[3]
        assert got[1].to_json() == ref[1].to_json()


class TestCase1Coeffs:
    def test_reference_parameters(self):
        rt = case1_coeffs(CASE1, 20)
        assert all(rt.beta(n) == 0 for n in range(21))
        assert all(rt.alpha(n + 1) == n + 1 for n in range(20))
        assert all(rt.gamma(n + 1) == (n + 1) * (n + 2) for n in range(20))

    def test_zero_alpha_still_two_orthogonal(self):
        rt = case1_coeffs(case1_operator(1, 0, 1, 0, -6), 10)
        assert all(rt.alpha(n) == 0 for n in range(1, 11))
        assert all(rt.gamma(n) != 0 for n in range(1, 11))

    def test_gamma_ratio(self):
        rt = case1_coeffs(CASE1, 10)
        for n in range(1, 10):
            assert rt.gamma(n + 1) / rt.gamma(n) == Fraction(n + 2, n)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameter, match=r"^linear coefficient a_1\^\[1\] must be nonzero$"):
            case1_operator(1, 0, 0, 1, 1)
        with pytest.raises(ZeroParameter, match=r"^constant coefficient a_0\^\[3\] must be nonzero$"):
            case1_operator(1, 0, 1, 1, 0)


class TestCase2Coeffs:
    def test_auxiliary_constants(self):
        assert case2_constants(CORO) == ((252, 192, 48), (60, 96, -96, -192, -64))

    def test_specializes_to_explicit_family(self):
        assert CORO == corollary42_operator(1)
        assert case2_coeffs(CORO, 25) == corollary42_coeffs(25)

    def test_discriminant_enforced(self):
        with pytest.raises(DiscriminantNonzero, match=r"^\(a_1\^\[3\]\)\^2 - 4 a_2\^\[3\] a_0\^\[3\] = -3$"):
            case2_operator(1, 0, 1, 1, 1, 1)

    def test_constant_cubic_degenerates_to_case1(self):
        # a_13 = a_23 = 0 must reproduce the constant-coefficient tables
        J2 = case2_operator(1, 2, 3, -6, 0, 0)
        J1 = case1_operator(1, 2, 3, 0, -6)
        assert case2_coeffs(J2, 15) == case1_coeffs(J1, 15)

    @pytest.mark.parametrize(
        "values",
        [
            ("1/3", "1/2", "-2/3", "3/4", "-3/2", "3/4"),
            (1, 0, 1, 1, -2, 1),
            (2, "-1/5", "7/3", 5, 10, 5),
        ],
    )
    def test_matches_displayed_formulas(self, values):
        # the n-independent coefficients are computed once; every entry must
        # still equal the formulas as displayed, evaluated term by term
        J = case2_operator(*map(Fraction, values))
        expected = RecurrenceTable.two_orthogonal(*displayed_case2(J, 40))
        assert case2_coeffs(J, 40) == expected


# The closed forms as displayed, each entry evaluated term by term in
# Fractions: the references for the tables' integer route.


def displayed_case1(J, N):
    """(beta, alpha, gamma) of a case 1 operator, beta_0.., alpha_1.., gamma_1.."""
    a01, a11, a02, a03 = J.acoef(0, 1), J.acoef(1, 1), J.acoef(0, 2), J.acoef(0, 3)
    return (
        [-a01 / a11 for n in range(N + 1)],
        [-a02 * n / (2 * a11) for n in range(1, N + 1)],
        [-a03 * n * (n + 1) / (6 * a11) for n in range(1, N + 1)],
    )


def displayed_case2(J, N):
    """(beta, alpha, gamma) of a case 2 operator, beta_0.., alpha_1.., gamma_1..;
    alpha_n is quartic in m = n - 2 and gamma_n sextic in m = n - 1."""
    a01, a11 = J.acoef(0, 1), J.acoef(1, 1)
    a03, a13, a23 = J.acoef(0, 3), J.acoef(1, 3), J.acoef(2, 3)
    (b0, b1, b2), (f0, f1, f2, f3, f4) = case2_constants(J)
    beta = [-a23 * (n - 1) * n / (2 * a11) - a01 / a11 for n in range(N + 1)]
    alpha = [
        -a13 / (2 * a11)
        + a01 * a23 / a11**2
        + m * (-3 * a13 / (4 * a11) + a23 * (9 * a01 + a23) / (6 * a11**2))
        + m**2 * (b0 + b1 * m + b2 * m**2)
        for m in range(-1, N - 1)
    ]
    gamma = [
        -Fraction(1, 3) / a11 * (a03 + a01 * (-a11 * a13 + a01 * a23) / a11**2)
        - m * (a11**2 * a03 - a01 * a11 * a13 + a01**2 * a23) / (2 * a11**3)
        + m**2 * (f0 + f1 * m + f2 * m**2 + f3 * m**3 + f4 * m**4)
        for m in range(N)
    ]
    return beta, alpha, gamma


def displayed_corollary42(N):
    """(beta, alpha, gamma) of corollary 4.2, beta_0.., alpha_1.., gamma_1.."""
    return (
        [Fraction(-12 * (n - 1) * n) for n in range(N + 1)],
        [Fraction(12 * (n - 1) * n * (2 * n - 3) ** 2) for n in range(1, N + 1)],
        [
            Fraction(-4 * n * (n + 1) * (2 * n - 3) ** 2 * (2 * n - 1) ** 2)
            for n in range(1, N + 1)
        ],
    )


@settings(max_examples=150, deadline=None)
@given(family_operators(), st.integers(0, 30))
def test_closed_form_pairs_match_the_displayed_formulas(J, N):
    # each closed form hands its table the reduced pairs of Poly.int_values,
    # with no Fraction: they are the pairs of the displayed formulas
    if J.a(3).degree == 0:
        rt, expected = case1_coeffs(J, N), displayed_case1(J, N)
    else:
        rt, expected = case2_coeffs(J, N), displayed_case2(J, N)
    assert table_pairs(rt) == tuple(map(pairs, expected))
    assert "_fractions" not in vars(rt)
    assert table_pairs(corollary42_coeffs(N)) == tuple(map(pairs, displayed_corollary42(N)))


@pytest.mark.parametrize(
    "make, coeffs, values",
    [
        (case1_operator, case1_coeffs, (1, 2, 3, -2, -6)),
        (case2_operator, case2_coeffs, (1, 0, 1, 1, -2, 1)),
    ],
    ids=["case1", "case2"],
)
def test_int_parameters_give_exact_tables(make, coeffs, values):
    # with / on int fields, case2's gamma_1 would be a binary float, not -1/3
    exact = coeffs(make(*map(Fraction, values)), 12)
    assert coeffs(make(*values), 12) == exact


@settings(max_examples=150, deadline=None)
@given(family_operators(), st.integers(0, 12))
def test_closed_forms_match_the_oracle(J, N):
    # the two routes agree over the families' parameter space: where the
    # oracle's table exists its entries are the closed forms', and where
    # it stops at gamma_m = 0 the closed-form gamma_m is 0 (a case 1
    # operator's a_3 is a nonzero constant; corollary 4.2's is case 2's)
    closed = (case1_coeffs if J.a(3).degree == 0 else case2_coeffs)(J, N)
    try:
        oracle = derive_recurrence(J, N)[0]
    except NotIsomorphism:  # lambda_n = a_0^[0] + n a_1^[1] vanishes at some n: no oracle
        return
    except NotTwoOrthogonal as exc:
        assert str(exc) == f"gamma_{exc.n} = 0"
        assert closed.gamma(exc.n) == 0
        return
    for name, ns in (("beta", range(N + 1)), ("alpha", range(1, N + 1)), ("gamma", range(1, N))):
        assert [getattr(closed, name)(n) for n in ns] == [getattr(oracle, name)(n) for n in ns]


class TestCorollaryCoeffs:
    def test_spot_values(self):
        rt = corollary42_coeffs(5)
        assert rt.beta(2) == -24
        assert rt.alpha(1) == 0
        assert rt.gamma(1) == -8
        assert rt.gamma(2) == -216
        assert rt.gamma(3) == -10800


def steptwo_tables(J, rt):
    """The second-step coefficients A..H over rt and J's eigenvalues."""
    lam = functools.partial(lambda_at, J, 0)
    return eigenfam._Tables(rt.beta, rt.alpha, rt.gamma, lam)


class TestStepTwo:
    def test_affine_lambda_second_difference(self):
        t = steptwo_tables(CASE1, case1_coeffs(CASE1, 20))
        for n in range(10):
            assert t.A(n) == 0
            assert t.B(n) == 0  # constant beta

    def test_matches_direct_application(self):
        J = corollary42_operator(1)
        rt = corollary42_coeffs(40)
        seq = generate(rt, 20)
        t = steptwo_tables(J, rt)
        for n in range(8):
            lhs = J.shifted(2).apply(seq[n])
            rhs = Poly.zero()
            for off, coeff in [
                (2, t.A), (1, t.B), (0, t.C), (-1, t.D), (-2, t.F), (-3, t.G), (-4, t.H)
            ]:
                if n + off >= 0:
                    rhs = rhs + seq[n + off].scale(coeff(n + off))
            assert lhs == rhs

    def test_exhausted_table_is_index_out_of_range(self):
        # C(5) reads alpha_6 = gamma^1_6, one past a table to N = 5
        t = steptwo_tables(corollary42_operator(1), corollary42_coeffs(5))
        with pytest.raises(MissingCoefficient, match=r"gamma\^1_6 not tabulated"):
            t.C(5)

    def test_d3_table_is_value_error(self):
        rt = RecurrenceTable(3, [1] * 10, [[1] * 10] * 3)
        with pytest.raises(ValueError, match="d=2 only"):
            steptwo_tables(corollary42_operator(1), rt).C(5)


class TestVerifyExpansions:
    def test_case1(self):
        rt = case1_coeffs(CASE1, 30)
        rep = verify_expansions(CASE1, generate(rt, 20), 15)
        assert rep.passed
        names = {e["identity"] for e in rep.entries}
        assert "case1-second-order" in names
        assert "case1-appell-derivative" in names

    def test_explicit_family(self):
        rt = corollary42_coeffs(30)
        rep = verify_expansions(corollary42_operator(1), generate(rt, 20), 15)
        assert rep.passed
        names = {e["identity"] for e in rep.entries}
        assert "corollary-second-order" in names
        assert "corollary-first-order" in names

    def test_short_sequence_names_the_degree(self):
        # the column recursion would run off the sequence's rows (IndexError)
        rt = case1_coeffs(CASE1, 30)
        with pytest.raises(ValueError, match="to degree 15; it stops at 8"):
            verify_expansions(CASE1, generate(rt, 8), 10)
        assert verify_expansions(CASE1, generate(rt, 15), 10).passed

    @pytest.mark.parametrize("short", ["beta", "alpha", "gamma"])
    def test_table_short_for_the_bands_is_missing_coefficient(self, short):
        # the bands to N read rows 0..N + 4 of the sequence, so
        # beta_0..beta_(N+4), alpha_1..alpha_(N+4) and gamma_1..gamma_(N+3):
        # a table of exactly those passes, and one entry fewer is
        # MissingCoefficient from generate
        J, N = corollary42_operator(1), 6
        full = corollary42_coeffs(N + 8)
        sizes = {"beta": N + 5, "alpha": N + 4, "gamma": N + 3}

        def table():
            return RecurrenceTable.two_orthogonal(
                [full.beta(k) for k in range(sizes["beta"])],
                [full.alpha(k) for k in range(1, sizes["alpha"] + 1)],
                [full.gamma(k) for k in range(1, sizes["gamma"] + 1)],
            )

        assert verify_expansions(J, generate(table(), N + 5), N).passed
        sizes[short] -= 1
        with pytest.raises(MissingCoefficient, match="not tabulated"):
            verify_expansions(J, generate(table(), N + 5), N)

    def test_integer_view_reads_zero_below_the_first_index(self):
        J = case2_operator(*map(Fraction, ("1/3", "1/2", "-2/3", "3/4", "-3/2", "3/4")))
        rt = case2_coeffs(J, 12)
        diag = diffop.diagonals(J, -4, 10)
        t, D = eigenfam._integer_view(generate(rt, 9), diag, 4)
        A = diag.A
        assert D > 1 and A > 1
        assert [t.lam(n) for n in range(-4, 10)] == [
            A * lambda_at(J, 0, n) for n in range(-4, 10)
        ]
        assert [t.beta(k) for k in (-3, -1)] == [0, 0]
        assert [t.alpha(k) for k in (-2, 0)] == [0, 0]
        assert [t.gamma(k) for k in (-3, 0)] == [0, 0]
        assert t.beta(0) == D * rt.beta(0) and t.alpha(1) == D**2 * rt.alpha(1)
        assert t.gamma(1) == D**3 * rt.gamma(1)

    @pytest.mark.parametrize("raise_gamma", [False, True])
    def test_rows_past_the_bands_change_no_entry(self, raise_gamma):
        # rows past N + 4 with fresh denominators make D, the lcm of every
        # row's denominators, a strict multiple of the bands' own lcm (1 for
        # corollary 4.2); the report, witnesses included, is the prefix's
        J, N = corollary42_operator(1), 6
        data = corollary42_coeffs(N + 5).to_json()
        if raise_gamma:  # a failing report, so witnesses are compared too
            data["gamma"][2] = str(Fraction(data["gamma"][2]) + 1)
        prefix = generate(RecurrenceTable.from_json(data), N + 5)
        extra = [
            ((k - 2, Fraction(1, 11)), (k - 1, Fraction(1, 13)), (k, Fraction(1, 7**k)))
            for k in range(N + 5, N + 8)
        ]
        seq = seqkit.MonicSequence(prefix.x_rows + tuple(extra))
        D, own = seq.integer_rows[0], prefix.integer_rows[0]
        assert D % own == 0 and D > own
        report = verify_expansions(J, seq, N).to_json()
        assert report == verify_expansions(J, prefix, N).to_json()
        assert report["passed"] is not raise_gamma

    @settings(max_examples=60, deadline=None)
    @given(family_operators(), st.sampled_from([2, 3]), st.integers(0, 5))
    def test_powers_of_a_family_operator(self, J, k, N):
        # J**k (order up to 3k) has J's eigenpolynomials when its eigenvalues
        # lambda_n**k stay apart: whenever derive_recurrence proves them
        # 2-orthogonal, every displayed band holds, the shift-3 top entry
        # being the third difference of lambda_n**k, not a_3^[3]
        images = [Poly.monomial(n) for n in range(3 * k + 1)]
        for _ in range(k):
            images = [J.apply(p) for p in images]
        Jk = from_action(images)
        try:
            _, _, seq, _ = derive_recurrence(Jk, N + 5)
        except (EigenvalueCollision, NotIsomorphism, NotTwoOrthogonal):
            return
        assert verify_expansions(Jk, seq, N).passed

    def test_d3_sequence_is_value_error(self):
        # a five-term row among the first N + 5 has no place in the d = 2 bands
        seq = generate(RecurrenceTable(3, [1] * 12, [[1] * 12] * 3), 11)
        with pytest.raises(ValueError, match=r"x\*P_3 reaches P_0: the bands are d = 2's"):
            verify_expansions(corollary42_operator(1), seq, 6)

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


# Reference for the family relations' bands: the Fraction route they
# replaced, each entry a Fraction, or an int, multiplied by its scale.


def reference_family_bands(J) -> dict:
    """name -> band(n), the (j, c_j) of the displayed relation as rationals,
    for corollary 4.2's operator or a case 1 operator; {} otherwise."""
    if J.order != 3:
        return {}
    if J.a(1).degree == 1 and J.a(2).degree <= 0 and J.a(3).degree == 0:
        a11, a02, a03 = J.acoef(1, 1), J.acoef(0, 2), J.acoef(0, 3)
        return {
            "case1-second-order": lambda n: [
                (n + 1, a11),
                (n - 1, Fraction(n, 2) * a02),
                (n - 2, Fraction((n - 1) * n, 3) * a03),
            ],
            "case1-appell-derivative": lambda n: [(n - 1, n)],
        }
    if J == corollary42_operator(J.acoef(0, 0)):
        return {
            "corollary-second-order": lambda n: [
                (n + 1, Fraction(1, 24)),
                (n - 1, -Fraction(1, 2) * (3 - 2 * n) ** 2 * (n - 1) * n),
                (n - 2, Fraction(1, 3) * (n - 1) * n * (15 - 16 * n + 4 * n**2) ** 2),
            ],
            "corollary-first-order": lambda n: [
                (n + 1, n),
                (n, -2 * n * (5 + 4 * n * (2 * n - 3))),
                (n - 1, (3 - 2 * n) ** 2 * n * (24 * (n - 2) * n + 25)),
                (n - 2, -8 * (5 - 2 * n) ** 2 * (n - 1) * n * (2 * n - 3) ** 3),
                (
                    n - 3,
                    4 * (3 - 2 * n) ** 2 * (5 - 2 * n) ** 2 * (7 - 2 * n) ** 2
                    * (n - 2) * (n - 1) * n,
                ),
            ],
        }
    return {}


def reference_family_report(J, seq, N):
    """verify_expansions' family entries by the Fraction route: each band's
    Fractions times their scale A D**(n + e - j), through check_expansions."""
    A, D = lcm_denominator(J), seq.weighted_rows[0]
    bands = reference_family_bands(J)

    def scaled(band, e):
        return lambda n: [(j, c * A * D ** (n + e - j)) for j, c in band(n)]

    identities = [
        (name, L, e, s, scaled(bands[name], e))
        for name, L, e, s, _ in eigenfam._family_identities(J)
    ]
    report = VerificationReport()
    eigenfam.check_expansions(report, seq, range(N + 1), A, identities)
    return report.entries


class TestFamilyBands:
    """The family relations' integer bands against the Fraction route: an
    integer m in n times a constant num/den, times its scale, divided
    exactly; an entry that does not divide is its Fraction and fails."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(family_operators(), st.just(CASE1)),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 12),
    )
    def test_entries_are_the_fraction_entries_times_the_scale(self, J, A, D, n):
        bands = reference_family_bands(J)
        identities = eigenfam._family_identities(J)
        assert [name for name, *_ in identities] == list(bands)
        scales = [A * D**w for w in range(6)]
        for name, _, e, _, band in identities:
            got = eigenfam._scaled(band, e, scales)(n)
            expected = [(j, c * scales[n + e - j]) for j, c in bands[name](n)]
            assert got == expected
            for (_, v), (_, c) in zip(got, expected):
                assert type(v) is (int if Fraction(c).denominator == 1 else Fraction)

    @settings(max_examples=40, deadline=None)
    @given(family_operators(), family_operators(), st.integers(0, 5))
    def test_reports_match_the_fraction_route(self, J, other, N):
        # other's sequence: J's relations pass when it is J's, and fail with
        # the Fraction route's witnesses otherwise
        closed = (case1_coeffs if other.a(3).degree == 0 else case2_coeffs)(other, N + 5)
        seq = generate(closed, N + 5)
        names = set(reference_family_bands(J))
        got = [e for e in verify_expansions(J, seq, N).entries if e["identity"] in names]
        assert got == reference_family_report(J, generate(closed, N + 5), N)

    def test_a_non_dividing_entry_fails_with_its_witness(self):
        # a_0^[2] = 1: entry n - 1 of the second-order band is n/2 at
        # A D**2 = 1 on an integer table, so every odd n does not divide
        J = case1_operator(1, 0, 1, 1, -6)
        seq = generate(case1_coeffs(CASE1, 12), 12)
        assert lcm_denominator(J) == 1 and seq.weighted_rows[0] == 1
        name, _, e, _, band = eigenfam._family_identities(J)[0]
        assert name == "case1-second-order"
        entries = eigenfam._scaled(band, e, [1] * 6)(3)
        assert entries[1] == (2, Fraction(3, 2))
        got = verify_expansions(J, seq, 6).entries
        got = [e for e in got if e["identity"].startswith("case1")]
        assert got == reference_family_report(J, generate(case1_coeffs(CASE1, 12), 12), 6)
        entry = next(e for e in got if e["identity"] == "case1-second-order" and e["n"] == 3)
        assert entry["status"] == "fail" and "witness" in entry


class TestDifferenceEquations:
    def test_case1_tables_satisfy_them(self):
        J = case1_operator(2, 3, Fraction(5, 2), Fraction(-1, 3), 7)
        rt = case1_coeffs(J, 30)
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
                * J.acoef(1, 1)
                * (rt.gamma(n + 1) - 2 * rt.gamma(n + 2) + rt.gamma(n + 3))
                == J.acoef(0, 3)
            )


class TestClassifySolvability:
    def test_constant_cubic(self):
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly([1]), Poly([2])])
        res = classify_solvability(J)
        assert res["solvability"] == "case1"
        assert any("forced" in note for note in res["notes"])

    def test_linear_cubic_no_solution(self):
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly.zero(), Poly([0, 1])])
        assert classify_solvability(J)["solvability"] == "no-solution"

    def test_no_cubic_reduced(self):
        J = DiffOperator([Poly.one(), Poly([2])])
        assert classify_solvability(J)["solvability"] == "reduced"

    def test_quadratic_cubic_with_zero_discriminant(self):
        J = DiffOperator([Poly.one(), Poly([0, Fraction(1, 24)]), Poly.zero(), Poly([1, -2, 1])])
        assert classify_solvability(J)["solvability"] == "case2"

    def test_nonzero_discriminant_unclassified(self):
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly.zero(), Poly([1, 0, 1])])
        res = classify_solvability(J)
        assert res["solvability"] == "unclassified"
        assert res["residues"]["discriminant"] == "-4"


class TestHahn:
    def test_explicit_family_derivatives_two_orthogonal(self):
        from dortho import check_d_orthogonality, structure_coeffs

        seq = generate(corollary42_coeffs(40), 26)
        dseq = derivative_sequence(seq)
        assert check_d_orthogonality(dseq, 2, 6).passed
        rows = structure_coeffs(dseq)
        for n in range(1, 20):
            # gamma_n is the coefficient of P_(n-1) in x*P_(n+1)
            assert dict(rows[n + 1]).get(n - 1, 0) != 0
