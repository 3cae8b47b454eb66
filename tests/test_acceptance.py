"""Acceptance suite: ten end-to-end criteria, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
enforces its own wall-clock budget.
"""

import random
import time
from fractions import Fraction

import pytest

from dortho import (
    DiffOperator,
    Poly,
    case1_coeffs,
    case1_operator,
    case2_coeffs,
    case2_constants,
    case2_operator,
    check_d_orthogonality,
    classify_solvability,
    corollary42_coeffs,
    corollary42_operator,
    derivative_sequence,
    derive_recurrence,
    dual_moments,
    expand_in_basis,
    from_action,
    generate,
    lambda_at,
    leibniz_expand,
    structure_coeffs,
    verify_expansions,
)
from dortho.errors import NotTwoOrthogonal

from conftest import GOLDEN, rand_operator, rand_poly, run_cli

X = Poly.x()


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{self.label}: {verdict} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


def test_criterion_01_operator_calculus():
    with _Budget("criterion 1 (operator calculus)", 5):
        rng = random.Random(101)
        for _ in range(100):
            J = rand_operator(rng, order=3)
            p = rand_poly(rng, 10)
            g = rand_poly(rng, 10)
            assert leibniz_expand(J, p, g) == J.apply(p * g)
            J1 = J.shifted(1).apply(p)
            J2 = J.shifted(2).apply(p)
            J3 = J.shifted(3).apply(p)
            Jp = J.apply(p)
            assert J.apply(X * p) == X * Jp + J1
            assert J.apply(X * X * p) == X * X * Jp + (X * J1).scale(2) + J2
            assert J.apply(X * X * X * p) == (
                X * X * X * Jp + (X * X * J1).scale(3) + (X * J2).scale(3) + J3
            )
            i = rng.randint(0, 4)
            assert J.shifted(i).apply(X * p) == J.shifted(i + 1).apply(p) + X * J.shifted(
                i
            ).apply(p)


def test_criterion_02_recovery_round_trip():
    with _Budget("criterion 2 (from_action round-trip)", 2):
        rng = random.Random(202)
        for _ in range(50):
            J = rand_operator(rng, order=rng.randint(0, 4))
            images = [J.apply_monomial(n) for n in range(J.order + 2)]
            assert from_action(images) == J


def test_criterion_03_case1_reproduction():
    with _Budget("criterion 3 (constant-coefficient family)", 10):
        J = case1_operator(1, 0, 1, -2, -6)
        rt, report, _, _ = derive_recurrence(J, 26)
        assert report.passed
        for n in range(26):
            assert rt.beta(n) == 0
            assert rt.alpha(n + 1) == n + 1
        for n in range(25):
            assert rt.gamma(n + 1) == (n + 1) * (n + 2)
        seq = generate(rt, 25)
        for n in range(26):
            assert J.apply(seq[n]) == seq[n].scale(n + 1)


def test_criterion_04_explicit_family_reproduction():
    with _Budget("criterion 4 (explicit cubic family)", 10):
        J = corollary42_operator(Fraction(1))
        rt = corollary42_coeffs(30)
        assert rt.gamma(1) == -8
        assert rt.gamma(2) == -216
        assert rt.gamma(3) == -10800
        for n in range(30):
            assert rt.beta(n) == -12 * (n - 1) * n
        for n in range(1, 30):
            assert rt.alpha(n) == 12 * (n - 1) * n * (2 * n - 3) ** 2
            assert rt.gamma(n) == -4 * n * (n + 1) * (2 * n - 3) ** 2 * (2 * n - 1) ** 2
        seq = generate(rt, 25)
        for n in range(26):
            assert J.apply(seq[n]) == seq[n].scale(Fraction(n, 24) + 1)
        rt_oracle, report, _, _ = derive_recurrence(J, 26)
        assert report.passed
        assert all(rt_oracle.beta(n) == rt.beta(n) for n in range(27))
        assert all(rt_oracle.alpha(n) == rt.alpha(n) for n in range(1, 27))
        assert all(rt_oracle.gamma(n) == rt.gamma(n) for n in range(1, 26))


def test_criterion_05_theorem_specialization():
    with _Budget("criterion 5 (quadratic-case specialization)", 2):
        J = case2_operator(1, 0, Fraction(1, 24), 1, -2, 1)
        assert case2_constants(J) == ((252, 192, 48), (60, 96, -96, -192, -64))
        assert J == corollary42_operator(1)
        assert case2_coeffs(J, 25) == corollary42_coeffs(25)


def test_criterion_06_expansion_identities():
    with _Budget("criterion 6 (shifted-operator expansions)", 10):
        J1 = case1_operator(1, 0, 1, -2, -6)
        rep1 = verify_expansions(J1, generate(case1_coeffs(J1, 30), 20), 15)
        assert rep1.passed
        rep2 = verify_expansions(
            corollary42_operator(Fraction(1)), generate(corollary42_coeffs(30), 20), 15
        )
        assert rep2.passed
        names = {e["identity"] for e in rep1.entries + rep2.entries}
        for key in (
            "shift1-expansion",
            "shift2-expansion",
            "shift3-expansion",
            "shift3-initial",
        ):
            assert key in names
        initial = [e for e in rep1.entries if e["identity"] == "shift3-initial"]
        assert [e["n"] for e in initial] == [0, 1]


def test_criterion_07_appell_and_hahn():
    with _Budget("criterion 7 (Appell and Hahn properties)", 10):
        seq1 = generate(case1_coeffs(case1_operator(1, 0, 1, -2, -6), 30), 21)
        for n in range(1, 21):
            assert seq1[n].derivative() == seq1[n - 1].scale(n)
        seq2 = generate(corollary42_coeffs(40), 26)
        dseq = derivative_sequence(seq2)
        assert check_d_orthogonality(dseq, 2, 6).passed
        rows = structure_coeffs(dseq)
        for n in range(1, 24):
            # gamma_n is the coefficient of P_(n-1) in x*P_(n+1)
            assert dict(rows[n + 1]).get(n - 1, 0) != 0


def test_criterion_08_duals():
    with _Budget("criterion 8 (dual-functional orthogonality)", 10):
        rt = corollary42_coeffs(40)
        seq = generate(rt, 27)
        dm = dual_moments(seq, 2)
        for m in range(9):
            for nu in (0, 1):
                n0 = 2 * m + nu
                exp = expand_in_basis(seq[m] * seq[n0], seq)
                assert exp.coeff(nu) != 0
                for n in range(n0 + 1, 27 - m):
                    assert expand_in_basis(seq[m] * seq[n], seq).coeff(nu) == 0
        assert dm[0][0] == 1
        # the mutated table must fail exactly where the zeroed gamma sits
        gamma = [rt.gamma(n) for n in range(1, 40)]
        gamma[2] = Fraction(0)
        from dortho import RecurrenceTable

        bad = RecurrenceTable.two_orthogonal(
            [rt.beta(n) for n in range(40)], [rt.alpha(n) for n in range(1, 40)], gamma
        )
        rep = check_d_orthogonality(generate(bad, 20), 2, 6)
        assert not rep.passed
        assert rep.first_failure()["n"] == (2, 0, 4)


def test_criterion_09_negative_subcase():
    with _Budget("criterion 9 (linear-cubic obstruction)", 2):
        J = DiffOperator([Poly.one(), Poly([0, 1]), Poly.zero(), Poly([0, 1])])
        with pytest.raises(NotTwoOrthogonal):
            derive_recurrence(J, 8)
        assert classify_solvability(J)["solvability"] == "no-solution"


def test_criterion_10_cli_golden():
    with _Budget("criterion 10 (CLI golden files)", 5):
        cases = [
            (["eigen", "--operator", "corollary_operator.json", "-n", "3"], "eigen_corollary_n3.out", 0),
            (["verify", "--family", "corollary42", "-N", "10"], "verify_corollary.out", 0),
            (["verify", "--operator", "linear_cubic.json", "-N", "8"], "verify_linear_cubic.out", 1),
            (["classify", "--operator", "corollary_operator.json"], "classify_corollary.out", 0),
            (["classify", "--operator", "bad_degree.json"], "classify_bad_degree.out", 2),
            (["duals", "--tables", "mutated_tables.json", "-M", "6"], "duals_mutated.out", 1),
            (["eigen", "--operator", "malformed.json", "-n", "1"], "eigen_malformed.out", 2),
        ]
        for argv, golden, code in cases:
            r = run_cli(*argv)
            assert r.returncode == code, (argv, r.stderr)
            assert r.stdout == (GOLDEN / golden).read_bytes(), (argv, r.stderr)
