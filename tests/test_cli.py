"""Golden-file and exit-code tests for the command-line driver."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dortho import RecurrenceTable, cli, diffop, eigenfam, errors, lambda_at, seqkit
from dortho.polycore import rational_to_str

from conftest import GOLDEN, dortho_env, run_cli


def assert_golden(result, name, code):
    assert result.returncode == code, result.stderr.decode()
    assert result.stdout == (GOLDEN / name).read_bytes(), result.stderr.decode()


class TestEigen:
    def test_explicit_family_n3(self):
        r = run_cli("eigen", "--operator", "corollary_operator.json", "-n", "3")
        assert_golden(r, "eigen_corollary_n3.out", 0)

    def test_n0(self):
        r = run_cli("eigen", "--operator", "corollary_operator.json", "-n", "0")
        assert_golden(r, "eigen_n0.out", 0)

    def test_malformed_json_is_input_error(self):
        r = run_cli("eigen", "--operator", "malformed.json", "-n", "3")
        assert_golden(r, "eigen_malformed.out", 2)
        assert b"input error" in r.stderr

    def test_lowering_operator_fails(self):
        r = run_cli("eigen", "--operator", "derivative_operator.json", "-n", "3")
        assert_golden(r, "eigen_derivative.out", 1)
        assert b"derivative-like" in r.stderr

    def test_missing_file(self):
        r = run_cli("eigen", "--operator", "no_such_file.json", "-n", "3")
        assert r.returncode == 2

    def test_lambda_is_read_off_lambda_poly(self, monkeypatch, capsys):
        # lambda_n comes from lambda_poly(J, 0), the one source of every path
        def refuse(*args):
            raise AssertionError("lambda_at called")

        for module in (diffop, cli, eigenfam, seqkit):
            monkeypatch.setattr(module, "lambda_at", refuse, raising=False)
        argv = ["eigen", "--operator", str(GOLDEN / "corollary_operator.json"), "-n", "3"]
        assert cli.main(argv) == cli.EXIT_OK
        golden = (GOLDEN / "eigen_corollary_n3.out").read_text()
        assert capsys.readouterr() == (golden, "")


class TestVerify:
    def test_explicit_family_passes(self):
        r = run_cli("verify", "--family", "corollary42", "-N", "10")
        assert_golden(r, "verify_corollary.out", 0)

    def test_case1_passes(self):
        r = run_cli(
            "verify",
            "--family",
            "case1",
            "--params",
            '["1","0","1","-2","-6"]',
            "-N",
            "10",
        )
        assert_golden(r, "verify_case1.out", 0)

    def test_powers_of_the_case1_operator_pass(self):
        # J**2 and J**4 of the case 1 operator of verify_case1.out (orders 6
        # and 12) have its eigenpolynomials, so the same table; past order 3
        # the displayed image of P_1 under the thrice-shifted operator leaves
        # out a_4's term, so only P_0's is checked
        tables = []
        for name in ("case1_squared_operator.json", "case1_fourth_power_operator.json"):
            r = run_cli("verify", "--operator", name, "-N", "12")
            assert (r.returncode, r.stderr) == (0, b"")
            out = json.loads(r.stdout)
            assert out["report"]["passed"]
            initial = [e["n"] for e in out["report"]["entries"] if e["identity"] == "shift3-initial"]
            assert initial == [0]
            tables.append(out["tables"])
        assert tables[0] == tables[1]

    def test_linear_cubic_fails(self):
        r = run_cli("verify", "--operator", "linear_cubic.json", "-N", "8")
        assert_golden(r, "verify_linear_cubic.out", 1)
        assert b"verification failure" in r.stderr

    def test_unknown_family(self):
        r = run_cli("verify", "--family", "nope", "-N", "5")
        assert r.returncode == 2

    def test_bad_params_count(self):
        r = run_cli("verify", "--family", "case1", "--params", '["1"]', "-N", "5")
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["verify", "duals"])
    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("case1", "[1,0,0,1,1]", "linear coefficient a_1^[1] must be nonzero"),
            ("case1", "[1,0,1,1,0]", "constant coefficient a_0^[3] must be nonzero"),
            ("case2", "[1,0,0,1,-2,1]", "linear coefficient a_1^[1] must be nonzero"),
            ("case2", "[1,0,1,1,1,1]", "(a_1^[3])^2 - 4 a_2^[3] a_0^[3] = -3"),
        ],
    )
    def test_family_parameter_error_is_input_error(
        self, capsys, command, family, params, message
    ):
        argv = [command, "--family", family, "--params", params]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "params, relations",
        [
            # corollary 4.2's operator, given as a case 2 member
            ('[1, 0, "1/24", 1, -2, 1]', {"corollary-second-order", "corollary-first-order"}),
            # a_3 constant: a case 1 operator with a_0^[2] = 0
            ("[1, 0, 2, 3, 0, 0]", {"case1-second-order", "case1-appell-derivative"}),
        ],
    )
    def test_case2_checks_the_relations_of_the_detected_family(self, params, relations):
        r = run_cli("verify", "--family", "case2", "--params", params, "-N", "6", "-M", "2")
        assert r.returncode == 0, r.stderr.decode()
        entries = json.loads(r.stdout)["report"]["entries"]
        for name in relations:
            assert [e["n"] for e in entries if e["identity"] == name] == list(range(7))


class TestLargeN:
    """stdout sha256 of verify runs past the goldens' sizes, recorded before
    the expansions were checked as matrix columns."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--family", "corollary42", "-N", "100", "-M", "2"),
                "33049402d64f4793cd491024414c8f50de4e935a890641d813089063e2a55bb3",
            ),
            (
                ("--family", "case1", "--params", "[1,0,1,-2,-6]", "-N", "100", "-M", "2"),
                "f1f566ab8393d325bcb580817581b00971dbfabcab36b81f3571f67508a4d4eb",
            ),
            (
                ("--operator", "corollary_operator.json", "-N", "60"),
                "e7d610f8d42795f0a7d6d012ca904f80d6bc12d48083bdc79fcac0d6184beaa2",
            ),
        ],
        ids=["corollary42-N100", "case1-N100", "operator-N60"],
    )
    def test_stdout_digest(self, argv, digest):
        r = run_cli("verify", *argv)
        assert r.returncode == 0, r.stderr.decode()
        assert hashlib.sha256(r.stdout).hexdigest() == digest


class TestClassify:
    def test_explicit_family(self):
        r = run_cli("classify", "--operator", "corollary_operator.json")
        assert_golden(r, "classify_corollary.out", 0)

    def test_derivative(self):
        r = run_cli("classify", "--operator", "derivative_operator.json")
        assert_golden(r, "classify_derivative.out", 0)

    def test_degree_violation(self):
        r = run_cli("classify", "--operator", "bad_degree.json")
        assert_golden(r, "classify_bad_degree.out", 2)
        assert b"index 2" in r.stderr

    ISOMORPHISM = {"class": "isomorphism", "certified_all_n": True}
    FORCED = "a_1^[1] != 0 is forced"

    @pytest.mark.parametrize(
        "a, solvability",
        [
            (
                [["1"], ["2"]],
                {
                    "solvability": "reduced",
                    "notes": ["only the pure first-order operator a_0^[1] D + a_0^[0] I remains"],
                },
            ),
            ([["1"], ["0", "1"], ["1"], ["2"]], {"solvability": "case1", "notes": [FORCED]}),
            (
                [["1"], ["0", "1"], ["0", "1"], ["2"]],
                {
                    "solvability": "case1",
                    "notes": [FORCED, "a_1^[2] is forced to zero; given value is nonzero"],
                },
            ),
            ([["1"], ["0", "1"], [], ["1", "-2", "1"]], {"solvability": "case2", "notes": [FORCED]}),
            (
                [["1"], ["0", "1"], [], ["0", "1"]],
                {
                    "solvability": "no-solution",
                    "notes": ["no 2-orthogonal eigenfamily exists for linear a_3"],
                },
            ),
            (
                [["1"], ["0", "1"], ["0", "0", "1"], ["1"]],
                {
                    "solvability": "unclassified",
                    "notes": ["quadratic a_2 with constant a_3 is not settled"],
                    "residues": {"deg_a2": "2", "deg_a3": "0"},
                },
            ),
            (
                [["1"], ["0", "1"], [], ["1", "0", "1"]],
                {
                    "solvability": "unclassified",
                    "notes": ["quadratic a_3 with nonzero discriminant is not settled"],
                    "residues": {"discriminant": "-4"},
                },
            ),
            (
                [["1"], ["0", "1"], [], ["0", "0", "0", "1"]],
                {
                    "solvability": "unclassified",
                    "notes": ["cubic a_3 is not settled"],
                    "residues": {"deg_a3": "3"},
                },
            ),
            (
                [["1"], ["0", "1"], ["1"], ["0", "1"]],
                {
                    "solvability": "unclassified",
                    "notes": ["parameter region not settled"],
                    "residues": {"deg_a2": "0", "deg_a3": "1", "discriminant": "1"},
                },
            ),
            # past order 3 classify reports the operator class alone
            ([["1"], ["0", "1"], [], [], ["1"]], {}),
        ],
        ids=[
            "reduced",
            "case1",
            "case1-a12-note",
            "case2",
            "no-solution",
            "unclassified-quadratic-a2",
            "unclassified-discriminant",
            "unclassified-cubic-a3",
            "unclassified-region",
            "order-4",
        ],
    )
    def test_solvability_stdout(self, tmp_path, capsys, a, solvability):
        # one operator per branch of classify_solvability, exact stdout
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"a": a}))
        assert cli.main(["classify", "--operator", str(op)]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert out == json.dumps({**self.ISOMORPHISM, **solvability}, indent=2) + "\n"
        assert err == ""


class TestDuals:
    def test_explicit_family_passes(self):
        r = run_cli("duals", "--family", "corollary42", "-N", "20", "-M", "6")
        assert_golden(r, "duals_corollary.out", 0)

    def test_mutated_tables_fail(self):
        r = run_cli("duals", "--tables", "mutated_tables.json", "-M", "6")
        assert_golden(r, "duals_mutated.out", 1)
        assert b"(2, 0, 4)" in r.stderr

    def test_default_bound_ignores_the_environment(self):
        # N defaults to DEFAULT_N whatever the shell exports
        r = run_cli("duals", "--tables", "mutated_tables.json", "-M", "6", DORTHO_PROBE_BOUND="3")
        assert_golden(r, "duals_mutated.out", 1)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("duals", "--tables", "mutated_tables.json", "--family", "corollary42"),
                b"input error: give either --tables or --family, not both\n",
            ),
            (
                ("verify", "--operator", "corollary_operator.json", "--family", "corollary42"),
                b"input error: give either --operator or --family, not both\n",
            ),
        ],
    )
    def test_two_sources_are_input_error(self, argv, message):
        # neither source is read: the tables alone would fail with exit 1
        r = run_cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == (2, b"", message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("verify", "--operator", "corollary_operator.json", "-N", "3", "--params", "[1]"),
                b"input error: --params needs --family\n",
            ),
            (
                ("verify", "--operator", "corollary_operator.json", "-N", "3", "-M", "50"),
                b"input error: -M needs --family\n",
            ),
            (
                ("duals", "--tables", "mutated_tables.json", "-M", "6", "--params", "[1,2]"),
                b"input error: --params needs --family\n",
            ),
            (("verify", "-N", "3", "--params", "[1]"), b"input error: --params needs --family\n"),
            (("duals", "--params", "[1]"), b"input error: --params needs --family\n"),
        ],
    )
    def test_option_the_source_does_not_read_is_input_error(self, argv, message):
        # only --family reads --params, and only family mode probes to M:
        # ignored, the first two would exit 0 and the third 1
        r = run_cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == (2, b"", message)


class TestBadRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--family", "corollary42", "-N", "-1"),
            ("verify", "--operator", "corollary_operator.json", "-N", "-2"),
            ("verify", "--family", "corollary42", "-M", "-1"),
            ("duals", "--family", "corollary42", "-N", "-1"),
            ("duals", "--family", "corollary42", "-M", "-1"),
        ],
    )
    def test_negative_bound_is_input_error(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr.startswith(b"input error: ")
        assert r.stdout == b""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eigen", "--operator", "corollary_operator.json", "-n", "800"), b"n must be <= 400"),
            (
                ("eigen", "--operator", "corollary_operator.json", "-n", str(10**20)),
                b"n must be <= 400",
            ),
            (("verify", "--family", "corollary42", "-N", "401"), b"N must be <= 400"),
            (("verify", "--family", "corollary42", "-M", "134"), b"M must be <= 133 for d = 2"),
            (("duals", "--family", "corollary42", "-N", "401"), b"N must be <= 400"),
            (("duals", "--family", "corollary42", "-M", "134"), b"M must be <= 133 for d = 2"),
        ],
    )
    def test_degree_above_cap_is_input_error(self, argv, message):
        r = run_cli(*argv)
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == b"input error: " + message + b"\n"
        assert r.stdout == b""

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (("-M", "100"), b"input error: M must be <= 99 for d = 3\n"),
            (("-M", "99"), b"input error: beta_1 not tabulated\n"),
            (("-N", "400", "-M", "0"), b"input error: beta_1 not tabulated\n"),
        ],
    )
    def test_degree_cap_counts_the_table_order(self, tmp_path, bounds, message):
        # values at the cap's edge pass it and fail in generate on this one-entry table
        tables = tmp_path / "tables.json"
        tables.write_text('{"d": 3, "beta": [0], "levels": [[1], [1], [1]]}')
        r = run_cli("duals", "--tables", str(tables), *bounds)
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == message

    @pytest.mark.parametrize(
        "d, message",
        [
            (402, "input error: d must be <= 401\n"),
            (500, "input error: d must be <= 401\n"),
            # d = 401 passes the bound and fails in generate on this short table
            (401, "input error: beta_1 not tabulated\n"),
        ],
    )
    def test_table_order_above_cap_is_input_error(self, tmp_path, capsys, d, message):
        # the probe to M = 0 needs degree d - 1, so d is bounded before M
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({"d": d, "beta": [0], "levels": [[1]] * d}))
        argv = ["duals", "--tables", str(tables), "-N", "0", "-M", "0"]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", message)

    @staticmethod
    def order_operator(order):
        """a_0 = 1 and a_v = x**v up to the given order."""
        return {"a": [["0"] * v + ["1"] for v in range(order + 1)]}

    @pytest.mark.parametrize(
        "argv",
        [("classify",), ("eigen", "-n", "1"), ("verify", "-N", "1")],
        ids=["classify", "eigen", "verify"],
    )
    def test_operator_order_above_cap_is_input_error(self, tmp_path, capsys, argv):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(self.order_operator(cli.MAX_ORDER + 1)))
        assert cli.main([*argv, "--operator", str(op)]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", "input error: operator order must be <= 32\n")

    def test_operator_order_at_cap_is_accepted(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(self.order_operator(cli.MAX_ORDER)))
        assert cli.main(["classify", "--operator", str(op)]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert json.loads(out) == {"class": "isomorphism", "certified_all_n": True}
        assert err == ""

    def test_scalar_beta_in_tables_is_input_error(self, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text('{"d": 2, "beta": 5, "alpha": [1], "gamma": [1]}')
        r = run_cli("duals", "--tables", str(tables), "-M", "1")
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr.startswith(b"input error: bad tables file: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"d": 2, "beta": ["1/0"], "alpha": [1], "gamma": [1]}',
                b"Fraction(1, 0)",
            ),
            (
                '{"d": 2.5, "beta": [0, 0, 0, 0], "alpha": [1, 1, 1], "gamma": [1, 1, 1]}',
                b"d must be an integer, got 2.5",
            ),
            ('{"d": true, "beta": [0, 0, 0, 0], "levels": [[1, 1, 1]]}', b"d must be an integer, got True"),
            ('{"d": 2, "beta": "0000", "alpha": [1, 1, 1], "gamma": [1, 1, 1]}', b"beta must be an array"),
            ('{"d": 3, "beta": [0], "levels": {"0": [1]}}', b"levels must be an array"),
            ('{"d": 3, "beta": [0], "levels": [[1], "1", [1]]}', b"levels[1] must be an array"),
        ],
    )
    def test_malformed_tables_file_is_input_error(self, tmp_path, text, message):
        tables = tmp_path / "tables.json"
        tables.write_text(text)
        r = run_cli("duals", "--tables", str(tables), "-N", "2", "-M", "1")
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == b"input error: bad tables file: " + message + b"\n"
        assert r.stdout == b""


    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (
                '{"a": "12"}',
                ("eigen", "-n", "1"),
                b"invalid operator: a polynomial must be an array of rationals",
            ),
            (
                '{"d": 2, "beta": ["1e100000", 0, 0, 0], "alpha": [1, 1, 1], "gamma": [1, 1, 1]}',
                ("duals", "-N", "2", "-M", "1"),
                b"bad tables file: rational with an exponent: '1e100000'",
            ),
        ],
    )
    def test_file_rational_forms(self, tmp_path, text, argv, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        flag = "--operator" if argv[0] == "eigen" else "--tables"
        r = run_cli(argv[0], flag, str(path), *argv[1:])
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == b"input error: " + message + b"\n"

    def test_params_exponent_is_input_error(self):
        r = run_cli("verify", "--family", "case2", "--params", '["1e999999", 0, 1, 1, -2, 1]')
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == (
            b"input error: bad rational in params: rational with an exponent: '1e999999'\n"
        )

    @pytest.mark.parametrize("command", ["verify", "duals"])
    def test_params_int_past_the_digit_limit_is_input_error(self, command):
        # json.loads refuses a 5000-digit int with a plain ValueError, not
        # a JSONDecodeError
        params = "[" + "1" * 5000 + "]"
        r = run_cli(command, "--family", "corollary42", "--params", params, "-N", "2", "-M", "1")
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr.startswith(b"input error: malformed params JSON: Exceeds the limit")
        assert r.stdout == b""

    @pytest.mark.parametrize(
        "data, argv",
        [
            # the moments of x**16 reach about 4800 digits
            (
                {key: [10**300] * 20 for key in ("beta", "alpha", "gamma")} | {"d": 2},
                ("duals", "--tables", "{file}", "-N", "2", "-M", "5"),
            ),
            # the diagonal sum vanishes at n = 10**4400
            (
                {"a": [["-1" + "0" * 2200], ["0", "1/1" + "0" * 2200]]},
                ("classify", "--operator", "{file}"),
            ),
            # the discriminant has 4401 digits
            (
                None,
                ("verify", "--family", "case2", "--params", f'[1, 0, 1, 1, "1{"0" * 2200}", 1]'),
            ),
            # the diagonal sum vanishes at n = 10**8000; the root screen's
            # coefficients have about 4000 digits
            (
                {"a": [["-1" + "0" * 4000], ["0", "1/1" + "0" * 4000]]},
                ("classify", "--operator", "{file}"),
            ),
        ],
    )
    def test_output_past_the_digit_limit_is_input_error(self, tmp_path, data, argv):
        path = tmp_path / "input.json"
        if data is not None:
            path.write_text(json.dumps(data))
        r = run_cli(*[str(path) if a == "{file}" else a for a in argv])
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == (
            b"input error: an exact result has more than 4300 digits, the output limit\n"
        )
        assert r.stdout == b""

    def test_duals_stops_at_the_first_moment_past_the_digit_limit(
        self, tmp_path, monkeypatch, capsys
    ):
        # every entry has its own 6-digit denominator: the moments of x**n
        # pass the limit at n = 42 of the 76 that -M 25 reads, and the run
        # stops there, before any pairing
        q = iter(range(100003, 10**6, 101))
        data = {
            key: [f"{(-1) ** i * (1 + i % 9)}/{next(q)}" for i in range(77)]
            for key in ("beta", "alpha", "gamma")
        } | {"d": 2}
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(data))

        def no_pairings(*args):
            raise AssertionError("check_d_orthogonality ran")

        monkeypatch.setattr(seqkit, "check_d_orthogonality", no_pairings)
        argv = ["duals", "--tables", str(path), "-N", "2", "-M", "25"]
        assert cli.main(argv) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert err == "input error: an exact result has more than 4300 digits, the output limit\n"
        assert out == ""

    # case 2 with 1,141-digit entries: a_3 = s (x - r)**2
    LARGE_S = Fraction(3**200, 7**150)
    LARGE_R = Fraction(10**250 + 1, 11**200)

    @pytest.mark.parametrize(
        "a1, a2, code, err",
        [
            (
                ["1/2", "-2/3"],
                [],
                cli.EXIT_INPUT,
                "input error: an exact result has more than 4300 digits, the output limit\n",
            ),
            # lambda_n = 1 + n (n - 400) / 7, so lambda_0 = lambda_400: the
            # collision is reported before any coefficient is solved
            (
                ["0", "-399/7"],
                ["0", "0", "2/7"],
                cli.EXIT_FAIL,
                "error: eigenvalue at index 0 equals eigenvalue at index 400\n",
            ),
        ],
    )
    def test_eigen_stops_at_the_first_coefficient_past_the_digit_limit(
        self, tmp_path, monkeypatch, capsys, a1, a2, code, err
    ):
        # coefficient m of P_400 has 129, 479, 855, ... digits and passes the
        # limit at m = 16, so the solve stops there, not after 401 coefficients
        s, r = self.LARGE_S, self.LARGE_R
        a3 = [str(v) for v in (s * r * r, -2 * s * r, s)]
        path = tmp_path / "operator.json"
        path.write_text(json.dumps({"a": [["1/3"], a1, a2, a3]}))
        solved = []
        setup = eigenfam._eigen_solver

        def counted(J, N):
            solve, lam, E = setup(J, N)

            def counting(n):
                for c in solve(n):
                    solved.append(c)
                    yield c

            return counting, lam, E

        monkeypatch.setattr(eigenfam, "_eigen_solver", counted)
        argv = ["eigen", "--operator", str(path), "-n", "400"]
        assert cli.main(argv) == code
        assert capsys.readouterr() == ("", err)
        assert len(solved) < 20


class TestOutFlag:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "eigen.json"
        r = run_cli(
            "eigen", "--operator", "corollary_operator.json", "-n", "3", "--out", str(target)
        )
        assert r.returncode == 0
        assert target.read_bytes() == (GOLDEN / "eigen_corollary_n3.out").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "--operator", str(GOLDEN / "corollary_operator.json"), "-n", "3"],
            ["verify", "--family", "corollary42", "-N", "4", "-M", "2"],
            ["classify", "--operator", str(GOLDEN / "corollary_operator.json")],
            ["duals", "--family", "corollary42", "-N", "4", "-M", "2"],
        ],
    )
    @pytest.mark.parametrize("where", ["missing parent", "directory"])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, argv, where):
        target = tmp_path / "no_such_dir" / "out.json" if where == "missing parent" else tmp_path
        assert cli.main(argv + ["--out", str(target)]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: cannot write output file: [Errno ")
        assert str(target) in err and err.count("\n") == 1
        assert not (tmp_path / "no_such_dir").exists()


def alter_table(monkeypatch, coeffs, name, k):
    """Patch eigenfam's closed-form table function named coeffs so that its
    tables have 1 added to entry name_k (beta, alpha or gamma); returns the
    original function."""
    original = getattr(eigenfam, coeffs)

    def altered(*args):
        rt, N = original(*args), args[-1]
        entries = {
            "beta": [rt.beta(j) for j in range(N + 1)],
            "alpha": [rt.alpha(j) for j in range(1, N + 1)],
            "gamma": [rt.gamma(j) for j in range(1, N + 1)],
        }
        entries[name][k if name == "beta" else k - 1] += 1
        return RecurrenceTable.two_orthogonal(**entries)

    monkeypatch.setattr(eigenfam, coeffs, altered)
    return original


class TestTablesMatchWitness:
    """A closed-form entry that differs from the oracle's is reported with
    both values, for beta, alpha and gamma alike."""

    @pytest.mark.parametrize("name, n", [("beta", 4), ("alpha", 3), ("gamma", 2)])
    def test_altered_entry_carries_its_witness(self, monkeypatch, capsys, name, n):
        original = alter_table(monkeypatch, "corollary42_coeffs", name, n)
        code = cli.main(["verify", "--family", "corollary42", "-N", "6", "-M", "2"])
        assert code == cli.EXIT_FAIL
        entries = json.loads(capsys.readouterr().out)["report"]["entries"]
        failing = [
            e for e in entries if e["identity"] == f"{name}-match" and e["status"] == "fail"
        ]
        oracle = getattr(original(6), name)(n)
        witness = {"closed": rational_to_str(oracle + 1), "oracle": rational_to_str(oracle)}
        assert failing == [
            {"identity": f"{name}-match", "n": n, "status": "fail", "witness": witness}
        ]


class TestSharedColumns:
    """Family mode checks J's columns on the closed-form sequence alone, so
    a table altered at one entry gives the report of verify_expansions and
    the eigen identity on a fresh sequence of that table, witnesses
    included, whether or not the entry lies in the oracle's table (beta_(N+1)
    and gamma_N do not), before the table match."""

    N, M = 8, 2
    FAMILIES = {
        "corollary42": ("corollary42_coeffs", None),
        "case1": ("case1_coeffs", '["1","0","1","-2","-6"]'),
        "case2": ("case2_coeffs", '[1, 0, "1/24", 1, -2, 1]'),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize(
        "name, k",
        [
            ("beta", 0),
            ("beta", 3),
            ("beta", 8),
            ("beta", 9),
            ("alpha", 1),
            ("alpha", 5),
            ("alpha", 8),
            ("gamma", 1),
            ("gamma", 4),
            ("gamma", 7),
            ("gamma", 8),
        ],
    )
    def test_altered_table_gives_the_unshared_report(self, monkeypatch, capsys, family, name, k):
        coeffs, params = self.FAMILIES[family]
        alter_table(monkeypatch, coeffs, name, k)
        argv = ["verify", "--family", family, "-N", str(self.N), "-M", str(self.M)]
        if params is not None:
            argv += ["--params", params]
        assert cli.main(argv) == cli.EXIT_FAIL
        entries = json.loads(capsys.readouterr().out)["report"]["entries"]

        J, table_factory = cli._family_setup(family, cli._parse_params(params))
        rt = table_factory(self.N + 5)
        fresh = seqkit.generate(rt, self.N + 5)
        reference = eigenfam.verify_expansions(J, fresh, self.N)
        # the eigen identity's band at its column's scale: A lambda_n, A the
        # lcm of the denominators of J's coefficients
        A = math.lcm(*(c.denominator for a in J.coeffs for c in a.coeffs))
        eigen = [("eigen-identity", J, 0, 0, lambda n: [(n, A * lambda_at(J, 0, n))])]
        eigenfam.check_expansions(reference, fresh, range(self.N + 1), A, eigen)
        expected = reference.to_json()["entries"]
        assert entries[: len(expected)] == expected
        assert entries[len(expected)]["identity"] == "beta-match"


class TestSharingAcrossD:
    """Parameters whose rows bring new denominators as the sequence grows,
    so D, and with it each column's scale A D**(n + e - j), depends on how
    far the sequence reaches (D is 4 on the first row and 16 or 256 on the
    closed form's at N = 0).  Every run passes, and no operator is applied:
    a column compared at the wrong scale would raise in check_expansions."""

    PARAMS = {
        "case1": '["1/3","1/2","-2/3","3/4","5/4"]',  # D 4 vs 16 at N = 0
        "case2": '["1/3","1/2","-2/3","3/4","-3/2","3/4"]',  # D 4 vs 256 at N = 0, 1
    }

    @pytest.mark.parametrize("family", sorted(PARAMS))
    @pytest.mark.parametrize("N", range(4))
    def test_output_equals_the_unshared_run(self, monkeypatch, capsys, family, N):
        argv = ["verify", "--family", family, "--params", self.PARAMS[family]]
        argv += ["-N", str(N), "-M", "2"]
        applied = []
        apply = diffop.DiffOperator.apply
        monkeypatch.setattr(
            diffop.DiffOperator, "apply", lambda L, p: applied.append(L) or apply(L, p)
        )
        assert cli.main(argv) == cli.EXIT_OK
        assert applied == []


class TestColumnFault:
    """A column that differs from its band while the polynomials agree can
    only be a column-kernel fault: the run exits 3 naming the identity and
    n, rather than recording a pass."""

    def test_doubled_shift1_columns_exit_3(self, monkeypatch, capsys):
        J = eigenfam.corollary42_operator(1)
        column = eigenfam.operator_column

        def doubled(seq, key, n):
            out = column(seq, key, n)
            if key[0] == J.coeffs[1:] and key[2] == 1:
                return {j: 2 * v for j, v in out.items()}
            return out

        monkeypatch.setattr(eigenfam, "operator_column", doubled)
        argv = ["verify", "--family", "corollary42", "-N", "4", "-M", "2"]
        assert cli.main(argv) == cli.EXIT_INTERNAL
        assert capsys.readouterr() == (
            "",
            "internal error: RuntimeError: shift1-expansion at 0: "
            "column and band differ, polynomials agree\n",
        )


class TestFamilyOracleFailureText:
    """Family mode's oracle failures, byte for byte: the oracle's table
    screens gamma, the closed form's probe reports regularity, and a
    degenerate operator stops at classification."""

    REPORT = "228101a2b76b9b5173e557faf50ae0266b481fc9c214d72c1d5a6a37ffc63c4d"

    @pytest.mark.parametrize(
        "family, params, N, digest, err",
        [
            ("case2", "[1,0,1,0,0,1]", 5, None, "gamma_1 = 0"),
            ("case2", "[1,0,1,0,0,1]", 1, REPORT, "regularity at (1, 0, 2)"),
            ("corollary42", "[-3]", 5, None, "operator classified as degenerate"),
        ],
    )
    def test_output(self, capsys, family, params, N, digest, err):
        argv = ["verify", "--family", family, "--params", params, "-N", str(N), "-M", "2"]
        assert cli.main(argv) == cli.EXIT_FAIL
        out, stderr = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest() if out else None) == digest
        assert stderr == f"verification failure: {err}\n"


class TestDeriveFailureText:
    """A failing derive run names its first nonzero chi, read off the
    failing column at its scale, byte for byte."""

    @pytest.mark.parametrize(
        "a, N, err",
        [
            # a_3 = x: no 2-orthogonal eigenfamily
            ([["1"], ["0", "1"], [], ["0", "1"]], 10, "chi_(3,1) = 1/4 != 0"),
            # an order-4 operator with rational entries
            (
                [["1"], ["1/2", "1/3"], ["1/5"], ["1/7"], ["0", "0", "0", "0", "1/11"]],
                6,
                "chi_(2,0) = -17973/131600 != 0",
            ),
        ],
    )
    def test_stderr_names_the_first_chi(self, tmp_path, capsys, a, N, err):
        path = tmp_path / "operator.json"
        path.write_text(json.dumps({"a": a}))
        assert cli.main(["verify", "--operator", str(path), "-N", str(N)]) == cli.EXIT_FAIL
        assert capsys.readouterr() == ("", f"verification failure: {err}\n")


class TestAppell:
    """Case 1's appell check reads the derivative sequence's rows: a passing
    family run reads no polynomial, and a table altered at one entry fails
    from the first degree where Q_n = P'_(n+1)/(n+1) differs from P_n, with
    both polynomials as the witness."""

    ARGV = ["verify", "--family", "case1", "--params", '["1","0","1","-2","-6"]']

    @pytest.mark.parametrize(
        "argv",
        [
            ARGV,
            ["verify", "--family", "case2", "--params", '[1, 0, "1/24", 1, -2, 1]'],
            ["verify", "--family", "corollary42"],
        ],
        ids=["case1", "case2", "corollary42"],
    )
    def test_passing_run_reads_no_polynomial(self, monkeypatch, tmp_path, argv):
        def read(seq, n):
            raise AssertionError(f"P_{n} was read")

        monkeypatch.setattr(seqkit.MonicSequence, "__getitem__", read)
        out = str(tmp_path / "out.json")
        assert cli.main([*argv, "-N", "12", "-M", "3", "--out", out]) == cli.EXIT_OK

    @pytest.mark.parametrize("name, n", [("beta", 4), ("alpha", 3), ("gamma", 2)])
    def test_altered_entry_fails_with_the_polynomials(self, monkeypatch, capsys, name, n):
        alter_table(monkeypatch, "case1_coeffs", name, n)
        assert cli.main([*self.ARGV, "-N", "8", "-M", "2"]) == cli.EXIT_FAIL
        entries = json.loads(capsys.readouterr().out)["report"]["entries"]
        J = eigenfam.case1_operator(1, 0, 1, -2, -6)
        seq = seqkit.generate(eigenfam.case1_coeffs(J, 13), 9)  # the CLI's probe sequence
        expected = []
        for k in range(9):
            q, p = seq[k + 1].derivative().scale(Fraction(1, k + 1)), seq[k]
            entry = {"identity": "appell", "n": k, "status": "pass" if q == p else "fail"}
            if q != p:
                entry["witness"] = {"lhs": q.to_json(), "rhs": p.to_json()}
            expected.append(entry)
        assert [e for e in entries if e["identity"] == "appell"] == expected
        assert [e["status"] for e in expected].count("pass") in range(1, 9)


def record_builds(monkeypatch, reads: list, owner, name) -> None:
    """Replace owner's cached property name by one that appends each read
    that builds it to reads, then builds it as before."""
    original = owner.__dict__[name]

    class Recorded:
        def __get__(self, obj, objtype=None):
            if obj is None:
                return self
            reads.append(f"{objtype.__name__}.{name}")
            return original.__get__(obj, objtype)

    monkeypatch.setattr(owner, name, Recorded())


class TestNoFractionTables:
    """Tables travel as integers from the oracle and the closed forms to the
    kernels: a passing verify, in either mode, and a duals run on a table
    file never build a sequence's Fraction x-rows or a table's Fractions."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--family", "corollary42"], cli.EXIT_OK),
            (
                ["verify", "--family", "case1", "--params", '["1/3","1/2","-2/3","3/4","5/4"]'],
                cli.EXIT_OK,
            ),
            (
                ["verify", "--family", "case2", "--params", '["1/3","1/2","-2/3","3/4","-3/2","3/4"]'],
                cli.EXIT_OK,
            ),
            (["verify", "--operator", str(GOLDEN / "corollary_operator.json")], cli.EXIT_OK),
            (["duals", "--tables", str(GOLDEN / "mutated_tables.json")], cli.EXIT_FAIL),
        ],
        ids=["corollary42", "case1", "case2", "derive", "duals-tables"],
    )
    def test_no_fraction_view_is_built(self, monkeypatch, tmp_path, argv, code):
        reads = []
        record_builds(monkeypatch, reads, seqkit.MonicSequence, "x_rows")
        record_builds(monkeypatch, reads, seqkit.RecurrenceTable, "_fractions")
        out = str(tmp_path / "out.json")
        assert cli.main([*argv, "-N", "10", "--out", out]) == code
        assert reads == []

    def test_the_record_sees_a_fraction_view(self, monkeypatch):
        # the recorder itself: a sequence's x-rows and a table's entries read
        # as Fractions are recorded
        reads = []
        record_builds(monkeypatch, reads, seqkit.MonicSequence, "x_rows")
        record_builds(monkeypatch, reads, seqkit.RecurrenceTable, "_fractions")
        rt = eigenfam.corollary42_coeffs(4)
        seqkit.generate(rt, 4).x_rows
        rt.beta(1)
        assert reads == ["MonicSequence.x_rows", "RecurrenceTable._fractions"]


class TestInternalError:
    VERIFY = ["verify", "--operator", str(GOLDEN / "corollary_operator.json"), "-N", "3"]

    @staticmethod
    def raising(exc):
        def derive_recurrence(J, N):
            raise exc

        return derive_recurrence

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            eigenfam, "derive_recurrence", self.raising(RuntimeError("boom"))
        )
        assert cli.main(self.VERIFY) == cli.EXIT_INTERNAL == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_propagate(self, monkeypatch, exc):
        monkeypatch.setattr(eigenfam, "derive_recurrence", self.raising(exc()))
        with pytest.raises(exc):
            cli.main(self.VERIFY)


def test_every_library_error_has_one_outcome():
    """Each DorthoError class ends the CLI in one exit code: an InputError
    in 2, a VerificationFailure in 1, and the two library-misuse classes,
    like any other exception, in 3."""
    internal = {errors.DegreeTooLarge, errors.InsufficientDegree}
    classes = {
        c
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.DorthoError)
    } - {errors.DorthoError}
    assert internal < classes and cli.InputError is errors.InputError
    for c in classes:
        kinds = [k for k in (errors.InputError, errors.VerificationFailure) if issubclass(c, k)]
        assert len(kinds) == (c not in internal), c


class TestExitContract:
    """cli.main alone maps an exception to an exit code and its one stderr
    line; each subcommand's first call into the library raises each kind
    in turn, and stdout stays empty."""

    OPERATOR = ["--operator", str(GOLDEN / "corollary_operator.json")]
    FAMILY = ["--family", "corollary42", "-N", "4", "-M", "2"]
    FIRST_CALL = {
        "eigen": ([*OPERATOR, "-n", "3"], diffop.DiffOperator, "from_json"),
        "verify": (FAMILY, eigenfam, "corollary42_operator"),
        "classify": (OPERATOR, diffop.DiffOperator, "from_json"),
        "duals": (FAMILY, eigenfam, "corollary42_operator"),
    }

    @pytest.mark.parametrize("command", sorted(FIRST_CALL))
    @pytest.mark.parametrize(
        "exc, code, line",
        [
            (errors.MissingCoefficient("boom"), cli.EXIT_INPUT, "input error: boom"),
            (errors.NotIsomorphism("boom"), cli.EXIT_FAIL, "verification failure: boom"),
            (
                errors.DegreeTooLarge("boom"),
                cli.EXIT_INTERNAL,
                "internal error: DegreeTooLarge: boom",
            ),
        ],
    )
    def test_exception_kind_sets_the_outcome(
        self, monkeypatch, capsys, command, exc, code, line
    ):
        argv, owner, name = self.FIRST_CALL[command]

        def first_call(*args):
            raise exc

        monkeypatch.setattr(owner, name, first_call)
        assert cli.main([command, *argv]) == code
        if command == "eigen":  # eigen names its failures "error:"
            line = line.replace("verification failure: ", "error: ")
        assert capsys.readouterr() == ("", line + "\n")

    def test_argparse_outcomes_are_returned(self, capsys):
        assert cli.main(["verify", "-M", "two"]) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: dortho verify ")
        assert err.endswith("dortho verify: error: argument -M: invalid int value: 'two'\n")
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: dortho ")

    @pytest.mark.parametrize("command", sorted(FIRST_CALL))
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_an_output_error(self, command, unbuffered):
        # the reader is gone before the CLI starts, so its write (unbuffered)
        # or its flush (buffered) fails with EPIPE; the one stderr line is the
        # whole of stderr, and nothing is reported at interpreter exit
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "dortho", command, *self.FIRST_CALL[command][0]],
                stdout=write,
                stderr=subprocess.PIPE,
                env=dortho_env(PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write)
        assert r.returncode == cli.EXIT_INPUT
        assert r.stderr == b"input error: cannot write output: [Errno 32] Broken pipe\n"

    def test_stdout_closed_at_start_is_an_output_error(self):
        r = subprocess.run(
            [sys.executable, "-m", "dortho", "classify", *self.OPERATOR],
            stderr=subprocess.PIPE,
            env=dortho_env(),
            preexec_fn=lambda: os.close(1),
        )
        assert r.returncode == cli.EXIT_INPUT
        assert r.stderr == b"input error: cannot write output: stdout is closed\n"

    @pytest.mark.parametrize(
        "argv, code, golden",
        [
            (
                ["eigen", "--operator", "malformed.json", "-n", "3"],
                cli.EXIT_INPUT,
                "eigen_malformed.out",
            ),
            (
                ["verify", "--operator", "linear_cubic.json", "-N", "8"],
                cli.EXIT_FAIL,
                "verify_linear_cubic.out",
            ),
        ],
        ids=["bad-input", "failing-verify"],
    )
    def test_stderr_closed_at_start_keeps_the_exit_code(self, argv, code, golden):
        # with descriptor 2 closed the interpreter starts with sys.stderr None;
        # the stderr line is dropped, and the exit code and stdout stand
        r = subprocess.run(
            [sys.executable, "-m", "dortho", *argv],
            stdout=subprocess.PIPE,
            cwd=GOLDEN,
            env=dortho_env(),
            preexec_fn=lambda: os.close(2),
        )
        assert r.returncode == code
        assert r.stdout == (GOLDEN / golden).read_bytes()

    def test_failing_stderr_drops_the_line(self, monkeypatch, capsys):
        # a stderr whose write fails (a descriptor reused for reading, say)
        class Gone(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        monkeypatch.setattr(sys, "stderr", Gone())
        argv = ["verify", "--operator", str(GOLDEN / "linear_cubic.json"), "-N", "8"]
        assert cli.main(argv) == cli.EXIT_FAIL
        assert capsys.readouterr().out == (GOLDEN / "verify_linear_cubic.out").read_text()

    def test_failed_stream_without_a_descriptor(self, monkeypatch, capsys):
        # an in-process stdout such as io.StringIO has no descriptor to park
        class Gone(io.StringIO):
            def writelines(self, pieces):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        assert cli.main(["classify", *self.OPERATOR]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "input error: cannot write output: [Errno 32] Broken pipe\n"


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, which no part of the CLI needs, and a
    # request's start-up pays for every module it loads; -S keeps the
    # site-packages' own imports out of the count
    code = "import sys, dortho.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dortho_env(),
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_one_parser_serves_every_request(capsys):
    """main builds its parser once per process; a failed parse leaves it
    fit for the next request, and each request answers as a fresh parser
    would."""
    requests = [
        ["duals", "--family", "corollary42", "-M", "two"],
        ["duals", "--family", "corollary42", "-N", "6", "-M", "2"],
        ["verify", "--family", "corollary42", "-N", "6", "-M", "2"],
    ]

    def answer(argv):
        return (cli.main(argv), *capsys.readouterr())

    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(answer(argv))
    cli._parser.cache_clear()
    shared = [answer(argv) for argv in requests]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [cli.EXIT_INPUT, cli.EXIT_OK, cli.EXIT_OK]
    assert "invalid int value: 'two'" in shared[0][2]


# JSON-shaped file contents: every JSON type, rational strings with a zero
# denominator, ints past Python's 4300-digit parse limit, and floats that
# json writes as Infinity/NaN.  Sizes stay small so each run is quick.
# json cannot write an int that long, so the file holds BIG_INT's text in
# place of BIG_INT.
BIG_INT = "<10**4400>"
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from([10**80, -(10**300)]),
    st.just(BIG_INT),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/0", "0/0", "1/2", "-3", "2.5", "1e3", "x", "", "0000", "[1]"]),
    st.text(max_size=3),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=2), inner, max_size=3)
    ),
    max_leaves=12,
)
small_ints = st.integers(-3, 3)


@st.composite
def rational_lists(draw, min_size=4):
    """Small ints, long enough for the probe below; now and then one entry
    is any JSON leaf."""
    values = draw(st.lists(small_ints, min_size=min_size, max_size=6))
    if values and draw(st.integers(0, 5)) == 5:
        values[draw(st.integers(0, len(values) - 1))] = draw(json_leaves)
    return values


def spoiled(well_shaped):
    """A well-shaped object, as it is or with one key dropped or replaced
    by any JSON value, or any JSON value in its place."""

    @st.composite
    def draw_one(draw):
        obj = draw(well_shaped)
        how = draw(st.sampled_from(["as is", "replace", "drop", "any"]))
        if how == "any":
            return draw(json_values)
        if how != "as is":
            key = draw(st.sampled_from(sorted(obj)))
            if how == "drop":
                del obj[key]
            else:
                obj[key] = draw(json_values)
        return obj

    return draw_one()


tables_files = spoiled(
    st.sampled_from([1, 2, 3]).flatmap(
        lambda d: st.fixed_dictionaries(
            {
                "d": st.just(d),
                "beta": rational_lists(),
                "alpha": rational_lists(),
                "gamma": rational_lists(),
                "levels": st.lists(rational_lists(), min_size=d, max_size=d),
            }
        )
    )
)
# a_v cut to at most v + 1 coefficients is degree-non-increasing
operator_files = spoiled(
    st.integers(0, 4).flatmap(
        lambda order: st.tuples(
            *[
                rational_lists(min_size=0).map(lambda cs, v=v: cs[: v + 1])
                for v in range(order + 1)
            ]
        )
    ).map(lambda coeffs: {"a": list(coeffs)})
)
operator_argvs = st.sampled_from(
    [("eigen", "-n", "2"), ("classify",), ("verify", "-N", "2")]
)


def run_in_process(argv, data):
    """cli.main(argv) with {file} in argv bound to a file holding data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(data).replace(json.dumps(BIG_INT), "1" + "0" * 4400))
        argv = [path if a == "{file}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


class TestFileInputFuzz:
    """Any JSON in a tables or operator file ends in exit 0, 1 or 2."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tables_files)
    def test_tables_file(self, data):
        code, err = run_in_process(["duals", "--tables", "{file}", "-N", "2", "-M", "1"], data)
        assert code in (0, 1, 2), err

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(operator_files, operator_argvs)
    def test_operator_file(self, data, argv):
        code, err = run_in_process([argv[0], "--operator", "{file}", *argv[1:]], data)
        assert code in (0, 1, 2), err
