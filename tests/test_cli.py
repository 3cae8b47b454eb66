"""Golden-file and exit-code tests for the command-line driver."""

import pytest

from conftest import GOLDEN, run_cli


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


class TestDuals:
    def test_explicit_family_passes(self):
        r = run_cli("duals", "--family", "corollary42", "-N", "20", "-M", "6")
        assert_golden(r, "duals_corollary.out", 0)

    def test_mutated_tables_fail(self):
        r = run_cli("duals", "--tables", "mutated_tables.json", "-M", "6")
        assert_golden(r, "duals_mutated.out", 1)
        assert b"(2, 0, 4)" in r.stderr


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

    def test_negative_env_bound_is_input_error(self):
        r = run_cli("verify", "--family", "corollary42", DORTHO_PROBE_BOUND="-3")
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr == b"input error: N must be >= 0\n"

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

    def test_scalar_beta_in_tables_is_input_error(self, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text('{"d": 2, "beta": 5, "alpha": [1], "gamma": [1]}')
        r = run_cli("duals", "--tables", str(tables), "-M", "1")
        assert r.returncode == 2, r.stderr.decode()
        assert r.stderr.startswith(b"input error: bad tables file: ")


class TestOutFlag:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "eigen.json"
        r = run_cli(
            "eigen", "--operator", "corollary_operator.json", "-n", "3", "--out", str(target)
        )
        assert r.returncode == 0
        assert target.read_bytes() == (GOLDEN / "eigen_corollary_n3.out").read_bytes()


class TestProbeBoundEnv:
    def test_env_override(self, tmp_path):
        r = run_cli(
            "verify", "--family", "corollary42", "-M", "2", DORTHO_PROBE_BOUND="4"
        )
        assert r.returncode == 0
        assert b'"N": 4' in r.stdout
