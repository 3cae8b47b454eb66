"""Checks of the benchmark's own trace.

    python3 -m pytest -q perfbench/test_perfbench.py

Small requests keep this quick; they are built the way the workloads
build theirs, with verdicts from the same closed-form oracle.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from dortho import cli  # noqa: E402

DUALS_M = 4


def _requests():
    case1 = {"a00": Fraction(3, 2), "a01": Fraction(1, 3), "a11": Fraction(2, 5),
             "a02": Fraction(-7, 3), "a03": Fraction(5, 4)}
    case2 = {"a00": Fraction(1), "a01": Fraction(-1, 2), "a11": Fraction(3),
             "a03": Fraction(2), "a13": Fraction(4), "a23": Fraction(2)}
    beta, alpha, gamma = wl.case2_table(case2, 3 * DUALS_M + 2)
    zeroed = list(gamma)
    zeroed[4] = Fraction(0)  # gamma_5
    params = json.dumps([str(q) for q in wl.case2_params(case2)])
    return [
        wl.Request("case2", ("verify", "--family", "case2", "--params", params,
                             "-N", "8", "-M", "3"), None, 0),
        wl.Request("case1", ("verify", "--operator", "{file}", "-N", "8"),
                   wl.case1_operator(case1), 0),
        wl.Request("linear-a3", ("verify", "--operator", "{file}", "-N", "8"),
                   wl.operator_json(["1"], ["0", "1"], [], ["0", "1"]), 1,
                   "verification failure: chi_("),
        wl.Request("d2-zeroed-gamma",
                   ("duals", "--tables", "{file}", "-N", "2", "-M", str(DUALS_M)),
                   wl.tables_json(beta, alpha, zeroed), 1, wl.zeroed_gamma_failure(5)),
    ]


@pytest.fixture(scope="module")
def traced_twice():
    mods = layertrace.load_modules()
    reqs = _requests()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        return [run.run_traced(cli, mods, reqs, {}, path, seed=0) for _ in range(2)]


def test_traced_and_untraced_agree(traced_twice):
    # run_traced compares every traced outcome with the plain pass's exit
    # code and stdout digest, and each with the request's known verdict
    for res in traced_twice:
        assert res["faults"] == []
        assert res["failed"] == 0


def test_counts_repeat_exactly(traced_twice):
    first, second = (res["metrics"] for res in traced_twice)
    exact = [
        name for name in first
        if name.endswith(("_calls", "_ratio", "_bits", "fraction_ops"))
        or name.startswith("report.checked.") or name == "report.failed"
    ]
    assert "polycore.fraction_ops" in exact and "seqkit.expand_in_basis_calls" in exact
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_expand_in_basis_calls_match_closed_form():
    """A duals request expands once per (m, nu, n) probe and once per
    dual_moments row x**0..x**top."""
    d, M = 2, DUALS_M
    top = d * M + (d - 1) + M
    probes = sum(
        1 + (top - m) - (m * d + nu) for m in range(M + 1) for nu in range(d)
    )
    req = _requests()[-1]
    with tempfile.TemporaryDirectory() as tmp:
        res = run.run_traced(
            cli, layertrace.load_modules(), [req], {}, os.path.join(tmp, "t.json"), 0
        )
    assert res["faults"] == []
    assert res["metrics"]["seqkit.expand_in_basis_calls"] == probes + (top + 1)


def test_zeroed_gamma_rule_matches_criterion_8():
    # the acceptance gate zeroes gamma_3 and expects (2, 0, 4)
    assert wl.zeroed_gamma_failure(3) == (2, 0, 4)
