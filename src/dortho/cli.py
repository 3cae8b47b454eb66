"""Batch CLI with JSON input/output and stable, exact-rational output.

Subcommands: eigen, verify, classify, duals.  Exit codes: 0 on pass,
1 on verification failure, 2 on input/validation error.  All numbers
are emitted as canonical rational strings, never floats, so outputs are
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import eigenfam, seqkit
from .diffop import DiffOperator, classify, lambda_at
from .errors import (
    DegreeViolation,
    DorthoError,
    EigenvalueCollision,
    NotIsomorphism,
    NotTwoOrthogonal,
)
from .polycore import rational_to_str
from .report import VerificationReport

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

DEFAULT_N = 15
DEFAULT_M = 6

# Largest polynomial degree the CLI builds: eigen's n, verify's and duals' N,
# and the degree (d + 1)M + d - 1 that the d-orthogonality probe to M needs.
# P_400 of the corollary 4.2 operator takes a few seconds; by P_800 its exact
# coefficients pass Python's 4300-digit int-to-str limit.
MAX_DEGREE = 400


class InputError(Exception):
    pass


def _default_bound() -> int:
    env = os.environ.get("DORTHO_PROBE_BOUND")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"DORTHO_PROBE_BOUND is not an integer: {env!r}")
    return DEFAULT_N


def _probe_bounds(args, d: int = 2) -> tuple:
    """(N, M) from the flags or their defaults, both required >= 0 and
    within MAX_DEGREE for a d-orthogonality probe."""
    N = args.N if args.N is not None else _default_bound()
    M = args.M if args.M is not None else DEFAULT_M
    if N < 0:
        raise InputError("N must be >= 0")
    if M < 0:
        raise InputError("M must be >= 0")
    if N > MAX_DEGREE:
        raise InputError(f"N must be <= {MAX_DEGREE}")
    if (d + 1) * M + d - 1 > MAX_DEGREE:
        raise InputError(f"M must be <= {(MAX_DEGREE - d + 1) // (d + 1)} for d = {d}")
    return N, M


def _emit(obj: dict, out_path) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_operator(path: str) -> DiffOperator:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read operator file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed operator JSON: {exc}")
    try:
        return DiffOperator.from_json(data)
    except DegreeViolation as exc:
        raise InputError(f"invalid operator: {exc}")
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise InputError(f"invalid operator: {exc}")


def _parse_params(raw) -> list:
    if raw is None:
        return []
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed params JSON: {exc}")
    if not isinstance(raw, list):
        raise InputError("params must be a JSON array")
    try:
        return [Fraction(str(x)) for x in raw]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational in params: {exc}")


def _family_setup(family: str, params: list):
    """Returns (operator, closed-form table factory, family tag)."""
    if family == "case1":
        if len(params) != 5:
            raise InputError("case1 takes 5 params: [a00, a01, a11, a02, a03]")
        try:
            p = eigenfam.Case1Params(*params)
        except DorthoError as exc:
            raise InputError(str(exc))
        return p.operator(), (lambda N: eigenfam.case1_coeffs(p, N)), "case1"
    if family == "case2":
        if len(params) != 6:
            raise InputError(
                "case2 takes 6 params: [a00, a01, a11, a03, a13, a23]"
            )
        try:
            p = eigenfam.Case2Params(*params)
        except DorthoError as exc:
            raise InputError(str(exc))
        return p.operator(), (lambda N: eigenfam.case2_coeffs(p, N)), "case2"
    if family == "corollary42":
        if len(params) > 1:
            raise InputError("corollary42 takes at most 1 param: [a00]")
        a00 = params[0] if params else Fraction(1)
        J = eigenfam.corollary42_operator(a00)
        return J, (lambda N: eigenfam.corollary42_coeffs(N)), "corollary42"
    raise InputError(f"unknown family: {family}")


def _tables_match_report(rt_closed, rt_oracle, N: int) -> VerificationReport:
    rep = VerificationReport()
    for n in range(N + 1):
        rep.record(
            "beta-match",
            n,
            rt_closed.beta(n) == rt_oracle.beta(n),
            witness={
                "closed": rational_to_str(rt_closed.beta(n)),
                "oracle": rational_to_str(rt_oracle.beta(n)),
            }
            if rt_closed.beta(n) != rt_oracle.beta(n)
            else None,
        )
    for n in range(1, N + 1):
        rep.record("alpha-match", n, rt_closed.alpha(n) == rt_oracle.alpha(n))
    for n in range(1, N):
        rep.record("gamma-match", n, rt_closed.gamma(n) == rt_oracle.gamma(n))
    return rep


def cmd_eigen(args) -> int:
    J = _load_operator(args.operator)
    n = args.n
    if n < 0:
        raise InputError("n must be >= 0")
    if n > MAX_DEGREE:
        raise InputError(f"n must be <= {MAX_DEGREE}")
    try:
        p = eigenfam.eigenpoly(J, n)
    except (EigenvalueCollision, NotIsomorphism) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    _emit(
        {
            "n": n,
            "lambda": rational_to_str(lambda_at(J, 0, n)),
            "poly": p.to_json(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    N, M = _probe_bounds(args)

    if args.operator and args.family:
        raise InputError("give either --operator or --family, not both")

    if args.operator:
        # derive mode: recover the tables from the eigen-oracle first
        J = _load_operator(args.operator)
        try:
            rt, shape_report = eigenfam.derive_recurrence(J, N + 5)
        except NotTwoOrthogonal as exc:
            sys.stderr.write(f"verification failure: {exc}\n")
            return EXIT_FAIL
        except (EigenvalueCollision, NotIsomorphism) as exc:
            sys.stderr.write(f"verification failure: {exc}\n")
            return EXIT_FAIL
        report = VerificationReport()
        report.extend(shape_report)
        report.extend(eigenfam.verify_expansions(J, rt, N))
        out = {"mode": "derive", "N": N, "tables": rt.to_json()}
        family = None
    else:
        if not args.family:
            raise InputError("verify needs --family or --operator")
        J, table_factory, family = _family_setup(args.family, _parse_params(args.params))
        probe_deg = max(N + 1, 3 * M + 2)
        rt = table_factory(max(N + 5, probe_deg))
        report = eigenfam.verify_expansions(J, rt, N, family=family)

        # eigen identity + independent oracle recovery of the tables
        seq = seqkit.generate(rt, probe_deg)
        for n in range(N + 1):
            lam = lambda_at(J, 0, n)
            report.check("eigen-identity", n, J.apply(seq[n]), seq[n].scale(lam))
        try:
            rt_oracle, _ = eigenfam.derive_recurrence(J, N)
        except (NotTwoOrthogonal, EigenvalueCollision, NotIsomorphism) as exc:
            sys.stderr.write(f"verification failure: {exc}\n")
            return EXIT_FAIL
        report.extend(_tables_match_report(rt, rt_oracle, N))

        # d-orthogonality of the family and of its derivative sequence
        report.extend(seqkit.check_d_orthogonality(seq, 2, M))
        dseq = seqkit.derivative_sequence(seq)
        if family == "case1":
            for n in range(N + 1):
                report.check("appell", n, dseq[n], seq[n])
        else:
            report.extend(seqkit.check_d_orthogonality(dseq, 2, M))
        out = {"mode": "family", "family": family, "N": N, "M": M}

    out["report"] = report.to_json()
    _emit(out, args.out)
    if not report.passed:
        first = report.first_failure()
        sys.stderr.write(
            f"verification failure: {first.identity} at {first.index}\n"
        )
        return EXIT_FAIL
    return EXIT_OK


def cmd_classify(args) -> int:
    J = _load_operator(args.operator)
    bound = max(_default_bound(), J.order + 1)
    cls = classify(J, bound)
    out = cls.to_json()
    if cls.tag == "isomorphism" and J.order <= 3:
        sol = eigenfam.classify_solvability(eigenfam.ThirdOrderParams.from_operator(J))
        out.update(sol.to_json())
    _emit(out, args.out)
    return EXIT_OK


def cmd_duals(args) -> int:
    if args.tables:
        try:
            with open(args.tables) as fh:
                rt = seqkit.RecurrenceTable.from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad tables file: {exc}")
        N, M = _probe_bounds(args, rt.d)
    elif args.family:
        N, M = _probe_bounds(args)
        _, table_factory, _ = _family_setup(args.family, _parse_params(args.params))
        rt = table_factory(max(N, 3 * M + 2))
    else:
        raise InputError("duals needs --family or --tables")
    d = rt.d

    top = max(N, d * M + (d - 1) + M)
    try:
        seq = seqkit.generate(rt, top)
    except DorthoError as exc:
        raise InputError(str(exc))
    moments = seqkit.dual_moments(seq, d)
    report = seqkit.check_d_orthogonality(seq, d, M)
    _emit(
        {
            "d": d,
            "N": N,
            "M": M,
            "moments": moments.to_json(),
            "report": report.to_json(),
        },
        args.out,
    )
    if not report.passed:
        first = report.first_failure()
        sys.stderr.write(
            f"orthogonality failure at (m, nu, n) = {first.index}\n"
        )
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dortho",
        description="Exact verification of differential identities for "
        "2-orthogonal polynomial sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="monic eigenpolynomial of an operator")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("-n", type=int, required=True, help="degree")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", help="verify all identities for a family")
    p.add_argument("--family", choices=["case1", "case2", "corollary42"])
    p.add_argument("--params", default=None, help="JSON array of rationals")
    p.add_argument("--operator", default=None, help="operator JSON file (derive mode)")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("-M", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify an operator")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("duals", help="dual moments and d-orthogonality probe")
    p.add_argument("--family", choices=["case1", "case2", "corollary42"])
    p.add_argument("--params", default=None, help="JSON array of rationals")
    p.add_argument("--tables", default=None, help="recurrence-table JSON file")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("-M", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_duals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except DegreeViolation as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
