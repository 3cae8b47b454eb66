"""Batch CLI with JSON input/output and stable, exact-rational output.

Subcommands: eigen, verify, classify, duals.  Each cmd_* returns the JSON
object it answers with; main alone writes it and maps every outcome to an
exit code and at most one stderr line: 0 when any report in it passed;
1 on a failed report (its first failure named) or a VerificationFailure;
2 on an InputError ("input error: ..."), output that cannot be written (a
closed stdout too) and arguments argparse rejects (its usage and error
text; --help returns 0); 3 on anything else ("internal error: <Type>:
<message>").  A stderr that is closed drops the line, not the code.
errors.py sorts the library's exceptions into the two kinds.
Numbers are written as canonical rational strings, never floats, so
outputs are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import eigenfam, seqkit
from .diffop import DiffOperator, classify, lambda_poly
from .errors import DegreeViolation, InputError, VerificationFailure
from .polycore import pair_to_str, rational_from_json, rational_to_str
from .report import VerificationReport, poly_witness, write

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

DEFAULT_N = 15
DEFAULT_M = 6

# Cap on the degrees a user asks for: eigen's n, verify's and duals' N, and
# the degree seqkit.probe_degree(d, M) that the d-orthogonality probe to M
# needs.
# verify reads a few degrees past its N (an operator's table to degree
# N + 6, a family's sequence to P_(N+5)) and checks every identity on x-rows
# alone.  Only a failing family-mode check builds polynomials, for its
# witness, so the largest the CLI can build is P_(MAX_DEGREE + 5), on a
# failure path.  P_405 of the corollary 4.2 family takes about a second to
# build; by P_800 its exact coefficients pass Python's 4300-digit
# int-to-str limit.
MAX_DEGREE = 400

# Cap on an operator's order.  Every command classifies its operator, and
# the root screen under classify runs a tower of order + 1 forward
# differences of the diagonal sum: for a_0 = 1, a_v = x^v, classify takes
# about 0.03 s at order 32, 1.3 s at order 64 and 26 s at order 100 (in
# process, on 2 cores).  At order 32 and degree 400, verify takes about
# 0.1 s and eigen 0.04 s.
MAX_ORDER = 32


def _probe_bounds(args, d: int = 2) -> tuple:
    """(N, M) from the flags or their defaults, both required >= 0 and
    within MAX_DEGREE for a d-orthogonality probe.  The probe to M = 0
    already needs degree d - 1, so d itself is checked first."""
    N = args.N if args.N is not None else DEFAULT_N
    M = args.M if args.M is not None else DEFAULT_M
    if d - 1 > MAX_DEGREE:
        raise InputError(f"d must be <= {MAX_DEGREE + 1}")
    if N < 0:
        raise InputError("N must be >= 0")
    if M < 0:
        raise InputError("M must be >= 0")
    if N > MAX_DEGREE:
        raise InputError(f"N must be <= {MAX_DEGREE}")
    if seqkit.probe_degree(d, M) > MAX_DEGREE:
        raise InputError(f"M must be <= {(MAX_DEGREE - d + 1) // (d + 1)} for d = {d}")
    return N, M


def _emit(obj: dict, out_path) -> None:
    """Write obj to out_path, or to stdout without one, as json.dumps(obj,
    indent=2) + "\\n" byte for byte: every piece of report.write first, so a
    TypeError writes nothing, then one writelines.  An out_path or stdout
    that cannot be written is an InputError (exit 2); a failed stdout's
    descriptor, if it has one, then points at devnull, so that the flush at
    interpreter exit cannot fail too."""
    pieces = []
    write(obj, pieces)
    pieces.append("\n")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"cannot write output file: {exc}")
        return
    if sys.stdout is None:  # the process started with its stdout closed
        raise InputError("cannot write output: stdout is closed")
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        with open(os.devnull, "w") as null, contextlib.suppress(io.UnsupportedOperation):
            os.dup2(null.fileno(), sys.stdout.fileno())  # if stdout has a descriptor
        raise InputError(f"cannot write output: {exc}")


def _load_operator(path: str) -> DiffOperator:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read operator file: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InputError(f"malformed operator JSON: {exc}")
    try:
        J = DiffOperator.from_json(data)
    except (DegreeViolation, ValueError, TypeError, ArithmeticError) as exc:
        raise InputError(f"invalid operator: {exc}")
    if J.order > MAX_ORDER:
        raise InputError(f"operator order must be <= {MAX_ORDER}")
    return J


def _parse_params(raw) -> list:
    if raw is None:
        return []
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise InputError(f"malformed params JSON: {exc}")
    if not isinstance(raw, list):
        raise InputError("params must be a JSON array")
    try:
        return [rational_from_json(x) for x in raw]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational in params: {exc}")


def _family_setup(family: str, params: list):
    """Returns (operator, closed-form table factory)."""
    if family == "case1":
        if len(params) != 5:
            raise InputError("case1 takes 5 params: [a00, a01, a11, a02, a03]")
        build, coeffs = eigenfam.case1_operator, eigenfam.case1_coeffs
    elif family == "case2":
        if len(params) != 6:
            raise InputError("case2 takes 6 params: [a00, a01, a11, a03, a13, a23]")
        build, coeffs = eigenfam.case2_operator, eigenfam.case2_coeffs
    elif family == "corollary42":
        if len(params) > 1:
            raise InputError("corollary42 takes at most 1 param: [a00]")
        J = eigenfam.corollary42_operator(params[0] if params else Fraction(1))
        return J, (lambda N: eigenfam.corollary42_coeffs(N))
    else:
        raise InputError(f"unknown family: {family}")
    J = build(*params)
    return J, (lambda N: coeffs(J, N))


def _record_tables_match(report: VerificationReport, rt_closed, rt_oracle, N: int):
    """beta_0..beta_N, alpha_1..alpha_N and gamma_1..gamma_(N-1) of the
    closed-form table against the oracle's, compared as reduced pairs; a
    mismatch carries both values."""
    for name, ns, read in (
        ("beta", range(N + 1), lambda rt, n: rt.beta_pair(n)),
        ("alpha", range(1, N + 1), lambda rt, n: rt.level_pair(1, n)),
        ("gamma", range(1, N), lambda rt, n: rt.level_pair(0, n)),
    ):

        def failures(n):
            a, b = read(rt_closed, n), read(rt_oracle, n)
            if a != b:
                return [{"closed": pair_to_str(*a), "oracle": pair_to_str(*b)}]

        report.record_block((f"{name}-match",), ns, failures)


def cmd_eigen(args) -> dict:
    J = _load_operator(args.operator)
    n = args.n
    if n < 0:
        raise InputError("n must be >= 0")
    if n > MAX_DEGREE:
        raise InputError(f"n must be <= {MAX_DEGREE}")
    p = eigenfam.eigenpoly(J, n)
    return {
        "n": n,
        "lambda": rational_to_str(lambda_poly(J, 0).values((n,))[0]),
        "poly": p.to_json(),
    }


def cmd_verify(args) -> dict:
    N, M = _probe_bounds(args)

    if args.operator and args.family:
        raise InputError("give either --operator or --family, not both")
    if args.params is not None and not args.family:
        raise InputError("--params needs --family")
    if args.M is not None and args.operator:
        raise InputError("-M needs --family")

    if args.operator:
        # derive mode: recover the tables from the eigen-oracle first
        J = _load_operator(args.operator)
        rt, report, seq, diag = eigenfam.derive_recurrence(J, N + 5)
        report.extend(eigenfam.verify_expansions(J, seq, N, diag))
        out = {"mode": "derive", "N": N, "tables": rt.to_json()}
    else:
        if not args.family:
            raise InputError("verify needs --family or --operator")
        J, table_factory = _family_setup(args.family, _parse_params(args.params))
        # the independent oracle's table first, tied to the closed form's below
        rt_oracle, diag = eigenfam.oracle_table(J, N)
        eigenfam.check_gamma(rt_oracle, N)
        # the derivative sequence is one degree shorter than seq, so seq
        # reaches one past the d-orthogonality probe's degree
        probe_deg = max(N + 1, seqkit.probe_degree(2, M) + 1)
        rt = table_factory(max(N + 5, probe_deg))
        full = seqkit.generate(rt, max(N + 5, probe_deg))
        report = eigenfam.verify_expansions(J, full, N, diag)

        # eigen identity + the closed-form table against the oracle's
        seq = full.prefix(probe_deg)
        eigen = [("eigen-identity", J, 0, 0, lambda n: [(n, diag.at(0, n))])]
        eigenfam.check_expansions(report, full, range(N + 1), diag.A, eigen)
        _record_tables_match(report, rt, rt_oracle, N)

        # d-orthogonality of the family and of its derivative sequence
        report.extend(seqkit.check_d_orthogonality(seq, 2, M))
        dseq = seqkit.derivative_sequence(seq)
        if args.family == "case1":
            same = next((k for k in range(N) if dseq.pair_rows[k] != seq.pair_rows[k]), N)

            def failures(n):  # Q's rows below n <= same are P's, so Q_n = P_n
                witness = None if n <= same else poly_witness(dseq[n], seq[n])
                return witness and [witness]

            report.record_block(("appell",), range(N + 1), failures)
        else:
            report.extend(seqkit.check_d_orthogonality(dseq, 2, M))
        out = {"mode": "family", "family": args.family, "N": N, "M": M}

    out["report"] = report
    return out


def cmd_classify(args) -> dict:
    J = _load_operator(args.operator)
    out = classify(J)
    if out["class"] == "isomorphism" and J.order <= 3:
        out.update(eigenfam.classify_solvability(J))
    return out


def cmd_duals(args) -> dict:
    if args.tables and args.family:
        raise InputError("give either --tables or --family, not both")
    if args.params is not None and not args.family:
        raise InputError("--params needs --family")
    if args.tables:
        try:
            with open(args.tables) as fh:
                rt = seqkit.RecurrenceTable.from_json(json.load(fh))
        except (OSError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad tables file: {exc}")
        N, M = _probe_bounds(args, rt.d)
    elif args.family:
        N, M = _probe_bounds(args)
        _, table_factory = _family_setup(args.family, _parse_params(args.params))
        rt = table_factory(max(N, seqkit.probe_degree(2, M)))
    else:
        raise InputError("duals needs --family or --tables")
    d = rt.d
    seq = seqkit.generate(rt, max(N, seqkit.probe_degree(d, M)))
    moments = seqkit.dual_moments(seq, d)
    return {
        "d": d,
        "N": N,
        "M": M,
        "moments": [[pair_to_str(*v) for v in row] for row in moments],
        "report": seqkit.check_d_orthogonality(seq, d, M),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dortho",
        description="Exact verification of differential identities for "
        "2-orthogonal polynomial sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # stderr lines for a VerificationFailure and a failed report's first failure
    failure = "verification failure: {}"

    p = sub.add_parser("eigen", help="monic eigenpolynomial of an operator")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("-n", type=int, required=True, help="degree")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eigen, failure="error: {}")

    p = sub.add_parser("verify", help="verify all identities for a family")
    p.add_argument("--family", choices=["case1", "case2", "corollary42"])
    p.add_argument("--params", default=None, help="JSON array of rationals")
    p.add_argument("--operator", default=None, help="operator JSON file (derive mode)")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("-M", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(
        func=cmd_verify,
        failure=failure,
        report_failure="verification failure: {identity} at {n}",
    )

    p = sub.add_parser("classify", help="classify an operator")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify, failure=failure)

    p = sub.add_parser("duals", help="dual moments and d-orthogonality probe")
    p.add_argument("--family", choices=["case1", "case2", "corollary42"])
    p.add_argument("--params", default=None, help="JSON array of rationals")
    p.add_argument("--tables", default=None, help="recurrence-table JSON file")
    p.add_argument("-N", type=int, default=None)
    p.add_argument("-M", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(
        func=cmd_duals,
        failure=failure,
        report_failure="orthogonality failure at (m, nu, n) = {n}",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process; parse_args leaves
    it unchanged, so every later request reuses it."""
    return build_parser()


def _say(line: str) -> None:
    """Write line to stderr.  A stderr closed at start (None) or failing on
    write drops the line, so the exit code still tells the outcome."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.write(line + "\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse wrote its usage, or --help
        return exc.code
    try:
        out = args.func(args)
        _emit(out, args.out)
        report = out.get("report")
        if report is not None and not report.passed:
            _say(args.report_failure.format_map(report.first_failure()))
            return EXIT_FAIL
        return EXIT_OK
    except InputError as exc:
        _say(f"input error: {exc}")
        return EXIT_INPUT
    except VerificationFailure as exc:
        _say(args.failure.format(exc))
        return EXIT_FAIL
    except Exception as exc:
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
