"""Exact-rational calculus of degree-non-increasing differential operators
and the 2-orthogonal polynomial eigenfamilies they generate."""

from .diffop import (
    DiffOperator,
    EigenvalueTable,
    OperatorClass,
    classify,
    from_action,
    lambda_at,
    lambda_poly,
    lambda_table,
    leibniz_expand,
)
from .eigenfam import (
    Case1Params,
    Case2Params,
    SolvabilityResult,
    StepTwoCoeffs,
    ThirdOrderParams,
    case1_coeffs,
    case2_coeffs,
    classify_solvability,
    corollary42_coeffs,
    corollary42_operator,
    derive_recurrence,
    eigen_sequence,
    eigenpoly,
    steptwo_coeffs,
    verify_expansions,
)
from .polycore import Poly, Rational, binomial, rational_from_str, rational_to_str
from .report import ReportEntry, VerificationReport
from .seqkit import (
    BasisExpansion,
    DualMoments,
    MonicSequence,
    RecurrenceTable,
    StructureCoeffs,
    check_d_orthogonality,
    derivative_sequence,
    dual_moments,
    expand_in_basis,
    generate,
    multiply_by_x,
    structure_coeffs,
)

__version__ = "0.1.0"

# One arithmetic path; kept as a constant because benchmark run records report it.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BasisExpansion",
    "Case1Params",
    "Case2Params",
    "DiffOperator",
    "DualMoments",
    "EigenvalueTable",
    "MonicSequence",
    "OperatorClass",
    "Poly",
    "Rational",
    "RecurrenceTable",
    "ReportEntry",
    "SolvabilityResult",
    "StepTwoCoeffs",
    "StructureCoeffs",
    "ThirdOrderParams",
    "VerificationReport",
    "binomial",
    "case1_coeffs",
    "case2_coeffs",
    "check_d_orthogonality",
    "classify",
    "classify_solvability",
    "corollary42_coeffs",
    "corollary42_operator",
    "derivative_sequence",
    "derive_recurrence",
    "dual_moments",
    "eigen_sequence",
    "eigenpoly",
    "expand_in_basis",
    "from_action",
    "generate",
    "lambda_at",
    "lambda_poly",
    "lambda_table",
    "leibniz_expand",
    "multiply_by_x",
    "rational_from_str",
    "rational_to_str",
    "steptwo_coeffs",
    "structure_coeffs",
    "verify_expansions",
]
