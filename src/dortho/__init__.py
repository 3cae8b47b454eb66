"""Exact-rational calculus of degree-non-increasing differential operators
and the 2-orthogonal polynomial eigenfamilies they generate."""

from .diffop import (
    DiffOperator,
    classify,
    from_action,
    lambda_at,
    lambda_poly,
    leibniz_expand,
)
from .eigenfam import (
    case1_coeffs,
    case1_operator,
    case2_coeffs,
    case2_constants,
    case2_operator,
    classify_solvability,
    corollary42_coeffs,
    corollary42_operator,
    derive_recurrence,
    eigenpoly,
    verify_expansions,
)
from .polycore import Poly, binomial, rational_from_json, rational_to_str
from .report import VerificationReport
from .seqkit import (
    BasisExpansion,
    MonicSequence,
    RecurrenceTable,
    check_d_orthogonality,
    derivative_sequence,
    dual_moments,
    expand_in_basis,
    generate,
    structure_coeffs,
)

__version__ = "0.1.0"

# One arithmetic path; kept as a constant because benchmark run records report it.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BasisExpansion",
    "DiffOperator",
    "MonicSequence",
    "Poly",
    "RecurrenceTable",
    "VerificationReport",
    "binomial",
    "case1_coeffs",
    "case1_operator",
    "case2_coeffs",
    "case2_constants",
    "case2_operator",
    "check_d_orthogonality",
    "classify",
    "classify_solvability",
    "corollary42_coeffs",
    "corollary42_operator",
    "derivative_sequence",
    "derive_recurrence",
    "dual_moments",
    "eigenpoly",
    "expand_in_basis",
    "from_action",
    "generate",
    "lambda_at",
    "lambda_poly",
    "leibniz_expand",
    "rational_from_json",
    "rational_to_str",
    "structure_coeffs",
    "verify_expansions",
]
