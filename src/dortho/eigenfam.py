"""Eigenfamilies of third-order degree-preserving operators.

Two independent routes to the same recurrence tables are kept apart on
purpose: the brute-force eigen-solver (triangular linear solve per
degree) and the closed-form coefficient families.  Every displayed
basis expansion of the shifted operators is verified against direct
operator application, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import diffop
from .diffop import DiffOperator, EigenvalueTable, classify, lambda_at
from .errors import (
    DiscriminantNonzero,
    EigenvalueCollision,
    IndexOutOfRange,
    MissingCoefficient,
    NotIsomorphism,
    NotTwoOrthogonal,
    ZeroParameter,
)
from .polycore import Poly, Rational
from .report import VerificationReport
from .seqkit import MonicSequence, RecurrenceTable, generate, structure_coeffs


# -- parameter bundles -----------------------------------------------------


@dataclass(frozen=True)
class ThirdOrderParams:
    """Scalar coefficients a_i^[v] of a third-order operator.

    Field aIV holds the coefficient of x**I inside the order-V
    coefficient polynomial.
    """

    a00: Fraction
    a01: Fraction = Fraction(0)
    a11: Fraction = Fraction(0)
    a02: Fraction = Fraction(0)
    a12: Fraction = Fraction(0)
    a22: Fraction = Fraction(0)
    a03: Fraction = Fraction(0)
    a13: Fraction = Fraction(0)
    a23: Fraction = Fraction(0)
    a33: Fraction = Fraction(0)

    def operator(self) -> DiffOperator:
        return DiffOperator(
            [
                Poly([self.a00]),
                Poly([self.a01, self.a11]),
                Poly([self.a02, self.a12, self.a22]),
                Poly([self.a03, self.a13, self.a23, self.a33]),
            ]
        )

    @staticmethod
    def from_operator(J: DiffOperator) -> "ThirdOrderParams":
        if J.order > 3:
            raise ValueError("operator order exceeds 3")
        return ThirdOrderParams(
            a00=J.acoef(0, 0),
            a01=J.acoef(0, 1),
            a11=J.acoef(1, 1),
            a02=J.acoef(0, 2),
            a12=J.acoef(1, 2),
            a22=J.acoef(2, 2),
            a03=J.acoef(0, 3),
            a13=J.acoef(1, 3),
            a23=J.acoef(2, 3),
            a33=J.acoef(3, 3),
        )


@dataclass(frozen=True)
class Case1Params:
    """Constant-cubic-coefficient family: a_2 constant, a_3 constant nonzero."""

    a00: Fraction
    a01: Fraction
    a11: Fraction
    a02: Fraction
    a03: Fraction

    def __post_init__(self):
        if not self.a11:
            raise ZeroParameter("linear coefficient a_1^[1] must be nonzero")
        if not self.a03:
            raise ZeroParameter("constant coefficient a_0^[3] must be nonzero")

    def operator(self) -> DiffOperator:
        return DiffOperator(
            [
                Poly([self.a00]),
                Poly([self.a01, self.a11]),
                Poly([self.a02]),
                Poly([self.a03]),
            ]
        )


@dataclass(frozen=True)
class Case2Params:
    """Quadratic-cubic-coefficient family: a_2 = 0, a_3 of degree <= 2.

    The quadratic's coefficients must satisfy the vanishing-discriminant
    constraint (a_1^[3])**2 = 4 a_2^[3] a_0^[3]; it is enforced here
    because admissible operators require it.
    """

    a00: Fraction
    a01: Fraction
    a11: Fraction
    a03: Fraction
    a13: Fraction
    a23: Fraction

    def __post_init__(self):
        if not self.a11:
            raise ZeroParameter("linear coefficient a_1^[1] must be nonzero")
        if self.a13 * self.a13 - 4 * self.a23 * self.a03 != 0:
            raise DiscriminantNonzero(
                f"(a_1^[3])^2 - 4 a_2^[3] a_0^[3] = "
                f"{self.a13 * self.a13 - 4 * self.a23 * self.a03}"
            )

    def operator(self) -> DiffOperator:
        return DiffOperator(
            [
                Poly([self.a00]),
                Poly([self.a01, self.a11]),
                Poly.zero(),
                Poly([self.a03, self.a13, self.a23]),
            ]
        )

    # auxiliary constants of the quartic/sextic index polynomials

    @property
    def b_constants(self) -> tuple:
        a01, a11, a23, a13 = self.a01, self.a11, self.a23, self.a13
        b0 = Fraction(1, 2) * (
            -a13 / (2 * a11) + a01 * a23 / a11**2 + 10 * a23**2 / (12 * a11**2)
        )
        b1 = a23**2 / (3 * a11**2)
        b2 = a23**2 / (12 * a11**2)
        return (b0, b1, b2)

    @property
    def f_constants(self) -> tuple:
        a01, a11, a03, a13, a23 = self.a01, self.a11, self.a03, self.a13, self.a23
        f0 = (
            -18 * a03 * a11**2
            + 6 * a13 * a11 * (3 * a01 + a23)
            + a23 * (-18 * a01**2 - 12 * a23 * a01 + a23**2)
        ) / (108 * a11**3)
        f1 = a23 * (6 * a11 * a13 + a23 * (a23 - 12 * a01)) / (72 * a11**3)
        f2 = -a23 * (a23 * (12 * a01 + a23) - 6 * a11 * a13) / (216 * a11**3)
        f3 = -(a23**3) / (72 * a11**3)
        f4 = -(a23**3) / (216 * a11**3)
        return (f0, f1, f2, f3, f4)


# -- eigen-oracle ----------------------------------------------------------


def eigenpoly(J: DiffOperator, n: int) -> Poly:
    """The unique monic degree-n polynomial P with J(P) = lambda_n * P.

    Solves the triangular system for the non-leading coefficients from
    the top down; requires the eigenvalues below n to differ from
    lambda_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cls = classify(J, probe_bound=max(J.order + 1, n + 1))
    if cls.tag != "isomorphism":
        raise NotIsomorphism(f"operator classified as {cls.tag}")
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


def eigen_sequence(J: DiffOperator, N: int) -> MonicSequence:
    return MonicSequence(
        [eigenpoly(J, n) for n in range(N + 1)], provenance=("eigen", J)
    )


def derive_recurrence(J: DiffOperator, N: int):
    """Recover the d=2 recurrence tables from the eigen-oracle sequence.

    Builds P_0..P_(N+1), extracts structure coefficients, and demands
    the four-term shape: chi_(n,v) = 0 below the gamma diagonal and
    every gamma nonzero.  Returns (RecurrenceTable, VerificationReport).
    """
    seq = eigen_sequence(J, N + 1)
    sc = structure_coeffs(seq)
    report = VerificationReport()
    for n, row in enumerate(sc.chi):
        for nu in range(len(row) - 2):
            if row[nu] != 0:
                raise NotTwoOrthogonal(
                    f"chi_({n},{nu}) = {row[nu]} != 0", n=n, nu=nu
                )
        report.record("four-term-shape", n, True)
    gammas = [sc.gamma(m) for m in range(1, N)]
    for m, g in enumerate(gammas, start=1):
        if g == 0:
            raise NotTwoOrthogonal(f"gamma_{m} = 0", n=m)
    report.record("gamma-nonvanishing", (1, N - 1), True)
    rt = RecurrenceTable.two_orthogonal(
        beta=sc.beta,
        alpha=[sc.alpha(m) for m in range(1, N + 1)],
        gamma=gammas,
    )
    return rt, report


# -- closed-form families --------------------------------------------------


def case1_coeffs(p: Case1Params, N: int) -> RecurrenceTable:
    a01, a11, a02, a03 = p.a01, p.a11, p.a02, p.a03
    return RecurrenceTable.two_orthogonal(
        beta=[-a01 / a11 for _ in range(N + 1)],
        alpha=[-a02 * n / (2 * a11) for n in range(1, N + 1)],
        gamma=[-a03 * n * (n + 1) / (6 * a11) for n in range(1, N + 1)],
    )


def case2_coeffs(p: Case2Params, N: int) -> RecurrenceTable:
    a01, a11, a03, a13, a23 = p.a01, p.a11, p.a03, p.a13, p.a23
    b0, b1, b2 = p.b_constants
    f0, f1, f2, f3, f4 = p.f_constants

    def beta(n: int) -> Fraction:
        return -a23 * (n - 1) * n / (2 * a11) - a01 / a11

    def alpha(n: int) -> Fraction:
        m = n - 2
        return (
            -a13 / (2 * a11)
            + a01 * a23 / a11**2
            + m * (-3 * a13 / (4 * a11) + a23 * (9 * a01 + a23) / (6 * a11**2))
            + m**2 * (b0 + b1 * m + b2 * m**2)
        )

    def gamma(n: int) -> Fraction:
        m = n - 1
        return (
            -Fraction(1, 3)
            / a11
            * (a03 + a01 * (-a11 * a13 + a01 * a23) / a11**2)
            - m * (a11**2 * a03 - a01 * a11 * a13 + a01**2 * a23) / (2 * a11**3)
            + m**2 * (f0 + f1 * m + f2 * m**2 + f3 * m**3 + f4 * m**4)
        )

    return RecurrenceTable.two_orthogonal(
        beta=[beta(n) for n in range(N + 1)],
        alpha=[alpha(n) for n in range(1, N + 1)],
        gamma=[gamma(n) for n in range(1, N + 1)],
    )


def corollary42_operator(a00=Fraction(0)) -> DiffOperator:
    """The quadratic-cubic family specialization with a_1 = x/24, a_3 = (x-1)^2."""
    return DiffOperator(
        [
            Poly([a00]),
            Poly([0, Fraction(1, 24)]),
            Poly.zero(),
            Poly([1, -2, 1]),
        ]
    )


def corollary42_coeffs(N: int) -> RecurrenceTable:
    return RecurrenceTable.two_orthogonal(
        beta=[Fraction(-12 * (n - 1) * n) for n in range(N + 1)],
        alpha=[
            Fraction(12 * (n - 1) * n * (2 * n - 3) ** 2) for n in range(1, N + 1)
        ],
        gamma=[
            Fraction(-4 * n * (n + 1) * (2 * n - 3) ** 2 * (2 * n - 1) ** 2)
            for n in range(1, N + 1)
        ],
    )


# -- second-step coefficients ---------------------------------------------


@dataclass(frozen=True)
class StepTwoCoeffs:
    """The seven expansion coefficients of the twice-shifted operator."""

    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    F: Fraction
    G: Fraction
    H: Fraction


class _Tables:
    """The second-step coefficients A..H over one table and eigenvalue map.

    beta/alpha/gamma are the table's own accessors, which read 0 below the
    first tabulated index (the P_(-i) = 0 convention).
    """

    def __init__(self, rt: RecurrenceTable, lam):
        self.beta, self.alpha, self.gamma = rt.beta, rt.alpha, rt.gamma
        self.lam = lam

    def A(self, n):
        lam = self.lam
        return lam(n) - 2 * lam(n - 1) + lam(n - 2)

    def B(self, n):
        lam = self.lam
        return (self.beta(n - 1) - self.beta(n)) * (lam(n) - lam(n - 1))

    def C(self, n):
        lam = self.lam
        return 2 * self.alpha(n + 1) * (lam(n) - lam(n + 1)) + 2 * self.alpha(n) * (
            lam(n) - lam(n - 1)
        )

    def D(self, n):
        lam = self.lam
        return (
            self.alpha(n + 1)
            * (self.beta(n + 1) - self.beta(n))
            * (lam(n) - lam(n + 1))
            + self.gamma(n + 1) * (lam(n) - 2 * lam(n + 2) + lam(n + 1))
            + self.gamma(n) * (lam(n) - 2 * lam(n - 1) + lam(n + 1))
        )

    def F(self, n):
        lam = self.lam
        return self.alpha(n + 2) * self.alpha(n + 1) * (
            lam(n) - 2 * lam(n + 1) + lam(n + 2)
        ) + self.gamma(n + 1) * (self.beta(n + 2) - self.beta(n)) * (
            lam(n) - lam(n + 2)
        )

    def G(self, n):
        lam = self.lam
        return self.alpha(n + 3) * self.gamma(n + 1) * (
            lam(n) - 2 * lam(n + 2) + lam(n + 3)
        ) + self.alpha(n + 1) * self.gamma(n + 2) * (
            lam(n) - 2 * lam(n + 1) + lam(n + 3)
        )

    def H(self, n):
        lam = self.lam
        return (
            self.gamma(n + 3)
            * self.gamma(n + 1)
            * (lam(n) - 2 * lam(n + 2) + lam(n + 4))
        )


def steptwo_coeffs(lambdas: EigenvalueTable, rt: RecurrenceTable, n: int) -> StepTwoCoeffs:
    """The seven second-step coefficients at index n."""
    t = _Tables(rt, lambdas.at)
    try:
        return StepTwoCoeffs(
            A=t.A(n), B=t.B(n), C=t.C(n), D=t.D(n), F=t.F(n), G=t.G(n), H=t.H(n)
        )
    except MissingCoefficient as exc:  # table exhausted
        raise IndexOutOfRange(str(exc)) from exc


# -- expansion verification ------------------------------------------------


def _combine(seq: MonicSequence, terms) -> Poly:
    """Sum coeff(index)*P_index over basis indices >= 0."""
    out = Poly.zero()
    for idx, coeff_fn in terms:
        if idx >= 0:
            c = coeff_fn()
            if c:
                out = out + seq[idx].scale(c)
    return out


def verify_expansions(
    J: DiffOperator, rt: RecurrenceTable, N: int, family: Optional[str] = None
) -> VerificationReport:
    """Verify the shifted-operator basis expansions against direct action.

    For each n <= N checks, as exact polynomial identities: the
    three-term expansion of the once-shifted operator, the seven-term
    expansion of the twice-shifted operator, the ten-term expansion of
    the thrice-shifted operator (plus its two displayed initial
    images), and the family-specific differential relations when the
    operator matches a known family.  family may force the extra-checks
    branch ("case1" or "corollary42"); by default it is detected from J.
    """
    seq = generate(rt, N + 5)
    lam = lambda n: lambda_at(J, 0, n)
    t = _Tables(rt, lam)
    report = VerificationReport()

    for n in range(N + 1):
        p = seq[n]
        # once-shifted
        lhs = J.shifted(1).apply(p)
        rhs = _combine(
            seq,
            [
                (n + 1, lambda n=n: lam(n + 1) - lam(n)),
                (n - 1, lambda n=n: t.alpha(n) * (lam(n - 1) - lam(n))),
                (n - 2, lambda n=n: t.gamma(n - 1) * (lam(n - 2) - lam(n))),
            ],
        )
        report.check("shift1-expansion", n, lhs, rhs)

        # twice-shifted
        lhs = J.shifted(2).apply(p)
        rhs = _combine(
            seq,
            [
                (n + 2, lambda n=n: t.A(n + 2)),
                (n + 1, lambda n=n: t.B(n + 1)),
                (n, lambda n=n: t.C(n)),
                (n - 1, lambda n=n: t.D(n - 1)),
                (n - 2, lambda n=n: t.F(n - 2)),
                (n - 3, lambda n=n: t.G(n - 3)),
                (n - 4, lambda n=n: t.H(n - 4)),
            ],
        )
        report.check("shift2-expansion", n, lhs, rhs)

        # thrice-shifted, applied to P_(n+2)
        lhs = J.shifted(3).apply(seq[n + 2])
        rhs = _combine(
            seq,
            [
                (n + 5, lambda n=n: J.acoef(3, 3)),
                (
                    n + 4,
                    lambda n=n: t.A(n + 4) * t.beta(n + 2)
                    - t.A(n + 4) * t.beta(n + 4)
                    - t.B(n + 3)
                    + t.B(n + 4),
                ),
                (
                    n + 3,
                    lambda n=n: t.A(n + 3) * t.alpha(n + 2)
                    - t.A(n + 4) * t.alpha(n + 4)
                    + t.B(n + 3) * t.beta(n + 2)
                    - t.B(n + 3) * t.beta(n + 3)
                    - t.C(n + 2)
                    + t.C(n + 3),
                ),
                (
                    n + 2,
                    lambda n=n: t.A(n + 2) * t.gamma(n + 1)
                    - t.A(n + 4) * t.gamma(n + 3)
                    + t.B(n + 2) * t.alpha(n + 2)
                    - t.B(n + 3) * t.alpha(n + 3)
                    - t.D(n + 1)
                    + t.D(n + 2),
                ),
                (
                    n + 1,
                    lambda n=n: t.B(n + 1) * t.gamma(n + 1)
                    - t.B(n + 3) * t.gamma(n + 2)
                    + t.C(n + 1) * t.alpha(n + 2)
                    - t.C(n + 2) * t.alpha(n + 2)
                    - t.D(n + 1) * t.beta(n + 1)
                    + t.D(n + 1) * t.beta(n + 2)
                    - t.F(n)
                    + t.F(n + 1),
                ),
                (
                    n,
                    lambda n=n: t.C(n) * t.gamma(n + 1)
                    - t.C(n + 2) * t.gamma(n + 1)
                    - t.D(n + 1) * t.alpha(n + 1)
                    + t.D(n) * t.alpha(n + 2)
                    - t.F(n) * t.beta(n)
                    + t.F(n) * t.beta(n + 2)
                    - t.G(n - 1)
                    + t.G(n),
                ),
                (
                    n - 1,
                    lambda n=n: -t.D(n + 1) * t.gamma(n)
                    + t.D(n - 1) * t.gamma(n + 1)
                    - t.F(n) * t.alpha(n)
                    + t.F(n - 1) * t.alpha(n + 2)
                    - t.G(n - 1) * t.beta(n - 1)
                    + t.G(n - 1) * t.beta(n + 2)
                    - t.H(n - 2)
                    + t.H(n - 1),
                ),
                (
                    n - 2,
                    lambda n=n: -t.F(n) * t.gamma(n - 1)
                    + t.F(n - 2) * t.gamma(n + 1)
                    - t.G(n - 1) * t.alpha(n - 1)
                    + t.G(n - 2) * t.alpha(n + 2)
                    - t.H(n - 2) * t.beta(n - 2)
                    + t.H(n - 2) * t.beta(n + 2),
                ),
                (
                    n - 3,
                    lambda n=n: -t.G(n - 1) * t.gamma(n - 2)
                    + t.G(n - 3) * t.gamma(n + 1)
                    - t.H(n - 2) * t.alpha(n - 2)
                    + t.H(n - 3) * t.alpha(n + 2),
                ),
                (
                    n - 4,
                    lambda n=n: t.H(n - 4) * t.gamma(n + 1)
                    - t.H(n - 2) * t.gamma(n - 3),
                ),
            ],
        )
        report.check("shift3-expansion", n, lhs, rhs)

    _verify_shift3_initial(J, rt, seq, report)
    fam = family if family is not None else _detect_family(J)
    if fam == "case1":
        _verify_case1_extras(J, seq, min(N, seq.N - 1), report)
    elif fam == "corollary42":
        _verify_corollary_extras(J, seq, min(N, seq.N - 1), report)
    return report


def _verify_shift3_initial(J, rt, seq, report):
    """The two displayed initial images of the thrice-shifted operator."""
    a33, a23, a13, a03 = (
        J.acoef(3, 3),
        J.acoef(2, 3),
        J.acoef(1, 3),
        J.acoef(0, 3),
    )
    b0, b1, b2, b3 = (rt.beta(0), rt.beta(1), rt.beta(2), rt.beta(3))
    al1, al2, al3 = (rt.alpha(1), rt.alpha(2), rt.alpha(3))
    g1, g2 = (rt.gamma(1), rt.gamma(2))

    lhs0 = J.shifted(3).apply(seq[0])
    rhs0 = (
        seq[3].scale(a33)
        + seq[2].scale((b0 + b1 + b2) * a33 + a23)
        + seq[1].scale(
            a33 * (al1 + al2 + b0**2 + b1 * b0 + b1**2) + (b0 + b1) * a23 + a13
        )
        + seq[0].scale(
            a33 * (al1 * (2 * b0 + b1) + b0**3 + g1)
            + al1 * a23
            + b0 * (b0 * a23 + a13)
            + a03
        )
    )
    report.check("shift3-initial", 0, lhs0, rhs0)

    lhs1 = J.shifted(3).apply(seq[1])
    rhs1 = (
        seq[4].scale(a33)
        + seq[3].scale((b1 + b2 + b3) * a33 + a23)
        + seq[2].scale(
            a33 * (al1 + al2 + al3 + b1**2 + b2 * b1 + b2**2)
            + (b1 + b2) * a23
            + a13
        )
        + seq[1].scale(
            a33 * (2 * (al1 + al2) * b1 + al2 * b2 + b1**3 + g1 + g2)
            + al1 * b0 * a33
            + (al1 + al2) * a23
            + b1 * (b1 * a23 + a13)
            + a03
        )
        + seq[0].scale(
            al1
            * (a33 * (al2 + b0**2 + b1 * b0 + b1**2) + (b0 + b1) * a23 + a13)
            + al1**2 * a33
            + g1 * ((b0 + b1 + b2) * a33 + a23)
        )
    )
    report.check("shift3-initial", 1, lhs1, rhs1)


def _detect_family(J: DiffOperator) -> Optional[str]:
    if J.order != 3:
        return None
    if J == corollary42_operator(J.acoef(0, 0)):
        return "corollary42"
    if (
        J.a(1).degree == 1
        and J.a(2).degree <= 0
        and J.a(3).degree == 0
        and not J.a(3).is_zero
    ):
        return "case1"
    return None


def _verify_case1_extras(J, seq, N, report):
    """Second-order identity and the plain-derivative lowering relation."""
    a11 = J.acoef(1, 1)
    a02 = J.acoef(0, 2)
    a03 = J.acoef(0, 3)
    L = DiffOperator([J.a(1), Poly([a02]), Poly([a03])], relaxed=True)
    for n in range(N + 1):
        lhs = L.apply(seq[n])
        rhs = _combine(
            seq,
            [
                (n + 1, lambda n=n: a11),
                (n - 1, lambda n=n: Fraction(n, 2) * a02),
                (n - 2, lambda n=n: Fraction((n - 1) * n, 3) * a03),
            ],
        )
        report.check("case1-second-order", n, lhs, rhs)
        report.check(
            "case1-appell-derivative",
            n,
            seq[n].derivative(),
            seq[n - 1].scale(n) if n >= 1 else Poly.zero(),
        )


def _verify_corollary_extras(J, seq, N, report):
    """The two displayed differential relations of the explicit family."""
    sq = Poly([1, -2, 1])  # (x-1)^2
    L1 = DiffOperator([Poly([0, Fraction(1, 24)]), Poly.zero(), sq], relaxed=True)
    L2 = DiffOperator([Poly.zero(), sq], relaxed=True)
    for n in range(N + 1):
        lhs = L1.apply(seq[n])
        rhs = _combine(
            seq,
            [
                (n + 1, lambda n=n: Fraction(1, 24)),
                (
                    n - 1,
                    lambda n=n: -Fraction(1, 2) * (3 - 2 * n) ** 2 * (n - 1) * n,
                ),
                (
                    n - 2,
                    lambda n=n: Fraction(1, 3)
                    * (n - 1)
                    * n
                    * (15 - 16 * n + 4 * n**2) ** 2,
                ),
            ],
        )
        report.check("corollary-second-order", n, lhs, rhs)

        lhs = L2.apply(seq[n])
        rhs = _combine(
            seq,
            [
                (n + 1, lambda n=n: Fraction(n)),
                (n, lambda n=n: Fraction(-2 * n * (5 + 4 * n * (2 * n - 3)))),
                (
                    n - 1,
                    lambda n=n: Fraction(
                        (3 - 2 * n) ** 2 * n * (24 * (n - 2) * n + 25)
                    ),
                ),
                (
                    n - 2,
                    lambda n=n: Fraction(
                        -8 * (5 - 2 * n) ** 2 * (n - 1) * n * (2 * n - 3) ** 3
                    ),
                ),
                (
                    n - 3,
                    lambda n=n: Fraction(
                        4
                        * (3 - 2 * n) ** 2
                        * (5 - 2 * n) ** 2
                        * (7 - 2 * n) ** 2
                        * (n - 2)
                        * (n - 1)
                        * n
                    ),
                ),
            ],
        )
        report.check("corollary-first-order", n, lhs, rhs)


# -- solvability classification -------------------------------------------


@dataclass(frozen=True)
class SolvabilityResult:
    tag: str  # case1 | case2 | no-solution | reduced | unclassified
    notes: tuple = ()
    residues: Optional[dict] = None

    def to_json(self) -> dict:
        out: dict = {"solvability": self.tag}
        if self.notes:
            out["notes"] = list(self.notes)
        if self.residues:
            out["residues"] = {k: str(v) for k, v in self.residues.items()}
        return out


def classify_solvability(p: ThirdOrderParams) -> SolvabilityResult:
    """Decide which closed-form family (if any) solves the eigenproblem.

    Regions the source results do not settle come back "unclassified"
    with the computed residues attached rather than a guess.
    """
    a2 = Poly([p.a02, p.a12, p.a22])
    a3 = Poly([p.a03, p.a13, p.a23, p.a33])
    disc = p.a13 * p.a13 - 4 * p.a23 * p.a03

    if a3.is_zero:
        return SolvabilityResult(
            tag="reduced",
            notes=(
                "only the pure first-order operator a_0^[1] D + a_0^[0] I remains",
            ),
        )
    if a3.degree == 0:
        if a2.degree <= 1:
            notes = ["a_1^[1] != 0 is forced"]
            if p.a12:
                notes.append("a_1^[2] is forced to zero; given value is nonzero")
            return SolvabilityResult(tag="case1", notes=tuple(notes))
        return SolvabilityResult(
            tag="unclassified",
            notes=("quadratic a_2 with constant a_3 is not settled",),
            residues={"deg_a2": a2.degree, "deg_a3": a3.degree},
        )
    if a2.is_zero:
        if a3.degree == 1:
            return SolvabilityResult(
                tag="no-solution",
                notes=("no 2-orthogonal eigenfamily exists for linear a_3",),
            )
        if a3.degree == 2:
            if disc == 0:
                return SolvabilityResult(tag="case2", notes=("a_1^[1] != 0 is forced",))
            return SolvabilityResult(
                tag="unclassified",
                notes=("quadratic a_3 with nonzero discriminant is not settled",),
                residues={"discriminant": disc},
            )
        return SolvabilityResult(
            tag="unclassified",
            notes=("cubic a_3 is not settled",),
            residues={"deg_a3": a3.degree},
        )
    return SolvabilityResult(
        tag="unclassified",
        notes=("parameter region not settled",),
        residues={"deg_a2": a2.degree, "deg_a3": a3.degree, "discriminant": disc},
    )
