"""Eigenfamilies of third-order degree-preserving operators.

Two independent routes to the same recurrence tables are kept apart on
purpose: the brute-force eigen-solver (triangular linear solve per
degree) and the closed-form coefficient families.  Every displayed
basis expansion of the shifted operators is verified exactly, as a
column of the operator's matrix in the recurrence basis.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .diffop import Diagonals, DiffOperator, classify, diagonals
from .errors import (
    DiscriminantNonzero,
    EigenvalueCollision,
    NotIsomorphism,
    NotTwoOrthogonal,
    ZeroParameter,
)
from .polycore import Poly, rational_to_str, writable
from .report import VerificationReport, poly_witness
from .seqkit import MonicSequence, RecurrenceTable, generate, operator_column


# -- eigen-oracle ----------------------------------------------------------


def _eigen_solver(J: DiffOperator, N: int, diag: Optional[Diagonals] = None):
    """Set up the eigen-oracle for degrees up to N; return (solve, lam, A).

    The setup runs once: it classifies J (the classification screens the
    diagonal sum for integer roots, so it settles every degree at once)
    and reads the diagonals of J's matrix on the monomials,

        [x**i] J(x**(i + t)) = lambda_(i+t)^[t],

    for t = 0..order and i = 0..N, as ints over A (diffop.diagonals), from
    diag or from a build of its own; classify reads the same build.  lam
    is diagonal 0, A lambda_0..A lambda_N.  solve(n, depth) raises
    EigenvalueCollision(k, n) on its first read for the first k < n with
    lambda_k = lambda_n; otherwise it yields [x**(n - m)] P_n for
    m = 0..min(depth, n), top down (all n + 1 by default), as int pairs
    (num, den), den > 0, from row i of A J(P) = A lambda_n P,

        (A lambda_n - A lambda_i) c_i = sum_(t >= 1) A [x**i] J(x**(i + t)) * c_(i+t),

    over t <= order only, since [x**i] J(x**j) = 0 for j > i + order
    when deg a_v <= v.  Row i reads only the coefficients above it, so the
    top depth coefficients cost depth rows whatever n is.  The last order
    coefficients are ints over one den, times row i's pivot, then one gcd.
    """
    if diag is None:
        diag = diagonals(J, 0, N + 1)
    tag = classify(J, diag)["class"]
    if tag != "isomorphism":
        raise NotIsomorphism(f"operator classified as {tag}")
    order = J.order
    rows = [row[-diag.lo :] for row in diag.rows]  # from i = 0
    lam = rows[0][: N + 1]
    first: dict = {}
    for j, value in enumerate(lam):
        first.setdefault(value, j)

    def solve(n: int, depth: Optional[int] = None):
        k = first[lam[n]]
        if k < n:
            raise EigenvalueCollision(k, n)
        window, den = [1], 1  # the last order coefficients over den
        yield 1, 1
        for m in range(1, (n if depth is None else min(n, depth)) + 1):
            i = n - m
            num = 0
            for t in range(1, min(m, order) + 1):
                num += rows[t][i] * window[-t]
            d = lam[n] - lam[i]
            if d < 0:
                d, num = -d, -num
            den *= d
            window = [v * d for v in window[max(len(window) - order + 1, 0) :]] + [num]
            g = math.gcd(den, *window)
            if g > 1:
                den //= g
                window = [v // g for v in window]
            yield window[-1], den

    return solve, lam, diag.A


def eigenpoly(J: DiffOperator, n: int) -> Poly:
    """The unique monic degree-n polynomial P with J(P) = lambda_n * P.

    Classifies J, evaluates the diagonals of J's matrix on the monomials
    (diffop.diagonals at 0..n, t <= order; lambda_0..lambda_n is the
    first), then solves the triangular system for the non-leading
    coefficients from the top down (_eigen_solver).  J does not raise
    degree, so the system is banded: row i involves only
    c_(i+1)..c_(i+order).  Requires the eigenvalues below n to differ from
    lambda_n; the first equal one is reported as EigenvalueCollision(k, n).
    A coefficient too long to write out raises OutputTooLarge (writable) as
    the solve produces it, so no further row is solved.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    solve, _, _ = _eigen_solver(J, n)
    return Poly(reversed([writable(Fraction(*c)) for c in solve(n)]))


def oracle_table(J: DiffOperator, N: int) -> tuple:
    """The eigen-oracle's d=2 table of J's monic eigenpolynomials P_n,
    read with no P_n built, and the diagonals it read: (RecurrenceTable, diag).

    The solver (_eigen_solver, which raises NotIsomorphism and
    EigenvalueCollision) gives only the top coefficients T_n(m) =
    [x**(n-m)] P_n, m <= 3 (T_n(m) = 0 for m > n), and comparing x^k,
    x^(k-1), x^(k-2) in the four-term row of x*P_k gives, for k <= N,

        beta_k      = T_k(1) - T_(k+1)(1)
        alpha_k     = T_k(2) - T_(k+1)(2) - beta_k T_k(1)
        gamma_(k-1) = T_k(3) - T_(k+1)(3) - beta_k T_k(2) - alpha_k T_(k-1)(1).
    With T_n as ints over one denominator q_n and L = lcm(q_k, q_(k+1)), the
    three are ints over L, L q_k and L q_k q_(k-1): one Fraction each.  The
    table is P's if P is four-term to degree N + 1, which derive_recurrence
    proves.  diag is J's diagonals at -4 <= n <= N + 5 (diffop.diagonals),
    the one build that classify, the solver and verify_expansions to N read.
    """
    diag = diagonals(J, -4, N + 6)
    solve, _, _ = _eigen_solver(J, N + 1, diag)
    T = []  # T[n] = (q_n, q_n T_n(1), q_n T_n(2), q_n T_n(3))
    for n in range(N + 2):
        top = list(solve(n, 3))[1:]
        q = math.lcm(*(den for _, den in top))
        T.append((q, *(num * (q // den) for num, den in top), 0, 0, 0)[:4])
    beta, alpha, gamma = [], [], []
    for k in range(N + 1):
        (q, a, b, c), (q1, a1, b1, c1) = T[k], T[k + 1]
        L = math.lcm(q, q1)
        s, s1 = L // q, L // q1
        bn = a * s - a1 * s1  # beta_k L
        an = (b * s - b1 * s1) * q - bn * a  # alpha_k L q_k
        beta.append(Fraction(bn, L))
        if k:
            alpha.append(Fraction(an, L * q))
        if k > 1:
            q0, a0 = T[k - 1][:2]
            gn = ((c * s - c1 * s1) * q - bn * b) * q0 - an * a0  # gamma_(k-1) L q_k q_(k-1)
            gamma.append(Fraction(gn, L * q * q0))
    return RecurrenceTable.two_orthogonal(beta=beta, alpha=alpha, gamma=gamma), diag


def check_gamma(rt: RecurrenceTable, N: int) -> None:
    """Raise NotTwoOrthogonal("gamma_m = 0") at the first m < N with
    gamma_m = 0 in rt: the regularity a 2-orthogonal sequence needs."""
    for m in range(1, N):
        if rt.gamma(m) == 0:
            raise NotTwoOrthogonal(f"gamma_{m} = 0", n=m)


def derive_recurrence(J: DiffOperator, N: int):
    """Recover the d=2 recurrence tables of J's monic eigenpolynomials P_n
    (oracle_table) and prove them, with no P_n built.

    The rows x*P_k = P_(k+1) + sum_j c_(k,j) P_j must have the four-term
    shape, chi_(k-1,j) = c_(k,j) = 0 for j < k - 2, with every
    gamma_m = c_(m+1,m-1) nonzero (check_gamma, after the shape).
    The table's sequence Q is proved to be P to degree N + 1:
    column n of J's matrix in Q's basis (operator_column, at the scale
    (J.coeffs, A, 0)) must be {n: A lambda_n}, compared by == as in
    check_expansions.  The eigenvalues below each lambda_n
    differ from it (the solver's collision screen), so the monic
    eigenpolynomial of each degree is unique and Q_n = P_n; Q's rows are
    P's, four-term by construction.  If column n is the first to fail,
    Q_k = P_k for k < n, and P_n - Q_n is a nonzero polynomial of degree
    at most n - 4 (the three coefficients below x^n match), so row n - 1 is
    the first row of P that is not four-term.  Write P_n - Q_n = sum_j r_j Q_j;
    then column n is lambda_n e_n + sum_j r_j (lambda_n - lambda_j) e_j, and
    lambda_j != lambda_n, so the first nonzero chi, chi_(n-2,j) = -r_j at the
    smallest such j, is read off the column without building a polynomial:
    entry j is A D**(n - j) (lambda_n - lambda_j) r_j, D Q's (weighted_rows).

    Returns (RecurrenceTable, VerificationReport, Q, diag), diag as
    oracle_table gives it.  Q's column cache holds J's levels, so
    verify_expansions on Q reuses them.
    """
    rt, diag = oracle_table(J, N)
    seq = generate(rt, N + 1)
    D = seq.weighted_rows[0]
    for n in range(N + 2):
        col = operator_column(seq, (J.coeffs, diag.A, 0), n)
        if col != {n: diag.at(0, n)}:
            j = min(col.keys() - {n})
            chi = Fraction(col[j], D ** (n - j) * (diag.at(0, j) - diag.at(0, n)))
            raise NotTwoOrthogonal(
                f"chi_({n - 2},{j}) = {rational_to_str(chi)} != 0", n=n - 2, nu=j
            )
    check_gamma(rt, N)
    report = VerificationReport()
    report.record_run(("four-term-shape",), range(N))
    report.record("gamma-nonvanishing", (1, N - 1), True)
    return rt, report, seq, diag


# -- closed-form families --------------------------------------------------


def case1_operator(a00, a01, a11, a02, a03) -> DiffOperator:
    """Case 1, the constant-cubic-coefficient family: a_1 = a_0^[1] + a_1^[1] x,
    a_2 = a_0^[2] and a_3 = a_0^[3], with a_1^[1] and a_0^[3] nonzero."""
    J = DiffOperator([Poly([a00]), Poly([a01, a11]), Poly([a02]), Poly([a03])])
    if not J.acoef(1, 1):
        raise ZeroParameter("linear coefficient a_1^[1] must be nonzero")
    if not J.acoef(0, 3):
        raise ZeroParameter("constant coefficient a_0^[3] must be nonzero")
    return J


def case2_operator(a00, a01, a11, a03, a13, a23) -> DiffOperator:
    """Case 2, the quadratic-cubic-coefficient family: a_1 = a_0^[1] + a_1^[1] x
    with a_1^[1] nonzero, a_2 = 0 and a_3 = a_0^[3] + a_1^[3] x + a_2^[3] x^2.
    Admissible operators require a_3's discriminant
    (a_1^[3])^2 - 4 a_2^[3] a_0^[3] to vanish, so it is enforced here."""
    J = DiffOperator([Poly([a00]), Poly([a01, a11]), Poly.zero(), Poly([a03, a13, a23])])
    if not J.acoef(1, 1):
        raise ZeroParameter("linear coefficient a_1^[1] must be nonzero")
    disc = _discriminant(J)
    if disc:
        raise DiscriminantNonzero(f"(a_1^[3])^2 - 4 a_2^[3] a_0^[3] = {rational_to_str(disc)}")
    return J


def _discriminant(J: DiffOperator) -> Fraction:
    """(a_1^[3])^2 - 4 a_2^[3] a_0^[3], the discriminant of J's a_3."""
    return J.acoef(1, 3) ** 2 - 4 * J.acoef(2, 3) * J.acoef(0, 3)


def case1_coeffs(J: DiffOperator, N: int) -> RecurrenceTable:
    """The table of a case 1 operator J: beta_n constant, alpha_n linear and
    gamma_n quadratic in n, each evaluated by Poly.values."""
    a01, a11, a02, a03 = J.acoef(0, 1), J.acoef(1, 1), J.acoef(0, 2), J.acoef(0, 3)
    g = -a03 / (6 * a11)  # gamma_n = g n (n + 1)
    return RecurrenceTable.two_orthogonal(
        beta=Poly([-a01 / a11]).values(range(N + 1)),
        alpha=Poly([0, -a02 / (2 * a11)]).values(range(1, N + 1)),
        gamma=Poly([0, g, g]).values(range(1, N + 1)),
    )


def case2_constants(J: DiffOperator) -> tuple:
    """The displayed auxiliary constants of a case 2 operator J's index
    polynomials, ((b0, b1, b2), (f0, f1, f2, f3, f4)): the top coefficients
    of the quartic alpha_n and of the sextic gamma_n."""
    a01, a11 = J.acoef(0, 1), J.acoef(1, 1)
    a03, a13, a23 = J.acoef(0, 3), J.acoef(1, 3), J.acoef(2, 3)
    b = (
        Fraction(1, 2)
        * (-a13 / (2 * a11) + a01 * a23 / a11**2 + 10 * a23**2 / (12 * a11**2)),
        a23**2 / (3 * a11**2),
        a23**2 / (12 * a11**2),
    )
    f = (
        (
            -18 * a03 * a11**2
            + 6 * a13 * a11 * (3 * a01 + a23)
            + a23 * (-18 * a01**2 - 12 * a23 * a01 + a23**2)
        )
        / (108 * a11**3),
        a23 * (6 * a11 * a13 + a23 * (a23 - 12 * a01)) / (72 * a11**3),
        -a23 * (a23 * (12 * a01 + a23) - 6 * a11 * a13) / (216 * a11**3),
        -(a23**3) / (72 * a11**3),
        -(a23**3) / (216 * a11**3),
    )
    return b, f


def case2_coeffs(J: DiffOperator, N: int) -> RecurrenceTable:
    """The table of a case 2 operator J.  beta_n is quadratic in n, alpha_n
    quartic in m = n - 2 and gamma_n sextic in m = n - 1.  Their
    coefficients do not depend on n, so each is one Poly in n or m,
    evaluated by Poly.values."""
    a01, a11 = J.acoef(0, 1), J.acoef(1, 1)
    a03, a13, a23 = J.acoef(0, 3), J.acoef(1, 3), J.acoef(2, 3)
    b, f = case2_constants(J)
    q = -a23 / (2 * a11)  # beta_n = -a01/a11 + q (n - 1) n
    beta_c = (-a01 / a11, -q, q)
    alpha_c = (
        -a13 / (2 * a11) + a01 * a23 / a11**2,
        -3 * a13 / (4 * a11) + a23 * (9 * a01 + a23) / (6 * a11**2),
        *b,
    )
    gamma_c = (
        -Fraction(1, 3) / a11 * (a03 + a01 * (-a11 * a13 + a01 * a23) / a11**2),
        -(a11**2 * a03 - a01 * a11 * a13 + a01**2 * a23) / (2 * a11**3),
        *f,
    )
    return RecurrenceTable.two_orthogonal(
        beta=Poly(beta_c).values(range(N + 1)),
        alpha=Poly(alpha_c).values(range(-1, N - 1)),
        gamma=Poly(gamma_c).values(range(N)),
    )


def corollary42_operator(a00) -> DiffOperator:
    """Corollary 4.2's operator: case 2 with a_1 = x/24 and a_3 = (x - 1)^2."""
    return case2_operator(a00, 0, Fraction(1, 24), 1, -2, 1)


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


class _Tables:
    """The second-step coefficients A..H over the accessors beta, alpha,
    gamma (n -> the table's entry) and lam (n -> lambda_n), each value
    cached per instance: the shift-2 and shift-3 bands read them again.

    The formulas only add and multiply what the accessors return, so they
    run in any ring: on a table's Fractions or on its integer view
    (_integer_view).  The accessors read 0 below the first tabulated index
    (the P_(-i) = 0 convention).
    """

    def __init__(self, beta, alpha, gamma, lam):
        self.beta, self.alpha, self.gamma, self.lam = beta, alpha, gamma, lam
        for name in "ABCDFGH":  # each value once per index and instance
            setattr(self, name, functools.cache(getattr(self, name)))

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


# -- expansion verification ------------------------------------------------


def check_expansions(
    report: VerificationReport, seq: MonicSequence, ns, A: int, identities
):
    """Check displayed expansions L(P_(n+s)) = sum_j c_j P_j exactly.

    identities lists (name, L, e, s, band): L's columns are read at the
    scale key (L.coeffs, A, e) (operator_column), so entry j of column
    n + s is A D**(n + s + e - j) times L's matrix entry, D the sequence's,
    and band(n) gives the (j, c_j) of the right-hand side at that same
    scale, each c_j an int or a Fraction; terms with j < 0 (P_(-i) = 0) or
    c_j = 0 are left out.  Records one entry per n in ns (a range) and
    identity through report.record_block.

    Basis expansions are unique, so the identity holds exactly when the
    band, summed per j, equals the column, entries outside the band
    included: one ==, no gcd.  Only a failing column builds polynomials,
    for its witness (_column_witness).
    """

    def failures(n):
        oks = [_band_matches(seq, A, identity, n) for identity in identities]
        if not all(oks):
            return [
                None if ok else _column_witness(seq, A, identity, n)
                for ok, identity in zip(oks, identities)
            ]

    report.record_block(tuple(name for name, *_ in identities), ns, failures)


def _column_witness(seq: MonicSequence, A: int, identity: tuple, n: int) -> dict:
    """The witness of identity's failing column at n: L(P_(n+s)) and the
    band's right-hand side as polynomials, each c_j divided by its scale.
    If the two agree, the column kernel is at fault, and that is a
    RuntimeError, not a pass."""
    name, L, e, s, band = identity
    D = Fraction(seq.weighted_rows[0])
    rhs = Poly.zero()
    for j, c in band(n):
        if j >= 0 and c:
            rhs = rhs + seq[j].scale(c / (A * D ** (n + s + e - j)))
    witness = poly_witness(L.apply(seq[n + s]), rhs)
    if witness is None:
        raise RuntimeError(f"{name} at {n}: column and band differ, polynomials agree")
    return witness


def _band_matches(seq: MonicSequence, A: int, identity: tuple, n: int) -> bool:
    """Whether identity's band at n, summed per j, is L's column n + s."""
    _, L, e, s, band = identity
    expected: dict = {}
    for j, c in band(n):
        if j >= 0 and c:
            expected[j] = expected[j] + c if j in expected else c
    column = operator_column(seq, (L.coeffs, A, e), n + s)
    return column == {j: c for j, c in expected.items() if c}


def verify_expansions(
    J: DiffOperator, seq: MonicSequence, N: int, diag: Optional[Diagonals] = None
) -> VerificationReport:
    """Verify the shifted-operator basis expansions exactly.

    For each n <= N checks, through check_expansions: the
    three-term expansion of the once-shifted operator, the seven-term
    expansion of the twice-shifted operator, the ten-term expansion of
    the thrice-shifted operator (plus its two displayed initial
    images), and the differential relations of the family J belongs to,
    if any, on the four-term sequence seq.  seq reaching a degree below
    N + 5 is a ValueError, as is a wider row (_integer_view).  The bands
    read seq's rows 0..N + 4 and lambda_n for -4 <= n <= N + 5, from diag,
    J's diagonals (derive_recurrence's reach that far), or from a build of
    its own.

    Every band is evaluated once, on the integer view of seq and lambda
    (_integer_view): with D seq's (weighted_rows) and A the lcm of the
    denominators of J's coefficients, beta~ = D beta, alpha~ = D**2 alpha,
    gamma~ = D**3 gamma and lambda~ = A lambda.  The view is the table of
    D**n P_n(x/D), the sequence
    x Q_n = Q_(n+1) + beta~_n Q_n + alpha~_n Q_(n-1) + gamma~_n Q_(n-2),
    under the operator A J, whose eigenvalues are lambda~.  Every displayed
    shift entry is linear in lambda and weighted-homogeneous, with x-weight
    1 for beta, 2 for alpha and 3 for gamma, so entry j of the shift-k band
    of P_m comes out as exactly A D**(m + k - j) times its rational value
    (m = n for shifts 1 and 2, m = n + 2 for shift 3): the scale of J^(k)'s
    column m at the key (J.coeffs[k:], A, k).  The initial images are
    linear in a_3 instead; read with a_i^[3] as A D**(3 - i) a_i^[3],
    entry j of J^(3)(P_n) is A D**(n + 3 - j) times its value, the same
    scale.  So each band is compared with its column as it comes out.  The
    family relations' bands are Fractions; each entry is multiplied by its
    scale, one product.  J^(3)(P_1) has a_4's term too, so its displayed
    image is checked for J.order <= 3 only.
    """
    if seq.N < N + 5:
        raise ValueError(
            f"verify_expansions to N = {N} needs the sequence to degree {N + 5}; "
            f"it stops at {seq.N}"
        )
    if diag is None:
        diag = diagonals(J, -4, N + 6)
    A = diag.A
    t, D = _integer_view(seq, diag, N)
    shift1, shift2, shift3 = _shift_bands(t)
    J3 = J.shifted(3)
    shifts = [
        ("shift1-expansion", J.shifted(1), 1, 0, shift1),
        ("shift2-expansion", J.shifted(2), 2, 0, shift2),
        ("shift3-expansion", J3, 3, 2, shift3),
    ]
    report = VerificationReport()
    check_expansions(report, seq, range(N + 1), A, shifts)
    a3 = [J.acoef(i, 3) for i in range(4)]
    a3 = [c.numerator * (A // c.denominator) * D ** (3 - i) for i, c in enumerate(a3)]
    initial = _shift3_initial(t, a3)
    ns = range(2 if J.order <= 3 else 1)
    check_expansions(report, seq, ns, A, [("shift3-initial", J3, 3, 0, initial.get)])
    scales = [A * D**w for w in range(6)]  # a relation's weights are 0..5

    def scaled(band, e):  # band's entry j at n has weight n + e - j
        return lambda n: [(j, c * scales[n + e - j]) for j, c in band(n)]

    family = [(name, L, e, s, scaled(band, e)) for name, L, e, s, band in _family_identities(J)]
    check_expansions(report, seq, range(N + 1), A, family)
    return report


def _shift_bands(t: _Tables) -> tuple:
    """The displayed bands (shift1, shift2, shift3) over t's accessors:
    n -> the (j, c_j) of J^(1)(P_n), J^(2)(P_n) and J^(3)(P_(n+2)), in the
    ring t reads from.  The shift-3 top entry is the third difference of
    lambda, A(n + 5) - A(n + 4), which is J's a_3^[3] when J.order <= 3."""
    lam = t.lam

    def shift1(n):
        return [
            (n + 1, lam(n + 1) - lam(n)),
            (n - 1, t.alpha(n) * (lam(n - 1) - lam(n))),
            (n - 2, t.gamma(n - 1) * (lam(n - 2) - lam(n))),
        ]

    def shift2(n):
        return [
            (n + 2, t.A(n + 2)),
            (n + 1, t.B(n + 1)),
            (n, t.C(n)),
            (n - 1, t.D(n - 1)),
            (n - 2, t.F(n - 2)),
            (n - 3, t.G(n - 3)),
            (n - 4, t.H(n - 4)),
        ]

    def shift3(n):  # applied to P_(n+2)
        return [
            (n + 5, t.A(n + 5) - t.A(n + 4)),
            (
                n + 4,
                t.A(n + 4) * t.beta(n + 2)
                - t.A(n + 4) * t.beta(n + 4)
                - t.B(n + 3)
                + t.B(n + 4),
            ),
            (
                n + 3,
                t.A(n + 3) * t.alpha(n + 2)
                - t.A(n + 4) * t.alpha(n + 4)
                + t.B(n + 3) * t.beta(n + 2)
                - t.B(n + 3) * t.beta(n + 3)
                - t.C(n + 2)
                + t.C(n + 3),
            ),
            (
                n + 2,
                t.A(n + 2) * t.gamma(n + 1)
                - t.A(n + 4) * t.gamma(n + 3)
                + t.B(n + 2) * t.alpha(n + 2)
                - t.B(n + 3) * t.alpha(n + 3)
                - t.D(n + 1)
                + t.D(n + 2),
            ),
            (
                n + 1,
                t.B(n + 1) * t.gamma(n + 1)
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
                t.C(n) * t.gamma(n + 1)
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
                -t.D(n + 1) * t.gamma(n)
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
                -t.F(n) * t.gamma(n - 1)
                + t.F(n - 2) * t.gamma(n + 1)
                - t.G(n - 1) * t.alpha(n - 1)
                + t.G(n - 2) * t.alpha(n + 2)
                - t.H(n - 2) * t.beta(n - 2)
                + t.H(n - 2) * t.beta(n + 2),
            ),
            (
                n - 3,
                -t.G(n - 1) * t.gamma(n - 2)
                + t.G(n - 3) * t.gamma(n + 1)
                - t.H(n - 2) * t.alpha(n - 2)
                + t.H(n - 3) * t.alpha(n + 2),
            ),
            (
                n - 4,
                t.H(n - 4) * t.gamma(n + 1)
                - t.H(n - 2) * t.gamma(n - 3),
            ),
        ]

    return shift1, shift2, shift3


def _integer_view(seq: MonicSequence, diag: Diagonals, N: int) -> tuple:
    """(t, D): the _Tables t over the integer view of seq's rows 0..N + 4
    and of J's eigenvalues lambda_(-4)..lambda_(N+5), all that the bands of
    verify_expansions to N read,

        beta~_k = D beta_k,  alpha~_k = D**2 alpha_k,  gamma~_k = D**3 gamma_k,
        lambda~_n = A lambda_n,

    with (D, rows) = seq.weighted_rows, beta~_k row k's entry at k,
    alpha~_k row k's at k - 1 and gamma~_k row k + 1's at k - 1, and
    lambda~ diagonal 0 of diag, J's diagonals over A.  Each accessor reads
    0 below the first index (the P_(-i) = 0 convention).  A row with an
    entry below k - 2 is a ValueError: the bands are d = 2's.
    """
    D, rows = seq.weighted_rows
    rows = [dict(row) for row in rows[: N + 5]]
    for k, row in enumerate(rows):
        if min(row, default=k) < k - 2:
            raise ValueError(f"x*P_{k} reaches P_{min(row)}: the bands are d = 2's")
    beta = [row.get(k, 0) for k, row in enumerate(rows)]
    alpha = [row.get(k - 1, 0) for k, row in enumerate(rows)]
    gamma = [rows[k + 1].get(k - 1, 0) for k in range(len(rows) - 1)]

    def reader(values):
        return lambda k: values[k] if k >= 0 else 0

    lam = {n: diag.at(0, n) for n in range(-4, N + 6)}.__getitem__
    return _Tables(reader(beta), reader(alpha), reader(gamma), lam), D


def _shift3_initial(t: _Tables, a3) -> dict:
    """The two displayed initial images of the thrice-shifted operator:
    n -> the (j, c_j) of J^(3)(P_n) for n = 0, 1, over t's beta_0..beta_3,
    alpha_1..alpha_3, gamma_1 and gamma_2 and a3 = (a_0^[3], ..., a_3^[3]),
    in the ring t reads from."""
    a03, a13, a23, a33 = a3
    b0, b1, b2, b3 = map(t.beta, range(4))
    al1, al2, al3 = map(t.alpha, range(1, 4))
    g1, g2 = map(t.gamma, range(1, 3))
    return {
        0: [
            (3, a33),
            (2, (b0 + b1 + b2) * a33 + a23),
            (
                1,
                a33 * (al1 + al2 + b0**2 + b1 * b0 + b1**2) + (b0 + b1) * a23 + a13,
            ),
            (
                0,
                a33 * (al1 * (2 * b0 + b1) + b0**3 + g1)
                + al1 * a23
                + b0 * (b0 * a23 + a13)
                + a03,
            ),
        ],
        1: [
            (4, a33),
            (3, (b1 + b2 + b3) * a33 + a23),
            (
                2,
                a33 * (al1 + al2 + al3 + b1**2 + b2 * b1 + b2**2)
                + (b1 + b2) * a23
                + a13,
            ),
            (
                1,
                a33 * (2 * (al1 + al2) * b1 + al2 * b2 + b1**3 + g1 + g2)
                + al1 * b0 * a33
                + (al1 + al2) * a23
                + b1 * (b1 * a23 + a13)
                + a03,
            ),
            (
                0,
                al1
                * (a33 * (al2 + b0**2 + b1 * b0 + b1**2) + (b0 + b1) * a23 + a13)
                + al1**2 * a33
                + g1 * ((b0 + b1 + b2) * a33 + a23),
            ),
        ],
    }


def _family_identities(J: DiffOperator) -> list:
    """The displayed differential relations of the family J belongs to, if
    J is corollary 4.2's operator or a case 1 operator (a_1 linear, a_2 and
    a_3 constant), as check_expansions' (name, L, e, s, band) with each
    band's entries ints or Fractions.  L is J^(e), so its columns are J's
    level e, cached at J^(e)'s own key; the lowering relation's d/dx is
    the one other operator."""
    if J.order != 3:
        return []
    if J.a(1).degree == 1 and J.a(2).degree <= 0 and J.a(3).degree == 0:
        # second-order identity and the plain-derivative lowering relation
        a11 = J.acoef(1, 1)
        a02 = J.acoef(0, 2)
        a03 = J.acoef(0, 3)
        D = DiffOperator([Poly.zero(), Poly.one()])

        def second_order(n):
            return [
                (n + 1, a11),
                (n - 1, Fraction(n, 2) * a02),
                (n - 2, Fraction((n - 1) * n, 3) * a03),
            ]

        return [
            ("case1-second-order", J.shifted(1), 1, 0, second_order),
            ("case1-appell-derivative", D, 0, 0, lambda n: [(n - 1, n)]),
        ]
    if J == corollary42_operator(J.acoef(0, 0)):
        def second_order(n):
            return [
                (n + 1, Fraction(1, 24)),
                (
                    n - 1,
                    -Fraction(1, 2) * (3 - 2 * n) ** 2 * (n - 1) * n,
                ),
                (
                    n - 2,
                    Fraction(1, 3)
                    * (n - 1)
                    * n
                    * (15 - 16 * n + 4 * n**2) ** 2,
                ),
            ]

        def first_order(n):
            return [
                (n + 1, n),
                (n, -2 * n * (5 + 4 * n * (2 * n - 3))),
                (n - 1, (3 - 2 * n) ** 2 * n * (24 * (n - 2) * n + 25)),
                (n - 2, -8 * (5 - 2 * n) ** 2 * (n - 1) * n * (2 * n - 3) ** 3),
                (
                    n - 3,
                    4
                    * (3 - 2 * n) ** 2
                    * (5 - 2 * n) ** 2
                    * (7 - 2 * n) ** 2
                    * (n - 2)
                    * (n - 1)
                    * n,
                ),
            ]

        return [
            ("corollary-second-order", J.shifted(1), 1, 0, second_order),
            ("corollary-first-order", J.shifted(2), 2, 0, first_order),
        ]
    return []


# -- solvability classification -------------------------------------------


def classify_solvability(J: DiffOperator) -> dict:
    """Decide which closed-form family (if any) solves the eigenproblem of
    the operator J of order <= 3, from its coefficients a_2 and a_3, as the
    JSON object the CLI prints: "solvability", "notes" and, where they
    apply, "residues".

    Regions the source results do not settle come back "unclassified"
    with the computed residues attached, as rational strings, rather than
    a guess.
    """
    a2, a3 = J.a(2), J.a(3)
    disc = _discriminant(J)
    if a3.is_zero:
        return {
            "solvability": "reduced",
            "notes": ["only the pure first-order operator a_0^[1] D + a_0^[0] I remains"],
        }
    if a3.degree == 0:
        if a2.degree <= 1:
            notes = ["a_1^[1] != 0 is forced"]
            if J.acoef(1, 2):
                notes.append("a_1^[2] is forced to zero; given value is nonzero")
            return {"solvability": "case1", "notes": notes}
        return {
            "solvability": "unclassified",
            "notes": ["quadratic a_2 with constant a_3 is not settled"],
            "residues": {"deg_a2": str(a2.degree), "deg_a3": str(a3.degree)},
        }
    if a2.is_zero:
        if a3.degree == 1:
            return {
                "solvability": "no-solution",
                "notes": ["no 2-orthogonal eigenfamily exists for linear a_3"],
            }
        if a3.degree == 2:
            if disc == 0:
                return {"solvability": "case2", "notes": ["a_1^[1] != 0 is forced"]}
            return {
                "solvability": "unclassified",
                "notes": ["quadratic a_3 with nonzero discriminant is not settled"],
                "residues": {"discriminant": rational_to_str(disc)},
            }
        return {
            "solvability": "unclassified",
            "notes": ["cubic a_3 is not settled"],
            "residues": {"deg_a3": str(a3.degree)},
        }
    return {
        "solvability": "unclassified",
        "notes": ["parameter region not settled"],
        "residues": {
            "deg_a2": str(a2.degree),
            "deg_a3": str(a3.degree),
            "discriminant": rational_to_str(disc),
        },
    }
