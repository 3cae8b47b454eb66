"""Degree-non-increasing differential operators on polynomials.

An operator is stored as its coefficient polynomials a_0(x)..a_K(x),
acting as  p  ->  sum_v a_v(x) * p^(v)(x) / v! .  The degree constraint
deg a_v <= v is what makes the action degree-non-increasing; shifted
operators (arising from the Leibniz-type product rule) legitimately
violate it and are stored with relaxed validation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DegreeViolation
from .polycore import Poly, binomial, integer_horner, rational_to_str


class DiffOperator:
    """Finite-order operator sum_v a_v(x)/v! * D^v."""

    __slots__ = ("coeffs", "relaxed")

    def __init__(self, coeffs: Sequence[Poly], relaxed: bool = False):
        cs = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        if not relaxed:
            for nu, a in enumerate(cs):
                if a.degree > nu:
                    raise DegreeViolation(nu, a.degree, nu)
        self.coeffs = tuple(cs)
        self.relaxed = relaxed

    @property
    def order(self) -> int:
        """Largest v with a_v nonzero (-1 for the zero operator)."""
        return len(self.coeffs) - 1

    def a(self, nu: int) -> Poly:
        if 0 <= nu < len(self.coeffs):
            return self.coeffs[nu]
        return Poly.zero()

    def acoef(self, i: int, nu: int) -> Fraction:
        """Coefficient of x**i inside a_nu(x)."""
        return self.a(nu).coeff(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"DiffOperator({list(self.coeffs)!r}, relaxed={self.relaxed})"

    # -- action ------------------------------------------------------------

    def apply(self, p: Poly) -> Poly:
        out = Poly.zero()
        for nu, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            d = p.derivative(nu)
            if d.is_zero:
                break
            out = out + (a * d).scale(Fraction(1, math.factorial(nu)))
        return out

    def apply_monomial(self, n: int) -> Poly:
        """Image of x**n: sum_v a_v(x) * C(n, v) * x**(n-v)."""
        out = Poly.zero()
        for nu in range(min(self.order, n) + 1):
            a = self.coeffs[nu]
            if a.is_zero:
                continue
            out = out + (a * Poly.monomial(n - nu, math.comb(n, nu)))
        return out

    def shifted(self, m: int) -> "DiffOperator":
        """Operator whose v-th coefficient is a_(v+m); degree bound waived."""
        if m < 0:
            raise ValueError("shift must be >= 0")
        if m == 0:
            return self
        return DiffOperator(self.coeffs[m:], relaxed=True)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "DiffOperator":
        if not isinstance(data, dict) or "a" not in data:
            raise ValueError('operator JSON must be {"a": [poly, ...]}')
        polys = [Poly.from_json(entry) for entry in data["a"]]
        return DiffOperator(polys)


def from_action(images: Sequence[Poly]) -> DiffOperator:
    """Recover the unique coefficient list from prescribed monomial images.

    images[n] is the required image of x**n; the recovery peels one
    coefficient per degree since a_n enters the image of x**n with the
    bare term a_n(x).
    """
    for n, img in enumerate(images):
        if img.degree > n:
            raise DegreeViolation(n, img.degree, n)
    coeffs: list[Poly] = []
    for n, img in enumerate(images):
        acc = img
        for nu, a in enumerate(coeffs):
            if a.is_zero:
                continue
            acc = acc - a * Poly.monomial(n - nu, math.comb(n, nu))
        coeffs.append(acc)
    return DiffOperator(coeffs)


def leibniz_expand(J: DiffOperator, f: Poly, g: Poly) -> Poly:
    """Product-rule expansion of J(f*g) over the derivatives of g.

    Equals J.apply(f * g) exactly; swapping f and g gives the symmetric
    form over the derivatives of f.
    """
    out = Poly.zero()
    for n in range(J.order + 1):
        d = g.derivative(n)
        if d.is_zero and n > 0:
            break
        term = J.shifted(n).apply(f) * d
        out = out + term.scale(Fraction(1, math.factorial(n)))
    return out


# -- eigenvalue diagonal sums ---------------------------------------------


def lambda_at(J: DiffOperator, k: int, n: int) -> Fraction:
    """Diagonal sum lambda_(n+k)^[k] = sum_j C(n+k, j+k) a_j^[j+k].

    Uses the generalized (product-form) binomial, so the polynomial-in-n
    extension is returned for negative n as well.
    """
    total = Fraction(0)
    for j in range(max(J.order - k, -1) + 1):
        c = J.acoef(j, j + k)
        if c:
            total += binomial(n + k, j + k) * c
    return total


def lambda_poly(J: DiffOperator, k: int) -> Poly:
    """The diagonal sum as an exact polynomial in the index n: diagonal k of
    J's matrix on the monomials, [x**n] J(x**(n+k)) at n >= 0 (evaluate it
    with Poly.values).  The numerator of C(n+k, j+k) is extended factor by
    factor as j grows, so the whole sum costs O(order**2) coefficient
    operations."""
    total = Poly.zero()
    b, r = Poly.one(), 0  # b = (n + k)(n + k - 1)...(n + k - r + 1)
    for j in range(max(J.order - k, -1) + 1):
        c = J.acoef(j, j + k)
        if not c:
            continue
        for t in range(r, j + k):
            b = b * Poly((k - t, 1))
        r = j + k
        total = total + b.scale(Fraction(c, math.factorial(r)))
    return total


class Diagonals(NamedTuple):
    """J's order + 1 diagonals on the monomials over one denominator, as
    diagonals builds them: rows[t][n - lo] = A lambda_(n+t)^[t]."""

    A: int
    lo: int
    rows: list

    def at(self, t: int, n: int) -> int:
        """A lambda_(n+t)^[t]; IndexError outside the build's indices."""
        if n < self.lo:
            raise IndexError(f"diagonal {t} is built from n = {self.lo}, not {n}")
        return self.rows[t][n - self.lo]


def diagonals(J: DiffOperator, lo: int, hi: int) -> Diagonals:
    """J's matrix on the monomials, diagonal by diagonal, on integers: for
    t = 0..order (t = 0 alone, all zero, for the zero operator) and every
    integer n with lo <= n < max(hi, order + 1), lo <= 0,

        A lambda_(n+t)^[t] = sum_j C(n + t, j + t) A a_j^[j+t],

    which is [x**n] A J(x**(n+t)) for n >= 0, and A lambda_poly(J, t) at
    every n.  A is the lcm of the denominators of J's coefficients and
    C(m, r) is an integer at every integer m (its product form), so each
    value is one int sum.  The build always reaches 0..order, the values
    classify's root screen reads."""
    A = math.lcm(*(c.denominator for a in J.coeffs for c in a.coeffs))
    hi = max(hi, J.order + 1)
    rows = []
    for t in range(max(J.order, 0) + 1):  # the zero operator's diagonal 0 is 0
        terms = [
            (j + t, c.numerator * (A // c.denominator))
            for j in range(J.order - t + 1)
            if (c := J.acoef(j, j + t))
        ]
        rows.append([sum(v * _binomial(n + t, r) for r, v in terms) for n in range(lo, hi)])
    return Diagonals(A, lo, rows)


def _binomial(m: int, r: int) -> int:
    """C(m, r) = m (m - 1) ... (m - r + 1) / r! at any integer m, r >= 0."""
    return math.comb(m, r) if m >= 0 else (-1) ** r * math.comb(r - m - 1, r)


# -- classification --------------------------------------------------------


def nonneg_integer_roots(values: list) -> list[int]:
    """All nonnegative integer roots, exactly, of the polynomial p of degree
    at most m whose values at 0..m are the ints values (p.int_values gives
    them for a rational p, at any positive scale).

    The forward differences of the values give p in the binomial basis,
    p(n) = sum_k (Delta**k p)(0) C(n, k), and so deg! p(n) on the
    monomials, an integer list.  A polynomial q(n) is monotone where its
    forward difference q(n+1) - q(n) keeps one sign, so the sign runs of
    p(n) up to the Cauchy bound follow from those of its differences by
    bisection: O(deg**2 * log(bound)) evaluations, however large the
    bound.  Each difference is an integer list,
    [n**j] (q(n+1) - q(n)) = sum_(i > j) C(i, j) [n**i] q(n), evaluated by
    integer_horner."""
    newton, diffs = [], list(values)
    while diffs:
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    while newton and not newton[-1]:
        newton.pop()
    if not newton:
        raise ValueError("zero polynomial vanishes everywhere")
    deg = len(newton) - 1
    if deg == 0:
        return []
    cs = [0] * (deg + 1)  # deg! p on the monomials
    falling = [1]  # n (n - 1) ... (n - k + 1)
    for k, d in enumerate(newton):
        w = d * (math.factorial(deg) // math.factorial(k))
        for i, c in enumerate(falling):
            cs[i] += w * c
        falling = [0, *falling]
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
    top = 1 + max(abs(c) // abs(cs[-1]) for c in cs)
    tower = []  # p and its differences down to degree 1, highest coefficient first
    while len(cs) > 1:
        tower.append(cs[::-1])
        deg = len(cs) - 1
        cs = [sum(cs[i] * math.comb(i, j) for i in range(j + 1, deg + 1)) for j in range(deg)]
    runs = [(0, top, None)]  # (first n, last n, sign) for the constant
    for p in reversed(tower):
        def sign(n, p=p):
            v = integer_horner(p, (n,))[0]
            return (v > 0) - (v < 0)
        merged = []
        for a, e, _ in runs:
            b = min(e + 1, top)  # p(n) is monotone for a <= n <= b
            while a <= b:
                s, lo, hi = sign(a), a, b
                while lo < hi:  # the last n in [a, b] where sign(n) == s
                    mid = (lo + hi + 1) // 2
                    lo, hi = (mid, hi) if sign(mid) == s else (lo, mid - 1)
                if merged and merged[-1][2] == s:
                    merged[-1] = (merged[-1][0], lo, s)
                else:
                    merged.append((a, lo, s))
                a = lo + 1
        runs = merged
    return [n for a, e, s in runs if s == 0 for n in range(a, e + 1)]


def classify(J: DiffOperator, diag: Diagonals | None = None) -> dict:
    """Decide isomorphism / derivative-like(k) / degenerate, as the JSON
    object the CLI prints: "class", then "k" (the derivative order of a
    lowering operator) and "witness" (the first failing index or condition
    of a degenerate one) where they apply, then "certified_all_n".

    The diagonal sums (polynomial in n) are screened for nonnegative
    integer roots, which settles nonvanishing for all n at once; only the
    zero operator, which has no diagonal sum, is classified without it
    (certified_all_n false).  The screen reads each sum's values at
    0..order off diag, J's diagonals (a caller that has built them passes
    them in), or off a build of its own.
    """
    if J.order < 0:
        return {"class": "degenerate", "witness": "zero operator", "certified_all_n": False}
    if diag is None:
        diag = diagonals(J, 0, J.order + 1)

    def roots(t):  # None when diagonal t vanishes identically
        values = [diag.at(t, n) for n in range(J.order + 1)]
        return nonneg_integer_roots(values) if any(values) else None

    roots0 = roots(0)
    if roots0 == []:
        return {"class": "isomorphism", "certified_all_n": True}

    # number of identically-zero leading coefficients
    k = 0
    while k <= J.order and J.a(k).is_zero:
        k += 1
    if k == 0:
        witness = roots0[0] if roots0 else 0
        return {
            "class": "degenerate",
            "witness": f"diagonal sum vanishes at n={rational_to_str(witness)}",
            "certified_all_n": True,
        }
    for nu in range(k, J.order + 1):
        if J.a(nu).degree > nu - k:
            return {
                "class": "degenerate",
                "witness": f"coefficient {nu} has degree {J.a(nu).degree} > {nu - k}",
                "certified_all_n": True,
            }
    rootsk = roots(k)
    if rootsk == []:
        return {"class": "derivative-like", "k": k, "certified_all_n": True}
    witness = rootsk[0] if rootsk else 0
    return {
        "class": "degenerate",
        "k": k,
        "witness": f"shifted diagonal sum vanishes at n={rational_to_str(witness)}",
        "certified_all_n": True,
    }
