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
from typing import Sequence

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


# -- classification --------------------------------------------------------


def nonneg_integer_roots(q: Poly) -> list[int]:
    """All nonnegative integer roots of q, exactly, up to the Cauchy bound.

    q(n) is monotone where its forward difference q(n+1) - q(n) keeps one
    sign, so the sign runs of q(n) follow from those of its differences by
    bisection: O(deg**2 * log(bound)) evaluations, however large the bound.
    q is first scaled to integers by the lcm of its denominators, which
    keeps every sign, so each difference is an integer list,
    [n**j] (p(n+1) - p(n)) = sum_(i > j) C(i, j) [n**i] p(n), evaluated by
    integer_horner."""
    if q.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    if q.degree == 0:
        return []
    den = math.lcm(*(c.denominator for c in q.coeffs))
    cs = [c.numerator * (den // c.denominator) for c in q.coeffs]
    top = 1 + max(abs(c) // abs(cs[-1]) for c in cs)
    tower = []  # q and its differences down to degree 1, highest coefficient first
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


def classify(J: DiffOperator) -> dict:
    """Decide isomorphism / derivative-like(k) / degenerate, as the JSON
    object the CLI prints: "class", then "k" (the derivative order of a
    lowering operator) and "witness" (the first failing index or condition
    of a degenerate one) where they apply, then "certified_all_n".

    The diagonal sums (polynomial in n) are screened for nonnegative
    integer roots, which settles nonvanishing for all n at once; only the
    zero operator, which has no diagonal sum, is classified without it
    (certified_all_n false).
    """
    if J.order < 0:
        return {"class": "degenerate", "witness": "zero operator", "certified_all_n": False}

    lam0 = lambda_poly(J, 0)
    if lam0.is_zero:
        roots0 = None
    else:
        roots0 = nonneg_integer_roots(lam0)
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
    lamk = lambda_poly(J, k)
    rootsk = None if lamk.is_zero else nonneg_integer_roots(lamk)
    if rootsk == []:
        return {"class": "derivative-like", "k": k, "certified_all_n": True}
    witness = rootsk[0] if rootsk else 0
    return {
        "class": "degenerate",
        "k": k,
        "witness": f"shifted diagonal sum vanishes at n={rational_to_str(witness)}",
        "certified_all_n": True,
    }
