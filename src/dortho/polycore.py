"""Exact scalars and dense univariate polynomials.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), which
satisfy the required invariants by construction: always reduced,
positive denominator, zero stored as 0/1.  Polynomials are immutable
dense coefficient tuples in ascending degree with no trailing zeros; the
zero polynomial is the empty tuple and has degree -1.

The dense kernels (add, sub, mul, scale, derivative, evaluation) are the
methods of `Poly` and work on its coefficient tuples directly; they are
the package's only polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction

Scalar = Union[Fraction, int, str]


def rational_from_str(s: str) -> Fraction:
    """Parse the canonical "p/q" or "p" form (also accepts plain ints)."""
    return Fraction(s)


def rational_to_str(r) -> str:
    """Canonical string form: "p/q" with q > 1, otherwise "p"."""
    return str(Fraction(r))


_ZERO = Fraction(0)


def _coerce(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


def _trim(cs: list) -> list:
    """Drop trailing zeros in place and return cs."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    del cs[n:]
    return cs


class Poly:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_coerce(c) for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(_trim(cs)))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def monomial(n: int, c: Scalar = 1) -> "Poly":
        if n < 0:
            raise ValueError("monomial exponent must be >= 0")
        return Poly([0] * n + [c])

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _wrap(self, cs) -> "Poly":
        p = Poly.__new__(Poly)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, bi in enumerate(b):
            out[i] += bi
        return self._wrap(_trim(out))

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [_ZERO] * (len(b) - len(a))
        for i, bi in enumerate(b):
            out[i] -= bi
        return self._wrap(_trim(out))

    def __neg__(self) -> "Poly":
        return self._wrap([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._wrap(())
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return self._wrap(_trim(out))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "Poly":
        c = _coerce(c)
        if not c:
            return self._wrap(())
        return self._wrap([c * x for x in self.coeffs])

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cs = self.coeffs
        for _ in range(order):
            if len(cs) <= 1:
                return self._wrap(())
            cs = [cs[i] * i for i in range(1, len(cs))]
        return self._wrap(cs)

    def __call__(self, x0: Scalar) -> Fraction:
        x0 = _coerce(x0)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def to_json(self) -> list[str]:
        return [rational_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list) -> "Poly":
        return Poly([Fraction(str(c)) for c in data])

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)


def binomial(n: int, r: int) -> Fraction:
    """Generalized binomial coefficient: product form, exact.

    Defined for any integer n (including negative) and r >= 0, matching
    the polynomial-in-n extension used when recurrence identities are
    probed below their nominal starting index.
    """
    if r < 0:
        return Fraction(0)
    num = 1
    for t in range(r):
        num *= n - t
    den = 1
    for t in range(2, r + 1):
        den *= t
    return Fraction(num, den)
