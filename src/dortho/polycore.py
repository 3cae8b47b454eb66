"""Exact scalars and dense univariate polynomials.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), which
satisfy the required invariants by construction: always reduced,
positive denominator, zero stored as 0/1.  Polynomials are immutable
dense coefficient tuples in ascending degree with no trailing zeros; the
zero polynomial is the empty tuple and has degree -1.

The dense kernels (add, sub, mul, scale, derivative, evaluation) are the
methods of `Poly` and work on its coefficient tuples directly; they are
the package's only polynomial arithmetic.  `Poly.int_values` evaluates at
many integers at once, on integers over one denominator.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import OutputTooLarge

Scalar = Union[Fraction, int, str]


def _own_spelling(v):
    """(p, q) of the spelling rational_to_str writes, an ASCII "[-]digits"
    or "[-]digits/digits" with q != 0, read by int(); None for any other
    value, or for such a string past the digit limit."""
    if type(v) is str and v.isascii():
        num, slash, den = v.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:
                return None
            if q:
                return p, q
    return None


def rational_from_json(v) -> Fraction:
    """A rational from a JSON value: an int (not a bool), a finite float
    (read through its str, so 0.5 is 1/2), or a string "p", "p/q" or a
    decimal.  A string with an exponent is refused: "1e1000000000" would
    need a 415 MB integer.

    The spelling rational_to_str writes is read by int() (_own_spelling),
    in about half the time of Fraction's parser.  Every other value, and
    such a string that int() refuses (past the digit limit) or with q = 0,
    takes the checks and Fraction(str(v)) below, so what is accepted, and
    every error raised, is as if they alone ran."""
    pq = _own_spelling(v)
    if pq:
        return Fraction(*pq)
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"not a rational: {v!r}")
    if isinstance(v, str) and "e" in v.lower():
        raise ValueError(f"rational with an exponent: {v!r}")
    return Fraction(str(v))  # ValueError for NaN and infinities


def pair_from_json(v) -> tuple:
    """rational_from_json(v) as its reduced pair (num, den): dortho's own
    spelling with one gcd and no Fraction, every other value through
    rational_from_json, with its errors."""
    pq = _own_spelling(v)
    if pq:
        return reduced_pair(*pq)
    r = rational_from_json(v)
    return r.numerator, r.denominator


def reduced_pair(num: int, den: int) -> tuple:
    """num / den, den > 0, as the pair (num, den) in lowest terms: one gcd,
    and 0 as (0, 1).  Equal rationals have equal pairs."""
    g = math.gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def rational_to_str(r) -> str:
    """Canonical string form: "p/q" with q > 1, otherwise "p" (pair_to_str)."""
    if type(r) is not Fraction:
        r = Fraction(r)
    return pair_to_str(r.numerator, r.denominator)


def pair_to_str(num: int, den: int) -> str:
    """The canonical string of a reduced pair (reduced_pair): "num/den"
    with den > 1, otherwise "num", as str() writes a Fraction.

    Raises OutputTooLarge when num or den passes Python's limit on the
    digits of an int converted to str.
    """
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise OutputTooLarge(
            f"an exact result has more than {limit} digits, the output limit"
        ) from exc


def writable(num: int, den: int) -> tuple:
    """The reduced pair (num, den) as given, unless it is too long to
    write (pair_to_str raises); an int below 8**k has at most k digits, so
    only a pair past 3k bits is tried."""
    screen = 3 * sys.get_int_max_str_digits()  # 0: no limit
    if screen and max(num.bit_length(), den.bit_length()) > screen:
        pair_to_str(num, den)
    return num, den


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

    # _hash is filled by the first __hash__: a cache key such as
    # seqkit.operator_column's tuple of coefficients is hashed on every lookup.
    __slots__ = ("coeffs", "_hash")

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

    def int_values(self, ns: Iterable[int]) -> tuple:
        """(ints, den), p(n) = ints[i] / den at the i-th n of ns: integer_horner
        on the coefficients scaled by den, the lcm of their denominators."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in reversed(self.coeffs)]
        return integer_horner(ints, ns), den

    def values(self, ns: Iterable[int]) -> list:
        """p(n) for each integer n in ns: int_values, then one Fraction each."""
        ints, den = self.int_values(ns)
        return [Fraction(v, den) for v in ints]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def to_json(self) -> list[str]:
        return [rational_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list) -> "Poly":
        if not isinstance(data, list):
            raise ValueError("a polynomial must be an array of rationals")
        return Poly([rational_from_json(c) for c in data])

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def integer_horner(ints: list, ns: Iterable[int]) -> list:
    """Horner's rule at each integer n of ns, ints the coefficients, highest first."""
    out = []
    for n in ns:
        acc = 0
        for c in ints:
            acc = acc * n + c
        out.append(acc)
    return out


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
