"""Monic polynomial sequences from higher-order recurrences.

Covers sequence generation, expansion of arbitrary polynomials in the
monic basis, structure-coefficient extraction, canonical dual-functional
moments, and the finite d-orthogonality probe.

Moments and pairings come from the sequence's own x-multiplication rows,
x*P_k = P_(k+1) + sum_j c_(k,j) P_j, read once per sequence by
structure_coeffs and kept sparse.  The dual moments follow by applying
the rows to the basis expansion of x**n.  The pairings
sigma_nu(m, n) = <u_nu, P_m P_n> follow from the mixed-moment recurrence
(Gautschi's modified Chebyshev algorithm)

    sigma_nu(0, n)   = delta_(nu, n)
    sigma_nu(m+1, n) = sigma_nu(m, n+1) + sum_j c_(n,j) sigma_nu(m, j)
                                        - sum_k c_(m,k) sigma_nu(k, n),

which is exact by the delta-duality definition of the dual sequence and
forms no polynomial product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    DegreeTooLarge,
    IndexOutOfRange,
    InsufficientDegree,
    MissingCoefficient,
)
from .polycore import Poly, Rational, rational_to_str
from .report import VerificationReport


class RecurrenceTable:
    """Coefficient tables for a (d+1)-term monic recurrence.

    beta[n] holds the x-shift at step n (n >= 0).  levels[s] holds the
    1-based sequence of lowering coefficients with superscript s, so for
    d=2 level 1 is the alpha sequence and level 0 the gamma sequence.
    Out-of-convention reads (index <= 0 for alpha/gamma, negative for
    beta) return 0, matching the P_(-i) = 0 convention.
    """

    def __init__(self, d: int, beta: Sequence, levels: Sequence[Sequence]):
        if d < 1:
            raise ValueError("d must be >= 1")
        if len(levels) != d:
            raise ValueError(f"expected {d} gamma levels, got {len(levels)}")
        self.d = d
        self._beta = tuple(Fraction(b) for b in beta)
        self._levels = tuple(tuple(Fraction(g) for g in lv) for lv in levels)

    @staticmethod
    def two_orthogonal(beta: Sequence, alpha: Sequence, gamma: Sequence) -> "RecurrenceTable":
        """d=2 table; alpha[i] is alpha_(i+1), gamma[i] is gamma_(i+1)."""
        return RecurrenceTable(2, beta, [gamma, alpha])

    def beta(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n >= len(self._beta):
            raise MissingCoefficient(f"beta_{n} not tabulated")
        return self._beta[n]

    def level(self, s: int, m: int) -> Fraction:
        """gamma^s_m with 1-based m; 0 for m <= 0."""
        if m <= 0:
            return Fraction(0)
        lv = self._levels[s]
        if m > len(lv):
            raise MissingCoefficient(f"gamma^{s}_{m} not tabulated")
        return lv[m - 1]

    def alpha(self, n: int) -> Fraction:
        if self.d != 2:
            raise ValueError("alpha accessor is d=2 only")
        return self.level(1, n)

    def gamma(self, n: int) -> Fraction:
        if self.d != 2:
            raise ValueError("gamma accessor is d=2 only")
        return self.level(0, n)

    @property
    def regular(self) -> bool:
        """Whether every tabulated lowest-level coefficient is nonzero."""
        return all(g != 0 for g in self._levels[0])

    def first_vanishing_gamma(self) -> Optional[int]:
        for i, g in enumerate(self._levels[0]):
            if g == 0:
                return i + 1
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecurrenceTable):
            return NotImplemented
        return (
            self.d == other.d
            and self._beta == other._beta
            and self._levels == other._levels
        )

    def to_json(self) -> dict:
        out = {"d": self.d, "beta": [rational_to_str(b) for b in self._beta]}
        if self.d == 2:
            out["alpha"] = [rational_to_str(a) for a in self._levels[1]]
            out["gamma"] = [rational_to_str(g) for g in self._levels[0]]
        else:
            out["levels"] = [
                [rational_to_str(g) for g in lv] for lv in self._levels
            ]
        return out

    @staticmethod
    def from_json(data: dict) -> "RecurrenceTable":
        d = int(data["d"])
        if d == 2:
            return RecurrenceTable.two_orthogonal(
                [Fraction(str(b)) for b in data["beta"]],
                [Fraction(str(a)) for a in data["alpha"]],
                [Fraction(str(g)) for g in data["gamma"]],
            )
        return RecurrenceTable(
            d,
            [Fraction(str(b)) for b in data["beta"]],
            [[Fraction(str(g)) for g in lv] for lv in data["levels"]],
        )


class MonicSequence:
    """P_0..P_N, each monic of exact degree equal to its index."""

    def __init__(self, polys: Sequence[Poly], provenance: object = None):
        ps = tuple(polys)
        for n, p in enumerate(ps):
            if p.degree != n or not p.is_monic:
                raise ValueError(f"entry {n} is not monic of degree {n}")
        self.polys = ps
        self.provenance = provenance

    @property
    def N(self) -> int:
        return len(self.polys) - 1

    def __getitem__(self, n: int) -> Poly:
        if n < 0:
            return Poly.zero()
        return self.polys[n]

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def to_json(self) -> list:
        return [p.to_json() for p in self.polys]

    @cached_property
    def x_rows(self) -> tuple:
        """Row k (k < N) lists the nonzero (j, c_(k,j)) with
        x*P_k = P_(k+1) + sum_j c_(k,j) P_j, read from structure_coeffs."""
        if self.N < 1:
            return ()
        sc = structure_coeffs(self)
        rows = []
        for k, b in enumerate(sc.beta):
            lower = sc.chi[k - 1] if k else ()
            rows.append(
                tuple((j, c) for j, c in enumerate((*lower, b)) if c)
            )
        return tuple(rows)


@dataclass(frozen=True)
class BasisExpansion:
    """Coefficients c_0..c_m of a polynomial in the monic basis."""

    coefficients: tuple

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return Fraction(0)

    def reconstruct(self, seq: MonicSequence) -> Poly:
        out = Poly.zero()
        for i, c in enumerate(self.coefficients):
            if c:
                out = out + seq[i].scale(c)
        return out


@dataclass(frozen=True)
class StructureCoeffs:
    """beta_n and the triangular chi table from expanding x*P_(n+1)."""

    beta: tuple
    chi: tuple  # chi[n] = (chi_(n,0), ..., chi_(n,n))

    def alpha(self, n: int) -> Fraction:
        """chi_(n-1, n-1), the three-back coefficient alpha_n (n >= 1)."""
        if n <= 0:
            return Fraction(0)
        return self.chi[n - 1][n - 1]

    def gamma(self, n: int) -> Fraction:
        """chi_(n, n-1), the four-back coefficient gamma_n (n >= 1)."""
        if n <= 0:
            return Fraction(0)
        return self.chi[n][n - 1]


class DualMoments:
    """Moments (u_i)_n of the first d canonical dual functionals."""

    def __init__(self, moments: Sequence[Sequence]):
        self._m = tuple(tuple(Fraction(v) for v in row) for row in moments)

    def moment(self, i: int, n: int) -> Fraction:
        return self._m[i][n]

    @property
    def d(self) -> int:
        return len(self._m)

    @property
    def N(self) -> int:
        return len(self._m[0]) - 1

    def to_json(self) -> list:
        return [[rational_to_str(v) for v in row] for row in self._m]


def generate(rt: RecurrenceTable, N: int, provenance: object = None) -> MonicSequence:
    """Run the (d+1)-term recurrence up to degree N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    x = Poly.x()
    polys = [Poly.one()]
    for n in range(1, N + 1):
        p = (x - Poly.constant(rt.beta(n - 1))) * polys[n - 1]
        for nu in range(min(rt.d - 1, n - 2) + 1):
            g = rt.level(rt.d - 1 - nu, n - 1 - nu)
            if g:
                p = p - polys[n - 2 - nu].scale(g)
        polys.append(p)
    return MonicSequence(polys, provenance=provenance if provenance is not None else rt)


def expand_in_basis(p: Poly, seq: MonicSequence) -> BasisExpansion:
    """Unique coefficients of p in the monic basis, by triangular reduction."""
    if p.degree > seq.N:
        raise DegreeTooLarge(f"degree {p.degree} exceeds basis top degree {seq.N}")
    if p.is_zero:
        return BasisExpansion(())
    coeffs = [Fraction(0)] * (p.degree + 1)
    rem = p
    for k in range(p.degree, -1, -1):
        c = rem.coeff(k)
        if c:
            coeffs[k] = c
            rem = rem - seq[k].scale(c)
    assert rem.is_zero
    return BasisExpansion(tuple(coeffs))


def multiply_by_x(seq: MonicSequence, rt: RecurrenceTable, n: int) -> BasisExpansion:
    """Expansion of x*P_n from the d=2 table entries."""
    if rt.d != 2:
        raise ValueError("multiply_by_x is d=2 only")
    if n < 0 or n + 1 > seq.N:
        raise IndexOutOfRange(f"need P_{n + 1} in the sequence")
    coeffs = [Fraction(0)] * (n + 2)
    coeffs[n + 1] = Fraction(1)
    coeffs[n] += rt.beta(n)
    if n - 1 >= 0:
        coeffs[n - 1] += rt.alpha(n)
    if n - 2 >= 0:
        coeffs[n - 2] += rt.gamma(n - 1)
    return BasisExpansion(tuple(coeffs))


def structure_coeffs(seq: MonicSequence) -> StructureCoeffs:
    """Extract beta_n and chi_(n,v) by expanding x*P_(n+1) in the basis."""
    if seq.N < 1:
        raise ValueError("need at least P_0 and P_1")
    x = Poly.x()
    beta = []
    chi = []
    for m in range(seq.N):
        exp = expand_in_basis(x * seq[m], seq)
        assert exp.coeff(m + 1) == 1
        beta.append(exp.coeff(m))
        if m >= 1:
            chi.append(tuple(exp.coeff(nu) for nu in range(m)))
    return StructureCoeffs(beta=tuple(beta), chi=tuple(chi))


def dual_moments(seq: MonicSequence, d: int) -> DualMoments:
    """Moments (u_i)_n = coefficient of P_i in the expansion of x**n.

    The expansion of x**(n+1) is x times that of x**n, with each x*P_j
    replaced by its x-multiplication row.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    x_rows = seq.x_rows
    rows = [[] for _ in range(d)]
    exp = [Fraction(1)]
    for n in range(seq.N + 1):
        if n:
            nxt = [Fraction(0)] * (n + 1)
            for j, a in enumerate(exp):
                if a:
                    nxt[j + 1] += a
                    for k, c in x_rows[j]:
                        nxt[k] += a * c
            exp = nxt
        for i in range(d):
            rows[i].append(exp[i] if i <= n else Fraction(0))
    return DualMoments(rows)


def _mixed_moments(seq: MonicSequence, nu: int, M: int) -> list:
    """sigma[m][n] = <u_nu, P_m P_n> for m <= M and n <= seq.N - m."""
    N = seq.N
    rows = seq.x_rows if M > 0 else ()
    sigma = [[Fraction(int(n == nu)) for n in range(N + 1)]]
    for m in range(M):
        cur = sigma[m]
        nxt = []
        for n in range(N - m):
            v = cur[n + 1]
            for j, c in rows[n]:
                if cur[j]:
                    v += c * cur[j]
            for k, c in rows[m]:
                if sigma[k][n]:
                    v -= c * sigma[k][n]
            nxt.append(v)
        sigma.append(nxt)
    return sigma


def check_d_orthogonality(seq: MonicSequence, d: int, M: int) -> VerificationReport:
    """Probe the d-orthogonality and regularity conditions up to row M.

    For every nu < d and m <= M the pairing <u_nu, P_m P_n> must vanish
    for n >= m*d + nu + 1 and be nonzero at n = m*d + nu.  The pairings
    come from the mixed-moment recurrence over the sequence's
    x-multiplication rows (see the module docstring).  Certification is
    finite: n ranges as far as the generated basis allows.
    """
    for m in range(M + 1):
        for nu in range(d):
            n0 = m * d + nu
            if m + n0 > seq.N:
                raise InsufficientDegree(
                    f"need degree {m + n0} products; sequence stops at {seq.N}"
                )
    sigmas = [_mixed_moments(seq, nu, M) for nu in range(d)]
    report = VerificationReport()
    for m in range(M + 1):
        for nu in range(d):
            row = sigmas[nu][m]
            n0 = m * d + nu
            val = row[n0]
            report.record(
                "regularity",
                (m, nu, n0),
                val != 0,
                witness=None if val != 0 else {"value": "0"},
            )
            for n in range(n0 + 1, seq.N - m + 1):
                val = row[n]
                report.record(
                    "orthogonality",
                    (m, nu, n),
                    val == 0,
                    witness=None if val == 0 else {"value": rational_to_str(val)},
                )
    return report


def derivative_sequence(seq: MonicSequence) -> MonicSequence:
    """Normalized derivative sequence Q_n = P'_(n+1) / (n+1)."""
    if seq.N < 1:
        raise ValueError("need at least P_1")
    polys = [
        seq[n + 1].derivative().scale(Fraction(1, n + 1)) for n in range(seq.N)
    ]
    return MonicSequence(polys, provenance=("derivative", seq.provenance))
