"""Monic polynomial sequences from higher-order recurrences.

Covers sequence generation, the x-multiplication rows, an operator's
matrix columns over them, the derivative sequence, canonical
dual-functional moments, and the d-orthogonality check.  A
sequence is its x-rows x*P_k = P_(k+1) + sum_j c_(k,j) P_j, each c_(k,j)
held as a reduced integer pair: RecurrenceTable.pair_row's for a generated
sequence, derivative_sequence's for a derivative sequence, so a table
travels to the kernels with no Fraction.  It builds each polynomial on its
first read, so a reader of the rows alone builds none.  expand_in_basis
and structure_coeffs reduce polynomials in a basis of polynomials; no
command calls them, and the tests keep them as the polynomial reference.

Moments and pairings come from the sparse x-rows.  The dual moments follow
by applying the rows to the basis expansion of x**n.  The pairings
sigma_nu(m, n) = <u_nu, P_m P_n> follow from the mixed-moment recurrence
(Gautschi's modified Chebyshev algorithm)

    sigma_nu(0, n)   = delta_(nu, n)
    sigma_nu(m+1, n) = sigma_nu(m, n+1) + sum_j c_(n,j) sigma_nu(m, j)
                                        - sum_k c_(m,k) sigma_nu(k, n),

which is exact by the delta-duality definition of the dual sequence and
forms no polynomial product.

Both loops run on integers (fraction-free, as in Bareiss's elimination).
The rows are scaled by D, the lcm of their denominators, so each c_(k,j)
is the integer c_(k,j) D over D.  The expansion of x**n is one integer
vector over one denominator, and sigma_nu(m, .) = S_m / den_m with S_m an
integer list.  Each step divides the new vector and its denominator by
their one gcd, which leaves the denominator equal to the lcm of the
reduced values' denominators.  The column kernel (operator_column) takes
the idea to its end: on the weighted rows D**(k + 1 - j) c_(k,j) every
quantity it forms carries a known power of D, so it divides nothing.

A banded sequence needs no pairing.  When row k has no entry below k - d,
x**k P_n has no component below P_(n - k d), so sigma_nu(m, n) = 0 for
n > m d + nu, and at n = m d + nu it is the product of the lowest entries
c_(i d+nu, (i-1) d+nu), i = 1..m.  Those pairings read only rows below N,
so the finite sequence settles every entry the check records; with every
lowest entry nonzero, the Favard-type theorem (Van Iseghem, J. Comput.
Appl. Math. 19, 1987; Maroni, Ann. Fac. Sci. Toulouse 10, 1989) extends the
pass to every n.  check_d_orthogonality reads a banded sequence's report
off those entries and runs the recurrence only for any other sequence.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegreeTooLarge,
    InsufficientDegree,
    MissingCoefficient,
)
from .polycore import (
    Poly,
    _coerce,
    pair_from_json,
    pair_to_str,
    rational_to_str,
    reduced_pair,
    writable,
)
from .report import VerificationReport


class RecurrenceTable:
    """Coefficient tables for a (d+1)-term monic recurrence.

    beta[n] holds the x-shift at step n (n >= 0).  levels[s] holds the
    1-based sequence of lowering coefficients with superscript s, so for
    d=2 level 1 is the alpha sequence and level 0 the gamma sequence.
    Out-of-convention reads (index <= 0 for alpha/gamma, negative for
    beta) return 0, matching the P_(-i) = 0 convention.

    Each entry is held as its reduced pair (num, den) (polycore.reduced_pair):
    beta_pairs and level_pairs, read through beta_pair, level_pair and
    pair_row.  of_pairs takes the pairs as they are, so the eigen-oracle and
    the closed forms hand over the integers they compute with no Fraction;
    the constructor takes any rationals.  beta, level, alpha, gamma and
    x_row give Fractions, built on the first such read (_fractions);
    __eq__ and to_json read the pairs.
    """

    def __init__(self, d: int, beta: Sequence, levels: Sequence[Sequence]):
        _check_shape(d, levels)
        self.d = d
        self.beta_pairs = _pairs(beta)
        self.level_pairs = tuple(_pairs(lv) for lv in levels)

    @classmethod
    def of_pairs(cls, d: int, beta: Sequence, levels: Sequence[Sequence]) -> "RecurrenceTable":
        """The table whose entries are the reduced pairs beta and levels,
        held as they are."""
        _check_shape(d, levels)
        rt = cls.__new__(cls)
        rt.d = d
        rt.beta_pairs = tuple(beta)
        rt.level_pairs = tuple(map(tuple, levels))
        return rt

    @staticmethod
    def two_orthogonal(beta: Sequence, alpha: Sequence, gamma: Sequence) -> "RecurrenceTable":
        """d=2 table; alpha[i] is alpha_(i+1), gamma[i] is gamma_(i+1)."""
        return RecurrenceTable(2, beta, [gamma, alpha])

    def beta_pair(self, n: int) -> tuple:
        if n < 0:
            return (0, 1)
        if n >= len(self.beta_pairs):
            raise MissingCoefficient(f"beta_{n} not tabulated")
        return self.beta_pairs[n]

    def level_pair(self, s: int, m: int) -> tuple:
        """gamma^s_m's pair with 1-based m; (0, 1) for m <= 0."""
        if m <= 0:
            return (0, 1)
        lv = self.level_pairs[s]
        if m > len(lv):
            raise MissingCoefficient(f"gamma^{s}_{m} not tabulated")
        return lv[m - 1]

    def pair_row(self, k: int) -> tuple:
        """Nonzero (j, pair) of x*P_k = P_(k+1) + sum_j c P_j by ascending j:
        beta_k at j = k, gamma^(j+d-k)_(j+1) for max(k-d, 0) <= j < k.  Read
        beta_k first, then by descending j, as the recursion needs them, so
        the first MissingCoefficient names the entry the recursion stops at."""
        entries = [(k, self.beta_pair(k))]
        for j in range(k - 1, max(k - self.d, 0) - 1, -1):
            entries.append((j, self.level_pair(j + self.d - k, j + 1)))
        return tuple((j, c) for j, c in reversed(entries) if c[0])

    @functools.cached_property
    def _fractions(self) -> tuple:
        """(beta, levels) as tuples of Fractions."""
        return (
            tuple(Fraction(*c) for c in self.beta_pairs),
            tuple(tuple(Fraction(*c) for c in lv) for lv in self.level_pairs),
        )

    def beta(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        self.beta_pair(n)  # MissingCoefficient past the table
        return self._fractions[0][n]

    def level(self, s: int, m: int) -> Fraction:
        """gamma^s_m with 1-based m; 0 for m <= 0."""
        if m <= 0:
            return Fraction(0)
        self.level_pair(s, m)  # MissingCoefficient past the table
        return self._fractions[1][s][m - 1]

    def x_row(self, k: int) -> tuple:
        """pair_row(k) with each entry read as a Fraction (beta, level)."""
        d = self.d
        return tuple(
            (j, self.beta(k) if j == k else self.level(j + d - k, j + 1))
            for j, _ in self.pair_row(k)
        )

    def alpha(self, n: int) -> Fraction:
        if self.d != 2:
            raise ValueError("alpha accessor is d=2 only")
        return self.level(1, n)

    def gamma(self, n: int) -> Fraction:
        if self.d != 2:
            raise ValueError("gamma accessor is d=2 only")
        return self.level(0, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecurrenceTable):
            return NotImplemented
        return (
            self.d == other.d
            and self.beta_pairs == other.beta_pairs
            and self.level_pairs == other.level_pairs
        )

    def to_json(self) -> dict:
        out = {"d": self.d, "beta": _strings(self.beta_pairs)}
        if self.d == 2:
            out["alpha"] = _strings(self.level_pairs[1])
            out["gamma"] = _strings(self.level_pairs[0])
        else:
            out["levels"] = [_strings(lv) for lv in self.level_pairs]
        return out

    @staticmethod
    def from_json(data: dict) -> "RecurrenceTable":
        """Parse a table: an int d (not a bool) and arrays of rationals, each
        read straight into its pair (polycore.pair_from_json)."""
        if not isinstance(data, dict):
            raise ValueError("tables JSON must be an object")
        d = data.get("d")
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"d must be an integer, got {d!r}")
        if d == 2:
            beta, alpha, gamma = (
                _json_pairs(data.get(key), key) for key in ("beta", "alpha", "gamma")
            )
            return RecurrenceTable.of_pairs(2, beta, [gamma, alpha])
        levels = data.get("levels")
        if not isinstance(levels, list):
            raise ValueError("levels must be an array")
        return RecurrenceTable.of_pairs(
            d,
            _json_pairs(data.get("beta"), "beta"),
            [_json_pairs(lv, f"levels[{s}]") for s, lv in enumerate(levels)],
        )


def _check_shape(d: int, levels) -> None:
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(levels) != d:
        raise ValueError(f"expected {d} gamma levels, got {len(levels)}")


def _pairs(values) -> tuple:
    """Rationals (anything Fraction takes) as reduced pairs."""
    return tuple((c.numerator, c.denominator) for c in map(_coerce, values))


def _strings(pairs) -> list:
    return [pair_to_str(*c) for c in pairs]


def _json_pairs(values, name: str) -> list:
    """A JSON array of rationals as reduced pairs."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be an array")
    return [pair_from_json(v) for v in values]


class MonicSequence:
    """P_0..P_N of a monic sequence, given by its x-rows.

    Row k (k < N) of the x-rows lists the nonzero (j, c_(k,j)) with
    x*P_k = P_(k+1) + sum_j c_(k,j) P_j, by ascending j, so N is their
    number.  MonicSequence(x_rows) takes them as rationals; of_pairs takes
    each c_(k,j) as its reduced pair (polycore.reduced_pair), as generate
    and derivative_sequence make them, and builds no Fraction.  P_n, and
    every P below it, is built on the first read of seq[n] by the
    recurrence P_(k+1) = x*P_k - sum_j c_(k,j) P_j; N and len build
    nothing.

    pair_rows holds the rows as reduced pairs, and every other view is
    read off it on its first read and kept:

    - x_rows, the rows as Fractions, which only the polynomials and the
      tests read;
    - integer_rows, (D, rows) with D the lcm of the pairs' denominators and
      row k's (j, c_(k,j)) as (j, c_(k,j) D), which the band test and the
      moment and pairing kernels read;
    - weighted_rows, which the column, band and derivative kernels read,
      (D, rows) with row k's (j, c_(k,j)) as (j, D**(k + 1 - j) c_(k,j)):
      the x-rows of D**n P_n(x/D), integers since k + 1 - j >= 1.

    A prefix takes pair_rows and both integer views from its parent,
    sliced, at the parent's D: every kernel is exact over any common
    multiple of the rows' denominators.

    columns caches operator-matrix columns over this sequence's x-rows,
    keyed by the scale key (coeffs, A, e) operator_column reads them at;
    only operator_column fills it, and it lives as long as the sequence.  A
    column is a dict j -> nonzero int, at a scale set by the key and D.
    """

    def __init__(self, x_rows: Sequence):
        self.x_rows = tuple(x_rows)
        self._hold(
            tuple(
                tuple((j, (c.numerator, c.denominator)) for j, c in row)
                for row in self.x_rows
            )
        )

    @classmethod
    def of_pairs(cls, pair_rows: Sequence) -> "MonicSequence":
        """The sequence whose row k lists (j, (num, den)) by ascending j,
        each pair reduced and nonzero."""
        seq = cls.__new__(cls)
        seq._hold(tuple(pair_rows))
        return seq

    def _hold(self, pair_rows: tuple) -> None:
        self.pair_rows = pair_rows
        self.N = len(pair_rows)
        self._polys = [Poly.one()]
        self.columns: dict = {}

    def __getitem__(self, n: int) -> Poly:
        """P_n for 0 <= n <= N.  A negative n raises IndexError: the
        P_(-i) = 0 rule belongs to the readers of a band (check_expansions)."""
        if n < 0:
            raise IndexError(f"P_{n}: the sequence starts at P_0")
        if n > self.N:
            raise IndexError(f"P_{n}: the sequence stops at P_{self.N}")
        polys = self._polys
        while len(polys) <= n:
            k = len(polys) - 1
            p = Poly((0, *polys[k].coeffs))  # x * P_k
            for j, c in self.x_rows[k]:
                p = p - polys[j].scale(c)
            polys.append(p)
        return polys[n]

    def __len__(self) -> int:
        return self.N + 1

    def prefix(self, n: int) -> "MonicSequence":
        """P_0..P_n, with this sequence's views sliced (see above)."""
        sub = MonicSequence.of_pairs(self.pair_rows[:n])
        for view in ("integer_rows", "weighted_rows"):
            D, rows = getattr(self, view)
            sub.__dict__[view] = (D, rows[:n])
        return sub

    @functools.cached_property
    def x_rows(self) -> tuple:
        return tuple(
            tuple((j, Fraction(*c)) for j, c in row) for row in self.pair_rows
        )

    @functools.cached_property
    def integer_rows(self) -> tuple:
        rows = self.pair_rows
        D = math.lcm(*(den for row in rows for _, (_, den) in row))
        return D, tuple(
            tuple((j, num * (D // den)) for j, (num, den) in row) for row in rows
        )

    @functools.cached_property
    def weighted_rows(self) -> tuple:
        D, rows = self.integer_rows
        powers = [1]  # D**(k - j) up to the widest row
        for _ in range(max((k - row[0][0] for k, row in enumerate(rows) if row), default=0)):
            powers.append(powers[-1] * D)
        return D, tuple(
            tuple((j, c * powers[k - j]) for j, c in row) for k, row in enumerate(rows)
        )


class BasisExpansion:
    """Coefficients c_0..c_m of a polynomial in the monic basis."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        self.coefficients = coefficients

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return Fraction(0)


def generate(rt: RecurrenceTable, N: int) -> MonicSequence:
    """The sequence of the (d+1)-term recurrence P_(k+1) = x*P_k - sum_j c P_j
    over the table's x-rows up to degree N, taken as the table's pairs
    (RecurrenceTable.pair_row), so its integer_rows have D the lcm of the
    reduced denominators and no Fraction is built.  The rows are read now,
    so a short table raises MissingCoefficient here; each P_n is built on
    its first read (see MonicSequence)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return MonicSequence.of_pairs([rt.pair_row(k) for k in range(N)])


def expand_in_basis(p: Poly, basis) -> BasisExpansion:
    """Unique coefficients of p in a monic basis P_0..P_(len(basis)-1) (a
    list of Poly or a MonicSequence), by triangular reduction."""
    if p.degree >= len(basis):
        raise DegreeTooLarge(
            f"degree {p.degree} exceeds basis top degree {len(basis) - 1}"
        )
    if p.is_zero:
        return BasisExpansion(())
    coeffs = [Fraction(0)] * (p.degree + 1)
    rem = p
    for k in range(p.degree, -1, -1):
        c = rem.coeff(k)
        if c:
            coeffs[k] = c
            rem = rem - basis[k].scale(c)
    assert rem.is_zero
    return BasisExpansion(tuple(coeffs))


def structure_coeffs(basis) -> tuple:
    """The x-rows (see MonicSequence) of a monic basis P_0..P_N given as
    expand_in_basis takes it, read by expanding each x*P_k, k < N."""
    rows = []
    for k in range(len(basis) - 1):
        exp = expand_in_basis(Poly((0, *basis[k].coeffs)), basis)  # x * P_k
        rows.append(tuple((j, c) for j in range(k + 1) if (c := exp.coeff(j))))
    return tuple(rows)


def operator_column(seq: MonicSequence, key: tuple, n: int) -> dict:
    """Column n of the matrix of the operator L in the sequence's basis, at
    the scale key = (coeffs, A, e) sets: coeffs are L's coefficient
    polynomials, and with L(P_n) = sum_j l_(j,n) P_j and D the sequence's
    (weighted_rows), the column maps each j with l_(j,n) != 0 to the int
    A D**(n + e - j) l_(j,n).  Every entry is an integer when A coeffs[v]
    has integer coefficients and deg coeffs[v] <= e + v for every v
    (column 0 raises ValueError otherwise); L(P_n) has degree at most
    n + e then, so every power of D is nonnegative.

    Level i of L has coefficients coeffs[i:] and is kept at the key
    (coeffs[i:], A, e + i), so level i of J at (J.coeffs, A, 0) is
    J.shifted(i) at its own key (J.coeffs[i:], A, i).  The rule
    L^(i)(x p) = L^(i+1)(p) + x L^(i)(p) and the x-row of P_n give each
    level's matrix column by column; over the weighted rows c~_(k,j) =
    D**(k + 1 - j) c_(k,j) every term lands at its scale with no division,

        column 0      = sum_l A D**(e - l) b_l X~**l e_0     (Horner)
        column n + 1  = X~ col_n + (column n of level i + 1)
                        - sum_((k, c~) in row n) c~ col_k,

    b_l the coefficients of coeffs[0], X~ e_j = e_(j+1) + sum_k c~_(j,k) e_k,
    and the level past the order zero.  The upper column carries no factor:
    its key's e is one more.  Columns are cached on the sequence by key, so
    J, J^(1), J^(2) and J^(3) share four levels.
    """
    cols = seq.columns.setdefault(key, [])
    if n < len(cols):
        return cols[n]
    coeffs, A, e = key
    rows = seq.weighted_rows[1]
    while len(cols) <= n:
        m = len(cols)
        if m == 0:
            D = seq.weighted_rows[0]
            out: dict = {}
            b = coeffs[0].coeffs if coeffs else ()
            for l in range(len(b) - 1, -1, -1):  # Horner
                out = _times_x(out, rows)
                if b[l]:
                    v, r = divmod(A * b[l].numerator, b[l].denominator)
                    if r or l > e:
                        raise ValueError(f"no integer column at the scale A = {A}, e = {e}")
                    out[0] = out.get(0, 0) + v * D ** (e - l)
        else:
            out = _times_x(cols[m - 1], rows)
            if len(coeffs) > 1:
                for j, v in operator_column(seq, (coeffs[1:], A, e + 1), m - 1).items():
                    out[j] = out.get(j, 0) + v
            for k, c in rows[m - 1]:
                for j, v in cols[k].items():
                    out[j] = out.get(j, 0) - c * v
        cols.append({j: v for j, v in out.items() if v})
    return cols[n]


def _times_x(vec: dict, rows) -> dict:
    """X~ vec over the weighted rows: each e_j of vec becomes
    e_(j+1) + sum_((k, c~) in rows[j]) c~ e_k."""
    out: dict = {}
    for j, v in vec.items():
        out[j + 1] = out.get(j + 1, 0) + v
        for k, c in rows[j]:
            out[k] = out.get(k, 0) + c * v
    return out


def _reduced(out: dict, den: int) -> tuple:
    """The pair (vec, den) of out / den: zeros dropped, one gcd divided out."""
    vec = {j: v for j, v in out.items() if v}
    g = math.gcd(den, *vec.values())
    if g > 1:
        den //= g
        vec = {j: v // g for j, v in vec.items()}
    return vec, den


def dual_moments(seq: MonicSequence, d: int) -> list:
    """Moments (u_i)_n = coefficient of P_i in the expansion of x**n, as d
    lists of reduced pairs (num, den): row i holds (u_i)_0..(u_i)_N.

    The expansion of x**(n+1) is x times that of x**n, with each x*P_j
    replaced by its x-multiplication row.  A step lowers a basis index by
    at most w, the rows' widest drop k - j, so an entry above
    d - 1 + (N - n) w at step n never reaches a moment and is not kept.

    The expansion is one integer vector over one denominator den, and the
    rows are scaled by D (integer_rows), so a step multiplies den by
    D and then divides den and the vector by their one gcd.  Each moment
    is its entry over den, reduced by one more gcd (reduced_pair); no
    Fraction is formed.

    A moment too long to write out raises OutputTooLarge (writable) as it
    is produced, so a caller that writes the moments does no further work
    for a result it cannot write.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    top = seq.N
    D, rows = seq.integer_rows
    w = max((k - j for k, row in enumerate(rows) for j, _ in row), default=0)
    moments = [[] for _ in range(d)]
    vec, den = [1], 1
    for n in range(top + 1):
        if n:
            nxt = [0] * (min(n, d - 1 + (top - n) * w) + 1)
            keep = len(nxt)
            for j, a in enumerate(vec):
                if a:
                    if j + 1 < keep:
                        nxt[j + 1] += a * D
                    for k, c in rows[j]:
                        if k < keep:
                            nxt[k] += a * c
            den *= D
            g = math.gcd(den, *nxt)
            if g > 1:
                den //= g
                nxt = [v // g for v in nxt]
            vec = nxt
        for i in range(d):
            moments[i].append(writable(*reduced_pair(vec[i] if i < len(vec) else 0, den)))
    return moments


def _mixed_moments(D: int, rows: tuple, N: int, nu: int, M: int) -> list:
    """Rows m <= M of sigma_nu as pairs (S_m, den_m) of an integer list and
    its denominator: sigma_nu(m, n) = <u_nu, P_m P_n> = S_m[n] / den_m for
    n <= N - m, over integer rows scaled by D (integer_rows).  Row
    m + 1 is built over D * lcm(den_m, den_k for each k in rows[m]) and
    reduced by one gcd."""
    sigma = [([int(n == nu) for n in range(N + 1)], 1)]
    for m in range(M):
        cur, den = sigma[m]
        E = math.lcm(den, *(sigma[k][1] for k, _ in rows[m]))
        if E != den:
            cur = [v * (E // den) for v in cur]
        lower = [(sigma[k][0], c * (E // sigma[k][1])) for k, c in rows[m]]
        nxt = []
        for n in range(N - m):
            v = D * cur[n + 1]
            for j, c in rows[n]:
                if cur[j]:
                    v += c * cur[j]
            for s, c in lower:
                if s[n]:
                    v -= c * s[n]
            nxt.append(v)
        den = D * E
        g = math.gcd(den, *nxt)
        if g > 1:
            den //= g
            nxt = [v // g for v in nxt]
        sigma.append((nxt, den))
    return sigma


def probe_degree(d: int, M: int) -> int:
    """The degree a d-orthogonality probe to row M needs: its last pairing,
    <u_(d-1), P_M P_n> at n = M d + d - 1, reads P to degree M + n."""
    return (d + 1) * M + d - 1


def check_d_orthogonality(seq: MonicSequence, d: int, M: int) -> VerificationReport:
    """The d-orthogonality and regularity conditions up to row M.

    For every nu < d and m <= M the pairing sigma_nu(m, n) = <u_nu, P_m P_n>
    must vanish for m*d + nu < n <= N - m (orthogonality) and be nonzero at
    n = m*d + nu (regularity, witness "0" on a failure).

    A banded sequence, where no row k has an entry below k - d, is settled
    by its lowest entries c_(k,k-d) alone, read as the numerators of the
    sequence's pair_rows, with no pairing computed:

    - x*P_n lies in the span of P_j, j >= n - d, so x**k P_n lies in that
      of j >= n - k d, and its coefficient at nu is 0 when n - k d > nu.
    - P_m P_n = x**m P_n + sum_(k<m) p_k x**k P_n, so for n >= m d + nu,
      sigma_nu(m, n) = [nu] x**m P_n.
    - That is 0 for n > m d + nu, and at n = m d + nu it is the product
      of c_(i d+nu, (i-1) d+nu) for i = 1..m, the lowest entries along
      nu's lowering path.
    - Every row read lies below m + n <= N, so the finite sequence
      settles every recorded entry.  When every lowest entry is nonzero,
      the Favard-type theorem for d-orthogonal sequences (Van Iseghem,
      J. Comput. Appl. Math. 19, 1987; Maroni, Ann. Fac. Sci. Toulouse 10,
      1989) makes any banded extension with nonzero lowest entries
      d-orthogonal, so the pass is a certificate for every n.

    Any other sequence runs _recurrence_report, which also gives every
    witness.  d < 1 or M < 0 raises ValueError; a sequence too short for
    the last pairing raises InsufficientDegree, before either route.
    """
    _probe_reach(seq, d, M)
    rows = seq.pair_rows
    if any(j < k - d for k, row in enumerate(rows) for j, _ in row):
        return _recurrence_report(seq, d, M)
    report = VerificationReport()
    regular = [True] * d  # the lowest entries along nu's path so far are nonzero
    for m in range(M + 1):
        for nu in range(d):
            n0 = m * d + nu
            if m:
                regular[nu] = regular[nu] and any(j == n0 - d and c[0] for j, c in rows[n0])
            _record_regularity(report, m, nu, n0, regular[nu])
            report.record_run(("orthogonality",), range(n0 + 1, seq.N - m + 1), (m, nu))
    return report


def _record_regularity(report: VerificationReport, m: int, nu: int, n0: int, ok: bool):
    """The regularity entry at (m, nu, n0): a pass is a run of one n at head
    (m, nu), which the writer prints as one piece; a failure keeps its
    witness "0"."""
    if ok:
        report.record_run(("regularity",), range(n0, n0 + 1), (m, nu))
    else:
        report.record("regularity", (m, nu, n0), False, {"value": "0"})


def _probe_reach(seq: MonicSequence, d: int, M: int) -> None:
    """Raise unless d >= 1, M >= 0 and seq reaches the probe's last pairing."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if M < 0:
        raise ValueError("M must be >= 0")
    for m in range(M + 1):
        for nu in range(d):
            n0 = m * d + nu
            if m + n0 > seq.N:
                raise InsufficientDegree(
                    f"need degree {m + n0} products; sequence stops at {seq.N}"
                )


def _recurrence_report(seq: MonicSequence, d: int, M: int) -> VerificationReport:
    """check_d_orthogonality's report from the pairings themselves, for
    arguments _probe_reach accepts.  They come from the mixed-moment
    recurrence over the sequence's x-multiplication rows (see the module
    docstring), run on integers: sigma_nu(m, .) = S_m / den_m with the rows
    scaled by D, one gcd per row.  A pairing is tested for zero on S_m and
    becomes a Fraction only as a failing witness; each (m, nu) block of
    orthogonality entries is one record_block, so a passing block is one
    run."""
    D, rows = seq.integer_rows
    sigmas = [_mixed_moments(D, rows, seq.N, nu, M) for nu in range(d)]
    report = VerificationReport()
    for m in range(M + 1):
        for nu in range(d):
            row, den = sigmas[nu][m]
            n0 = m * d + nu
            _record_regularity(report, m, nu, n0, row[n0] != 0)

            def failures(n):
                if row[n]:
                    return [{"value": rational_to_str(Fraction(row[n], den))}]

            ns = range(n0 + 1, seq.N - m + 1)
            report.record_block(("orthogonality",), ns, failures, (m, nu))
    return report


def derivative_sequence(seq: MonicSequence) -> MonicSequence:
    """Normalized derivative sequence Q_n = P'_(n+1) / (n+1), rows first.

    Q's x-rows come from seq's alone.  Differentiating
    x*P_k = P_(k+1) + sum_j c_(k,j) P_j, with P_k' = k Q_(k-1), gives

        k x Q_(k-1) = (k+1) Q_k + S_k - P_k,   S_k = sum_j j c_(k,j) e_(j-1).

    Write P_k = Q_k + F_k in Q's basis (F_0 = 0).  P's recurrence gives
    P_k = x Q_(k-1) + A_k with A_k = X F_(k-1) - sum_j c_(k-1,j) P_j, X the
    multiplication by x over Q's rows 0..k-2.  Equating the two forms of
    x Q_(k-1) gives row k - 1 of Q and the next F:

        x Q_(k-1) - Q_k = (S_k - A_k) / (k+1),   F_k = (S_k + k A_k) / (k+1).

    It runs on seq.weighted_rows, the integer rows of D**n P_n(x/D), whose
    derivative sequence is D**n Q_n(x/D): the recursion reads no D.  Each
    F_k and scaled row of Q is an int dict over one denominator, the lcm M
    of those it reads, reduced by one gcd (_reduced).  Q is returned rows
    first (MonicSequence.of_pairs), row k's entry at j as the reduced pair
    of v / (den D**(k + 1 - j)), with no Fraction.
    """
    if seq.N < 1:
        raise ValueError("need at least P_1")
    D, rows = seq.weighted_rows
    tails = [({}, 1)]  # tails[k] = F_k
    qrows: list = []  # Q's scaled rows as (vec, den)
    for k in range(1, seq.N):
        fvec, fden = tails[k - 1]
        lower = [(j, c, tails[j]) for j, c in rows[k - 1]]
        M = math.lcm(
            fden * math.lcm(*(qrows[i][1] for i in fvec)),
            *(tden for _, _, (_, tden) in lower),
        )
        a: dict = {}  # M A_k
        for i, f in fvec.items():
            a[i + 1] = a.get(i + 1, 0) + f * (M // fden)
            qvec, qden = qrows[i]
            f *= M // (fden * qden)
            for j, v in qvec.items():
                a[j] = a.get(j, 0) + f * v
        for j, c, (tvec, tden) in lower:
            a[j] = a.get(j, 0) - c * M
            c *= M // tden
            for i, v in tvec.items():
                a[i] = a.get(i, 0) - c * v
        s = {j - 1: j * c * M for j, c in rows[k] if j}  # M S_k
        keys = a.keys() | s.keys()
        qrows.append(_reduced({j: s.get(j, 0) - a.get(j, 0) for j in keys}, M * (k + 1)))
        tails.append(_reduced({j: s.get(j, 0) + k * a.get(j, 0) for j in keys}, M * (k + 1)))
    return MonicSequence.of_pairs(
        tuple((j, reduced_pair(v, den * D ** (k + 1 - j))) for j, v in sorted(vec.items()))
        for k, (vec, den) in enumerate(qrows)
    )
