"""check_expansions against the polynomial check it replaced, and the
integer column kernel against the Fraction recursion it replaced.

The first reference is the check as it was: apply L to P_(n+s), sum the
scaled basis polynomials of the band and compare the two polynomials.  On
random d = 2 tables, where most displayed expansions fail, and on random
bands around the true expansion of random operators, strict and relaxed,
the column check must give the same report, entry for entry and witness
for witness, and must apply an operator only to a failing column.

The second is operator_column's recursion run on Fractions: every column
the integer kernel caches must equal it times its scale, entry j of
column n at the key (coeffs, A, e) an int equal to A D**(n + e - j) times
the Fraction entry, with no zero entry.

The third is the displayed band formulas, and the two initial images of
the thrice-shifted operator, run on the table's Fractions: their run on
the sequence's integer view that verify_expansions evaluates must give
every entry scaled by exactly its weight's factor, A D**w.
"""

import functools
import math
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dortho import (
    DiffOperator,
    Poly,
    RecurrenceTable,
    VerificationReport,
    derivative_sequence,
    diffop,
    eigenfam,
    expand_in_basis,
    generate,
    seqkit,
    verify_expansions,
)
from dortho.diffop import lambda_at
from dortho.report import poly_witness

from conftest import operators, polys, written

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def reference_check_expansions(report, seq, ns, A, identities):
    # each band coefficient at the scale of L's column, A D**(n + s + e - j),
    # divided back to its rational value
    D = Fraction(seq.weighted_rows[0])
    for n in ns:
        for name, L, e, s, band in identities:
            rhs = Poly.zero()
            for j, c in band(n):
                if j >= 0 and c:
                    rhs = rhs + seq[j].scale(c / (A * D ** (n + s + e - j)))
            lhs = L.apply(seq[n + s])
            report.record(name, n, lhs == rhs, poly_witness(lhs, rhs))


def at_scale(seq, identities):
    """(A, identities) as check_expansions reads them, from (name, L, s,
    band) with rational bands: A the lcm of the denominators of every L's
    coefficients, each L at its least scale exponent e (deg a_v <= e + v)
    and each c_j multiplied by A D**(n + s + e - j)."""
    A = math.lcm(*(c.denominator for _, L, _, _ in identities for a in L.coeffs for c in a.coeffs))
    D = Fraction(seq.weighted_rows[0])
    scaled = []
    for name, L, s, band in identities:
        e = max([0, *(a.degree - v for v, a in enumerate(L.coeffs))])

        def at(n, band=band, w=s + e):
            return [(j, c * A * D ** (n + w - j)) for j, c in band(n)]

        scaled.append((name, L, e, s, at))
    return A, scaled


def tables(size, entries=rationals):
    """d = 2 tables: beta, alpha and gamma, each `size` entries drawn from
    `entries` (by default arbitrary rationals)."""
    return st.lists(entries, min_size=3 * size, max_size=3 * size).map(
        lambda v: RecurrenceTable.two_orthogonal(
            v[:size], v[size : 2 * size], v[2 * size :]
        )
    )


def run_counted(fn, *args):
    """fn(*args) and the number of DiffOperator.apply calls it made."""
    with mock.patch.object(
        DiffOperator, "apply", autospec=True, side_effect=DiffOperator.apply
    ) as apply:
        out = fn(*args)
    return out, apply.call_count


def assert_same_report(engine, applied, reference):
    assert engine.to_json() == reference.to_json()
    assert applied == sum(e["status"] == "fail" for e in engine.entries)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5).flatmap(lambda N: st.tuples(st.just(N), tables(N + 6))),
    operators(max_order=3),
)
def test_verify_expansions_on_random_tables(N_rt, J):
    N, rt = N_rt
    engine, applied = run_counted(verify_expansions, J, generate(rt, N + 5), N)
    with mock.patch.object(eigenfam, "check_expansions", reference_check_expansions):
        reference = verify_expansions(J, generate(rt, N + 5), N)
    assert_same_report(engine, applied, reference)


# how a band departs from the true expansion of L(P_(n+s))
PERTURBATIONS = ("exact", "drop", "change", "extra", "negative", "split")
NS = range(4)
# P_0..P_TOP: room for L(P_(n+s)) with n < 4, s <= 2 and a degree rise <= 3,
# and for an extra term one place past its top
TOP = 10


def band_around(seq, L, s, kind):
    """band(n) for n in NS: the nonzero (j, c_j) of L(P_(n+s)), changed by kind."""
    true = {n: expand_in_basis(L.apply(seq[n + s]), seq).coefficients for n in NS}

    def band(n):
        exp = true[n]
        terms = [(j, c) for j, c in enumerate(exp) if c]
        pick = n % len(terms) if terms else None
        if kind == "drop" and terms:
            del terms[pick]
        elif kind == "change" and terms:
            terms[pick] = (terms[pick][0], terms[pick][1] + 1)
        elif kind == "extra":
            terms.append((len(exp) + n % 2, Fraction(n + 1, 2)))
        elif kind == "negative":
            terms.append((-1 - n % 3, n + 1))
        elif kind == "split" and terms:
            j, c = terms[pick]
            terms[pick : pick + 1] = [(j, c / 3), (j, 2 * c / 3), (j, 0)]
        return terms

    return band


@st.composite
def relaxed_operators(draw):
    """A strict operator of order <= 3 shifted by 0..3, or coefficients of
    any degree <= 3 with the degree bound waived."""
    if draw(st.booleans()):
        return draw(operators(max_order=3)).shifted(draw(st.integers(0, 3)))
    order = draw(st.integers(0, 3))
    return DiffOperator([draw(polys(3)) for _ in range(order + 1)], relaxed=True)


@settings(max_examples=60, deadline=None)
@given(
    tables(TOP + 1),
    st.lists(
        st.tuples(
            relaxed_operators(), st.integers(0, 2), st.sampled_from(PERTURBATIONS)
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_random_bands_around_the_true_expansion(rt, ops):
    seq = generate(rt, TOP)
    A, identities = at_scale(
        seq,
        [
            (f"{kind}-{i}", L, s, band_around(seq, L, s, kind))
            for i, (L, s, kind) in enumerate(ops)
        ],
    )
    engine = VerificationReport()
    _, applied = run_counted(eigenfam.check_expansions, engine, seq, NS, A, identities)
    reference = VerificationReport()
    reference_check_expansions(reference, seq, NS, A, identities)
    assert_same_report(engine, applied, reference)


GROUPING_N = 5


def corollary_calls(N):
    """The (seq, ns, A, identities) of each check_expansions call that
    verify_expansions makes for the corollary 4.2 family to N, where every
    band passes."""
    calls = []
    seq = generate(eigenfam.corollary42_coeffs(N + 5), N + 5)
    with mock.patch.object(eigenfam, "check_expansions", lambda *args: calls.append(args[1:])):
        verify_expansions(eigenfam.corollary42_operator(1), seq, N)
    return calls


CALLS = corollary_calls(GROUPING_N)


def failing(band, ns):
    """band with an extra P_0 term at each n of ns: its column check fails
    there, and so does the polynomial check."""
    return lambda n: [*band(n), (0, 1)] if n in ns else band(n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(CALLS) - 1),
    st.sets(st.tuples(st.integers(0, GROUPING_N), st.integers(0, 2)), max_size=8),
)
@example(0, {(2, 0), (2, 2)})  # several failures in one n
@example(0, {(2, 0), (2, 1), (2, 2), (3, 1)})  # every identity at one n, then the next n
@example(0, {(0, 1), (GROUPING_N, 2)})  # at the first and at the last n
@example(2, {(0, 0), (GROUPING_N, 1)})
@example(1, {(1, 0)})  # the initial images' last n
def test_runs_around_injected_failures(k, positions):
    # check_expansions records each maximal block of passing n as one run
    # and each n with a failure entry by entry; its printed entries must be
    # those of the reference loop, which records every (n, identity) alone
    seq, ns, A, identities = CALLS[k]
    identities = [
        (name, L, e, s, failing(band, {n for n, i in positions if i == index}))
        for index, (name, L, e, s, band) in enumerate(identities)
    ]
    engine, reference = VerificationReport(), VerificationReport()
    eigenfam.check_expansions(engine, seq, ns, A, identities)
    reference_check_expansions(reference, seq, ns, A, identities)
    assert written(engine.to_json()) == written(reference.to_json())
    assert engine.to_json() == reference.to_json()
    bad = {n for n, i in positions if i < len(identities)}
    blocks = sum(n not in bad and (n == ns[0] or n - 1 in bad) for n in ns)
    assert len(engine.items) == len(bad & set(ns)) * len(identities) + blocks


def test_passing_columns_build_no_polynomial():
    J = eigenfam.corollary42_operator(1)
    applied = AssertionError("an operator was applied")
    with mock.patch.object(DiffOperator, "apply", side_effect=applied):
        assert verify_expansions(J, generate(eigenfam.corollary42_coeffs(25), 25), 20).passed


def reference_times_x(col, rows):
    """X col over Fraction x-rows: each e_j becomes e_(j+1) + sum_k c e_k."""
    out = {}
    for j, v in col.items():
        out[j + 1] = out.get(j + 1, 0) + v
        for k, c in rows[j]:
            out[k] = out.get(k, 0) + c * v
    return out


def reference_columns(rows, coeffs, n):
    """Columns 0..n of the matrix of the operator with coefficient
    polynomials coeffs, over Fraction x-rows, as dicts j -> nonzero
    Fraction: operator_column's recursion with a Fraction per entry."""
    upper = reference_columns(rows, coeffs[1:], n - 1) if len(coeffs) > 1 else None
    col = {}
    for c in reversed(coeffs[0].coeffs if coeffs else ()):  # Horner
        col = reference_times_x(col, rows)
        col[0] = col.get(0, 0) + c
    cols = [{j: v for j, v in col.items() if v}]
    for m in range(1, n + 1):
        col = reference_times_x(cols[m - 1], rows)
        for j, v in upper[m - 1].items() if upper else ():
            col[j] = col.get(j, 0) + v
        for k, c in rows[m - 1]:
            for j, v in cols[k].items():
                col[j] = col.get(j, 0) - c * v
        cols.append({j: v for j, v in col.items() if v})
    return cols


@st.composite
def column_cases(draw):
    """(seq, coeffs, n): a sequence, the coefficient polynomials of an
    operator of order <= 3 and n <= 25.  The sequence is a random d = 2
    table's, rational entries with zeros common, or the derivative sequence
    of one, whose rows are dense; it reaches degree n + 4, past the top of
    L(P_n).  The coefficients, of degree <= 3, have denominators up to 9,
    so a level often brings one that neither the rows nor the level below
    it has."""
    n = draw(st.integers(0, 25))
    entries = st.one_of(st.just(Fraction(0)), rationals)
    if draw(st.booleans()):
        seq = generate(draw(tables(n + 5, entries)), n + 4)
    else:
        seq = derivative_sequence(generate(draw(tables(n + 6, entries)), n + 5))
    coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=9)
    order = draw(st.integers(0, 3))
    coeffs = tuple(Poly(draw(st.lists(coefficients, max_size=4))) for _ in range(order + 1))
    return seq, coeffs, n


@settings(max_examples=60, deadline=None)
@given(column_cases())
def test_integer_columns_match_the_fraction_reference(case):
    seq, coeffs, n = case
    # the least scale at which every column is an integer one: A the lcm of
    # the coefficients' denominators, e the least with deg a_v <= e + v
    A = math.lcm(*(c.denominator for a in coeffs for c in a.coeffs))
    e = max([0, *(a.degree - v for v, a in enumerate(coeffs))])
    seqkit.operator_column(seq, (coeffs, A, e), n)
    # level i is computed to column n - i, at the scale (A, e + i)
    levels = range(min(len(coeffs), n + 1))
    assert set(seq.columns) == {(coeffs[i:], A, e + i) for i in levels}
    D = seq.weighted_rows[0]
    for (coeffs, A, e), cols in seq.columns.items():
        reference = reference_columns(seq.x_rows, coeffs, len(cols) - 1)
        for m, (col, expected) in enumerate(zip(cols, reference, strict=True)):
            assert all(type(v) is int and v for v in col.values())
            assert col == {j: v * A * D ** (m + e - j) for j, v in expected.items()}


# distinct small denominators and frequent zeros, so D and A are rarely 1
view_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 5, 7, 9))),
)


@st.composite
def view_operators(draw):
    """An operator of order 0..5 with a_v of degree v, entries view_entries."""
    order = draw(st.integers(0, 5))
    return DiffOperator(
        [
            Poly(draw(st.lists(view_entries, min_size=v + 1, max_size=v + 1)))
            for v in range(order + 1)
        ]
    )


def reference_shift3_initial(J, seq):
    """The displayed images J^(3)(P_0) and J^(3)(P_1), n -> the (j, c_j),
    evaluated in Fractions on J's a_3 and seq's x-rows."""
    a33, a23, a13, a03 = (J.acoef(v, 3) for v in (3, 2, 1, 0))
    rows = [dict(row) for row in seq.x_rows[:4]]
    b0, b1, b2, b3 = (rows[k].get(k, 0) for k in range(4))
    al1, al2, al3 = (rows[k].get(k - 1, 0) for k in range(1, 4))
    g1, g2 = (rows[k + 1].get(k - 1, 0) for k in range(1, 3))
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


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6).flatmap(lambda N: st.tuples(st.just(N), tables(N + 5, view_entries))),
    view_operators(),
)
def test_integer_view_equals_the_fraction_bands(case, J):
    # the displayed band formulas run twice: on the table's Fractions and on
    # the integer view of its sequence, where entry j of the shift-k band of
    # P_m must be exactly A D**(m + k - j) times the Fraction entry, and
    # entry j of the initial image of P_n, read with a_i^[3] as
    # A D**(3 - i) a_i^[3], exactly A D**(n + 3 - j) times it, as an int;
    # A is the lcm of the denominators of J's coefficients
    N, rt = case
    seq = generate(rt, N + 5)
    diag = diffop.diagonals(J, -4, N + 6)
    t, D = eigenfam._integer_view(seq, diag, N)
    A = diag.A
    lam = functools.partial(lambda_at, J, 0)
    exact = eigenfam._shift_bands(eigenfam._Tables(rt.beta, rt.alpha, rt.gamma, lam))
    scaled = eigenfam._shift_bands(t)
    for top, exact_band, scaled_band in zip((1, 2, 5), exact, scaled, strict=True):
        for n in range(N + 1):
            terms = zip(exact_band(n), scaled_band(n), strict=True)
            for (j, v), (j_view, v_view) in terms:
                assert j_view == j
                assert v_view == v * A * D ** (n + top - j)
                assert type(v_view) is int
    a3 = [J.acoef(i, 3) for i in range(4)]
    initial = eigenfam._shift3_initial(t, [int(c * A) * D ** (3 - i) for i, c in enumerate(a3)])
    for n, band in reference_shift3_initial(J, seq).items():
        for (j, v), (j_view, v_view) in zip(band, initial[n], strict=True):
            assert j_view == j
            assert v_view == v * A * D ** (n + 3 - j)
            assert type(v_view) is int


@settings(max_examples=60, deadline=None)
@given(operators(max_order=3), st.integers(0, 8))
def test_shift3_top_entry_is_the_displayed_a33(J, n):
    # the band's top entry is the third difference of lambda, which for
    # order <= 3 is the paper's a_3^[3]
    lam = functools.partial(lambda_at, J, 0)
    def zero(k):
        return 0

    shift3 = eigenfam._shift_bands(eigenfam._Tables(zero, zero, zero, lam))[2]
    assert shift3(n)[0] == (n + 5, J.acoef(3, 3))
