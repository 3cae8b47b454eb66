"""check_expansions against the polynomial check it replaced.

The reference below is that check as it was: apply L to P_(n+s), sum the
scaled basis polynomials of the band and compare the two polynomials.  On
random d = 2 tables, where most displayed expansions fail, and on random
bands around the true expansion of random operators, strict and relaxed,
the column check must give the same report, entry for entry and witness
for witness, and must apply an operator only to a failing column.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from dortho import (
    DiffOperator,
    Poly,
    RecurrenceTable,
    VerificationReport,
    eigenfam,
    expand_in_basis,
    generate,
    verify_expansions,
)

from conftest import operators, polys

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def reference_check_expansions(report, seq, ns, identities):
    for n in ns:
        for name, L, s, band in identities:
            rhs = Poly.zero()
            for j, c in band(n):
                if j >= 0 and c:
                    rhs = rhs + seq[j].scale(c)
            report.check(name, n, L.apply(seq[n + s]), rhs)


def tables(size):
    """d = 2 tables: beta, alpha and gamma, each `size` arbitrary rationals."""
    return st.lists(rationals, min_size=3 * size, max_size=3 * size).map(
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
    assert applied == len(engine.failures)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5).flatmap(lambda N: st.tuples(st.just(N), tables(N + 6))),
    operators(max_order=3),
)
def test_verify_expansions_on_random_tables(N_rt, J):
    N, rt = N_rt
    engine, applied = run_counted(verify_expansions, J, rt, N)
    with mock.patch.object(eigenfam, "check_expansions", reference_check_expansions):
        reference = verify_expansions(J, rt, N)
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
    identities = [
        (f"{kind}-{i}", L, s, band_around(seq, L, s, kind))
        for i, (L, s, kind) in enumerate(ops)
    ]
    engine = VerificationReport()
    _, applied = run_counted(eigenfam.check_expansions, engine, seq, NS, identities)
    reference = VerificationReport()
    reference_check_expansions(reference, seq, NS, identities)
    assert_same_report(engine, applied, reference)


def test_passing_columns_build_no_polynomial():
    J = eigenfam.corollary42_operator(1)
    applied = AssertionError("an operator was applied")
    with mock.patch.object(DiffOperator, "apply", side_effect=applied):
        assert verify_expansions(J, eigenfam.corollary42_coeffs(25), 20).passed
