"""VerificationReport, as the CLI writes it, against a reference encoder of
its printed entries."""

import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dortho import VerificationReport, report as report_module
from dortho.report import poly_witness

from conftest import polys, written

identities = st.sampled_from(["shift1-expansion", "regularity", "orthogonality", "beta-match"])
small = st.integers(-3, 40)
indices = small | st.tuples(small, small) | st.tuples(small, small, small)
witness_dicts = st.dictionaries(
    st.sampled_from(["value", "closed", "oracle"]), st.sampled_from(["0", "-1/2", "7"]), min_size=1
)
witnesses = st.none() | witness_dicts
records = st.tuples(st.just("record"), identities, indices, st.booleans(), witnesses)
checks = st.tuples(st.just("check"), identities, indices, polys(3), polys(3), st.booleans())
# record_run: one identity or several, no head or a tuple head, and ranges
# that may be empty
heads = st.none() | st.tuples() | st.tuples(small) | st.tuples(small, small)
ranges = st.tuples(small, st.integers(-2, 6)).map(lambda a: range(a[0], a[0] + a[1]))
runs = st.tuples(
    st.just("run"), st.lists(identities, min_size=1, max_size=3).map(tuple), ranges, heads
)


@st.composite
def blocks(draw):
    """record_block: one identity or several, no head or a tuple head, a
    range that may be empty, and a failure map {n: a witness or None per
    identity} that may fail several identities at one n, and the first or
    the last n."""
    names = draw(st.lists(identities, min_size=1, max_size=3).map(tuple))
    ns = draw(ranges)
    failing = draw(st.sets(st.sampled_from(ns))) if ns else set()
    if ns and draw(st.booleans()):
        failing |= {ns[0], ns[-1]}
    fails = {n: tuple(draw(witnesses) for _ in names) for n in failing}
    return ("block", names, ns, draw(heads), fails)


calls = records | checks | runs | blocks()
programs = st.lists(calls | st.tuples(st.just("extend"), st.lists(calls, max_size=6)), max_size=12)


def reference_entry(identity, index, status, witness=None):
    """One entry as the report used to print it: a tuple index as a list,
    the witness only when there is one."""
    out = {
        "identity": identity,
        "n": list(index) if isinstance(index, tuple) else index,
        "status": status,
    }
    if witness is not None:
        out["witness"] = witness
    return out


def run(report, program, reference):
    """Apply program to report and append (printed entry, index) to reference."""
    for call in program:
        if call[0] == "record":
            _, identity, index, ok, witness = call
            report.record(identity, index, ok, witness)
            entry = reference_entry(identity, index, "pass" if ok else "fail", None if ok else witness)
        elif call[0] == "run":
            _, names, ns, head = call
            report.record_run(names, ns, head)
            for n in ns:
                index = n if head is None else (*head, n)
                reference += [(reference_entry(name, index, "pass"), index) for name in names]
            continue
        elif call[0] == "block":
            _, names, ns, head, fails = call
            report.record_block(names, ns, fails.get, head)
            for n in ns:
                index = n if head is None else (*head, n)
                for name, witness in zip(names, fails.get(n, [None] * len(names))):
                    status = "pass" if witness is None else "fail"
                    reference.append((reference_entry(name, index, status, witness), index))
            continue
        elif call[0] == "check":
            _, identity, index, lhs, rhs, same = call
            rhs = lhs if same else rhs
            report.record(identity, index, lhs == rhs, poly_witness(lhs, rhs))
            witness = None if lhs == rhs else {"lhs": lhs.to_json(), "rhs": rhs.to_json()}
            entry = reference_entry(identity, index, "fail" if witness else "pass", witness)
        else:
            other = VerificationReport()
            run(other, call[1], reference)
            report.extend(other)
            continue
        reference.append((entry, index))


@settings(max_examples=200, deadline=None)
@given(programs)
@example(
    [
        ("block", ("regularity", "orthogonality"), range(0, 4), (1, 2),
         {0: ({"value": "0"}, {"value": "7"}), 3: (None, {"value": "0"})}),
        ("block", ("appell",), range(2, 2), None, {}),
    ]
)
def test_report_prints_the_reference_entries(program):
    report, reference = VerificationReport(), []
    run(report, program, reference)
    entries = [e for e, _ in reference]
    passed = all(e["status"] == "pass" for e in entries)
    expected = {"passed": passed, "checked": len(entries), "entries": entries}
    # the writer reads the report's own items and builds no entry
    with mock.patch.object(report_module, "_printed", side_effect=AssertionError("built")):
        assert written(report) == json.dumps(expected, indent=2)
        assert written({"report": report}) == json.dumps({"report": expected}, indent=2)
    out = report.to_json()
    assert written(out) == json.dumps(expected, indent=2)
    assert json.dumps(out) == json.dumps(expected)
    assert out["entries"] == [dict(e, n=index) for e, index in reference] == report.entries
    assert report.passed == passed
    failures = [(e, index) for e, index in reference if e["status"] == "fail"]
    first = report.first_failure()
    if not failures:
        assert first is None
    else:
        entry, index = failures[0]
        assert json.dumps(first) == json.dumps(entry)
        assert str(first["n"]) == str(index)


def test_to_json_entries_are_a_plain_list():
    # to_json()["entries"] is the list of printed dicts, whatever reads it
    report = VerificationReport()
    report.record_run(("regularity",), range(3))
    report.record("orthogonality", (1, 0, 4), False, {"value": "7"})
    report.record_run(("shift1-expansion", "appell"), range(5, 7), (2,))
    expected = report.entries
    e = report.to_json()["entries"]
    assert type(e) is list
    assert e + [] == expected
    assert e.copy() == expected
    assert list(reversed(e)) == expected[::-1]
    assert e.index(expected[0]) == 0
    assert e * 1 == expected
