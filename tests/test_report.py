"""VerificationReport, as the CLI writes it, against a reference encoder of
its printed entries."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dortho import VerificationReport
from dortho.cli import _encode

from conftest import polys

identities = st.sampled_from(["shift1-expansion", "regularity", "orthogonality", "beta-match"])
small = st.integers(-3, 40)
indices = small | st.tuples(small, small) | st.tuples(small, small, small)
witnesses = st.none() | st.dictionaries(
    st.sampled_from(["value", "closed", "oracle"]), st.sampled_from(["0", "-1/2", "7"]), min_size=1
)
records = st.tuples(st.just("record"), identities, indices, st.booleans(), witnesses)
checks = st.tuples(st.just("check"), identities, indices, polys(3), polys(3), st.booleans())
# record_run: one identity or several, no head or a tuple head, and ranges
# that may be empty
heads = st.none() | st.tuples() | st.tuples(small) | st.tuples(small, small)
ranges = st.tuples(small, st.integers(-2, 6)).map(lambda a: range(a[0], a[0] + a[1]))
runs = st.tuples(
    st.just("run"), st.lists(identities, min_size=1, max_size=3).map(tuple), ranges, heads
)
calls = records | checks | runs
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
        elif call[0] == "check":
            _, identity, index, lhs, rhs, same = call
            rhs = lhs if same else rhs
            report.check(identity, index, lhs, rhs)
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
def test_report_prints_the_reference_entries(program):
    report, reference = VerificationReport(), []
    run(report, program, reference)
    entries = [e for e, _ in reference]
    passed = all(e["status"] == "pass" for e in entries)
    expected = {"passed": passed, "checked": len(entries), "entries": entries}
    out = report.to_json()
    assert _encode(out) == json.dumps(expected, indent=2)
    # the writer reads the report's own items and builds no entry
    assert out["entries"].items is report.items
    assert list.__len__(out["entries"]) == 0
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
