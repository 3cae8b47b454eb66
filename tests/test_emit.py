"""The CLI's JSON writer against json.dumps(obj, indent=2)."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dortho import VerificationReport, cli

from conftest import written

# Quotes, backslashes, control characters, DEL, non-ASCII (Latin, the BMP's
# line separator, an astral-plane emoji) next to plain letters.
tricky = st.sampled_from(list('"\\/\n\r\t\b\f\x00\x1f\x7f é€ 😀ab'))
strings = st.text(tricky, max_size=6) | st.text(max_size=4)
ints = st.integers(-3, 3) | st.integers() | st.sampled_from([2**64, -(10**40)])
scalars = st.none() | st.booleans() | ints | strings
# A report entry's index: an int, or an array of ints in which a bool or
# None may stand (it must not be written as an int).
indices = ints | st.tuples(ints, ints, ints) | st.lists(ints | st.booleans() | st.none(), max_size=3).map(tuple)


@st.composite
def entries(draw, values):
    """A report-shaped entry, {"identity", "n", "status"} and now and then a
    "witness", its keys in any order; now and then a member is any value."""
    fields = {
        "identity": draw(st.sampled_from(["shift1-expansion", "orthogonality"]) | strings),
        "n": draw(indices | values),
        "status": draw(st.sampled_from(["pass", "fail"]) | values),
    }
    if draw(st.booleans()):
        fields["witness"] = draw(values)
    return {key: fields[key] for key in draw(st.permutations(list(fields)))}


trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
        entries(inner),
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(trees)
@example({"n": 1, "identity": "shift1-expansion", "status": "pass"})
@example({"identity": "shift1-expansion", "status": "pass", "n": 1})
@example([1, True])
@example({"identity": "orthogonality", "n": (1, True), "status": "pass"})
@example({"identity": "orthogonality", "n": (0, None), "status": "pass"})
@example({"identity": "orthogonality", "n": (), "status": "pass"})
@example({"identity": "orthogonality", "n": [], "status": "pass"})
@example({"identity": "orthogonality", "n": {}, "status": "pass"})
@example({"identity": "orthogonality", "n": (2, 0, 4), "status": "fail", "witness": {}})
@example({"identity": "appell", "n": 3, "status": "fail", "witness": {"lhs": [], "rhs": ["1/2"]}})
@example([[{}], {"": []}, ()])
def test_writes_what_json_dumps_writes(obj):
    assert written(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        [0, 0.0],
        {"n": float("nan")},
        {"identity": "orthogonality", "n": (1, 2.0), "status": "pass"},
        {"witness": Fraction(1, 2)},
        {1: "a"},
        {None: "a"},
        {"identity": "orthogonality", "n": 0, "status": "pass", 0: "x"},
    ],
)
def test_outside_the_emitted_subset_is_type_error(obj):
    with pytest.raises(TypeError):
        written(obj)


class Pieces:
    """A stdout that keeps what writelines hands it, piece by piece."""

    def __init__(self):
        self.pieces = []

    def writelines(self, pieces):
        self.pieces += pieces

    def write(self, text):
        raise AssertionError("written outside writelines")

    def flush(self):  # _emit flushes stdout, so a closed reader shows there
        pass


def test_emit_writes_the_pieces_once(monkeypatch, tmp_path):
    # three runs and a failure between them: each run is whole in one piece,
    # no piece holds two, and --out gets the bytes stdout gets
    report = VerificationReport()
    report.record_run(("run-a",), range(4))
    report.record("orthogonality", (1, 0, 4), False, {"value": "7"})
    report.record_run(("run-b", "run-c"), range(2, 5), (3, 1))
    report.record_run(("run-d",), range(6, 9), (0,))
    obj = {"mode": "family", "moments": [["1", "-1/2"], []], "report": report}
    stdout = Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._emit(obj, None)
    text = json.dumps({**obj, "report": report.to_json()}, indent=2) + "\n"
    assert "".join(stdout.pieces) == text
    # each identity's run, and its number of entries
    runs = {"run-a": (0, 4), "run-b": (1, 3), "run-c": (1, 3), "run-d": (2, 3)}
    for piece in stdout.pieces:
        held = [name for name in runs if f'"{name}"' in piece]
        assert len({runs[name][0] for name in held}) <= 1
        assert all(piece.count(f'"{name}"') == runs[name][1] for name in held)
    cli._emit(obj, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == text.encode()
    # a value outside the emitted subset stops the writer before it writes
    stdout.pieces.clear()
    with pytest.raises(TypeError):
        cli._emit({"report": report, "ratio": 0.5}, None)
    assert stdout.pieces == []
