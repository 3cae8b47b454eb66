"""Machine-readable pass/fail records for identity verification runs, and
the one writer of the CLI's JSON output.

A report holds its entries in order as items of two kinds.  A single entry
(record) is held as the JSON object it prints: {"identity", "n",
"status"}, plus "witness" on a failure that has one.  A run (record_run)
is a block of passing entries, held as the tuple (identities, head, ns),
ns a range: the entries "for n in ns, for identity in identities", at
index head + (n,), or at n when head is None.  "n" is the index as the
caller gave it, an int or a tuple such as (m, nu, n), which json writes as
an array.  A run is one item however many entries it stands for, and
write prints it as one piece, so a report costs O(items) to hold, count
and write.  write tells a run from a JSON array by its range.  A run is
a plain tuple, not a subclass: a subclass instance per run is one more
collector allocation, about 11% more collections on the family-verify
stream.  record_block is the one way a check records a block of
identities over a range: its passing stretches as runs, each failing n
entry by entry.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str
from typing import Callable, Optional

_int = int.__repr__
_STR = frozenset([str])
_STR_INT = frozenset([str, int])


def write(obj, pieces: list, indent: str = "", lead: str = "") -> None:
    """Append to pieces the text json.dumps(obj, indent=2) writes for obj
    at indent, lead before it, for dicts with str keys, lists, tuples, str,
    int, bool and None, and a VerificationReport as its to_json(); anything
    else raises TypeError.  (json's indented encoder is pure Python, one
    step per token.)  A scalar is one piece with its separator and key, a
    non-empty list of str and int alone one piece by one join, and a report
    run, a tuple ending in a range, one piece (_run): the text is held
    once, in its pieces."""
    t = type(obj)
    if t is str:
        pieces.append(lead + _str(obj))
    elif t is int:
        pieces.append(lead + _int(obj))
    elif obj is None:
        pieces.append(lead + "null")
    elif obj is True:
        pieces.append(lead + "true")
    elif obj is False:
        pieces.append(lead + "false")
    elif t is tuple and len(obj) == 3 and type(obj[2]) is range:
        pieces.append(_run(obj, indent, lead))  # no JSON value holds a range
    elif t is VerificationReport:
        held = {"passed": obj.passed, "checked": obj.checked, "entries": obj.items}
        write(held, pieces, indent, lead)
    else:
        inner = indent + "  "
        if t is dict:
            if not _STR.issuperset(map(type, obj)):
                raise TypeError("keys must be str")
            members = [(_str(k) + ": ", v) for k, v in obj.items()]
        elif t is list or t is tuple:
            if obj and _STR_INT.issuperset(map(type, obj)):
                texts = [_str(v) if type(v) is str else _int(v) for v in obj]
                texts[0] = f"{lead}[\n{inner}{texts[0]}"
                texts[-1] = f"{texts[-1]}\n{indent}]"
                pieces.append((",\n" + inner).join(texts))
                return
            members = [("", v) for v in obj]
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        brackets = "{}" if t is dict else "[]"
        if not members:
            pieces.append(lead + brackets)
            return
        lead = f"{lead}{brackets[0]}\n{inner}"
        for key, v in members:
            write(v, pieces, inner, lead + key)
            lead = ",\n" + inner
        pieces.append(f"\n{indent}{brackets[1]}")


def _run(run: tuple, indent: str, lead: str) -> str:
    """A report run, with lead before it, as json.dumps(..., indent=2)
    writes its entries as members of a list at indent: each entry is its
    text before n, n, and its text after n.  One identity is one join over
    the run's ns; several are one join per n, over the identities'
    pieces."""
    identities, head, ns = run
    inner = indent + "  "
    if head is None:
        open_n = close_n = ""
    else:
        deeper = inner + "  "
        parts, lead_h = [], f"[\n{deeper}"
        for h in head:
            write(h, parts, deeper, lead_h)
            lead_h = f",\n{deeper}"
        open_n = "".join(parts) + lead_h
        close_n = f"\n{inner}]"
    sep = f",\n{indent}"
    after = f'{close_n},\n{inner}"status": "pass"\n{indent}}}'
    before = [
        f'{{\n{inner}"identity": {_str(i)},\n{inner}"n": {open_n}' for i in identities
    ]
    if len(before) == 1:
        glue = after + sep + before[0]
        return f"{lead}{before[0]}{glue.join(map(_int, ns))}{after}"
    pieces = [before[0], *(after + sep + b for b in before[1:]), after]
    texts = [_int(n).join(pieces) for n in ns]
    texts[0] = lead + texts[0]
    return sep.join(texts)


def _printed(items):
    """The entries items stand for, each as the dict it prints."""
    for item in items:
        if type(item) is dict:
            yield item
            continue
        identities, head, ns = item
        for n in ns:
            index = n if head is None else (*head, n)
            for identity in identities:
                yield {"identity": identity, "n": index, "status": "pass"}


def poly_witness(lhs, rhs) -> Optional[dict]:
    """None when the polynomials lhs and rhs are equal, else the failure's
    witness {"lhs", "rhs"}."""
    return None if lhs == rhs else {"lhs": lhs.to_json(), "rhs": rhs.to_json()}


class VerificationReport:
    """The entries of one run, in order; to_json() prints them as held.
    checked and failed count the entries and the failing ones."""

    def __init__(self):
        self.items = []
        self.checked = 0
        self.failed = 0

    def record(self, identity: str, index, ok: bool, witness: Optional[dict] = None):
        """One entry.  A pass drops any witness; a failure keeps one if given."""
        entry = {"identity": identity, "n": index, "status": "pass" if ok else "fail"}
        if not ok and witness is not None:
            entry["witness"] = witness
        self.items.append(entry)
        self.checked += 1
        self.failed += not ok

    def record_run(self, identities: tuple, ns: range, head: Optional[tuple] = None):
        """A pass of each of identities (str) at each n of ns, n outermost, at
        index head + (n,), or at n when head is None.  A run of no entries
        records nothing."""
        if identities and ns:
            self.items.append((tuple(identities), head, ns))
            self.checked += len(identities) * len(ns)

    def record_block(
        self, identities: tuple, ns: range, failures: Callable, head: Optional[tuple] = None
    ):
        """Each of identities at each n of ns, n outermost, at index
        head + (n,), or at n when head is None.  failures(n) is None when
        every identity passes at n, and otherwise gives, per identity, None
        for a pass or the failure's witness dict.  Each maximal stretch of
        passing n is one run; each other n is recorded entry by entry."""
        start = 0
        for i, n in enumerate(ns):
            witnesses = failures(n)
            if witnesses is None:
                continue
            self.record_run(identities, ns[start:i], head)
            index = n if head is None else (*head, n)
            for identity, witness in zip(identities, witnesses):
                self.record(identity, index, witness is None, witness)
            start = i + 1
        self.record_run(identities, ns[start:], head)

    def extend(self, other: "VerificationReport"):
        self.items.extend(other.items)
        self.checked += other.checked
        self.failed += other.failed

    @property
    def entries(self) -> list:
        """Every entry as the dict it prints, built on each read."""
        return list(_printed(self.items))

    @property
    def passed(self) -> bool:
        return not self.failed

    def first_failure(self) -> Optional[dict]:
        return next(
            (e for e in self.items if type(e) is dict and e["status"] == "fail"), None
        )

    def to_json(self) -> dict:
        return {"passed": self.passed, "checked": self.checked, "entries": self.entries}
