"""Machine-readable pass/fail records for identity verification runs.

A report holds its entries in order as items of two kinds.  A single entry
(record) is held as the JSON object it prints: {"identity", "n",
"status"}, plus "witness" on a failure that has one.  A run (record_run)
is a block of passing entries, held as (identities, head, ns): the entries
"for n in ns, for identity in identities", at index head + (n,), or at n
when head is None.  "n" is the index as the caller gave it, an int or a
tuple such as (m, nu, n), which json writes as an array.  A run is one
item however many entries it stands for, and cli._encode writes the report
from its items, each run with one join, so a report costs O(items) to
hold, count and write.  record_block is the one way a check records a
block of identities over a range: its passing stretches as runs, each
failing n entry by entry.
"""

from __future__ import annotations

from typing import Callable, Optional


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
        """A pass of each of identities at each n of ns, n outermost, at
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
