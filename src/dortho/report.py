"""Machine-readable pass/fail records for identity verification runs.

A report holds its entries in order as items of two kinds.  A single entry
(record) is held as the JSON object it prints: {"identity", "n",
"status"}, plus "witness" on a failure that has one.  A run (record_run)
is a block of passing entries, held as (identities, head, ns): the entries
"for n in ns, for identity in identities", at index head + (n,), or at n
when head is None.  "n" is the index as the caller gave it, an int or a
tuple such as (m, nu, n), which json writes as an array.  A run is one
item however many entries it stands for, and cli._encode writes it with
one join, so a report costs O(items) to hold, count and write.
"""

from __future__ import annotations

from typing import Optional

from .polycore import Poly


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


class Entries(list):
    """A report's entries as to_json() hands them over: a list equal to,
    and read as, the list of printed dicts.  Those dicts are built on the
    first read by iteration (json reads them so), len, indexing, in, ==,
    != or repr; cli._encode reads items, the report's singles and runs,
    and builds none."""

    def __init__(self, items: list):
        super().__init__()
        self.items = items
        self._built = False

    def _build(self) -> "Entries":
        if not self._built:
            self._built = True
            list.extend(self, _printed(self.items))
        return self


def _after_build(method):
    def read(self, *args):
        return method(self._build(), *(a._build() if type(a) is Entries else a for a in args))

    return read


for _name in ("__iter__", "__len__", "__getitem__", "__contains__", "__eq__", "__ne__", "__repr__"):
    setattr(Entries, _name, _after_build(getattr(list, _name)))


class VerificationReport:
    """The entries of one run, in order; to_json() prints them as held.
    checked and failed count the entries and the failing ones."""

    def __init__(self):
        self.items = []
        self.checked = 0
        self.failed = 0

    def check(self, identity: str, index, lhs: Poly, rhs: Poly) -> bool:
        """Record exact polynomial equality of lhs and rhs; only a failure
        writes them out, as its witness."""
        ok = lhs == rhs
        witness = None if ok else {"lhs": lhs.to_json(), "rhs": rhs.to_json()}
        self.record(identity, index, ok, witness)
        return ok

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
        return {"passed": self.passed, "checked": self.checked, "entries": Entries(self.items)}
