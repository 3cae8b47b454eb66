"""Machine-readable pass/fail records for identity verification runs.

Each entry is held as the JSON object it prints: {"identity", "n",
"status"}, plus "witness" on a failure that has one.  "n" is the index as
the caller gave it, an int or a tuple such as (m, nu, n), which json
writes as an array.
"""

from __future__ import annotations

from typing import Optional

from .polycore import Poly


class VerificationReport:
    """The entries of one run, in order; to_json() prints them as held."""

    def __init__(self):
        self.entries = []

    def check(self, identity: str, index, lhs: Poly, rhs: Poly) -> bool:
        """Record exact polynomial equality of lhs and rhs; only a failure
        writes them out, as its witness."""
        ok = lhs == rhs
        witness = None if ok else {"lhs": lhs.to_json(), "rhs": rhs.to_json()}
        self.record(identity, index, ok, witness)
        return ok

    def record(self, identity: str, index, ok: bool, witness: Optional[dict] = None):
        """A pass drops any witness; a failure keeps one if given."""
        entry = {"identity": identity, "n": index, "status": "pass" if ok else "fail"}
        if not ok and witness is not None:
            entry["witness"] = witness
        self.entries.append(entry)

    def extend(self, other: "VerificationReport"):
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return all(e["status"] == "pass" for e in self.entries)

    def first_failure(self) -> Optional[dict]:
        return next((e for e in self.entries if e["status"] == "fail"), None)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checked": len(self.entries), "entries": self.entries}
