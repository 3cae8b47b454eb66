"""Machine-readable pass/fail records for identity verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .polycore import Poly


@dataclass(frozen=True)
class ReportEntry:
    identity: str
    index: object
    status: str
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "n": list(self.index) if isinstance(self.index, tuple) else self.index,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    entries: list = field(default_factory=list)

    def check(self, identity: str, index, lhs: Poly, rhs: Poly) -> bool:
        """Record exact polynomial equality of lhs and rhs."""
        if lhs == rhs:
            self.entries.append(ReportEntry(identity, index, "pass"))
            return True
        self.entries.append(
            ReportEntry(
                identity,
                index,
                "fail",
                witness={"lhs": lhs.to_json(), "rhs": rhs.to_json()},
            )
        )
        return False

    def record(self, identity: str, index, ok: bool, witness: Optional[dict] = None):
        if ok:
            self.entries.append(ReportEntry(identity, index, "pass"))
        else:
            self.entries.append(ReportEntry(identity, index, "fail", witness=witness))

    def extend(self, other: "VerificationReport"):
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def first_failure(self) -> Optional[ReportEntry]:
        for e in self.entries:
            if e.status == "fail":
                return e
        return None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checked": len(self.entries),
            "entries": [e.to_json() for e in self.entries],
        }
