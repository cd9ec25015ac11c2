"""Verification report assembly, serialization and round-trip parsing.

The primary artifact is a JSON document with schema "polyspec-report/1";
a flat CSV of the inequality rows is written alongside for spreadsheet
use. The report body (everything except the timestamp) is deterministic
for a fixed config and seed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import List, Optional

from . import __version__

SCHEMA = "polyspec-report/1"

_BOUND_FIELDS = ["name", "lhs", "rhs", "margin", "holds", "applicable", "notes"]


@dataclass
class VerificationReport:
    config: dict
    spectrum: Optional[dict]
    identity_rows: List[dict] = field(default_factory=list)
    bound_rows: List[dict] = field(default_factory=list)
    oracle_rows: List[dict] = field(default_factory=list)
    verdict: str = "pass"
    error: Optional[str] = None
    schema: str = SCHEMA
    version: str = __version__
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    def body_dict(self) -> dict:
        """Everything except the timestamp; the deterministic part."""
        return {
            "schema": self.schema,
            "version": self.version,
            "config": self.config,
            "spectrum": self.spectrum,
            "identity_rows": self.identity_rows,
            "bound_rows": self.bound_rows,
            "oracle_rows": self.oracle_rows,
            "verdict": self.verdict,
            "error": self.error,
        }

    def body_text(self) -> str:
        return json.dumps(self.body_dict(), indent=2, sort_keys=True)

    def to_dict(self) -> dict:
        out = self.body_dict()
        out["timestamp"] = self.timestamp
        return out

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unsupported report schema {data.get('schema')!r}")
        return cls(
            config=data["config"],
            spectrum=data.get("spectrum"),
            identity_rows=list(data.get("identity_rows", [])),
            bound_rows=list(data.get("bound_rows", [])),
            oracle_rows=list(data.get("oracle_rows", [])),
            verdict=data.get("verdict", "fail"),
            error=data.get("error"),
            schema=data["schema"],
            version=data.get("version", ""),
            timestamp=data.get("timestamp", "missing"),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.body_dict() == other.body_dict()

    def bounds_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_BOUND_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in self.bound_rows:
            writer.writerow({k: row.get(k, "") for k in _BOUND_FIELDS})
        return buf.getvalue()

    def save(self, prefix: str) -> List[str]:
        """Write <prefix>.report.json and <prefix>.bounds.csv."""
        report_path = f"{prefix}.report.json"
        csv_path = f"{prefix}.bounds.csv"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.bounds_csv_text())
        return [report_path, csv_path]


def load_report(path: str) -> VerificationReport:
    with open(path, "r", encoding="utf-8") as fh:
        return VerificationReport.from_dict(json.load(fh))
