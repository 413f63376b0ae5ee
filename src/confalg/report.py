"""Machine-readable run reports.

A report is a list of check records with a stable schema; identical
configurations (including the seed) produce byte-identical JSON up to the
timing fields.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


@dataclass
class CheckRecord:
    check_id: str
    claim: str
    status: str
    passed: bool
    inputs: dict = field(default_factory=dict)
    residual_samples: list = field(default_factory=list)
    detail: str = ""
    elapsed_ms: float = 0.0


@contextmanager
def timed_check(out: list[CheckRecord], check_id: str, claim: str = "",
                **fields) -> Iterator[CheckRecord]:
    """Run the body of a ``with`` block as one timed check.

    Appends a new record to ``out`` and yields it for the block to fill in
    (``passed``, ``status`` and whatever else the outcome decides); its
    ``elapsed_ms`` covers the block.
    """
    record = CheckRecord(check_id, claim, status="", passed=False, **fields)
    out.append(record)
    started = time.perf_counter()
    try:
        yield record
    finally:
        record.elapsed_ms = (time.perf_counter() - started) * 1000.0


@dataclass
class Report:
    command: str
    config: dict = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    def summary(self) -> dict:
        return {
            "checks": len(self.checks),
            "passed": sum(1 for c in self.checks if c.passed),
            "failed": sum(1 for c in self.checks if not c.passed),
        }

    def to_dict(self, include_timing: bool = True) -> dict:
        data = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "summary": self.summary(),
        }
        if not include_timing:
            for check in data["checks"]:
                check.pop("elapsed_ms", None)
        return data

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"report: {self.command}"]
        if self.config:
            lines.append("config: " + json.dumps(self.config, sort_keys=True))
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.check_id}: {c.claim} -> {c.status} ({c.elapsed_ms:.0f} ms)")
            if c.detail:
                lines.append(f"       {c.detail}")
            for sample in c.residual_samples[:3]:
                lines.append(f"       residual: {sample}")
        s = self.summary()
        lines.append(f"summary: {s['passed']}/{s['checks']} passed")
        return "\n".join(lines) + "\n"
