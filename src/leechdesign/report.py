"""Structured pass/fail records for the verification pipeline.

Each claim carries an identifier, the expected and computed values as
canonical strings, a pass flag (exact string equality of the two), and
the wall time spent.  The canonical JSON rendering excludes wall times so
that reruns of the same configuration are byte-identical; the full JSON
keeps them for humans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional


@dataclass
class ClaimResult:
    claim: str
    expected: str
    computed: str
    passed: bool
    wall_time_ms: int


@dataclass
class VerificationReport:
    name: str
    results: list[ClaimResult] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    def check(self, claim: str, expected, computed, wall_time_ms: int = 0) -> bool:
        e, c = str(expected), str(computed)
        ok = e == c
        self.results.append(ClaimResult(claim, e, c, ok, wall_time_ms))
        return ok

    def note(self, key: str, value) -> None:
        self.notes[key] = str(value)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def first_failure(self) -> Optional[ClaimResult]:
        return next((r for r in self.results if not r.passed), None)

    def _payload(self, with_times: bool) -> dict[str, Any]:
        claims = []
        for r in self.results:
            entry = {
                "claim": r.claim,
                "expected": r.expected,
                "computed": r.computed,
                "pass": r.passed,
            }
            if with_times:
                entry["wall_time_ms"] = r.wall_time_ms
            claims.append(entry)
        return {
            "report": self.name,
            "pass": self.passed,
            "claims": claims,
            "notes": dict(sorted(self.notes.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self._payload(with_times=True), indent=2, sort_keys=True)

    def to_canonical_json(self) -> str:
        """Byte-deterministic rendering (no timings)."""
        return json.dumps(self._payload(with_times=False), indent=2, sort_keys=True)

    def summary_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for r in self.results:
            mark = "ok " if r.passed else "FAIL"
            lines.append(
                f"  {mark} {r.claim}: expected {r.expected}, computed {r.computed}"
                f" ({r.wall_time_ms} ms)"
            )
        for k, v in sorted(self.notes.items()):
            lines.append(f"  note {k}: {v}")
        return "\n".join(lines)

    def write(self, out_dir: Path, stem: str) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.json").write_text(self.to_json() + "\n")
        (out_dir / f"{stem}.canonical.json").write_text(self.to_canonical_json() + "\n")
        (out_dir / f"{stem}.txt").write_text(self.summary_text() + "\n")

