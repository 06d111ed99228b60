"""Baseline file handling: accepted findings that do not fail the build.

The baseline is a checked-in JSON document listing findings that are
*intentional* (each with a one-line justification).  The CLI subtracts it
from the current findings; what remains fails the run.  Matching ignores
line numbers (``Finding.baseline_key``) so edits above an accepted finding
do not invalidate it, and is multiset-aware: two identical violations need
two baseline entries.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding

BASELINE_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding, with the reason it is accepted."""

    path: str
    rule: str
    message: str
    justification: str = ""

    def key(self) -> tuple[str, str, str]:
        return (self.path, self.rule, self.message)


def load_baseline(path: Path) -> tuple[BaselineEntry, ...]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not path.exists():
        return ()
    document = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "findings" not in document:
        raise ValueError(f"Malformed baseline file {path}: expected a 'findings' key.")
    entries = []
    for raw in document["findings"]:
        entries.append(
            BaselineEntry(
                path=str(raw["path"]),
                rule=str(raw["rule"]),
                message=str(raw["message"]),
                justification=str(raw.get("justification", "")),
            )
        )
    return tuple(entries)


def apply_baseline(
    findings: list[Finding], baseline: tuple[BaselineEntry, ...]
) -> tuple[list[Finding], tuple[BaselineEntry, ...]]:
    """Split findings into (new, stale-baseline-entries).

    A baseline entry absorbs at most one matching finding; entries that
    match nothing are returned as stale so the baseline can be pruned.
    """
    budget = Counter(entry.key() for entry in baseline)
    fresh: list[Finding] = []
    for finding in findings:
        key = finding.baseline_key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)
    stale: list[BaselineEntry] = []
    for entry in baseline:
        if budget[entry.key()] > 0:
            budget[entry.key()] -= 1
            stale.append(entry)
    return fresh, tuple(stale)


def write_baseline(
    findings: list[Finding],
    path: Path,
    previous: tuple[BaselineEntry, ...] = (),
) -> None:
    """Write the current findings as the new baseline.

    Justifications of entries that survive are carried over; new entries
    get an explicit TODO so review catches them.
    """
    carried: dict[tuple[str, str, str], list[str]] = {}
    for entry in previous:
        carried.setdefault(entry.key(), []).append(entry.justification)
    records = []
    for finding in sorted(findings):
        key = finding.baseline_key()
        justifications = carried.get(key)
        justification = (
            justifications.pop(0)
            if justifications
            else "TODO: justify this accepted finding"
        )
        records.append(
            {
                "path": finding.path,
                "rule": finding.rule,
                "message": finding.message,
                "justification": justification,
            }
        )
    document = {"version": BASELINE_VERSION, "findings": records}
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
