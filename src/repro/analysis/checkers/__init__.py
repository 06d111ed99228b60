"""The project-specific checker plugins of repro-lint."""

from __future__ import annotations

from repro.analysis.checkers.locking import LockDisciplineChecker
from repro.analysis.checkers.rng import RngDisciplineChecker
from repro.analysis.checkers.telemetry_guard import TelemetryGuardChecker
from repro.analysis.checkers.wallclock import WallClockChecker

__all__ = [
    "LockDisciplineChecker",
    "RngDisciplineChecker",
    "TelemetryGuardChecker",
    "WallClockChecker",
]
