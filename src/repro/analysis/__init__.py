"""repro-lint: static checks for the invariants no fast test can see.

The package's correctness rests on conventions that runtime tests probe
only slowly and indirectly: RNG discipline (counter-based Philox blocks
only -- the chunk-invariance contract of the stream core), wall-clock
discipline (no clock reads in deterministic layers), telemetry-guard
discipline (every ``TELEMETRY`` call site pays one attribute read when
disabled) and lock discipline (the mutable fields of a lock-owning class are
touched under its lock).

Invariants that a design can make unbreakable are not checked here.
Persistable classes register with the codec where they are defined
(:mod:`repro.persistence.registry`), which also enforces the
``_repro_transient`` contract at registration and on decode; metric, span
and event names are module constants of :mod:`repro.telemetry`, so a typo
is an ImportError.  The scalar references the bit-equivalence tests compare
against are subclasses in ``tests/oracles.py``, not flags of the product, and
``tests/test_oracles.py`` checks that each one still overrides kernels the
product defines.

:mod:`repro.analysis` runs per-module AST rules: a driver walks
``src/repro``, runs a set of :class:`~repro.analysis.core.Checker` plugins,
and reports findings with per-rule IDs, severities and ``path:line:col``
locations.  Accepted findings live in a checked-in baseline file; new ones
fail the build.  Run it with::

    python -m repro.analysis [--baseline FILE] [--format text|json]

Suppress a single finding inline with ``# repro-lint: disable=RULE`` on the
offending line (or on a comment line directly above it).
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    iter_nodes_with_scope,
    suppressed_rules_by_line,
)
from repro.analysis.driver import all_rules, default_checkers, discover, run

__all__ = [
    "BaselineEntry",
    "Checker",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "all_rules",
    "apply_baseline",
    "default_checkers",
    "discover",
    "iter_nodes_with_scope",
    "load_baseline",
    "run",
    "suppressed_rules_by_line",
    "write_baseline",
]
