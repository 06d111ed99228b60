"""Visitor driver: discover sources, run checkers, order findings.

The driver is the determinism boundary of repro-lint: files are discovered
in sorted order, checkers run in a fixed order, inline suppressions are
applied, and the combined findings are sorted by ``(path, line, col, rule,
message)`` -- so two runs over the same tree are byte-identical (pinned by
a property test that also shuffles the module order).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    is_suppressed,
    suppressed_rules_by_line,
)

#: Name of the scanned package directory under the source root.
PACKAGE = "repro"


def default_checkers() -> tuple[Checker, ...]:
    """The shipped checker plugins, in their fixed execution order."""
    from repro.analysis.checkers import (
        LockDisciplineChecker,
        RngDisciplineChecker,
        TelemetryGuardChecker,
        WallClockChecker,
    )

    return (
        RngDisciplineChecker(),
        WallClockChecker(),
        TelemetryGuardChecker(),
        LockDisciplineChecker(),
    )


def all_rules(checkers: tuple[Checker, ...] | None = None) -> tuple[Rule, ...]:
    """Every rule of the given checkers (default set), sorted by ID."""
    plugins = default_checkers() if checkers is None else checkers
    return tuple(sorted((rule for c in plugins for rule in c.rules), key=lambda r: r.id))


def default_root() -> Path:
    """The source root of the installed ``repro`` package (its parent)."""
    import repro

    package_file = repro.__file__
    if package_file is None:  # pragma: no cover - namespace-package guard
        raise RuntimeError("Cannot locate the repro package on disk.")
    return Path(package_file).resolve().parent.parent


def discover(root: Path | None = None) -> Project:
    """Parse every ``*.py`` under ``<root>/repro`` into a :class:`Project`."""
    root = default_root() if root is None else Path(root).resolve()
    package_dir = root / PACKAGE
    if not package_dir.is_dir():
        raise FileNotFoundError(f"No '{PACKAGE}' package under {root}.")
    modules: list[ModuleInfo] = []
    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        parts = rel.split("/")
        layer = parts[1] if len(parts) > 2 else "root"
        modules.append(
            ModuleInfo(path=path, rel=rel, layer=layer, source=source, tree=tree)
        )
    return Project(root=root, modules=tuple(modules))


def run(
    project: Project, checkers: tuple[Checker, ...] | None = None
) -> list[Finding]:
    """Run all checkers over the project; sorted, suppression-filtered."""
    plugins = default_checkers() if checkers is None else checkers
    findings: list[Finding] = []
    suppressions = {
        module.rel: suppressed_rules_by_line(module.source)
        for module in project.modules
    }
    for checker in plugins:
        for module in project.modules:
            findings.extend(checker.check_module(module, project))
    kept = [
        finding
        for finding in findings
        if not is_suppressed(finding, suppressions.get(finding.path, {}))
    ]
    return sorted(kept)
