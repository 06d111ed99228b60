"""Framework primitives of repro-lint: findings, rules, modules, checkers.

A :class:`Checker` is a plugin that inspects one parsed module at a time
and yields :class:`Finding` records.  Everything here is deliberately free
of global state so two runs over the same tree produce byte-identical
output -- a property pinned by ``tests/test_analysis.py``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

#: Inline suppression marker: ``# repro-lint: disable=RNG001,TEL002`` or
#: ``# repro-lint: disable=all``.  Applies to findings on the same physical
#: line, or -- when the comment stands alone -- to the next code line.
_SUPPRESS_RE = re.compile(r"#.*?repro-lint:\s*disable=([A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)")


@dataclass(frozen=True)
class Rule:
    """One enforceable invariant, identified by a stable rule ID."""

    id: str
    summary: str
    #: Which convention / PR introduced the invariant the rule guards.
    rationale: str
    severity: str = "error"


@dataclass(frozen=True, order=True)
class Finding:
    """A single rule violation at a source location."""

    path: str  #: posix path relative to the source root, e.g. ``repro/core/dmt.py``
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used to match accepted findings in the baseline file.

        Line numbers are deliberately excluded so unrelated edits above a
        baselined finding do not invalidate the baseline.
        """
        return (self.path, self.rule, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module of the scanned tree."""

    path: Path  #: absolute filesystem path
    rel: str  #: posix path relative to the source root (``repro/...``)
    layer: str  #: first package directory under ``repro`` (or ``root``)
    source: str
    tree: ast.Module

    @property
    def dotted(self) -> str:
        """Dotted module name, e.g. ``repro.streams.base``."""
        parts = self.rel.rsplit(".", 1)[0].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def import_table(self) -> dict[str, str]:
        """Map of local names to the dotted origin they were imported from.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter as pc`` maps ``pc -> time.perf_counter``.  Function-level
        imports are included: the table answers "what does this name
        ultimately refer to", not "what is visible at module scope".
        """
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return table


@dataclass(frozen=True)
class Project:
    """The whole scanned tree: source root plus every parsed module."""

    root: Path  #: the directory containing the ``repro`` package (``src``)
    modules: tuple[ModuleInfo, ...]


class Checker:
    """Base class of all repro-lint plugins.

    Subclasses declare their :class:`Rule` catalogue in :attr:`rules` and
    implement :meth:`check_module`.  Checkers must be pure functions of the
    parsed tree: no wall clocks, no RNGs, no caches that survive a run --
    the CLI's output is required to be deterministic.
    """

    name: str = ""
    rules: tuple[Rule, ...] = ()

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        return iter(())


def resolve_dotted(node: ast.expr, table: dict[str, str]) -> str | None:
    """Resolve an attribute chain to a dotted origin using an import table.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; returns ``None`` for anything that is not
    a plain ``Name``/``Attribute`` chain.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = table.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


def iter_nodes_with_scope(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, tuple[str, ...]]]:
    """Yield every node with its enclosing class/function name stack.

    The scope of a node directly inside ``class C: def f(self): ...`` is
    ``("C", "f")``.  Module-level nodes have an empty scope.
    """

    def walk(node: ast.AST, scope: tuple[str, ...]) -> Iterator[tuple[ast.AST, tuple[str, ...]]]:
        for child in ast.iter_child_nodes(node):
            yield child, scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
            else:
                yield from walk(child, scope)

    yield from walk(tree, ())


def scope_qualname(module: ModuleInfo, scope: tuple[str, ...]) -> str:
    """Human-readable location label, e.g. ``VFDT._attempt_split``."""
    if not scope:
        return f"module {module.dotted}"
    return ".".join(scope)


def suppressed_rules_by_line(source: str) -> dict[int, frozenset[str]]:
    """Per-line inline suppressions: line number -> suppressed rule IDs.

    A ``# repro-lint: disable=...`` comment on a code line suppresses that
    line; on a standalone comment line it suppresses the next non-blank
    code line (so long call expressions can be annotated above).
    """
    result: dict[int, set[str]] = {}
    pending: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        rules = (
            {part.strip() for part in match.group(1).split(",") if part.strip()}
            if match
            else set()
        )
        stripped = text.strip()
        if match and stripped.startswith("#"):
            pending |= rules
            continue
        if not stripped or stripped.startswith("#"):
            continue
        line_rules = rules | pending
        pending = set()
        if line_rules:
            result.setdefault(lineno, set()).update(line_rules)
    return {line: frozenset(rules) for line, rules in result.items()}


def is_suppressed(finding: Finding, suppressions: dict[int, frozenset[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if not rules:
        return False
    return "all" in rules or "*" in rules or finding.rule in rules
