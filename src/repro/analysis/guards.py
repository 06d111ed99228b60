"""Lexical ``TELEMETRY.enabled`` guard analysis shared by several checkers.

The telemetry convention (PR 6) is that every instrumented call site pays a
single attribute read when telemetry is disabled.  The codebase expresses
"this region only runs when telemetry is on" in a handful of shapes::

    if TELEMETRY.enabled:                      # plain lexical guard
        TELEMETRY.counter(...).inc()

    if drift and TELEMETRY.enabled:            # guard inside an ``and``
        ...

    telemetry_on = TELEMETRY.enabled           # local alias guard
    if telemetry_on:
        ...
    handle = TELEMETRY.histogram(...) if telemetry_on else None

    if not TELEMETRY.enabled:                  # early-exit guard: the rest
        ...                                    # of the block is only
        return ...                             # reached when enabled

    def _telemetry_split(self, ...):           # helper convention: body is
        TELEMETRY.emit(...)                    # exempt, every *call site*
                                               # must itself be guarded

:class:`GuardIndex` walks a module once, applying these rules, and records
which AST nodes sit in an enabled-only region.  Checkers then ask
:meth:`GuardIndex.guarded` for any node of the same tree instance.
"""

from __future__ import annotations

import ast

#: Name of the process-wide singleton every instrumented module imports.
TELEMETRY_NAME = "TELEMETRY"

#: Attributes of ``TELEMETRY`` that are safe to touch without a guard:
#: ``enabled`` is the guard itself, ``span`` returns the shared no-op
#: context manager when disabled, and the lifecycle/export methods are
#: never on a hot path.
SAFE_ATTRS = frozenset({"enabled", "enable", "disable", "reset", "span", "export_run"})

#: Prefix marking a telemetry helper: the body is exempt from the guard
#: rule, every call site of the helper must be guarded instead.
HELPER_PREFIX = "_telemetry_"


def _is_enabled_read(node: ast.expr) -> bool:
    """``TELEMETRY.enabled`` as a bare attribute chain."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == TELEMETRY_NAME
    )


def _terminates(body: list[ast.stmt]) -> bool:
    """Whether a block always leaves the enclosing suite."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class GuardIndex:
    """Set of AST nodes lexically inside a telemetry-enabled-only region."""

    def __init__(self, tree: ast.Module) -> None:
        self._guarded: set[int] = set()
        self._scan_stmts(list(tree.body), False, self._collect_aliases(tree))

    def guarded(self, node: ast.AST) -> bool:
        return id(node) in self._guarded

    # ------------------------------------------------------------- internals
    def _collect_aliases(self, scope: ast.AST) -> frozenset[str]:
        """Local names assigned from ``TELEMETRY.enabled`` in this scope."""
        aliases: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and _is_enabled_read(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return frozenset(aliases)

    def _implies(self, test: ast.expr, aliases: frozenset[str]) -> bool:
        """Whether ``test`` being truthy implies telemetry is enabled."""
        if _is_enabled_read(test):
            return True
        if isinstance(test, ast.Name) and test.id in aliases:
            return True
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._implies(value, aliases) for value in test.values)
        return False

    def _implies_not(self, test: ast.expr, aliases: frozenset[str]) -> bool:
        """Whether ``test`` being truthy implies telemetry is *disabled*."""
        return isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ) and self._implies(test.operand, aliases)

    def _mark(self, node: ast.AST) -> None:
        self._guarded.add(id(node))
        for child in ast.walk(node):
            self._guarded.add(id(child))

    def _scan_stmts(
        self, stmts: list[ast.stmt], guarded: bool, aliases: frozenset[str]
    ) -> None:
        remaining_guarded = guarded
        for index, stmt in enumerate(stmts):
            if remaining_guarded:
                self._mark(stmt)
                continue
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, False, aliases)
                implies = self._implies(stmt.test, aliases)
                self._scan_stmts(stmt.body, implies, aliases)
                implies_not = self._implies_not(stmt.test, aliases)
                self._scan_stmts(stmt.orelse, implies_not, aliases)
                # Early-exit guard: ``if not TELEMETRY.enabled: ...; return``
                # leaves the rest of this suite reachable only when enabled.
                if implies_not and not stmt.orelse and _terminates(stmt.body):
                    remaining_guarded = True
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body_guarded = stmt.name.startswith(HELPER_PREFIX)
                self._scan_stmts(
                    stmt.body, body_guarded, self._collect_aliases(stmt)
                )
            elif isinstance(stmt, ast.ClassDef):
                self._scan_stmts(stmt.body, False, aliases)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                for expr in ast.iter_child_nodes(stmt):
                    if isinstance(expr, ast.expr):
                        self._scan_expr(expr, False, aliases)
                self._scan_stmts(stmt.body, False, aliases)
                self._scan_stmts(stmt.orelse, False, aliases)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, False, aliases)
                self._scan_stmts(stmt.body, False, aliases)
            elif isinstance(stmt, ast.Try):
                self._scan_stmts(stmt.body, False, aliases)
                for handler in stmt.handlers:
                    self._scan_stmts(handler.body, False, aliases)
                self._scan_stmts(stmt.orelse, False, aliases)
                self._scan_stmts(stmt.finalbody, False, aliases)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._scan_expr(child, False, aliases)
                    elif isinstance(child, ast.stmt):
                        self._scan_stmts([child], False, aliases)

    def _scan_expr(
        self, expr: ast.expr, guarded: bool, aliases: frozenset[str]
    ) -> None:
        if guarded:
            self._mark(expr)
            return
        if isinstance(expr, ast.IfExp):
            self._scan_expr(expr.test, False, aliases)
            self._scan_expr(expr.body, self._implies(expr.test, aliases), aliases)
            self._scan_expr(
                expr.orelse, self._implies_not(expr.test, aliases), aliases
            )
            return
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            seen_guard = False
            for value in expr.values:
                self._scan_expr(value, seen_guard, aliases)
                seen_guard = seen_guard or self._implies(value, aliases)
            return
        if isinstance(expr, ast.Lambda):
            self._scan_expr(expr.body, False, aliases)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, False, aliases)
