"""LCK001 -- a lock-owning class touches its mutable fields under the lock.

The serving classes and the telemetry metrics registry are shared between
scorer threads.  Each owns a ``threading.Lock``/``RLock`` and is only
correct if every field that changes after construction is read and written
under it.  The rule, per class that assigns ``self.<lock> =
threading.Lock()`` (or ``RLock()``):

* a field is *mutable* when a method other than the construction hooks in
  :data:`INIT_METHODS` assigns it, deletes it, assigns into it
  (``self.f[k] = v``) or calls a mutating container method on it
  (``self.f.clear()``);
* every access to a mutable field outside those hooks must sit lexically
  inside ``with self.<lock>:``, or in a private helper whose every in-class
  call holds the lock (or comes from such a helper, or from construction).

A deliberate lock-free read is suppressed inline, with its reason next to
it (``MetricsRegistry._get_or_create``'s double-checked lookup).  The
thread-stress tests in ``tests/test_serving_concurrency.py`` cover the same
classes dynamically, but a race that needs an unlucky interleaving can pass
them many times in a row; this rule does not depend on the scheduler.
"""

from __future__ import annotations

import ast
from typing import Iterator, NamedTuple

from repro.analysis.core import Checker, Finding, ModuleInfo, Project, Rule, resolve_dotted

#: Constructors whose result, stored on ``self``, makes a class lock-owning.
LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})

#: Methods whose writes never race: construction and (un)pickling happen
#: before the object is published to other threads.
INIT_METHODS = frozenset({"__init__", "__post_init__", "__getstate__", "__setstate__"})

#: Container methods that mutate their receiver.
MUTATORS = frozenset(
    {"add", "append", "appendleft", "clear", "discard", "extend", "insert", "pop",
     "popitem", "remove", "setdefault", "update"}
)


class _Access(NamedTuple):
    attr: str
    node: ast.expr
    write: bool
    locked: bool


def _self_attr(node: ast.AST) -> str | None:
    """``f`` for a ``self.f`` expression, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "self" else None
    return None


def _scan(
    method: ast.FunctionDef | ast.AsyncFunctionDef, locks: frozenset[str]
) -> tuple[list[_Access], list[tuple[str, bool]]]:
    """Every ``self.f`` access and ``self.m()`` call of a method, in source
    order, each with whether it sits inside ``with self.<lock>:``."""
    accesses: list[_Access] = []
    calls: list[tuple[str, bool]] = []

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            holds = locked or any(
                _self_attr(item.context_expr) in locks for item in node.items
            )
            for item in node.items:
                visit(item, locked)
            for stmt in node.body:
                visit(stmt, holds)
            return
        attr = _self_attr(node)
        if isinstance(node, ast.Attribute) and attr is not None:
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            accesses.append(_Access(attr, node, write, locked))
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            inner = _self_attr(node.value)
            if inner is not None:
                accesses.append(_Access(inner, node, True, locked))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = _self_attr(node.func.value)
            if receiver is not None and node.func.attr in MUTATORS:
                accesses.append(_Access(receiver, node, True, locked))
            callee = _self_attr(node.func)
            if callee is not None:
                calls.append((callee, locked))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for stmt in method.body:
        visit(stmt, False)
    return accesses, calls


def _lock_attrs(
    methods: list[ast.FunctionDef | ast.AsyncFunctionDef], table: dict[str, str]
) -> frozenset[str]:
    locks: set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and resolve_dotted(node.value.func, table) in LOCK_FACTORIES
            ):
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks.add(attr)
    return frozenset(locks)


def _guarded_helpers(calls: dict[str, list[tuple[str, bool]]]) -> set[str]:
    """Private methods whose every in-class call holds the lock."""
    callers: dict[str, list[tuple[str, bool]]] = {}
    for caller, sites in calls.items():
        for callee, locked in sites:
            if callee in calls:
                entry = (caller, locked or caller in INIT_METHODS)
                callers.setdefault(callee, []).append(entry)
    guarded = {name for name in callers if name[:1] == "_" and name[:2] != "__"}
    changed = True
    while changed:
        changed = False
        for name in sorted(guarded):
            if not all(held or caller in guarded for caller, held in callers[name]):
                guarded.discard(name)
                changed = True
    return guarded


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    rules = (
        Rule(
            "LCK001",
            "mutable field of a lock-owning class accessed outside its lock",
            "serving/telemetry contract: a field of a class owning a "
            "threading.Lock that changes after construction is read and "
            "written only under the lock (or in a private helper every "
            "caller of which holds it)",
        ),
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        table = module.import_table()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node, table)

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef, table: dict[str, str]
    ) -> Iterator[Finding]:
        methods = [
            stmt for stmt in cls.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        locks = _lock_attrs(methods, table)
        if not locks:
            return
        scans = {method.name: _scan(method, locks) for method in methods}
        mutable = {
            access.attr
            for name, (accesses, _) in scans.items()
            if name not in INIT_METHODS
            for access in accesses
            if access.write
        } - locks
        helpers = _guarded_helpers({name: calls for name, (_, calls) in scans.items()})
        lock = sorted(locks)[0]
        for method in methods:
            if method.name in INIT_METHODS or method.name in helpers:
                continue
            reported: set[str] = set()
            for access in scans[method.name][0]:
                if access.locked or access.attr not in mutable - reported:
                    continue
                reported.add(access.attr)
                yield Finding(
                    path=module.rel,
                    line=access.node.lineno,
                    col=access.node.col_offset,
                    rule="LCK001",
                    message=(
                        f"field '{access.attr}' of lock-owning class "
                        f"{cls.name} is "
                        f"{'written' if access.write else 'read'} in "
                        f"{method.name} outside 'with self.{lock}'"
                    ),
                )
