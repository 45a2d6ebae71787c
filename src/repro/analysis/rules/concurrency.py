"""Rule pinning lock discipline on lock-holding classes.

The concurrent executor made a handful of classes shared mutable state —
``AccessStatistics``, ``MetricsRegistry``, ``Tracer``,
``FaultInjectingSource``, the admission scheduler and its token buckets —
and established, by hand, the invariant that every write to their shared
attributes happens under the instance lock.  This rule pins that
invariant one class at a time:

1. collect the class's **guarded attribute paths**: ``self.<path>``
   targets assigned (or mutated through ``append``/``update``/…) inside a
   ``with self._lock:`` / ``with self._mutex:`` block anywhere in the
   class;
2. flag every write to a guarded path outside a lock context.

A class that takes its lock anywhere is held to its own discipline
everywhere: holding a lock is the evidence that instances are shared, so
no call-graph reachability question is asked.

``__init__`` / ``__post_init__`` / ``__new__`` are exempt — the instance
is not yet shared while it is being constructed.  Paths are compared by
prefix in both directions, so replacing a guarded container
(``self._entries = {}``) and writing a field of a guarded object
(``self.statistics.calls``) are both caught.  Writes to *other* objects'
guarded attributes are out of scope (a fresh local is not shared yet);
each class is checked against its own discipline.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = ["UnguardedSharedWriteRule"]

_LOCK_NAME = re.compile(r"lock|mutex", re.IGNORECASE)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _self_path(node: ast.expr) -> "str | None":
    """``"a.b"`` for an attribute chain rooted at ``self``, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _is_lock_item(item: ast.withitem) -> bool:
    """Whether a ``with`` item acquires an instance lock (``self.*lock*``)."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # e.g. ``with self._lock.acquire_timeout(...)``
        expr = expr.func
    path = _self_path(expr)
    return path is not None and bool(_LOCK_NAME.search(path.split(".")[-1]))


class _Write:
    """One attribute write: its path, node, and lock context."""

    __slots__ = ("path", "node", "under_lock", "method")

    def __init__(self, path: str, node: ast.AST, under_lock: bool, method: str):
        self.path = path
        self.node = node
        self.under_lock = under_lock
        self.method = method


def _collect_writes(cls: ast.ClassDef) -> "list[_Write]":
    writes: list[_Write] = []
    for method in cls.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _walk_body(method.body, method.name, False, writes)
    return writes


def _walk_body(
    statements: "list[ast.stmt]", method: str, under_lock: bool, out: "list[_Write]"
) -> None:
    for statement in statements:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scopes have their own ``self``
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            locked = under_lock or any(_is_lock_item(item) for item in statement.items)
            _walk_body(statement.body, method, locked, out)
            continue
        if isinstance(statement, ast.Assign):
            _collect_targets(statement.targets, statement, method, under_lock, out)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            _collect_targets([statement.target], statement, method, under_lock, out)
        # Header expressions (test/iter/value) can carry mutator calls; nested
        # statement bodies are walked separately so their lock context is right.
        for expression in _own_expressions(statement):
            _collect_mutator_calls(expression, method, under_lock, out)
        for body in _sub_bodies(statement):
            _walk_body(body, method, under_lock, out)


def _own_expressions(statement: ast.stmt) -> "Iterator[ast.expr]":
    """The expressions belonging to *statement* itself (not nested bodies)."""
    for name, value in ast.iter_fields(statement):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for element in value:
                if isinstance(element, ast.expr):
                    yield element


def _sub_bodies(statement: ast.stmt) -> "Iterator[list[ast.stmt]]":
    for attr in ("body", "orelse", "finalbody"):
        body = getattr(statement, attr, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(statement, "handlers", ()):
        yield handler.body


def _collect_targets(
    targets: "list[ast.expr]",
    statement: ast.stmt,
    method: str,
    under_lock: bool,
    out: "list[_Write]",
) -> None:
    for target in targets:
        for element in _flatten_target(target):
            store = element
            if isinstance(store, ast.Subscript):  # self.x[k] = v mutates self.x
                store = store.value
            path = _self_path(store)
            if path is not None:
                out.append(_Write(path, element, under_lock, method))


def _collect_mutator_calls(
    expression: ast.expr, method: str, under_lock: bool, out: "list[_Write]"
) -> None:
    """In-place mutator calls: ``self.x.append(...)``, ``self.a.b.update(...)``."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Lambda):
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            receiver = node.func.value
            if isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            path = _self_path(receiver)
            if path is not None:
                out.append(_Write(path, node, under_lock, method))


def _flatten_target(target: ast.expr) -> "Iterator[ast.expr]":
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element)
    else:
        yield target


def _conflicts(path: str, guarded: "dict[str, tuple[str, int]]") -> "str | None":
    """The guarded path *path* collides with, if any (prefix either way)."""
    for other in guarded:
        if path == other or path.startswith(other + ".") or other.startswith(path + "."):
            return other
    return None


class UnguardedSharedWriteRule(Rule):
    """Flag unlocked writes to the lock-guarded attributes of a class."""

    id = "unguarded-shared-write"
    severity = Severity.ERROR
    description = (
        "attributes a class assigns under 'with self._lock:' anywhere must "
        "never be written without the lock"
    )
    rationale = (
        "The concurrent plan executor runs source calls on worker threads that all "
        "feed shared accounting objects (AccessStatistics, MetricsRegistry, Tracer, "
        "FaultInjectingSource); the chaos suite's exact-accounting assertions hold "
        "only because every one of those writes is serialized behind the instance "
        "lock.  A single unlocked write reintroduces lost-update races, and nothing "
        "at runtime would notice."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for cls in ast.walk(context.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(context, cls)

    def _check_class(self, context: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
        writes = _collect_writes(cls)
        guarded: dict[str, tuple[str, int]] = {}
        for write in writes:
            if write.under_lock and write.path not in guarded:
                guarded[write.path] = (
                    write.method,
                    getattr(write.node, "lineno", cls.lineno),
                )
        for write in writes:
            if write.under_lock or write.method in _CONSTRUCTORS:
                continue
            hit = _conflicts(write.path, guarded)
            if hit is None:
                continue
            guard_method, guard_line = guarded[hit]
            yield self.finding(
                context,
                write.node,
                f"{cls.name}.{write.path} is written without holding the lock "
                f"that guards {cls.name}.{hit} elsewhere "
                f"({guard_method}, line {guard_line})",
            )
