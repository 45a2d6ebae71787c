"""Rule enforcing reproducible randomness.

Every figure in the reproduction is regenerated from code; a single
unseeded RNG turns "reproduction" into "anecdote".  The repo-wide
convention is a dedicated, explicitly seeded generator per component
(``rng = random.Random(seed)``), threaded through call chains — never the
process-global RNG, whose state any import can perturb.

An explicit seed argument is only as good as its value, so the rule also
classifies the seed of every seeded constructor: a literal ``None``, a
wall-clock or entropy call (``time.time()``, ``os.urandom()``, also inside
arithmetic such as ``seed + 1``), or a parameter of the enclosing function
that defaults to ``None`` and that no ``is None`` / ``is not None`` test
has ruled out all make the generator effectively unseeded.  A helper with
``seed=None`` is therefore flagged where it is defined, whoever calls it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = ["UnseededRngRule"]

#: Qualified RNG constructors whose first argument (or ``seed=``) is the seed.
_RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    }
)

#: Calls whose result is wall-clock / entropy — never a reproducible seed.
_NONDETERMINISTIC = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "os.urandom",
        "os.getpid",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _import_bindings(tree: ast.Module) -> "dict[str, str]":
    """Local name -> qualified name for every import in *tree*."""
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _qualified(func: ast.expr, bindings: "dict[str, str]") -> "str | None":
    """The imported name *func* refers to (``np.random.rand`` ->
    ``numpy.random.rand``), or ``None`` if its head is not an import."""
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in bindings:
        return None
    return ".".join([bindings[func.id], *reversed(parts)])


def _none_test(test: ast.expr) -> "tuple[str | None, bool]":
    """``(name, True)`` for ``name is not None``, ``(name, False)`` for
    ``name is None``, ``(None, ...)`` otherwise."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and isinstance(test.left, ast.Name)
    ):
        return test.left.id, isinstance(test.ops[0], ast.IsNot)
    return None, True


def _ruled_out(branch: ast.AST, node: "ast.If | ast.IfExp") -> "str | None":
    """The name *node*'s ``is (not) None`` test proves non-None in *branch*."""
    name, positive = _none_test(node.test)
    chosen = node.body if positive else node.orelse
    if branch is chosen or (
        isinstance(chosen, list) and any(branch is stmt for stmt in chosen)
    ):
        return name
    return None


def _maybe_none_params(node: ast.AST, parents: "dict[ast.AST, ast.AST]") -> "set[str]":
    """Parameters of *node*'s enclosing function that default to ``None``
    and that no enclosing ``is (not) None`` test has ruled out at *node*."""
    ruled_out: set[str] = set()
    child, parent = node, parents.get(node)
    while parent is not None and not isinstance(parent, _SCOPES):
        if isinstance(parent, (ast.If, ast.IfExp)):
            name = _ruled_out(child, parent)
            if name is not None:
                ruled_out.add(name)
        child, parent = parent, parents.get(parent)
    if not isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return set()
    args = parent.args
    positional = [*args.posonlyargs, *args.args]
    pairs = [
        *zip(positional[len(positional) - len(args.defaults):], args.defaults),
        *zip(args.kwonlyargs, args.kw_defaults),
    ]
    return {
        arg.arg
        for arg, default in pairs
        if isinstance(default, ast.Constant) and default.value is None
    } - ruled_out


class UnseededRngRule(Rule):
    """Flag unseeded, effectively unseeded, or process-global randomness."""

    id = "unseeded-rng"
    severity = Severity.ERROR
    description = (
        "randomness must come from an explicitly seeded generator "
        "(random.Random(seed) / default_rng(seed)), never the global RNG, and "
        "the seed must not be None, a wall-clock/entropy call, or an unchecked "
        "None-default parameter"
    )
    rationale = (
        "The paper's experiments (GD→ED masking, training splits, workloads) are "
        "reproduced bit-for-bit only if every random draw is derived from an "
        "explicit seed; module-level random.* and np.random.* share mutable "
        "global state that import order silently perturbs, and random.Random(seed) "
        "is no better when seed may be None or the clock."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        bindings = _import_bindings(context.tree)
        parents = {
            child: parent
            for parent in ast.walk(context.tree)
            for child in ast.iter_child_nodes(parent)
        }
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _qualified(node.func, bindings)
            if name is None or name == "random.SystemRandom":
                continue
            if name in _RNG_CONSTRUCTORS:
                seed = self._seed_argument(node)
                if seed is None:
                    yield self.finding(
                        context, node, f"{name}() without a seed; pass an explicit seed"
                    )
                    continue
                problem = self._seed_problem(
                    seed, _maybe_none_params(node, parents), bindings
                )
                if problem is not None:
                    yield self.finding(
                        context, node, f"{name}() is effectively unseeded: {problem}"
                    )
            elif name.startswith(("random.", "numpy.random.")):
                yield self.finding(
                    context, node,
                    f"{name}() draws from the process-global RNG; use a dedicated "
                    "random.Random(seed) / np.random.default_rng(seed)",
                )

    @staticmethod
    def _seed_argument(node: ast.Call) -> "ast.expr | None":
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "seed":
                return keyword.value
        return None

    def _seed_problem(
        self, seed: ast.expr, maybe_none: "set[str]", bindings: "dict[str, str]"
    ) -> "str | None":
        """Why *seed* is not a reproducible seed, or ``None`` if it may be.

        Attribute reads (``config.seed``), constants and other shapes are
        assumed config-fed.
        """
        if isinstance(seed, ast.Constant):
            return "the seed is literally None" if seed.value is None else None
        if isinstance(seed, ast.Name):
            if seed.id in maybe_none:
                return (
                    f"parameter '{seed.id}' defaults to None and is never "
                    "checked with 'is None' before use"
                )
            return None
        if isinstance(seed, ast.Call):
            name = _qualified(seed.func, bindings)
            if name in _NONDETERMINISTIC:
                return f"the seed comes from nondeterministic {name}()"
            return None
        if isinstance(seed, ast.BinOp):
            return self._seed_problem(
                seed.left, maybe_none, bindings
            ) or self._seed_problem(seed.right, maybe_none, bindings)
        if isinstance(seed, ast.IfExp):
            return self._seed_problem(
                seed.body, maybe_none - {_ruled_out(seed.body, seed)}, bindings
            ) or self._seed_problem(
                seed.orelse, maybe_none - {_ruled_out(seed.orelse, seed)}, bindings
            )
        return None
