"""The physical-operator contract and the tree that wires operators up.

Operators here are *push-based automata*: the plan driver feeds items in
through named inlets as source calls complete (see
:meth:`~repro.engine.engine.RetrievalEngine.stream_tuples`), each
operator reacts synchronously — holding state, emitting zero or more
output items — and emissions propagate up the tree to the root, where
the driver collects them.  All the asynchrony lives *below* the tree, in
the executor that overlaps source I/O; the tree itself is driven from
exactly one thread and therefore needs no locks.

This is the mediator-style non-blocking design (Xgjoin / Xproject): a
join emits a joined tuple the moment a match arrives from *either* side,
so first-answer latency is bounded by the fastest useful input, not by
the slowest source.  The price is ordering — outputs
surface in data-arrival order, which is schedule-dependent — so every
consumer ranks at the end: stream in the middle, sort at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.errors import QpiadError

__all__ = ["Inlet", "Operator", "OperatorNode", "OperatorTree"]


class Operator:
    """One physical operator: a synchronous, stateful push automaton.

    Subclasses declare ``arity`` (how many input ports they consume) and
    implement :meth:`push`.
    """

    arity: int = 1

    def push(self, port: int, item: Any) -> Iterator[Any]:
        """React to *item* arriving on *port*; yield any output items."""
        raise NotImplementedError


@dataclass(frozen=True)
class Inlet:
    """A named entry point of an operator tree.

    The driver pushes items by inlet name; the tree routes each to the
    operator port the inlet was wired into.
    """

    name: str


class OperatorNode:
    """One operator plus the wiring of its input ports.

    ``inputs[i]`` feeds the operator's port ``i`` and is either an
    :class:`Inlet` (driver-pushed) or another node (whose emissions
    cascade in).  *label* names the node in diagnostics.
    """

    def __init__(
        self,
        operator: Operator,
        inputs: Sequence["Inlet | OperatorNode"],
        label: str | None = None,
    ):
        if len(inputs) != operator.arity:
            raise QpiadError(
                f"operator {label or type(operator).__name__} has arity "
                f"{operator.arity} but {len(inputs)} inputs were wired"
            )
        self.operator = operator
        self.inputs = tuple(inputs)
        self.label = label or type(operator).__name__

    def __repr__(self) -> str:
        return f"OperatorNode({self.label})"


class OperatorTree:
    """A rooted tree of operators, driven by pushes into named inlets.

    The tree validates its shape once at construction — unique inlet
    names, every node used at most once (a tree, not a DAG) — then
    routes: ``push(name, item)`` runs the item through the inlet's
    operator and cascades emissions parent-ward; whatever escapes the
    root is yielded to the driver.

    ``push`` returns a lazy iterator; the driver must drain it
    (``yield from`` / list) for the push to actually happen.
    """

    def __init__(self, root: OperatorNode):
        self.root = root
        self._parents: dict[int, tuple[OperatorNode, int]] = {}
        self._inlets: dict[str, tuple[OperatorNode, int]] = {}
        self._seen: set[int] = set()
        self._wire(root)

    def _wire(self, node: OperatorNode) -> None:
        if id(node) in self._seen:
            raise QpiadError(f"node {node.label} wired twice; the plan must be a tree")
        self._seen.add(id(node))
        for port, source in enumerate(node.inputs):
            if isinstance(source, Inlet):
                if source.name in self._inlets:
                    raise QpiadError(f"duplicate inlet name {source.name!r}")
                self._inlets[source.name] = (node, port)
            else:
                self._parents[id(source)] = (node, port)
                self._wire(source)

    def push(self, inlet: str, item: Any) -> Iterator[Any]:
        """Push *item* into *inlet*; yield whatever reaches the root."""
        try:
            node, port = self._inlets[inlet]
        except KeyError:
            raise QpiadError(
                f"unknown inlet {inlet!r}; tree has {sorted(self._inlets)}"
            ) from None
        return self._cascade(node, port, item)

    def _cascade(self, node: OperatorNode, port: int, item: Any) -> Iterator[Any]:
        for emitted in node.operator.push(port, item):
            yield from self._emit(node, emitted)

    def _emit(self, node: OperatorNode, item: Any) -> Iterator[Any]:
        parent = self._parents.get(id(node))
        if parent is None:
            yield item
            return
        yield from self._cascade(parent[0], parent[1], item)
