"""Symmetric hash join: the non-blocking heart of the streaming path.

Classic hash join builds the whole hash table from one side before
probing with the other — first output gated on the *build* side
finishing.  The symmetric variant keeps a hash table per side and, for
every arriving item, inserts it into its own table and probes the
other's: a joined tuple is emitted the instant both halves exist,
whichever side delivered second.  Over autonomous sources with wildly
different latencies this is the difference between "first answer when
the slowest source replies" and "first answer when the first match
lands".

Every (left, right) combination with equal keys is emitted exactly once
— by whichever item arrived later — regardless of arrival interleaving;
only emission *order* is schedule-dependent.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.engine.operators.base import Operator

__all__ = ["SymmetricHashJoin"]

LEFT = 0
RIGHT = 1


class SymmetricHashJoin(Operator):
    """Join two input streams on equal keys, emitting as matches arrive.

    Parameters
    ----------
    left_key / right_key:
        Extract the join key from an item of the respective port.  A key
        of ``None`` marks the item unjoinable; it is dropped (QPIAD's
        "NULL join value with no confident prediction" case — the caller
        predicts-and-substitutes *before* the tree, so by the time an
        item reaches the join its key is final).
    combine:
        Build the output item from a matched ``(left, right)``.
    match:
        Optional extra predicate over ``(left, right)``; pairs it
        rejects are not emitted.  The join processors use this to
        restrict the cross product to the top-K *selected* query pairs
        while still issuing each component query only once.
    """

    arity = 2

    def __init__(
        self,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
        match: Callable[[Any, Any], bool] | None = None,
    ):
        self._keys = (left_key, right_key)
        self._tables: tuple[dict[Any, list[Any]], dict[Any, list[Any]]] = ({}, {})
        self._combine = combine
        self._match = match

    def push(self, port: int, item: Any) -> Iterator[Any]:
        key = self._keys[port](item)
        if key is None:
            return
        self._tables[port].setdefault(key, []).append(item)
        mates = self._tables[1 - port].get(key)
        if not mates:
            return
        for mate in mates:
            left, right = (item, mate) if port == LEFT else (mate, item)
            if self._match is None or self._match(left, right):
                yield self._combine(left, right)
