"""The join's streaming operator: two projections into a symmetric hash join.

Rows are pushed in through the ``"left"`` and ``"right"`` inlets as
source calls complete (see
:meth:`~repro.engine.engine.RetrievalEngine.stream_tuples`).  Each inlet
projects its row, and the join keeps one hash table per side: an
arriving row is inserted into its own side's table and probed against
the other's, so a joined pair is emitted the instant its second half
arrives, whichever side delivered it.  Over autonomous sources with
very different latencies, the first answer waits for the first match,
not for the slowest source.

Every matching ``(left, right)`` combination is emitted exactly once,
by whichever row arrived later, whatever the interleaving; only the
emission *order* depends on the schedule, so every consumer ranks at
the end.  The executor overlaps the source calls below the operator;
the operator itself is driven from one thread and needs no locks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

__all__ = ["OperatorTree"]


class OperatorTree:
    """Join two pushed streams on equal keys, emitting pairs as they match.

    Parameters
    ----------
    left / right:
        Each inlet's projection.  It maps a pushed item to the item that
        is keyed and joined; ``None`` drops the pushed item.
    key:
        The join key of a projected item, on either side.
    combine:
        Builds the output from a matched ``(left, right)``.
    match:
        Which key-matched ``(left, right)`` pairs are emitted.  The join
        processor uses it to keep the selected query pairs out of the
        cross product while issuing each component query once.
    """

    def __init__(
        self,
        left: Callable[[Any], Any],
        right: Callable[[Any], Any],
        key: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
        match: Callable[[Any, Any], bool],
    ):
        left_table: dict[Any, list[Any]] = {}
        right_table: dict[Any, list[Any]] = {}
        # Per inlet: its projection, its own table, the other side's table,
        # and whether its items are the left half of a pair.
        self._inlets = {
            "left": (left, left_table, right_table, True),
            "right": (right, right_table, left_table, False),
        }
        self._key = key
        self._combine = combine
        self._match = match

    def push(self, inlet: str, item: Any) -> Iterator[Any]:
        """Push *item* into *inlet*; yield every pair it completes.

        Lazy: the item is projected, inserted and probed only as the
        caller reads, and each pair is combined as it is read.
        """
        project, own, other, is_left = self._inlets[inlet]
        projected = project(item)
        if projected is None:
            return
        key = self._key(projected)
        own.setdefault(key, []).append(projected)
        for mate in other.get(key, ()):
            left, right = (projected, mate) if is_left else (mate, projected)
            if self._match(left, right):
                yield self._combine(left, right)
