"""The non-blocking operator behind streaming joins.

Instead of materializing every component result before joining, the
join processor pushes rows into one :class:`OperatorTree` (two
projections into a symmetric hash join) in source-call *completion*
order, as :meth:`~repro.engine.engine.RetrievalEngine.stream_tuples`
yields them.  Its output is arrival-ordered, so every consumer ranks at
the edge.  See ``docs/engine.md`` for the diagram and the guarantees.
"""

from repro.engine.operators.base import OperatorTree

__all__ = ["OperatorTree"]
