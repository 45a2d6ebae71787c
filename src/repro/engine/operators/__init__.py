"""Non-blocking physical operators for streaming mediation.

The engine's answer to first-answer latency (ROADMAP item 1): instead of
materializing every component result before joining, mediators compose a
small tree of push-based operators —

* :class:`SymmetricHashJoin` — emits a joined tuple as soon as a match
  arrives from *either* side;
* :class:`StreamingProject` — per-item transform/filter, fused;

— and drive it with
:meth:`~repro.engine.engine.RetrievalEngine.stream_tuples`, which yields
``(step, row)`` in source-call *completion* order.  The executor overlaps
source I/O against join work; the tree itself runs on the driver's
thread and needs no locks.

Ordering contract: operator output is arrival-ordered and therefore
schedule-dependent; every consumer owes a deterministic final ranking
(dedup + total-order sort) at the edge.  See ``docs/engine.md`` for the
tree diagram and the full guarantees.
"""

from repro.engine.operators.base import Inlet, Operator, OperatorNode, OperatorTree
from repro.engine.operators.join import SymmetricHashJoin
from repro.engine.operators.project import StreamingProject

__all__ = [
    "Inlet",
    "Operator",
    "OperatorNode",
    "OperatorTree",
    "StreamingProject",
    "SymmetricHashJoin",
]
