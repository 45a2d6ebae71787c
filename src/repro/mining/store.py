"""Atomic holder for the currently-installed knowledge generation.

A mediator stack serving concurrent queries cannot read a bare
:class:`~repro.mining.knowledge.KnowledgeBase` attribute while a refresh
replaces it: a query that picked up the old AFDs must not suddenly see the
new classifiers halfway through planning.  The :class:`KnowledgeStore`
mediates that hand-off.  Refreshers :meth:`install` a *new, frozen*
generation; readers take a per-query snapshot via :attr:`current` and use
that one object for the query's whole lifetime.  Because every generation
carries its own fingerprint and the plan cache keys on it (PR 5),
installing a generation invalidates stale plans by construction — no
explicit cache flush is needed, and no lock is held while planning.

``as_store`` lets every constructor accept either a raw knowledge base
(wrapped into a fresh store — the common single-shot CLI path) or a shared
store (the long-running service path), so call sites stay source-compatible.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mining.knowledge import KnowledgeBase

__all__ = ["KnowledgeStore", "as_store"]


class KnowledgeStore:
    """Thread-safe, atomically-swappable reference to a knowledge generation."""

    __slots__ = ("_lock", "_current")

    def __init__(self, knowledge: "KnowledgeBase"):
        self._lock = threading.Lock()
        self._current = knowledge

    @property
    def current(self) -> "KnowledgeBase":
        """Snapshot of the installed generation.

        Callers must hold on to the returned object for the duration of one
        logical operation (a query, a plan, a refresh) rather than re-read
        this property mid-flight — that is what makes swaps atomic from the
        reader's point of view.
        """
        with self._lock:
            return self._current

    def install(self, knowledge: "KnowledgeBase") -> "KnowledgeBase":
        """Atomically publish a new generation; returns the one it replaced.

        In-flight queries keep the snapshot they took; new snapshots see
        the new generation.  The new generation's fingerprint differs from
        the old one's whenever the mined payload changed, so plan-cache
        entries keyed on the old fingerprint can never be served against
        the new knowledge.
        """
        with self._lock:
            previous = self._current
            self._current = knowledge
            return previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        current = self.current
        return f"KnowledgeStore(epoch={current.epoch}, id={id(self):#x})"


def as_store(knowledge: "Union[KnowledgeBase, KnowledgeStore]") -> KnowledgeStore:
    """Wrap a bare knowledge base in a store; pass stores through unchanged.

    Passing the store through (rather than re-wrapping) is what lets many
    mediators share one holder: installing a refreshed generation in any of
    them is visible to all.
    """
    if isinstance(knowledge, KnowledgeStore):
        return knowledge
    return KnowledgeStore(knowledge)

