"""Deterministic content fingerprints for plan caching.

A cached plan is only valid while everything it was derived from is
unchanged: the user query, the rewriting bindings of the base result set
it was seeded with, the planner's own configuration, the capability
surface of the source that gated it, and — most importantly — the mined
knowledge.  Each of those inputs gets a canonical string encoding here,
hashed with SHA-256, so two inputs share a fingerprint exactly when they
are content-identical.

Encoding rules worth noting:

* floats are encoded via ``repr``, which round-trips binary64 exactly, so
  a knowledge base saved to JSON and loaded back fingerprints identically;
* sequences are encoded **in order**.  Relation rows
  (:func:`relation_fingerprint`, which knowledge fingerprints and refresh
  lineage use) hash in row order, and so do the combinations of the
  rewriting bindings the planner keys on: rewritten queries bind the
  determining values of the *first* base tuple seen per bucket-space
  class, so which raw value comes first is semantic;
* sets, frozensets, and mappings are sorted into a canonical order so the
  fingerprint never depends on iteration order.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.relational.relation import Relation
from repro.relational.values import is_null

__all__ = [
    "knowledge_fingerprint",
    "query_fingerprint",
    "relation_fingerprint",
    "source_token",
    "stable_digest",
]


def _canonical(value: Any) -> str:
    """A canonical, collision-resistant string encoding of *value*.

    Every scalar is tagged with its type and length-prefixed where the
    payload could contain delimiter characters, so structurally different
    values can never serialize to the same string.
    """
    if value is None:
        return "~"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if is_null(value):
        return "N"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            ((_canonical(k), _canonical(v)) for k, v in value.items()),
            key=lambda pair: pair[0],
        )
        return "(" + ",".join(f"{k}={v}" for k, v in items) + ")"
    encoded = repr(value)
    return f"r{len(encoded)}:{encoded}"


def stable_digest(payload: Any) -> str:
    """SHA-256 hex digest of *payload*'s canonical encoding."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def query_fingerprint(query: Any) -> str:
    """Fingerprint of a selection query's *value* (predicates + relation).

    Conjunct order is canonicalized: ``σ(a ∧ b)`` and ``σ(b ∧ a)`` are the
    same query (their ``__eq__`` agrees) and must share a cache entry.
    """
    return stable_digest(
        (
            "query",
            getattr(query, "relation", None),
            sorted(repr(conjunct) for conjunct in query.conjuncts),
        )
    )


def relation_fingerprint(relation: Relation) -> str:
    """Fingerprint of a relation's schema and rows, **in row order**.

    Knowledge fingerprints hash their sample with it, and refresh lineage
    records each folded batch by it.  The planner does not key on it: a
    plan reads a base set only through its rewriting bindings.

    Delegates to the relation's memoized row-chain digest, which
    ``concat`` extends in O(appended rows) — the reason a knowledge
    refresh, which re-mines the base sample plus a batch, never re-hashes
    the base sample.
    """
    return relation.content_digest()


def source_token(source: Any) -> str:
    """The capability surface of *source* that plan-time gating reads.

    ``can_answer`` depends only on the source's local schema and its
    (frozen) web-form capabilities — never on mutable state like the
    remaining query budget — so this token plus the other key components
    fully determines the gated plan.
    """
    if source is None:
        return "source:none"
    schema = getattr(source, "schema", None)
    names = tuple(schema.names) if schema is not None else ()
    capabilities = getattr(source, "capabilities", None)
    if capabilities is None:
        encoded: Any = None
    else:
        queryable = capabilities.queryable_attributes
        encoded = (
            bool(capabilities.allows_null_binding),
            capabilities.max_results,
            capabilities.query_budget,
            bool(capabilities.exposes_cardinality),
            sorted(queryable) if queryable is not None else None,
        )
    return stable_digest(
        ("source", getattr(source, "name", type(source).__name__), names, encoded)
    )


def knowledge_fingerprint(knowledge: Any) -> str:
    """Content fingerprint of a mined knowledge base.

    Covers everything planning reads: the sample (schema + rows in order),
    the advertised database size, the full mining configuration, the mined
    and pruned AFDs, the AKeys, and the discretizer's bin edges.  Derived
    state (classifiers, selectivity estimates) is a pure function of these
    inputs and therefore does not need to be hashed separately.
    """
    config = knowledge.config
    discretizer = knowledge._discretizer
    bins = (
        {
            name: (list(edges), low, high)
            for name, (edges, low, high) in discretizer.to_bins().items()
        }
        if discretizer is not None
        else None
    )
    return stable_digest(
        (
            "knowledge",
            relation_fingerprint(knowledge.sample),
            knowledge.database_size,
            (
                config.tane.min_confidence,
                config.tane.max_determining_size,
                config.tane.min_support,
                tuple(config.tane.attributes) if config.tane.attributes else None,
                config.tane.expand_near_keys,
                config.pruning_delta,
                config.classifier_method,
                config.smoothing_m,
                config.discretize_bins,
                config.discretize_strategy,
            ),
            [
                (afd.determining, afd.dependent, afd.confidence, afd.support)
                for afd in knowledge.all_afds
            ],
            [
                (afd.determining, afd.dependent, afd.confidence, afd.support)
                for afd in knowledge.afds
            ],
            [
                (key.attributes, key.confidence, key.support)
                for key in knowledge.akeys
            ],
            bins,
        )
    )
