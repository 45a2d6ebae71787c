"""Saving and loading mined knowledge bases.

Mining is the expensive off-line stage of QPIAD (probing + TANE).  A
production mediator mines once per source and reuses the statistics across
sessions.  These helpers serialize everything a
:class:`~repro.mining.KnowledgeBase` is built from — the sample, the mined
AFDs/AKeys, the discretizer's bin edges, and the configuration — to a JSON
file, and rebuild an identical knowledge base without re-running TANE.

Classifiers are *not* serialized: they train lazily from the stored sample
in milliseconds and would otherwise dominate the file size.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import MiningError
from repro.mining.afd import Afd, AKey
from repro.mining.discretization import Discretizer
from repro.mining.knowledge import KnowledgeBase, KnowledgeLineage, MiningConfig
from repro.mining.selectivity import SelectivityEstimator
from repro.mining.tane import TaneConfig
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.values import NULL, is_null

__all__ = ["save_knowledge", "load_knowledge"]

# Version 3 carries the knowledge fingerprint (verified on load so a stale or
# hand-edited file cannot silently serve plans mined from different data)
# and the generation lineage: the epoch counter plus the fingerprint of the
# epoch-0 base and the digests of every folded batch, so a refreshed
# knowledge base reloads as the same generation (and the lineage's internal
# consistency is verified).  Files in the older formats 1 and 2, which
# predate lineage, are rejected.
_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (3,)


def _encode_value(value: Any) -> Any:
    return None if is_null(value) else value


def _encode_relation(relation: Relation) -> dict:
    return {
        "schema": [
            {"name": attribute.name, "type": attribute.type.value}
            for attribute in relation.schema
        ],
        "rows": [[_encode_value(value) for value in row] for row in relation],
    }


def _decode_relation(payload: dict) -> Relation:
    schema = Schema(
        Attribute(column["name"], AttributeType(column["type"]))
        for column in payload["schema"]
    )
    rows = [
        tuple(NULL if value is None else value for value in row)
        for row in payload["rows"]
    ]
    return Relation(schema, rows)


def save_knowledge(knowledge: KnowledgeBase, path: "str | Path") -> None:
    """Serialize *knowledge* to a JSON file at *path*."""
    config = knowledge.config
    discretizer = knowledge._discretizer
    payload = {
        "format_version": _FORMAT_VERSION,
        "fingerprint": knowledge.fingerprint(),
        "epoch": knowledge.epoch,
        "lineage": {
            "base_fingerprint": knowledge.lineage.base_fingerprint,
            "batch_digests": list(knowledge.lineage.batch_digests),
        },
        "database_size": knowledge.database_size,
        "config": {
            "tane": {
                "min_confidence": config.tane.min_confidence,
                "max_determining_size": config.tane.max_determining_size,
                "min_support": config.tane.min_support,
                "attributes": list(config.tane.attributes) if config.tane.attributes else None,
                "expand_near_keys": config.tane.expand_near_keys,
            },
            "pruning_delta": config.pruning_delta,
            "classifier_method": config.classifier_method,
            "smoothing_m": config.smoothing_m,
            "discretize_bins": config.discretize_bins,
            "discretize_strategy": config.discretize_strategy,
        },
        "sample": _encode_relation(knowledge.sample),
        "afds": [
            {
                "determining": list(afd.determining),
                "dependent": afd.dependent,
                "confidence": afd.confidence,
                "support": afd.support,
            }
            for afd in knowledge.all_afds
        ],
        "pruned_afds": [
            {
                "determining": list(afd.determining),
                "dependent": afd.dependent,
                "confidence": afd.confidence,
                "support": afd.support,
            }
            for afd in knowledge.afds
        ],
        "akeys": [
            {
                "attributes": list(key.attributes),
                "confidence": key.confidence,
                "support": key.support,
            }
            for key in knowledge.akeys
        ],
        "discretizer": (
            {
                name: {"edges": list(edges), "low": low, "high": high}
                for name, (edges, low, high) in discretizer.to_bins().items()
            }
            if discretizer is not None
            else None
        ),
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_knowledge(path: "str | Path") -> KnowledgeBase:
    """Rebuild a knowledge base saved by :func:`save_knowledge`.

    The mined statistics are restored verbatim — TANE does not run again.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MiningError(f"cannot load knowledge base from {path}: {exc}") from exc
    version = payload.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise MiningError(
            f"unsupported knowledge-base format version {version!r} "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )

    config_payload = payload["config"]
    tane_payload = config_payload["tane"]
    config = MiningConfig(
        tane=TaneConfig(
            min_confidence=tane_payload["min_confidence"],
            max_determining_size=tane_payload["max_determining_size"],
            min_support=tane_payload["min_support"],
            attributes=(
                tuple(tane_payload["attributes"]) if tane_payload["attributes"] else None
            ),
            expand_near_keys=tane_payload["expand_near_keys"],
        ),
        pruning_delta=config_payload["pruning_delta"],
        classifier_method=config_payload["classifier_method"],
        smoothing_m=config_payload["smoothing_m"],
        discretize_bins=config_payload["discretize_bins"],
        discretize_strategy=config_payload["discretize_strategy"],
    )

    sample = _decode_relation(payload["sample"])

    if payload["discretizer"] is not None:
        discretizer = Discretizer.from_bins(
            {
                name: (tuple(entry["edges"]), entry["low"], entry["high"])
                for name, entry in payload["discretizer"].items()
            }
        )
    else:
        discretizer = None

    epoch = int(payload["epoch"])
    lineage_payload = payload["lineage"]
    lineage = KnowledgeLineage(
        base_fingerprint=lineage_payload["base_fingerprint"],
        batch_digests=tuple(lineage_payload["batch_digests"]),
    )
    if len(lineage.batch_digests) != epoch:
        raise MiningError(
            f"knowledge base at {path} has inconsistent lineage: epoch "
            f"{epoch} but {len(lineage.batch_digests)} folded batch digests"
        )
    if (lineage.base_fingerprint is None) != (epoch == 0):
        raise MiningError(
            f"knowledge base at {path} has inconsistent lineage: a base "
            "fingerprint must be recorded exactly when epoch > 0"
        )

    knowledge = KnowledgeBase._from_parts(
        config=config,
        sample=sample,
        database_size=payload["database_size"],
        discretizer=discretizer,
        all_afds=tuple(
            Afd(tuple(a["determining"]), a["dependent"], a["confidence"], a["support"])
            for a in payload["afds"]
        ),
        afds=tuple(
            Afd(tuple(a["determining"]), a["dependent"], a["confidence"], a["support"])
            for a in payload["pruned_afds"]
        ),
        akeys=tuple(
            AKey(tuple(k["attributes"]), k["confidence"], k["support"])
            for k in payload["akeys"]
        ),
        selectivity=SelectivityEstimator.from_sample(
            sample, payload["database_size"]
        ),
        epoch=epoch,
        lineage=lineage,
    )
    stored = payload["fingerprint"]
    if stored != knowledge.fingerprint():
        raise MiningError(
            f"knowledge base at {path} failed fingerprint verification: the "
            f"stored digest {stored!r} does not match the rebuilt content "
            f"({knowledge.fingerprint()!r}); the file is stale or corrupted"
        )
    return knowledge
