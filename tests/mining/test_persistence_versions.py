"""Format-version matrix for knowledge persistence.

Version 3 is the only format: it carries the verified content
fingerprint and generation lineage (epoch + base fingerprint +
folded-batch digests).  v3 files must round-trip and verify lineage
consistency; files in the older formats 1 and 2 are rejected.
"""

import json

import pytest

from repro.datasets.cars import generate_cars
from repro.datasets.incompleteness import make_incomplete
from repro.errors import MiningError
from repro.mining import KnowledgeBase, KnowledgeRefresher, KnowledgeStore
from repro.mining.persistence import load_knowledge, save_knowledge
from repro.relational import Relation


@pytest.fixture(scope="module")
def refreshed_knowledge():
    """An epoch-1 generation: one batch folded into a mined base."""
    whole = make_incomplete(generate_cars(600, seed=7), 0.10, seed=42).incomplete
    rows = whole.rows
    base = Relation(whole.schema, list(rows[:500]))
    batch = Relation(whole.schema, list(rows[100:200]))
    store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
    refresher = KnowledgeRefresher(store)
    refresher.refresh(batch)
    return store.current


@pytest.fixture(scope="module")
def saved_v3(refreshed_knowledge, tmp_path_factory):
    path = tmp_path_factory.mktemp("kbv") / "cars.v3.json"
    save_knowledge(refreshed_knowledge, path)
    return path


def _downgraded(saved_v3, tmp_path, version: int):
    """Rewrite a v3 file as an older format, dropping newer-format keys."""
    payload = json.loads(saved_v3.read_text(encoding="utf-8"))
    payload["format_version"] = version
    del payload["epoch"]
    del payload["lineage"]
    if version < 2:
        del payload["fingerprint"]
    path = tmp_path / f"cars.v{version}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestV3RoundTrip:
    def test_epoch_and_lineage_survive(self, refreshed_knowledge, saved_v3):
        loaded = load_knowledge(saved_v3)
        assert loaded.epoch == 1
        assert loaded.lineage == refreshed_knowledge.lineage
        assert loaded.lineage.base_fingerprint is not None
        assert len(loaded.lineage.batch_digests) == 1

    def test_fingerprint_identical_after_reload(self, refreshed_knowledge, saved_v3):
        assert load_knowledge(saved_v3).fingerprint() == refreshed_knowledge.fingerprint()


class TestLegacyRejections:
    def test_v1_and_v2_files_are_rejected_naming_the_version(self, saved_v3, tmp_path):
        for version in (1, 2):
            path = _downgraded(saved_v3, tmp_path, version)
            with pytest.raises(MiningError, match=f"format version {version}"):
                load_knowledge(path)


class TestV3Rejections:
    def _tampered(self, saved_v3, tmp_path, name, mutate):
        payload = json.loads(saved_v3.read_text(encoding="utf-8"))
        mutate(payload)
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_stale_fingerprint_is_rejected(self, saved_v3, tmp_path):
        def mutate(payload):
            payload["fingerprint"] = "0" * 64

        path = self._tampered(saved_v3, tmp_path, "stale.json", mutate)
        with pytest.raises(MiningError, match="fingerprint verification"):
            load_knowledge(path)

    def test_epoch_batch_digest_mismatch_is_rejected(self, saved_v3, tmp_path):
        def mutate(payload):
            payload["epoch"] = 2  # one digest recorded, two claimed

        path = self._tampered(saved_v3, tmp_path, "badepoch.json", mutate)
        with pytest.raises(MiningError, match="inconsistent lineage"):
            load_knowledge(path)

    def test_missing_base_fingerprint_is_rejected(self, saved_v3, tmp_path):
        def mutate(payload):
            payload["lineage"]["base_fingerprint"] = None

        path = self._tampered(saved_v3, tmp_path, "nobase.json", mutate)
        with pytest.raises(MiningError, match="inconsistent lineage"):
            load_knowledge(path)

    def test_unknown_version_is_rejected(self, saved_v3, tmp_path):
        def mutate(payload):
            payload["format_version"] = 99

        path = self._tampered(saved_v3, tmp_path, "future.json", mutate)
        with pytest.raises(MiningError, match="unsupported"):
            load_knowledge(path)
