"""Knowledge-base save/load round trips."""

import json

import pytest

from repro.errors import MiningError
from repro.mining.persistence import load_knowledge, save_knowledge


@pytest.fixture(scope="module")
def saved(cars_env, tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "cars.kb.json"
    save_knowledge(cars_env.knowledge, path)
    return path


class TestRoundTrip:
    def test_afds_survive_verbatim(self, cars_env, saved):
        loaded = load_knowledge(saved)
        assert loaded.afds == cars_env.knowledge.afds
        assert loaded.all_afds == cars_env.knowledge.all_afds
        assert loaded.akeys == cars_env.knowledge.akeys

    def test_sample_survives(self, cars_env, saved):
        loaded = load_knowledge(saved)
        assert loaded.sample == cars_env.knowledge.sample
        assert loaded.database_size == cars_env.knowledge.database_size

    def test_config_survives(self, cars_env, saved):
        loaded = load_knowledge(saved)
        assert loaded.config == cars_env.knowledge.config

    def test_posteriors_identical_after_reload(self, cars_env, saved):
        loaded = load_knowledge(saved)
        evidence = {"model": "Z4"}
        original = cars_env.knowledge.value_distribution("body_style", evidence)
        reloaded = loaded.value_distribution("body_style", evidence)
        assert original == reloaded

    def test_numeric_bucketing_identical_after_reload(self, cars_env, saved):
        loaded = load_knowledge(saved)
        for price in (6000, 21000, 70000):
            assert loaded.mining_label("price", price) == cars_env.knowledge.mining_label(
                "price", price
            )

    def test_selectivity_identical_after_reload(self, cars_env, saved):
        from repro.query import SelectionQuery

        loaded = load_knowledge(saved)
        query = SelectionQuery.equals("model", "Accord")
        assert loaded.selectivity.estimate(query) == pytest.approx(
            cars_env.knowledge.selectivity.estimate(query)
        )

    def test_mediation_identical_after_reload(self, cars_env, saved):
        from repro.core import QpiadConfig, QpiadMediator
        from repro.query import SelectionQuery

        loaded = load_knowledge(saved)
        query = SelectionQuery.equals("body_style", "Convt")
        original = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=5)
        ).query(query)
        reloaded = QpiadMediator(
            cars_env.web_source(), loaded, QpiadConfig(k=5)
        ).query(query)
        assert [a.row for a in original.ranked] == [a.row for a in reloaded.ranked]


class TestFingerprintVerification:
    """The file carries the knowledge fingerprint, checked on load."""

    def test_saved_payload_is_current_version_with_fingerprint(self, cars_env, saved):
        payload = json.loads(saved.read_text())
        assert payload["format_version"] == 3
        assert payload["fingerprint"] == cars_env.knowledge.fingerprint()

    def test_reload_preserves_the_fingerprint(self, cars_env, saved):
        loaded = load_knowledge(saved)
        assert loaded.fingerprint() == cars_env.knowledge.fingerprint()

    def test_tampered_content_fails_verification(self, saved, tmp_path):
        # Mutate a planning-relevant field while keeping the stored digest:
        # exactly the stale-file hazard the fingerprint check exists for.
        payload = json.loads(saved.read_text())
        payload["database_size"] += 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MiningError, match="fingerprint"):
            load_knowledge(path)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MiningError, match="cannot load"):
            load_knowledge(tmp_path / "nope.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MiningError):
            load_knowledge(path)

    def test_wrong_version(self, saved, tmp_path):
        payload = json.loads(saved.read_text())
        payload["format_version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MiningError, match="format version"):
            load_knowledge(path)
