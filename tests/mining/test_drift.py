"""Knowledge staleness detection."""

import random

import pytest

from repro.datasets import generate_cars
from repro.errors import MiningError
from repro.mining.drift import detect_drift, drift_payload, render_drift_text
from repro.relational import Relation
from repro.sources import split_relation


@pytest.fixture(scope="module")
def fresh_same_distribution(cars_env):
    """A disjoint-ish sample from the same underlying generator."""
    return split_relation(cars_env.test, 0.15, random.Random(99))[0]


class TestNoDrift:
    def test_same_distribution_is_not_stale(self, cars_env, fresh_same_distribution):
        report = detect_drift(cars_env.knowledge, fresh_same_distribution)
        assert not report.is_stale, (
            f"unexpected drift: {report.afd_drifts} {report.distribution_drifts}"
        )
        assert report.afds_checked == len(cars_env.knowledge.afds)
        assert report.attributes_checked == len(cars_env.test.schema)


class TestDependencyDrift:
    def test_broken_correlation_is_detected(self, cars_env):
        """A source whose Model ⇝ Body Style correlation collapsed."""
        drifted = generate_cars(1500, seed=500, body_style_fidelity=0.3)
        report = detect_drift(cars_env.knowledge, drifted)
        assert report.is_stale
        assert any(
            drift.dependent == "body_style" and "model" in drift.determining
            for drift in report.afd_drifts
        )

    def test_thin_fresh_sample_flags_unmeasurable_afds(self, cars_env):
        tiny = Relation(cars_env.test.schema, cars_env.test.rows[:5])
        report = detect_drift(cars_env.knowledge, tiny, min_support=20)
        assert report.afd_drifts
        assert any(drift.fresh_confidence is None for drift in report.afd_drifts)

    def test_shift_magnitude(self, cars_env):
        drifted = generate_cars(1500, seed=500, body_style_fidelity=0.3)
        report = detect_drift(cars_env.knowledge, drifted)
        body_drift = next(
            d for d in report.afd_drifts if d.dependent == "body_style"
        )
        assert body_drift.shift > 0.15


class TestDistributionDrift:
    def test_new_inventory_mix_is_detected(self, cars_env):
        """A source suddenly selling only BMWs."""
        bmw_only = cars_env.test.select(lambda row: row[0] == "BMW")
        report = detect_drift(
            cars_env.knowledge, bmw_only, distribution_tolerance=0.25
        )
        drifted_attributes = {d.attribute for d in report.distribution_drifts}
        assert "make" in drifted_attributes
        assert "model" in drifted_attributes

    def test_tolerances_control_sensitivity(self, cars_env, fresh_same_distribution):
        paranoid = detect_drift(
            cars_env.knowledge,
            fresh_same_distribution,
            confidence_tolerance=0.0001,
            distribution_tolerance=0.0001,
        )
        assert paranoid.is_stale  # sampling noise alone trips zero tolerance


class TestValidation:
    def test_schema_mismatch_rejected(self, cars_env, census_env):
        with pytest.raises(MiningError, match="schema"):
            detect_drift(cars_env.knowledge, census_env.test)


class TestReporting:
    """`drift_payload` / `render_drift_text` — what `qpiad drift` prints."""

    @pytest.fixture(scope="class")
    def stale_report(self, cars_env):
        drifted = generate_cars(1500, seed=500, body_style_fidelity=0.3)
        return detect_drift(cars_env.knowledge, drifted)

    def test_payload_is_json_serializable_and_faithful(self, stale_report):
        import json

        payload = drift_payload(stale_report)
        assert payload["is_stale"] is True
        assert payload["afds_checked"] == stale_report.afds_checked
        assert payload["attributes_checked"] == stale_report.attributes_checked
        assert len(payload["afd_drifts"]) == len(stale_report.afd_drifts)
        assert len(payload["distribution_drifts"]) == len(
            stale_report.distribution_drifts
        )
        first = payload["afd_drifts"][0]
        assert set(first) == {
            "determining",
            "dependent",
            "mined_confidence",
            "fresh_confidence",
            "shift",
        }
        assert json.loads(json.dumps(payload)) == payload

    def test_stale_rendering_leads_with_the_verdict(self, stale_report):
        text = render_drift_text(stale_report)
        assert text.startswith("drift: STALE")
        assert "body_style" in text
        assert "confidence" in text

    def test_fresh_rendering(self, cars_env, fresh_same_distribution):
        report = detect_drift(cars_env.knowledge, fresh_same_distribution)
        text = render_drift_text(report)
        assert text.startswith("drift: fresh")
        assert drift_payload(report)["is_stale"] is False

    def test_unmeasurable_afds_render_explicitly(self, cars_env):
        tiny = Relation(cars_env.test.schema, cars_env.test.rows[:5])
        report = detect_drift(cars_env.knowledge, tiny, min_support=20)
        assert "unmeasurable on the fresh sample" in render_drift_text(report)
