"""Knowledge refresh: equivalence with a fresh mine, versioning, atomic swap."""

import random

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.datasets import scaled_incomplete
from repro.datasets.cars import generate_cars
from repro.datasets.incompleteness import make_incomplete
from repro.errors import MiningError
from repro.mining import (
    KnowledgeBase,
    KnowledgeRefresher,
    KnowledgeStore,
    SelectivityEstimator,
    as_store,
)
from repro.planner import PlanCache
from repro.planner.fingerprint import relation_fingerprint
from repro.query import And, Between, Comparison, Equals, SelectionQuery
from repro.relational import Relation
from repro.relational.values import is_null
from repro.sources import AutonomousSource, SourceCapabilities


@pytest.fixture(scope="module")
def pieces():
    """A small Cars relation: a base sample and two batches.

    The batches re-draw rows from within the base so the union's numeric
    ranges (hence the width-strategy bin edges) stay put; the bin-edge test
    constructs its own edge-moving batch.
    """
    whole = make_incomplete(generate_cars(900, seed=7), 0.10, seed=42).incomplete
    rows = whole.rows
    make = lambda part: Relation(whole.schema, list(part))  # noqa: E731
    return whole, make(rows[:700]), make(rows[100:200]), make(rows[300:400])


@pytest.fixture(scope="module", params=[1, 10])
def scaled(request):
    """Cars at a scale factor, split 90/5/5 in row order into a base
    sample and two batches, so base ⊕ batch1 ⊕ batch2 is the whole."""
    whole = scaled_incomplete("cars", request.param).incomplete
    rows = whole.rows
    base_end = int(len(rows) * 0.9)
    batch_end = base_end + (len(rows) - base_end) // 2
    make = lambda part: Relation(whole.schema, list(part))  # noqa: E731
    return whole, make(rows[:base_end]), make(rows[base_end:batch_end]), make(rows[batch_end:])


@pytest.fixture(scope="module")
def drifted():
    """A Cars sample whose body_style no longer follows model and make."""
    return make_incomplete(
        generate_cars(300, seed=101, body_style_fidelity=0.3), 0.10, seed=43
    ).incomplete


def _refreshed(pieces, **kwargs):
    """Fold both batches through one refresher; return (store, results)."""
    whole, base, batch1, batch2 = pieces
    store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
    refresher = KnowledgeRefresher(store)
    results = [refresher.refresh(batch1), refresher.refresh(batch2)]
    return store, results


@pytest.fixture(scope="module")
def folded(pieces):
    return _refreshed(pieces)


@pytest.fixture(scope="module")
def oracle(pieces):
    """A one-shot mine over the full union — what folding must reproduce."""
    whole, base, batch1, batch2 = pieces
    knowledge = KnowledgeBase(
        base.concat(batch1).concat(batch2), database_size=len(whole)
    )
    knowledge.fingerprint()
    return knowledge


class TestFoldEquivalence:
    def test_sequential_folds_match_full_remine_fingerprint(self, folded, oracle):
        store, _ = folded
        assert store.current.fingerprint() == oracle.fingerprint()

    def test_every_fold_reports_mode_full(self, folded):
        _, results = folded
        assert [result.mode for result in results] == ["full", "full"]
        assert all(result.refreshed for result in results)

    def test_epochs_advance_one_per_fold(self, folded):
        _, results = folded
        assert [result.epoch for result in results] == [1, 2]

    def test_lineage_records_base_and_batch_digests(self, pieces, folded):
        whole, base, batch1, batch2 = pieces
        store, _ = folded
        lineage = store.current.lineage
        assert lineage.batch_digests == (
            relation_fingerprint(batch1),
            relation_fingerprint(batch2),
        )
        base_fingerprint = KnowledgeBase(
            base, database_size=len(whole)
        ).fingerprint()
        assert lineage.base_fingerprint == base_fingerprint

    def test_posteriors_match_fresh_mine(self, folded, oracle):
        store, _ = folded
        evidence = {"model": "Z4"}
        assert store.current.value_distribution(
            "body_style", evidence
        ) == oracle.value_distribution("body_style", evidence)

    def test_selectivity_matches_fresh_mine(self, folded, oracle):
        store, _ = folded
        query = SelectionQuery.equals("model", "Accord")
        estimator = store.current.selectivity
        assert estimator.sample_ratio == oracle.selectivity.sample_ratio
        assert estimator.incomplete_fraction == oracle.selectivity.incomplete_fraction
        assert estimator.estimate(query) == oracle.selectivity.estimate(query)

    def test_scaled_cars_folds_match_full_remine(self, scaled):
        whole = scaled[0]
        store, results = _refreshed(scaled)
        assert [result.mode for result in results] == ["full", "full"]
        oracle = KnowledgeBase(whole, database_size=len(whole))
        assert store.current.fingerprint() == oracle.fingerprint()


class TestAtomicSwap:
    def test_old_snapshot_survives_the_swap_frozen(self, pieces):
        whole, base, batch1, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        old = store.current
        before = old.fingerprint()
        refresher = KnowledgeRefresher(store)
        refresher.refresh(batch1)
        assert store.current is not old
        # The in-flight snapshot is untouched: same epoch, same content.
        assert old.epoch == 0
        assert old.fingerprint() == before
        assert len(old.sample) == len(base)

    def test_swap_changes_the_fingerprint(self, pieces):
        whole, base, batch1, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        before = store.current.fingerprint()
        KnowledgeRefresher(store).refresh(batch1)
        assert store.current.fingerprint() != before

    def test_shared_store_passes_through_as_store(self, pieces):
        whole, base, batch1, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        assert as_store(store) is store
        # Two refreshers sharing the store see each other's installs.
        first = KnowledgeRefresher(store)
        second = KnowledgeRefresher(store)
        first.refresh(batch1)
        assert second.knowledge.epoch == 1


class TestExternalSwap:
    def test_refresh_builds_on_the_installed_generation(self, pieces):
        whole, base, batch1, batch2 = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        refresher = KnowledgeRefresher(store)
        refresher.refresh(batch1)
        # Someone else swaps in a different generation underneath.
        other = KnowledgeBase(
            base.concat(batch2), database_size=len(whole)
        )
        store.install(other)
        result = refresher.refresh(batch1)
        oracle = KnowledgeBase(
            base.concat(batch2).concat(batch1), database_size=len(whole)
        )
        assert result.fingerprint == oracle.fingerprint()


class TestFailedRefresh:
    """A refresh that raises leaves nothing behind for the next one."""

    @pytest.fixture
    def failed_once(self, pieces, monkeypatch):
        """A store at epoch 1 whose second refresh raised part-way through."""
        whole, base, batch1, batch2 = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        refresher = KnowledgeRefresher(store)
        refresher.refresh(batch1)
        before = store.current
        # The re-mine walks TANE before it counts selectivity, so this
        # failure comes after mining.
        from_sample = SelectivityEstimator.from_sample.__func__
        calls: list = []

        def fail_once(cls, *args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("selectivity failed")
            return from_sample(cls, *args, **kwargs)

        monkeypatch.setattr(SelectivityEstimator, "from_sample", classmethod(fail_once))
        with pytest.raises(RuntimeError, match="selectivity failed"):
            refresher.refresh(batch2)
        return store, refresher, before

    def test_the_store_keeps_the_old_generation(self, failed_once):
        store, _, before = failed_once
        assert store.current is before
        assert store.current.epoch == 1

    def test_the_next_refresh_equals_a_fresh_mine_of_its_union(
        self, pieces, failed_once
    ):
        whole, base, batch1, _ = pieces
        store, refresher, _ = failed_once
        # A batch as long as the failed one, with other rows: the union is
        # base + batch1 + batch1, and batch2 is in no generation.
        result = refresher.refresh(batch1)
        oracle = KnowledgeBase(
            base.concat(batch1).concat(batch1), database_size=len(whole)
        )
        assert result.epoch == 2
        assert store.current.afds == oracle.afds
        assert result.fingerprint == oracle.fingerprint()


class TestRefreshIfStale:
    def test_fresh_probe_is_skipped(self, pieces):
        whole, base, _, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        before = store.current
        result = KnowledgeRefresher(store).refresh_if_stale(base)
        assert result.mode == "skipped"
        assert not result.refreshed
        assert result.drift is not None and not result.drift.is_stale
        assert store.current is before

    def test_drifted_probe_triggers_fold_and_swap(self, pieces, drifted):
        whole, base, _, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        result = KnowledgeRefresher(store).refresh_if_stale(drifted)
        assert result.refreshed
        assert result.drift is not None and result.drift.is_stale
        assert store.current.epoch == 1
        assert len(store.current.sample) == len(base) + len(drifted)

    def test_mediator_reads_the_swapped_generation(self, pieces, drifted):
        whole, base, _, _ = pieces
        query = SelectionQuery.equals("body_style", "Convt")
        source = AutonomousSource("cars", whole, SourceCapabilities.web_form())
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        cache = PlanCache()
        mediator = QpiadMediator(source, store, QpiadConfig(k=10), plan_cache=cache)
        mediator.query(query)
        mediator.query(query)
        assert (cache.hits, cache.misses) == (1, 1)

        swap = KnowledgeRefresher(store).refresh_if_stale(drifted)
        assert swap.refreshed and swap.epoch == 1
        after = mediator.query(query)
        # The swap changed the knowledge fingerprint in the key: the plan
        # cached against the old generation is not served again.
        assert cache.misses == 2

        fresh = KnowledgeBase(base.concat(drifted), database_size=len(whole))
        oracle = QpiadMediator(source, fresh, QpiadConfig(k=10)).query(query)
        assert list(after.certain) == list(oracle.certain)
        assert [(a.row, a.confidence) for a in after.ranked] == [
            (a.row, a.confidence) for a in oracle.ranked
        ]


class TestFullFallback:
    def test_moved_bin_edges_fall_back_to_full_with_same_result(self, pieces):
        whole, base, _, _ = pieces
        # Prices far outside the mined range move the union's bin edges, so
        # the historical rows' bucket labels change; the re-mined
        # generation still equals a fresh mine of the union.
        price = base.schema.index_of("price")
        shifted = Relation(
            base.schema,
            [
                tuple(
                    value * 100 if index == price and not is_null(value) else value
                    for index, value in enumerate(row)
                )
                for row in base.rows[:150]
            ],
        )
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        refresher = KnowledgeRefresher(store)
        result = refresher.refresh(shifted)
        oracle = KnowledgeBase(
            base.concat(shifted), database_size=len(whole)
        )
        assert result.mode == "full"
        assert result.fingerprint == oracle.fingerprint()


#: Class attributes whose posteriors the Census sequence compares; ``age``
#: is the numeric one whose bin edges the tripled batch moves.
CENSUS_TARGETS = ("occupation", "relationship", "education", "age")
CENSUS_QUERIES = (
    SelectionQuery.equals("occupation", "Sales"),
    SelectionQuery.equals("relationship", "Husband"),
    SelectionQuery(Between("age", 30, 45)),
    SelectionQuery(And([Equals("sex", "Female"), Comparison("age", "<", 35)])),
    SelectionQuery(Comparison("hours_per_week", ">", 40)),
)


def _census_reads(knowledge: KnowledgeBase, union: Relation) -> tuple:
    """Every posterior and estimate the Census sequence compares."""
    names = union.schema.names
    posteriors = []
    for target in CENSUS_TARGETS:
        evidences = [
            {
                name: value
                for name, value in zip(names, row)
                if name != target and not is_null(value)
            }
            for row in union.rows[::9]
        ]
        posteriors.append(repr(knowledge.value_distributions(target, evidences)))
    return posteriors, knowledge.selectivity.estimate_all(CENSUS_QUERIES)


class TestCensusSequence:
    def test_each_refresh_equals_a_fresh_mine_of_its_union(self):
        whole = scaled_incomplete("census", 1).incomplete
        schema, rows = whole.schema, whole.rows
        base = Relation(schema, rows[:300])
        rng = random.Random(5)
        age = schema.index_of("age")

        def held_bins() -> Relation:
            # Rows re-drawn from the base keep every numeric range, so the
            # union keeps the bin edges of the generation before it.
            return Relation(schema, rng.sample(base.rows, 40))

        tripled = Relation(
            schema,
            [
                tuple(
                    value * 3 if index == age and not is_null(value) else value
                    for index, value in enumerate(row)
                )
                for row in rng.sample(rows[300:], 40)
            ],
        )
        steps = [held_bins(), tripled, held_bins(), held_bins()]
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        # Build the base's classifiers first: each refreshed generation
        # must train its own.
        _census_reads(store.current, base)
        refresher = KnowledgeRefresher(store)
        union = base
        for batch in steps:
            result = refresher.refresh(batch)
            union = union.concat(batch)
            oracle = KnowledgeBase(union, database_size=len(whole))
            assert result.mode == "full"
            assert result.fingerprint == oracle.fingerprint()
            assert _census_reads(store.current, union) == _census_reads(oracle, union)


class TestErrors:
    def test_empty_batch_is_rejected(self, pieces):
        whole, base, _, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        with pytest.raises(MiningError, match="empty batch"):
            KnowledgeRefresher(store).refresh(Relation(base.schema, []))

    def test_schema_mismatch_is_rejected(self, pieces):
        whole, base, _, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        stranger = Relation(base.schema.project(["make", "model"]), [("BMW", "Z4")])
        with pytest.raises(MiningError, match="schema"):
            KnowledgeRefresher(store).refresh(stranger)

    @pytest.mark.parametrize("size", [0, -5])
    def test_database_size_below_one_is_rejected_before_mining(
        self, pieces, monkeypatch, size
    ):
        whole, base, batch1, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        before = store.current
        mined: list = []
        monkeypatch.setattr(
            "repro.mining.knowledge.mine_dependencies", lambda *a: mined.append(a)
        )
        with pytest.raises(
            MiningError, match=f"database_size must be at least 1, got {size}"
        ):
            KnowledgeRefresher(store).refresh(batch1, database_size=size)
        assert store.current is before
        assert not mined

    def test_drift_gated_refresh_rejects_database_size_below_one(self, pieces):
        whole, base, _, _ = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        before = store.current
        # The probe is fresh, so without the check the call would skip.
        with pytest.raises(MiningError, match="database_size must be at least 1"):
            KnowledgeRefresher(store).refresh_if_stale(base, database_size=0)
        assert store.current is before
