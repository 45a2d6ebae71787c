"""Incremental knowledge refresh: fold-in equivalence, versioning, atomic swap."""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.datasets import scaled_incomplete
from repro.datasets.cars import generate_cars
from repro.datasets.incompleteness import make_incomplete
from repro.errors import MiningError
from repro.mining import KnowledgeBase, KnowledgeRefresher, KnowledgeStore, as_store
from repro.planner import PlanCache
from repro.planner.fingerprint import relation_fingerprint
from repro.query import SelectionQuery
from repro.relational import Relation
from repro.relational.columnar import ColumnStore
from repro.relational.values import is_null
from repro.sources import AutonomousSource, SourceCapabilities


@pytest.fixture(scope="module")
def pieces():
    """A small Cars relation: a base sample and two batches.

    The batches re-draw rows from within the base so the union's numeric
    ranges (hence the width-strategy bin edges) stay put and the folds can
    take the incremental path; the fallback test constructs its own
    edge-moving batch.
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
    """Fold both batches through a primed refresher; return (store, results)."""
    whole, base, batch1, batch2 = pieces
    store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
    refresher = KnowledgeRefresher(store)
    refresher.prime()
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

    def test_folds_stay_on_the_incremental_path(self, folded):
        _, results = folded
        assert [result.mode for result in results] == ["incremental", "incremental"]
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
        assert [result.mode for result in results] == ["incremental", "incremental"]
        oracle = KnowledgeBase(whole, database_size=len(whole))
        assert store.current.fingerprint() == oracle.fingerprint()


class TestFoldEconomy:
    def test_a_steady_fold_encodes_only_its_batch(self, scaled, monkeypatch):
        whole, base, batch1, batch2 = scaled
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        refresher = KnowledgeRefresher(store)
        refresher.prime()
        refresher.refresh(batch1)  # encodes the base sample once

        encodes: list = []
        extended = ColumnStore.extended
        from_rows = ColumnStore.from_rows.__func__
        from_relation = ColumnStore.from_relation.__func__

        def counting_extended(columns, rows):
            encodes.append(("extended", len(rows)))
            return extended(columns, rows)

        def counting_from_rows(cls, schema, rows):
            encodes.append(("from_rows", len(rows)))
            return from_rows(cls, schema, rows)

        def counting_from_relation(cls, relation):
            encodes.append(("from_relation", len(relation)))
            return from_relation(cls, relation)

        monkeypatch.setattr(ColumnStore, "extended", counting_extended)
        monkeypatch.setattr(ColumnStore, "from_rows", classmethod(counting_from_rows))
        monkeypatch.setattr(
            ColumnStore, "from_relation", classmethod(counting_from_relation)
        )
        result = refresher.refresh(batch2)
        # The new generation's sample comes encoded: reading it, as the next
        # query's masks do, encodes no historical row again.
        store.current.sample.columnar()
        assert result.mode == "incremental"
        assert encodes
        assert set(encodes) == {("extended", len(batch2))}


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


class TestStateReseedOnExternalSwap:
    def test_external_install_is_not_silently_folded_onto(self, pieces):
        whole, base, batch1, batch2 = pieces
        store = KnowledgeStore(KnowledgeBase(base, database_size=len(whole)))
        refresher = KnowledgeRefresher(store)
        refresher.prime()
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
        # the historical rows' bucket labels would change: fold-in is
        # unsound and the refresher must re-mine — equivalently.
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
        refresher.prime()
        result = refresher.refresh(shifted)
        oracle = KnowledgeBase(
            base.concat(shifted), database_size=len(whole)
        )
        assert result.mode == "full"
        assert result.fingerprint == oracle.fingerprint()


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
