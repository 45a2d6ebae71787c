"""Ablation: AKey-based noisy-AFD pruning (Section 5.1, δ = 0.3).

Adds a VIN-like key column to the Cars data.  Without pruning, TANE's
highest-confidence "dependency" for every attribute is the useless
``{vin} → X`` (confidence 1.0, zero generalization); with pruning those are
discarded and prediction falls back to genuine correlations.
"""

from repro.datasets import generate_cars, make_incomplete
from repro.evaluation import render_table
from repro.mining import KnowledgeBase, MiningConfig, TaneConfig
from repro.relational import Attribute, Relation, Schema


def _with_vin(relation: Relation) -> Relation:
    schema = Schema([Attribute("vin"), *relation.schema.attributes])
    rows = [(f"VIN{i:06d}", *row) for i, row in enumerate(relation.rows)]
    return Relation(schema, rows)


def _prediction_accuracy(kb: KnowledgeBase, dataset, attribute: str, limit: int = 150):
    schema = dataset.incomplete.schema
    cells = [cell for cell in dataset.masked if cell.attribute == attribute][:limit]
    completions = kb.completions(
        attribute,
        [dict(zip(schema.names, dataset.incomplete.rows[cell.row_index])) for cell in cells],
        "best-afd",
    )
    correct = sum(
        predicted == cell.true_value for (predicted, __), cell in zip(completions, cells)
    )
    return correct / len(cells) if cells else 0.0


def _run():
    cars = _with_vin(generate_cars(6000, seed=7))
    dataset = make_incomplete(
        cars, seed=9, maskable_attributes=["body_style", "make"]
    )
    sample = dataset.incomplete.take(600)
    guarded = TaneConfig(min_confidence=0.6, max_determining_size=2, min_support=10)
    naive = TaneConfig(
        min_confidence=0.6,
        max_determining_size=2,
        min_support=10,
        expand_near_keys=True,
    )
    pruned_kb = KnowledgeBase(
        sample, 6000, MiningConfig(tane=guarded, pruning_delta=0.3)
    )
    # The naive variant disables both defenses: near-keys expand into
    # determining sets AND the delta-pruning post-step is off.
    unpruned_kb = KnowledgeBase(
        sample, 6000, MiningConfig(tane=naive, pruning_delta=0.0)
    )
    rows = []
    outcomes = {}
    for label, kb in (("pruned (delta=0.3)", pruned_kb), ("unpruned (delta=0)", unpruned_kb)):
        best = kb.best_afd("body_style")
        accuracy = _prediction_accuracy(kb, dataset, "body_style")
        vin_based = best is not None and "vin" in best.determining
        outcomes[label] = (best, accuracy, vin_based)
        rows.append(
            [
                label,
                str(best),
                "yes" if vin_based else "no",
                f"{100 * accuracy:.1f}%",
            ]
        )
    return rows, outcomes


def test_ablation_akey_pruning(benchmark, report):
    rows, outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = render_table(
        ["mining", "best AFD for body_style", "VIN-based?", "prediction accuracy"],
        rows,
        title="Ablation — AKey-based noisy-AFD pruning (VIN column planted)",
    )
    report.emit(text)

    pruned_best, pruned_acc, pruned_vin = outcomes["pruned (delta=0.3)"]
    __, unpruned_acc, unpruned_vin = outcomes["unpruned (delta=0)"]
    assert not pruned_vin, "pruning must discard VIN-based AFDs"
    assert unpruned_vin, "without pruning the VIN AFD should win (conf 1.0)"
    assert pruned_acc >= unpruned_acc
