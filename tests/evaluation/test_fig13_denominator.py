"""Figure 13's recall denominator counts each distinct hidden row once.

The join answers each distinct ``(left_row, right_row)`` pair once, so the
bench's oracle must not multiply repeated rows: a hidden relation that
repeats a complete row would otherwise inflate the possible pairs with
duplicates of certain pairs the join already returned.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from repro.datasets.incompleteness import IncompleteDataset, MaskedCell
from repro.evaluation.oracle import GroundTruthOracle
from repro.relational import NULL, Relation, Schema

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_fig13_joins.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_fig13_joins", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _environment(schema, complete_rows, incomplete_rows, masked=()):
    incomplete = Relation(schema, incomplete_rows)
    dataset = IncompleteDataset(Relation(schema, complete_rows), incomplete, masked)
    return SimpleNamespace(
        dataset=dataset, test=incomplete, oracle=GroundTruthOracle(dataset)
    )


def test_oracle_join_counts_distinct_hidden_rows():
    # Cars-shaped: model at position 1.  One complete row appears three
    # times; one Grand Cherokee hides its model behind a NULL.
    cars_schema = Schema.of("make", "model", "body_style")
    suv = ("Jeep", "Grand Cherokee", "SUV")
    wagon = ("Jeep", "Grand Cherokee", "Wagon")
    truck = ("Ford", "F150", "Truck")
    cars = _environment(
        cars_schema,
        [suv, suv, suv, wagon, truck],
        [suv, suv, suv, ("Jeep", NULL, "Wagon"), truck],
        (MaskedCell(3, "model", "Grand Cherokee"),),
    )
    # Complaints-shaped: model at position 0, component at position 4.
    complaints_schema = Schema.of("model", "year", "crash", "fire", "general_component")
    engine_2005 = ("Grand Cherokee", "2005", "N", "N", "Engine and Engine Cooling")
    engine_2006 = ("Grand Cherokee", "2006", "N", "N", "Engine and Engine Cooling")
    brakes = ("Grand Cherokee", "2005", "N", "N", "Service Brakes")
    complaints = _environment(
        complaints_schema,
        [engine_2005, engine_2005, engine_2006, brakes],
        [engine_2005, engine_2005, engine_2006, brakes],
    )

    pairs = _bench_module()._oracle_join(
        cars, complaints, "Grand Cherokee", "Engine and Engine Cooling"
    )

    # Two distinct hidden Grand Cherokees (the SUV, however often it
    # repeats, and the NULL-model wagon) times two distinct engine
    # complaints.  The two SUV pairs are certain, so two remain possible.
    assert pairs == 2 * 2
