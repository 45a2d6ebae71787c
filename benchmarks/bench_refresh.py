"""Incremental knowledge refresh vs full re-mine: the BENCH_9 sweep (PR 10).

Not a paper figure: this bench guards the two properties of the refresh
subsystem (``repro.mining.refresh``) that make live knowledge maintenance
trustworthy:

* **equivalence** — folding sample batches B1..Bn into a knowledge base
  mined on S produces, at every scale factor, the *bit-identical*
  fingerprint of a full re-mine over S ∪ B1..Bn (same AFDs, AKeys,
  selectivity, lineage-tracked sample); and
* **economy** — the incremental fold touches only the new rows, so at
  realistic sizes it is far cheaper than re-mining the union (the reason
  a mediator can afford to refresh at all).

Two legs:

1. **Cost curve** — for scale factors 1×/10×/100× (quick: 1×/10×) the
   scaled Cars relation is split 90/5/5 into a base sample and two
   batches; the batches are folded through a primed
   :class:`KnowledgeRefresher` and the fold cost is compared against a
   full re-mine of the union, asserting fingerprint equality and that the
   fold stayed on the incremental path.  The one-time ``prime()`` cost
   (seeding stripped partitions from the base) is reported separately —
   it is paid once per process, not per refresh.

2. **Drift scenario** — a mediator with a shared plan cache answers a
   query (plan cached), a distribution-shifted batch arrives,
   ``refresh_if_stale`` detects the drift and atomically swaps a new
   generation into the :class:`KnowledgeStore`; the re-run query must
   miss the plan cache (stale plan invalidated by the fingerprint in the
   cache key) and its answers must bit-match a mediator built directly on
   a fresh-mined oracle over the union sample.  A same-distribution probe
   first proves the gate also *skips* when nothing drifted.

Results go to a JSON file (``BENCH_9.json`` at the repo root by default)
so CI can diff them.

Run directly::

    python benchmarks/bench_refresh.py [--quick] [--check] [--out BENCH_9.json]

``--quick`` shrinks the sweep (factors 1x/10x, smaller drift scenario) for
CI smoke runs; ``--check`` exits non-zero on any equivalence or recovery
violation, and — in full mode — when the incremental fold's advantage over
a full re-mine drops below 5x at 100x.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import QpiadConfig, QpiadMediator  # noqa: E402
from repro.datasets import scaled_incomplete  # noqa: E402
from repro.datasets.cars import generate_cars  # noqa: E402
from repro.datasets.incompleteness import make_incomplete  # noqa: E402
from repro.mining.knowledge import KnowledgeBase  # noqa: E402
from repro.mining.refresh import KnowledgeRefresher  # noqa: E402
from repro.mining.store import KnowledgeStore  # noqa: E402
from repro.planner import PlanCache  # noqa: E402
from repro.query import SelectionQuery  # noqa: E402
from repro.relational import Relation  # noqa: E402
from repro.sources.autonomous import AutonomousSource  # noqa: E402
from repro.sources.capabilities import SourceCapabilities  # noqa: E402

FULL_FACTORS = (1, 10, 100)
QUICK_FACTORS = (1, 10)

#: Fraction of each scaled relation kept as the initially mined sample;
#: the remainder splits evenly into two refresh batches.
BASE_FRACTION = 0.9

DRIFT_QUERY = SelectionQuery.equals("body_style", "Convt")


def _split(relation: Relation) -> tuple[Relation, Relation, Relation]:
    """90/5/5 split preserving row order, so base ⊕ b1 ⊕ b2 == relation."""
    rows = relation.rows
    base_end = int(len(rows) * BASE_FRACTION)
    batch_end = base_end + (len(rows) - base_end) // 2
    make = lambda part: Relation(relation.schema, list(part))  # noqa: E731
    return make(rows[:base_end]), make(rows[base_end:batch_end]), make(rows[batch_end:])


def _one_factor(factor: int) -> dict:
    whole = scaled_incomplete("cars", factor).incomplete
    base, batch1, batch2 = _split(whole)
    database_size = len(whole) * 10

    knowledge = KnowledgeBase(base, database_size=database_size)
    knowledge.fingerprint()  # force base mining outside the timed folds

    refresher = KnowledgeRefresher(knowledge)
    start = time.perf_counter()
    refresher.prime()
    prime_seconds = time.perf_counter() - start

    folds = []
    fold_seconds = 0.0
    for batch in (batch1, batch2):
        start = time.perf_counter()
        result = refresher.refresh(batch, database_size=database_size)
        elapsed = time.perf_counter() - start
        fold_seconds += elapsed
        folds.append(
            {
                "mode": result.mode,
                "epoch": result.epoch,
                "rows_folded": result.rows_folded,
                "seconds": round(elapsed, 6),
            }
        )
    refreshed = refresher.knowledge
    steady_fold = folds[-1]["seconds"]

    start = time.perf_counter()
    oracle = KnowledgeBase(whole, database_size=database_size)
    oracle_fingerprint = oracle.fingerprint()
    full_seconds = time.perf_counter() - start

    incremental = all(fold["mode"] == "incremental" for fold in folds)
    equivalent = refreshed.fingerprint() == oracle_fingerprint
    return {
        "factor": factor,
        "rows": len(whole),
        "base_rows": len(base),
        "batch_rows": [len(batch1), len(batch2)],
        "prime_seconds": round(prime_seconds, 6),
        "folds": folds,
        "fold_seconds": round(fold_seconds, 6),
        "mean_fold_seconds": round(fold_seconds / 2, 6),
        "steady_fold_seconds": round(steady_fold, 6),
        "full_remine_seconds": round(full_seconds, 6),
        # Steady-state economy: one arriving batch, fold it or re-mine?
        # The first fold after prime() carries one-time warmup (lazy module
        # imports, allocator/cache warm-up) that a long-lived refresher pays
        # once, so the steady cost is the last fold's.
        "speedup": round(full_seconds / steady_fold, 3),
        "incremental_everywhere": incremental,
        "fingerprint_equivalent": equivalent,
        "epoch": refreshed.epoch,
        "lineage_batches": len(refreshed.lineage.batch_digests),
    }


def _drift_scenario(size: int) -> dict:
    """Stale-plan detection and recovery after a mid-run distribution shift."""
    whole = make_incomplete(generate_cars(size, seed=7), 0.10, seed=42).incomplete
    sample = whole.take(max(200, len(whole) // 4))
    database_size = len(whole)
    source = AutonomousSource("cars", whole, SourceCapabilities.web_form())

    store = KnowledgeStore(KnowledgeBase(sample, database_size=database_size))
    cache = PlanCache()
    mediator = QpiadMediator(source, store, QpiadConfig(k=10), plan_cache=cache)

    before = mediator.query(DRIFT_QUERY)
    misses_cold = cache.misses
    mediator.query(DRIFT_QUERY)
    warm_hit = cache.misses == misses_cold and cache.hits > 0

    refresher = KnowledgeRefresher(store)
    refresher.prime()

    # Same-distribution probe: the gate must decline to refresh.
    skip = refresher.refresh_if_stale(sample, database_size=database_size)

    # Distribution shift: body_style decorrelates from model/make.
    drifted = make_incomplete(
        generate_cars(len(sample), seed=101, body_style_fidelity=0.3),
        0.10,
        seed=43,
    ).incomplete
    swap = refresher.refresh_if_stale(drifted, database_size=database_size)

    after = mediator.query(DRIFT_QUERY)
    post_swap_miss = cache.misses > misses_cold

    # Oracle: a mediator built directly on a fresh mine of the union
    # sample (what the refresher's sample now is), fresh plan cache.
    oracle_knowledge = KnowledgeBase(
        sample.concat(drifted), database_size=database_size
    )
    oracle = QpiadMediator(
        source, oracle_knowledge, QpiadConfig(k=10), plan_cache=PlanCache()
    ).query(DRIFT_QUERY)

    answers_match = after.certain.rows == oracle.certain.rows and [
        (answer.row, answer.confidence) for answer in after.ranked
    ] == [(answer.row, answer.confidence) for answer in oracle.ranked]
    answers_changed = [answer.row for answer in after.ranked] != [
        answer.row for answer in before.ranked
    ]
    return {
        "rows": len(whole),
        "sample_rows": len(sample),
        "query": str(DRIFT_QUERY),
        "warm_plan_cache_hit": warm_hit,
        "fresh_probe_skipped": not skip.refreshed and skip.mode == "skipped",
        "drift_detected": swap.drift is not None and swap.drift.is_stale,
        "swap_installed": swap.refreshed and swap.epoch == 1,
        "swap_mode": swap.mode,
        "post_swap_plan_cache_miss": post_swap_miss,
        "post_swap_answers_match_oracle": answers_match,
        "ranking_shifted_with_statistics": answers_changed,
        "certain": len(after.certain),
        "ranked": len(after.ranked),
    }


def run(factors: tuple[int, ...], drift_size: int) -> dict:
    curve = [_one_factor(factor) for factor in factors]
    drift = _drift_scenario(drift_size)
    largest = curve[-1]
    recovered = (
        drift["warm_plan_cache_hit"]
        and drift["fresh_probe_skipped"]
        and drift["drift_detected"]
        and drift["swap_installed"]
        and drift["post_swap_plan_cache_miss"]
        and drift["post_swap_answers_match_oracle"]
    )
    return {
        "bench": "bench_refresh",
        "scale_factors": list(factors),
        "cost_curve": curve,
        "drift_scenario": drift,
        "largest_factor": largest["factor"],
        "speedup_at_largest": largest["speedup"],
        "equivalent_everywhere": all(r["fingerprint_equivalent"] for r in curve),
        "incremental_everywhere": all(r["incremental_everywhere"] for r in curve),
        "drift_recovered": recovered,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factors",
        type=int,
        nargs="+",
        default=None,
        help="scale factors to sweep (default 1 10 100; quick: 1 10)",
    )
    parser.add_argument(
        "--drift-size",
        type=int,
        default=None,
        help="drift-scenario database size (default 4000; quick: 1200)",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_9.json")
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for CI smoke runs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any equivalence/recovery violation; in full mode "
        "also require the incremental fold >=5x cheaper than a full "
        "re-mine at the largest factor",
    )
    args = parser.parse_args(argv)

    factors = tuple(args.factors or (QUICK_FACTORS if args.quick else FULL_FACTORS))
    drift_size = args.drift_size or (1200 if args.quick else 4000)

    result = run(factors, drift_size)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(
        f"bench_refresh: factors {factors}, at {result['largest_factor']}x "
        f"fold {result['speedup_at_largest']}x cheaper than re-mine, "
        f"equivalence {'OK' if result['equivalent_everywhere'] else 'VIOLATED'}, "
        f"drift recovery {'OK' if result['drift_recovered'] else 'FAILED'} "
        f"-> {args.out}"
    )

    if args.check:
        failed = False
        if not result["equivalent_everywhere"]:
            print(
                "bench_refresh: FAILED — folded fingerprint diverged from "
                "the full re-mine",
                file=sys.stderr,
            )
            failed = True
        if not result["incremental_everywhere"]:
            print(
                "bench_refresh: FAILED — a fold fell off the incremental path",
                file=sys.stderr,
            )
            failed = True
        if not result["drift_recovered"]:
            print(
                "bench_refresh: FAILED — drift scenario did not recover "
                "(see drift_scenario flags in the JSON)",
                file=sys.stderr,
            )
            failed = True
        if not args.quick and max(factors) >= 100:
            if result["speedup_at_largest"] < 5.0:
                print(
                    "bench_refresh: FAILED — incremental advantage below 5x "
                    f"at {result['largest_factor']}x",
                    file=sys.stderr,
                )
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
