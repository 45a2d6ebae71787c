"""Scheduler on vs off under a duplicate-heavy concurrent workload (PR 7).

Not a paper figure: this bench guards the *implementation* property of
the source admission scheduler — when many callers issue the same
mediated query at once against a throttled source, single-flight dedup
collapses the duplicate source calls, so tail latency drops while every
caller still gets bit-identical answers.

The workload runs ``threads`` mediators in lock-step rounds, each round
releasing all threads onto the *same* user query simultaneously (a
barrier maximises the in-flight overlap dedup exploits).  The shared
source sleeps per call and admits only a few concurrent requests,
modelling a rate-limited remote web database.  We record every
mediator-level query duration and compare p50/p99 with the scheduler
attached (dedup on, hedging off) against plain unscheduled execution.

Results go to ``BENCH_6.json`` at the repo root by default.

Run directly::

    python benchmarks/bench_resilience.py [--quick] [--check] [--out BENCH_6.json]

``--quick`` shrinks the workload for CI smoke runs; ``--check`` exits
non-zero unless answers are bit-identical and the scheduler shows either
a >= 1.5x p99 improvement or a clear dedup win (over half the scheduled
calls were deduplicated).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import QpiadConfig, QpiadMediator  # noqa: E402
from repro.datasets import generate_cars, make_incomplete  # noqa: E402
from repro.mining import KnowledgeBase  # noqa: E402
from repro.query import SelectionQuery  # noqa: E402
from repro.resilience import (  # noqa: E402
    SchedulerConfig,
    SourcePolicy,
    SourceScheduler,
)
from repro.sources import AutonomousSource, SourceDecorator  # noqa: E402

WORKLOAD = (
    SelectionQuery.equals("body_style", "Convt"),
    SelectionQuery.equals("make", "BMW"),
    SelectionQuery.equals("body_style", "Sedan"),
)

#: --check passes when p99 improves by this factor ...
P99_BAR = 1.5
#: ... or when at least this fraction of scheduled calls were dedup'd.
DEDUP_BAR = 0.5


class ThrottledSource(SourceDecorator):
    """A slow, narrow front door: per-call sleep behind a small semaphore."""

    def __init__(self, inner, latency_seconds: float, width: int):
        super().__init__(inner)
        self.latency_seconds = latency_seconds
        self._gate = threading.Semaphore(width)
        self._lock = threading.Lock()
        self.calls = 0

    def execute(self, query):
        with self._gate:
            with self._lock:
                self.calls += 1
            time.sleep(self.latency_seconds)
            return self.inner.execute(query)


def _build(size: int, latency_seconds: float, source_width: int):
    dataset = make_incomplete(generate_cars(size, seed=7), seed=9)
    source = ThrottledSource(
        AutonomousSource("cars", dataset.incomplete), latency_seconds, source_width
    )
    knowledge = KnowledgeBase(dataset.incomplete.take(500), database_size=size)
    return source, knowledge


def _fingerprint(result):
    return (
        list(result.certain),
        [(a.row, round(a.confidence, 9)) for a in result.ranked],
    )


def _one_run(source, knowledge, scheduler, threads: int, rounds: int):
    """Per-query durations and answer fingerprints across all threads."""
    durations: list[float] = []
    fingerprints: list = []
    errors: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def worker():
        mediator = QpiadMediator(
            source, knowledge, QpiadConfig(k=10), scheduler=scheduler
        )
        try:
            for round_index in range(rounds):
                query = WORKLOAD[round_index % len(WORKLOAD)]
                barrier.wait()  # every thread fires the same query at once
                start = time.perf_counter()
                result = mediator.query(query)
                elapsed = time.perf_counter() - start
                with lock:
                    durations.append(elapsed)
                    fingerprints.append((round_index, _fingerprint(result)))
        except Exception as exc:  # pragma: no cover - diagnostic
            with lock:
                errors.append(exc)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    return durations, sorted(fingerprints)


def _percentile(durations: list[float], quantile: float) -> float:
    ordered = sorted(durations)
    rank = max(0, min(len(ordered) - 1, round(quantile * (len(ordered) - 1))))
    return ordered[rank]


def run(
    size: int,
    threads: int,
    rounds: int,
    latency_seconds: float,
    source_width: int,
) -> dict:
    # Scheduler off: every duplicate call pays its own trip to the source.
    off_source, knowledge = _build(size, latency_seconds, source_width)
    off_durations, off_answers = _one_run(
        off_source, knowledge, None, threads, rounds
    )

    # Scheduler on: dedup collapses in-flight duplicates; hedging stays
    # off so the comparison is pure admission + single-flight.
    on_source, knowledge = _build(size, latency_seconds, source_width)
    scheduler = SourceScheduler(
        SchedulerConfig(default=SourcePolicy(dedup=True, hedge=False))
    )
    on_durations, on_answers = _one_run(
        on_source, knowledge, scheduler, threads, rounds
    )

    calls = scheduler.metrics.value("scheduler.calls")
    dedup_hits = scheduler.metrics.value("scheduler.dedup_hits")
    off_p99 = _percentile(off_durations, 0.99)
    on_p99 = _percentile(on_durations, 0.99)

    return {
        "bench": "bench_resilience",
        "workload": {
            "database_size": size,
            "threads": threads,
            "rounds": rounds,
            "source_latency_seconds": latency_seconds,
            "source_width": source_width,
        },
        "unscheduled": {
            "p50_seconds": round(_percentile(off_durations, 0.5), 6),
            "p99_seconds": round(off_p99, 6),
            "source_calls": off_source.calls,
        },
        "scheduled": {
            "p50_seconds": round(_percentile(on_durations, 0.5), 6),
            "p99_seconds": round(on_p99, 6),
            "source_calls": on_source.calls,
            "scheduler_calls": calls,
            "dedup_hits": dedup_hits,
        },
        "p99_improvement": round(off_p99 / on_p99, 3) if on_p99 else None,
        "dedup_rate": round(dedup_hits / calls, 4) if calls else 0.0,
        "p99_bar": P99_BAR,
        "dedup_bar": DEDUP_BAR,
        # Same consumers, same query, same answers — dedup shares results
        # but must never change them.
        "answers_identical": off_answers == on_answers,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=6000, help="database cardinality")
    parser.add_argument("--threads", type=int, default=8, help="concurrent mediators")
    parser.add_argument("--rounds", type=int, default=3, help="queries per thread")
    parser.add_argument(
        "--latency", type=float, default=0.01, help="seconds per source call"
    )
    parser.add_argument(
        "--source-width",
        type=int,
        default=4,
        help="concurrent calls the throttled source admits",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_6.json")
    parser.add_argument(
        "--quick", action="store_true", help="small workload for CI smoke runs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            f"exit 1 unless answers are identical and p99 improves >= {P99_BAR}x "
            f"or dedup rate >= {DEDUP_BAR}"
        ),
    )
    args = parser.parse_args(argv)

    if args.quick:
        # Duplicate pressure, not data volume, drives the signal; a small
        # database keeps the smoke run fast without muddying it.
        args.size, args.threads, args.rounds = 2000, 6, 2

    result = run(args.size, args.threads, args.rounds, args.latency, args.source_width)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(
        f"bench_resilience: unscheduled p99 {result['unscheduled']['p99_seconds']}s "
        f"({result['unscheduled']['source_calls']} source calls), scheduled p99 "
        f"{result['scheduled']['p99_seconds']}s "
        f"({result['scheduled']['source_calls']} source calls, "
        f"{result['dedup_rate']:.0%} dedup) -> "
        f"{result['p99_improvement']}x p99, answers "
        f"{'identical' if result['answers_identical'] else 'DIVERGED'} "
        f"-> {args.out}"
    )

    if args.check:
        if not result["answers_identical"]:
            print(
                "bench_resilience: FAILED — the scheduler changed the answers",
                file=sys.stderr,
            )
            return 1
        improvement = result["p99_improvement"] or 0.0
        if improvement < P99_BAR and result["dedup_rate"] < DEDUP_BAR:
            print(
                f"bench_resilience: FAILED — p99 improvement {improvement}x below "
                f"{P99_BAR}x and dedup rate {result['dedup_rate']} below {DEDUP_BAR}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
