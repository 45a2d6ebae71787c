"""First-answer latency of the streaming symmetric-hash join (PR 8).

Not a paper figure: this bench guards the *implementation* property of
the operator tree — a mediated two-way join surfaces its first joined
answer after only the two base retrievals, while the rewritten component
queries are still on the wire.

The workload joins Cars with Complaints on ``model`` under injected
latency that models a remote pair of web databases: each source answers
its first call (the base query) quickly and every later call (the
rewritten components) after one slow round trip.  A materialized answer
list cannot exist before the slowest component returns; the streaming
path must deliver its first answer in less than *one* slow round trip,
i.e. time-to-first-answer is bounded by the fastest side's first useful
result, independent of the slowest source.

The bench also re-measures the determinism and accounting pins at every
executor width: final ranked answers bit-identical to the serial
materialized run, and ``queries_issued`` equal to the sources' own call
logs, at widths 1, 2, 4 and 8.

Results go to a JSON file (``BENCH_7.json`` at the repo root by default)
so CI can diff them.

Run directly::

    python benchmarks/bench_streaming.py [--quick] [--check] [--out BENCH_7.json]

``--quick`` shrinks the workload for CI smoke runs; ``--check`` exits
non-zero when the first answer is not faster than one slow round trip,
when any width's ranked answers diverge from serial, or when billing
disagrees with the call logs.
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

from repro.core import JoinConfig, JoinProcessor  # noqa: E402
from repro.datasets import generate_cars, generate_complaints  # noqa: E402
from repro.evaluation import build_environment  # noqa: E402
from repro.query import JoinQuery, SelectionQuery  # noqa: E402
from repro.sources import SourceDecorator  # noqa: E402

JOIN = JoinQuery(
    SelectionQuery.equals("model", "Grand Cherokee"),
    SelectionQuery.equals("general_component", "Engine and Engine Cooling"),
    "model",
)
WIDTHS = (1, 2, 4, 8)


class LatencySource(SourceDecorator):
    """A source whose first call is fast and whose later calls are slow.

    The first call a mediator issues against each side is the base
    query; everything after that is a rewritten component.  Sleeping
    only on the later calls models sources whose base answer is cheap
    (cached, small) while component probes each pay a full round trip.
    """

    def __init__(self, inner, base_seconds: float, slow_seconds: float, sleep=time.sleep):
        super().__init__(inner)
        self._base_seconds = base_seconds
        self._slow_seconds = slow_seconds
        self._sleep = sleep
        self._lock = threading.Lock()
        self.calls = 0

    def execute(self, query):
        with self._lock:
            self.calls += 1
            delay = self._base_seconds if self.calls == 1 else self._slow_seconds
        self._sleep(delay)
        return self.inner.execute(query)


def _build(size: int):
    cars = build_environment(generate_cars(size, seed=7), seed=42, name="cars")
    complaints = build_environment(
        generate_complaints(size, seed=11), seed=43, name="complaints"
    )
    return cars, complaints


def _processor(cars, complaints, width: int, base_s: float, slow_s: float):
    left = LatencySource(cars.web_source(), base_s, slow_s)
    right = LatencySource(complaints.web_source(), base_s, slow_s)
    processor = JoinProcessor(
        left,
        right,
        cars.knowledge,
        complaints.knowledge,
        JoinConfig(alpha=0.5, k_pairs=10, max_concurrency=width),
    )
    return processor, left, right


def _fingerprint(result):
    return (
        [
            (a.left_row, a.right_row, a.join_value, round(a.confidence, 9), a.certain)
            for a in result.answers
        ],
        result.pairs_issued,
        result.base_queries_issued,
        result.component_queries_issued,
        result.stats.queries_issued,
    )


def _one_width(cars, complaints, width: int, base_s: float, slow_s: float) -> dict:
    """Drain one streamed join, timing the first answer and the total."""
    from repro.core.joins import JoinResult

    processor, left, right = _processor(cars, complaints, width, base_s, slow_s)
    result = JoinResult(query=JOIN)
    start = time.perf_counter()
    stream = processor.stream_answers(JOIN, result=result)
    next(stream)
    first_s = time.perf_counter() - start
    candidates = 1 + sum(1 for _ in stream)
    total_s = time.perf_counter() - start
    source_calls = left.calls + right.calls  # before the ranked re-run below

    # Rank at the edge, exactly as JoinProcessor.query does, so the
    # fingerprint is comparable across widths.
    ranked = processor.query(JOIN)
    return {
        "max_workers": width,
        "time_to_first_answer_seconds": round(first_s, 6),
        "stream_total_seconds": round(total_s, 6),
        "candidates_streamed": candidates,
        "queries_issued": result.stats.queries_issued,
        "source_calls": source_calls,
        "accounting_exact": result.stats.queries_issued == source_calls,
        "_fingerprint": _fingerprint(ranked),
    }


def run(size: int, base_s: float, slow_s: float) -> dict:
    cars, complaints = _build(size)
    per_width = [_one_width(cars, complaints, w, base_s, slow_s) for w in WIDTHS]

    reference = per_width[0]["_fingerprint"]
    for row in per_width:
        row["answers_identical_to_serial"] = row.pop("_fingerprint") == reference

    streaming = next(row for row in per_width if row["max_workers"] == 4)
    return {
        "bench": "bench_streaming",
        "workload": {
            "database_size": size,
            "join": str(JOIN),
            "base_latency_seconds": base_s,
            "slow_latency_seconds": slow_s,
            "answers": len(reference[0]),
        },
        "widths": per_width,
        # The headline: the first streamed answer arrives in less than a
        # single slow round trip — a materialized join cannot answer
        # before its slowest component, which pays at least one.
        "time_to_first_answer_seconds": streaming["time_to_first_answer_seconds"],
        "first_answer_beats_one_slow_round_trip": (
            streaming["time_to_first_answer_seconds"] < slow_s
        ),
        "answers_identical_at_every_width": all(
            row["answers_identical_to_serial"] for row in per_width
        ),
        "accounting_exact_at_every_width": all(
            row["accounting_exact"] for row in per_width
        ),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=4000, help="cardinality per source")
    parser.add_argument(
        "--base-latency", type=float, default=0.005,
        help="injected seconds for each source's first (base) call",
    )
    parser.add_argument(
        "--slow-latency", type=float, default=0.25,
        help="injected seconds for every later (component) call",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_7.json")
    parser.add_argument(
        "--quick", action="store_true", help="small workload for CI smoke runs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the first answer beats one slow round trip, "
        "answers are width-identical, and billing matches the call logs",
    )
    args = parser.parse_args(argv)

    if args.quick:
        # The slow round trip still dwarfs planning compute (~20ms), so
        # the first-answer signal stays unambiguous on a noisy CI box.
        args.size, args.slow_latency = 2000, 0.15

    result = run(args.size, args.base_latency, args.slow_latency)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(
        f"bench_streaming: first answer in "
        f"{result['time_to_first_answer_seconds']}s "
        f"(slow round trip {args.slow_latency}s), answers "
        f"{'identical' if result['answers_identical_at_every_width'] else 'DIVERGED'}"
        f" at widths {WIDTHS} -> {args.out}"
    )

    if args.check:
        if not result["first_answer_beats_one_slow_round_trip"]:
            print(
                "bench_streaming: FAILED — first answer waited on a slow component",
                file=sys.stderr,
            )
            return 1
        if not result["answers_identical_at_every_width"]:
            print(
                "bench_streaming: FAILED — executor width changed the answers",
                file=sys.stderr,
            )
            return 1
        if not result["accounting_exact_at_every_width"]:
            print(
                "bench_streaming: FAILED — billing diverged from the call logs",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
