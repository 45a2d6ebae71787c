"""Command-line interface to the QPIAD reproduction.

Installed as ``qpiad``.  Subcommands mirror the mediator's life cycle:

* ``qpiad generate cars --size 5000 --out cars.csv [--incomplete 0.1]``
* ``qpiad stats cars.csv`` — Table-1 style incompleteness report
* ``qpiad mine cars.csv --db-size 50000 --out cars.kb.json``
* ``qpiad query cars.csv --kb cars.kb.json --where body_style=Convt``
  (``--trace [--json]`` attaches telemetry and prints the span tree and
  counters; see ``docs/observability.md``)
* ``qpiad plan cars.csv --kb cars.kb.json --where body_style=Convt`` — print
  the ranked rewriting plan (P/R estimates, F-measure, justifying AFDs)
  without issuing a single source call (see ``docs/planner.md``)
* ``qpiad relax cars.csv --where make=Porsche --where price=6000..9000``
* ``qpiad impute cars.csv --out clean.csv [--min-confidence 0.8]``
* ``qpiad shell cars.csv`` — interactive session with explanations (§6.1)
* ``qpiad report`` — compact reproduction of the headline results
* ``qpiad demo`` — a self-contained end-to-end run
* ``qpiad chaos --seed 7`` — seeded fault-injection smoke run: mediates
  under transient failures and verifies no certain answer is lost
  (see ``docs/robustness.md``)
* ``qpiad drift cars.csv --kb cars.kb.json --fresh probe.csv [--json]`` —
  compare mined statistics against a freshly probed sample; exit 1 when
  the knowledge base has gone stale (see ``docs/knowledge-refresh.md``)
* ``qpiad refresh cars.csv --kb cars.kb.json --batch new.csv --out cars.kb.json``
  — fold a fresh sample batch into the knowledge base as its next
  generation (``--if-stale`` gates on drift)
* ``qpiad lint [paths]`` — static domain-invariant checks (NULL semantics,
  mediator discipline, seeded RNGs; see ``docs/linting.md``)

``--where`` accepts ``attr=value`` (equality) and ``attr=low..high``
(inclusive range); repeat it for conjunctions.  Values are parsed as numbers
when the attribute is numeric.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.qpiad import QpiadConfig, QpiadMediator
from repro.datasets.cars import generate_cars
from repro.datasets.census import generate_census
from repro.datasets.complaints import generate_complaints
from repro.datasets.googlebase import generate_googlebase_listings
from repro.datasets.incompleteness import make_incomplete
from repro.errors import QpiadError
from repro.evaluation.reporting import render_table
from repro.evaluation.stats import incompleteness_report
from repro.mining.knowledge import KnowledgeBase, MiningConfig
from repro.mining.persistence import load_knowledge, save_knowledge
from repro.mining.tane import TaneConfig
from repro.query.predicates import Between, Equals, Predicate
from repro.query.query import SelectionQuery
from repro.relational.csvio import read_csv, write_csv
from repro.relational.relation import Relation
from repro.sources.autonomous import AutonomousSource

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "cars": generate_cars,
    "census": generate_census,
    "complaints": generate_complaints,
    "googlebase": generate_googlebase_listings,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpiad",
        description="Query processing over incomplete autonomous databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    generate.add_argument("dataset", choices=sorted(_GENERATORS))
    generate.add_argument("--size", type=int, default=5000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, type=Path)
    generate.add_argument(
        "--incomplete",
        type=float,
        default=0.0,
        help="fraction of tuples to mask (GD -> ED protocol); 0 keeps all values",
    )

    stats = sub.add_parser("stats", help="Table-1 style incompleteness report")
    stats.add_argument("data", type=Path)

    mine = sub.add_parser("mine", help="mine AFDs/classifiers/selectivity from a CSV sample")
    mine.add_argument("data", type=Path, help="sample CSV (probed from the source)")
    mine.add_argument("--db-size", type=int, required=True, help="full database cardinality")
    mine.add_argument("--out", required=True, type=Path, help="knowledge-base JSON path")
    mine.add_argument("--beta", type=float, default=0.6, help="AFD confidence threshold")
    mine.add_argument("--depth", type=int, default=3, help="max determining-set size")
    mine.add_argument("--bins", type=int, default=8, help="numeric discretization buckets")

    query = sub.add_parser("query", help="mediate a selection query over a CSV database")
    query.add_argument("data", type=Path, help="the (incomplete) database CSV")
    query.add_argument("--kb", type=Path, help="knowledge-base JSON (default: mine on the fly)")
    query.add_argument(
        "--where",
        action="append",
        required=True,
        metavar="ATTR=VALUE|ATTR=LOW..HIGH",
        help="conjunct; repeatable",
    )
    query.add_argument("--alpha", type=float, default=0.0)
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--top", type=int, default=10, help="possible answers to print")
    query.add_argument(
        "--trace",
        action="store_true",
        help="attach telemetry and print the span tree and counters after the answers",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="with --trace: print only the machine-readable telemetry snapshot",
    )
    query.add_argument(
        "--concurrency",
        type=int,
        default=None,
        metavar="N",
        help="rewritten queries in flight at once.  By default the width is "
        "chosen per query: the plan is issued together only when the base "
        "query's call mostly waited on the source.  N pins it (1 = serial); "
        "answers are identical either way",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the ranked rewriting plan (P/R estimates, F-measure, "
        "justifying AFDs, cache status) after the answers",
    )
    query.add_argument(
        "--admission",
        action="append",
        metavar="KEY=VALUE",
        help="route source calls through a SourceScheduler; repeatable. "
        "Keys: rate (calls/s), burst, concurrent, queue",
    )
    query.add_argument(
        "--stream",
        action="store_true",
        help="print ranked possible answers incrementally as each source "
        "call completes (with elapsed time), stopping after --top — the "
        "streaming interface spends no budget on answers never read",
    )

    plan_cmd = sub.add_parser(
        "plan",
        help="print the ranked rewriting plan without issuing any source call",
    )
    plan_cmd.add_argument("data", type=Path, help="the (incomplete) database CSV")
    plan_cmd.add_argument(
        "--kb", type=Path, help="knowledge-base JSON (default: mine on the fly)"
    )
    plan_cmd.add_argument(
        "--where",
        action="append",
        required=True,
        metavar="ATTR=VALUE|ATTR=LOW..HIGH",
        help="conjunct; repeatable",
    )
    plan_cmd.add_argument("--alpha", type=float, default=0.0)
    plan_cmd.add_argument("--k", type=int, default=10)
    plan_cmd.add_argument(
        "--min-confidence",
        type=float,
        default=0.0,
        help="drop rewritten queries whose estimated precision is below this",
    )

    relax = sub.add_parser(
        "relax", help="relax an over-constrained query until it has answers"
    )
    relax.add_argument("data", type=Path)
    relax.add_argument("--kb", type=Path, help="knowledge-base JSON (default: mine)")
    relax.add_argument("--where", action="append", required=True)
    relax.add_argument("--target", type=int, default=10, help="answers wanted")

    impute_cmd = sub.add_parser(
        "impute", help="fill NULLs of a CSV using mined classifiers"
    )
    impute_cmd.add_argument("data", type=Path)
    impute_cmd.add_argument("--kb", type=Path, help="knowledge-base JSON (default: mine)")
    impute_cmd.add_argument("--out", required=True, type=Path)
    impute_cmd.add_argument(
        "--min-confidence",
        type=float,
        default=0.0,
        help="leave cells NULL below this posterior probability",
    )

    shell = sub.add_parser("shell", help="interactive session against a CSV database")
    shell.add_argument("data", type=Path)
    shell.add_argument("--kb", type=Path, help="knowledge-base JSON (default: mine)")

    report_cmd = sub.add_parser(
        "report", help="compact reproduction of the paper's headline results"
    )
    report_cmd.add_argument("--size", type=int, default=5000)
    report_cmd.add_argument("--queries", type=int, default=5)

    demo = sub.add_parser("demo", help="self-contained end-to-end demonstration")
    demo.add_argument("--size", type=int, default=4000)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection smoke run: verify graceful degradation "
        "never loses certain answers",
    )
    chaos.add_argument("--seed", type=int, default=7, help="fault-schedule seed")
    chaos.add_argument("--size", type=int, default=2000)
    chaos.add_argument(
        "--failure-rate",
        type=float,
        default=0.2,
        help="probability a source call fails fast (SourceUnavailableError)",
    )
    chaos.add_argument(
        "--churn-rate",
        type=float,
        default=0.05,
        help="probability a call charges the budget and then fails anyway",
    )
    chaos.add_argument(
        "--truncate-rate",
        type=float,
        default=0.1,
        help="probability a result is cut off mid-transfer",
    )
    chaos.add_argument("--k", type=int, default=10, help="rewritten queries per user query")
    chaos.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="rewritten queries in flight at once (pinned: replay needs a fixed "
        "call order); above 1 the replay-identical check is skipped (fault "
        "schedules are call-order dependent)",
    )
    chaos.add_argument(
        "--admission",
        action="append",
        metavar="KEY=VALUE",
        help="route the faulty mediator's calls through a SourceScheduler "
        "(same keys as `qpiad query --admission`); the degradation "
        "invariants must hold under admission control too",
    )

    drift = sub.add_parser(
        "drift",
        help="compare a knowledge base against a freshly probed sample; "
        "exit 1 when the mined statistics have gone stale",
    )
    drift.add_argument("data", type=Path, help="the (incomplete) database CSV")
    drift.add_argument(
        "--kb", type=Path, help="knowledge-base JSON (default: mine on the fly)"
    )
    drift.add_argument(
        "--fresh", required=True, type=Path, help="freshly probed sample CSV"
    )
    drift.add_argument(
        "--confidence-tolerance",
        type=float,
        default=0.15,
        help="flag an AFD when its g3 confidence moved by more than this",
    )
    drift.add_argument(
        "--distribution-tolerance",
        type=float,
        default=0.25,
        help="flag an attribute when its total variation distance exceeds this",
    )
    drift.add_argument(
        "--min-support",
        type=int,
        default=20,
        help="AFDs covering fewer fresh rows than this are unmeasurable",
    )
    drift.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text rendering",
    )

    refresh = sub.add_parser(
        "refresh",
        help="fold a fresh sample batch into a knowledge base: re-mine the "
        "mined sample plus the batch as the next generation",
    )
    refresh.add_argument("data", type=Path, help="the (incomplete) database CSV")
    refresh.add_argument(
        "--kb", type=Path, help="knowledge-base JSON to refresh (default: mine on the fly)"
    )
    refresh.add_argument(
        "--batch", required=True, type=Path, help="fresh sample batch CSV to fold in"
    )
    refresh.add_argument(
        "--out", type=Path, help="write the refreshed knowledge base here"
    )
    refresh.add_argument(
        "--db-size",
        type=int,
        help="updated database cardinality (default: keep the mined one)",
    )
    refresh.add_argument(
        "--if-stale",
        action="store_true",
        help="run the drift check first and fold only when it flags staleness",
    )
    refresh.add_argument(
        "--confidence-tolerance",
        type=float,
        default=0.15,
        help="drift gate: AFD confidence tolerance (with --if-stale)",
    )
    refresh.add_argument(
        "--distribution-tolerance",
        type=float,
        default=0.25,
        help="drift gate: total variation tolerance (with --if-stale)",
    )
    refresh.add_argument(
        "--min-support",
        type=int,
        default=20,
        help="drift gate: minimum fresh-row support (with --if-stale)",
    )
    refresh.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable result",
    )

    lint = sub.add_parser(
        "lint",
        help="run qpiadlint: AST checks of the repo's domain invariants "
        "(NULL semantics, AutonomousSource discipline, seeded RNGs)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _parse_where(spec: str, relation: Relation) -> Predicate:
    if "=" not in spec:
        raise QpiadError(f"malformed --where {spec!r}; expected ATTR=VALUE")
    attribute, __, raw = spec.partition("=")
    attribute = attribute.strip()
    raw = raw.strip()
    relation.schema.index_of(attribute)  # validate
    numeric = relation.schema.is_numeric(attribute)

    def parse(text: str):
        if not numeric:
            return text
        try:
            value = float(text)
        except ValueError as exc:
            raise QpiadError(f"{attribute!r} is numeric; cannot parse {text!r}") from exc
        return int(value) if value.is_integer() else value

    if ".." in raw:
        low_text, __, high_text = raw.partition("..")
        return Between(attribute, parse(low_text), parse(high_text))
    return Equals(attribute, parse(raw))


_ADMISSION_KEYS = {
    "rate": ("rate_per_second", float),
    "burst": ("burst", int),
    "concurrent": ("max_concurrent", int),
    "queue": ("max_queue", int),
}


def _parse_admission(specs):
    """``--admission KEY=VALUE`` pairs → the ``SourcePolicy`` the scheduler
    applies to every source (or ``None`` for no scheduler)."""
    if not specs:
        return None
    from repro.resilience import SourcePolicy

    kwargs = {}
    for spec in specs:
        key, sep, raw = spec.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not raw:
            raise QpiadError(f"malformed --admission {spec!r}; expected KEY=VALUE")
        if key not in _ADMISSION_KEYS:
            known = ", ".join(sorted(_ADMISSION_KEYS))
            raise QpiadError(f"unknown --admission key {key!r}; known keys: {known}")
        field, cast = _ADMISSION_KEYS[key]
        try:
            kwargs[field] = cast(raw)
        except ValueError as exc:
            raise QpiadError(
                f"--admission {key} expects a {cast.__name__}, got {raw!r}"
            ) from exc
    return SourcePolicy(**kwargs)


def _cmd_generate(args) -> int:
    generator = _GENERATORS[args.dataset]
    relation = generator(args.size, seed=args.seed)
    if args.incomplete:
        relation = make_incomplete(
            relation, incomplete_fraction=args.incomplete, seed=args.seed + 1
        ).incomplete
    write_csv(relation, args.out)
    print(f"wrote {len(relation)} {args.dataset} tuples to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    relation = read_csv(args.data)
    report = incompleteness_report(args.data.name, relation)
    rows = [
        ["tuples", report.total_tuples],
        ["attributes", report.attribute_count],
        ["incomplete tuples", f"{report.incomplete_tuples_pct:.2f}%"],
    ]
    rows.extend(
        [f"NULL {name}", f"{pct:.2f}%"]
        for name, pct in sorted(report.attribute_null_pct.items(), key=lambda kv: -kv[1])
        if pct > 0
    )
    print(render_table(["statistic", "value"], rows, title=f"Incompleteness of {args.data}"))
    return 0


def _cmd_mine(args) -> int:
    sample = read_csv(args.data)
    config = MiningConfig(
        tane=TaneConfig(min_confidence=args.beta, max_determining_size=args.depth),
        discretize_bins=args.bins,
    )
    knowledge = KnowledgeBase(sample, database_size=args.db_size, config=config)
    save_knowledge(knowledge, args.out)
    print(f"mined {len(knowledge.afds)} AFDs ({len(knowledge.all_afds)} pre-pruning), "
          f"{len(knowledge.akeys)} AKeys from {len(sample)} sample tuples")
    for afd in list(knowledge.afds)[:10]:
        print(f"  {afd}")
    print(f"knowledge base written to {args.out}")
    return 0


def _build_mediation(args, telemetry):
    """``qpiad query``'s plumbing: load data, build mediator and query."""
    admission = _parse_admission(args.admission)
    __, knowledge, query, source = _session(args)
    config = QpiadConfig(
        alpha=args.alpha, k=args.k, max_concurrency=args.concurrency
    )
    scheduler = None
    if admission is not None:
        from repro.resilience import SourceScheduler

        # Mirror scheduler.* counters into the trace telemetry when one
        # is attached, so `--trace --admission ...` shows admission work.
        scheduler = SourceScheduler(admission, telemetry=telemetry)
    mediator = QpiadMediator(
        source,
        knowledge,
        config,
        telemetry=telemetry,
        scheduler=scheduler,
    )
    return query, mediator, scheduler


def _render_plan(plan, alpha: float) -> str:
    """Text rendering of a :class:`~repro.planner.SelectionPlan`."""
    from repro.planner import Ranker

    ranker = Ranker(alpha)
    lines = [
        f"plan: {len(plan.steps)} rewritten queries to issue "
        f"({plan.generated} generated, {plan.skipped_unanswerable} inexpressible, "
        f"{plan.skipped_below_confidence} below confidence, "
        f"{plan.skipped_zero_selectivity} zero selectivity)"
    ]
    for step in plan.steps:
        f = ranker.f_measure(step.estimated_precision, step.estimated_recall)
        lines.append(f"  [{step.rank}] {step.query}")
        lines.append(
            f"      P={step.estimated_precision:.3f}  "
            f"R={step.estimated_recall:.4f}  F(alpha={alpha:g})={f:.4f}  "
            f"via {step.explanation}"
        )
    return "\n".join(lines)


def _stream_query(args, query, mediator) -> None:
    """Incremental `qpiad query --stream` output: answers as calls complete.

    Drives the mediator's lazy streaming interface and stamps each answer
    with its elapsed arrival time, so slow sources are visibly not
    blocking the fast ones; stops pulling after ``--top`` answers, which
    (serially) also stops spending the source's query budget.
    """
    import time

    from repro.core.results import RetrievalStats

    stats = RetrievalStats()
    print(f"query: {query}")
    print(f"streaming ranked possible answers as they arrive (top {args.top}):")
    started = time.monotonic()
    shown = 0
    for answer in mediator.iter_possible(query, stats):
        shown += 1
        print(
            f"  [+{time.monotonic() - started:.3f}s] "
            f"conf={answer.confidence:.3f}  {answer.row}"
        )
        if shown >= args.top:
            break
    elapsed = time.monotonic() - started
    print(
        f"\n{shown} answers in {elapsed:.3f}s; cost so far: "
        f"{stats.queries_issued} queries, "
        f"{stats.tuples_retrieved} tuples transferred"
    )


def _cmd_query(args) -> int:
    from repro.telemetry import Telemetry, render_telemetry_json, render_telemetry_text

    if args.json and not args.trace:
        raise QpiadError("--json renders the trace; use it with --trace")
    telemetry = Telemetry() if args.trace else None
    query, mediator, scheduler = _build_mediation(args, telemetry)
    if telemetry is not None and args.json:
        # Machine-readable mode: the snapshot is all that reaches stdout.
        mediator.query(query)
        print(render_telemetry_json(telemetry))
        return 0
    if args.stream:
        _stream_query(args, query, mediator)
    else:
        result = mediator.query(query)
        print(f"query: {query}")
        print(f"{len(result.certain)} certain answers; first 5:")
        print(result.certain.take(5).head())
        print(f"\n{len(result.ranked)} ranked relevant possible answers; top {args.top}:")
        for answer in result.top(args.top):
            print(f"  conf={answer.confidence:.3f}  {answer.row}")
        print(
            f"\ncost: {result.stats.queries_issued} queries, "
            f"{result.stats.tuples_retrieved} tuples transferred"
        )
    if scheduler is not None:
        admitted = scheduler.metrics.value("scheduler.admitted")
        shed = scheduler.metrics.value("scheduler.rejected_queue_full")
        print(f"admission: {admitted:.0f} admitted, {shed:.0f} shed")
    if args.explain and mediator.last_plan is not None:
        print()
        print(_render_plan(mediator.last_plan, args.alpha))
    if telemetry is not None:
        print()
        print(render_telemetry_text(telemetry))
    return 0


def _cmd_plan(args) -> int:
    from repro.planner import PlannerConfig, QueryPlanner

    relation, knowledge, query, source = _session(args)
    # Plan-only mode: the base set is computed mediator-side from the CSV
    # the source wraps, so nothing is ever put on the wire — the source's
    # access statistics stay at zero.
    base_set = relation.select(
        lambda row: query.predicate.matches(row, relation.schema)
    )
    planner = QueryPlanner(
        knowledge,
        PlannerConfig(alpha=args.alpha, k=args.k, min_confidence=args.min_confidence),
    )
    plan = planner.plan_selection(query, base_set, source=source)
    print(f"query: {query}")
    print(
        f"base set: {len(base_set)} certain answers "
        f"(computed locally; {source.statistics.queries_answered} source calls)"
    )
    print(_render_plan(plan, args.alpha))
    return 0


def _load_or_mine(
    data_path: "str | Path", kb_path: "str | Path | None"
) -> "tuple[Relation, KnowledgeBase]":
    """The CSV at *data_path*, with the knowledge base at *kb_path* or,
    when none is given, one mined from the data itself."""
    relation = read_csv(data_path)
    if kb_path:
        return relation, load_knowledge(kb_path)
    # stderr keeps machine-readable stdout (``query --trace --json``) clean.
    print(
        "no --kb given; mining a knowledge base from the database itself ...",
        file=sys.stderr,
    )
    return relation, KnowledgeBase(
        relation.take(max(200, len(relation) // 10)), database_size=len(relation)
    )


def _session(args):
    """What ``query``, ``plan`` and ``relax`` run on: the
    relation, its knowledge, the ``--where`` query and a web-form source."""
    relation, knowledge = _load_or_mine(args.data, args.kb)
    query = SelectionQuery.conjunction(
        [_parse_where(spec, relation) for spec in args.where]
    )
    return relation, knowledge, query, AutonomousSource(args.data.name, relation)


def _cmd_relax(args) -> int:
    from repro.core.relaxation import QueryRelaxer

    __, knowledge, query, source = _session(args)
    relaxer = QueryRelaxer(source, knowledge)
    answers = relaxer.query(query, target_count=args.target)
    print(f"query: {query}")
    exact = sum(1 for answer in answers if answer.similarity == 1.0)
    print(f"{exact} exact answers, {len(answers) - exact} relaxed; top {args.target}:")
    for answer in answers[: args.target]:
        violated = ", ".join(answer.violated) or "-"
        print(f"  sim={answer.similarity:.2f}  violates: {violated}")
        print(f"    {answer.row}")
    return 0


def _cmd_impute(args) -> int:
    from repro.mining.imputation import impute

    relation, knowledge = _load_or_mine(args.data, args.kb)
    report = impute(relation, knowledge, min_confidence=args.min_confidence)
    write_csv(report.relation, args.out)
    print(
        f"filled {report.filled_count} cells "
        f"({report.skipped_low_confidence} left NULL below confidence "
        f"{args.min_confidence}); wrote {args.out}"
    )
    return 0


def _cmd_demo(args) -> int:
    from repro.evaluation.harness import build_environment

    print(f"generating {args.size} car listings, masking 10%, mining ...")
    env = build_environment(generate_cars(args.size), name="demo")
    mediator = QpiadMediator(env.web_source(), env.knowledge, QpiadConfig(k=10))
    query = SelectionQuery.equals("body_style", "Convt")
    result = mediator.query(query)
    print(f"{len(result.certain)} certain answers for {query}")
    print(f"{len(result.ranked)} ranked possible answers; top 5 with ground truth:")
    for answer in result.top(5):
        relevant = env.oracle.is_relevant(answer.row, query)
        mark = "✓" if relevant else "✗"
        print(f"  conf={answer.confidence:.3f}  truth={mark}  {answer.row}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.evaluation.harness import build_environment
    from repro.faults import FaultInjectingSource, FaultPlan

    admission = _parse_admission(args.admission)
    print(
        f"chaos: {args.size} car listings, seed {args.seed}, "
        f"{args.failure_rate:.0%} unavailable / {args.churn_rate:.0%} churned / "
        f"{args.truncate_rate:.0%} truncated ..."
    )
    env = build_environment(
        generate_cars(args.size, seed=args.seed), seed=args.seed, name="chaos"
    )
    queries = [
        SelectionQuery.equals("body_style", "Convt"),
        SelectionQuery.equals("body_style", "Sedan"),
        SelectionQuery.equals("make", "BMW"),
    ]
    config = QpiadConfig(k=args.k, max_concurrency=args.concurrency)
    # With concurrent execution the fault schedule maps onto calls in
    # completion-dependent order, so two runs need not inject the same
    # faults at the same calls; the replay-identical check only holds
    # serially.  The invariants that matter — certain answers survive,
    # ranking stays a subsequence — are checked at any width.
    check_replay = args.concurrency == 1
    shed_total = 0
    verdict = 0
    for index, query in enumerate(queries):
        clean = QpiadMediator(env.web_source(), env.knowledge, config).query(query)

        def run_faulty():
            plan = FaultPlan(
                seed=args.seed + index,
                unavailable_rate=args.failure_rate,
                churn_rate=args.churn_rate,
                truncate_rate=args.truncate_rate,
                spare_first=1,  # the base query must land: QPIAD needs certain answers
            )
            source = FaultInjectingSource(env.web_source(), plan)
            scheduler = None
            if admission is not None:
                from repro.resilience import SourceScheduler

                # One scheduler per run: replay determinism needs fresh
                # admission state.
                scheduler = SourceScheduler(admission)
            mediator = QpiadMediator(
                source, env.knowledge, config, scheduler=scheduler
            )
            return mediator.query(query), source, scheduler

        faulty, source, scheduler = run_faulty()
        if scheduler is not None:
            shed_total += int(scheduler.metrics.value("scheduler.rejected_queue_full"))

        certain_kept = set(faulty.certain) == set(clean.certain)
        clean_rows = [answer.row for answer in clean.ranked]
        order_kept = _is_subsequence(
            [answer.row for answer in faulty.ranked], clean_rows
        )
        if check_replay:
            replay, replay_source, __ = run_faulty()
            reproducible = (
                replay_source.statistics.events == source.statistics.events
                and [a.row for a in replay.ranked] == [a.row for a in faulty.ranked]
            )
            replay_note = f"replay {'identical' if reproducible else 'DIVERGED'}"
        else:
            reproducible = True
            replay_note = "replay skipped (concurrent)"
        stats = source.statistics
        print(
            f"  {query}: {len(faulty.certain)} certain "
            f"({'all kept' if certain_kept else 'LOST ANSWERS'}), "
            f"{len(faulty.ranked)}/{len(clean.ranked)} possible, "
            f"{stats.faults_injected}/{stats.calls} calls faulted, "
            f"{len(faulty.stats.failures)} failures absorbed, "
            f"degraded={faulty.degraded}, "
            f"ranking {'consistent' if order_kept else 'REORDERED'}, "
            f"{replay_note}"
        )
        if not (certain_kept and order_kept and reproducible):
            verdict = 1
    if admission is not None:
        print(f"admission: {shed_total} call(s) load-shed across faulty runs")
    if verdict:
        print("chaos: FAILED — degradation lost or reordered answers", file=sys.stderr)
    else:
        print("chaos: ok — certain answers survived every injected fault")
    return verdict


def _is_subsequence(rows, reference) -> bool:
    """Whether *rows* appear in *reference* in the same relative order."""
    iterator = iter(reference)
    return all(row in iterator for row in rows)


def _cmd_report(args) -> int:
    from repro.evaluation.summary import experiment_summary, render_summary

    print(f"running the compact experiment battery on {args.size} tuples ...")
    result, __ = experiment_summary(size=args.size, queries=args.queries)
    print(render_summary(result))
    return 0


def _cmd_shell(args) -> int:
    from repro.shell import run_shell

    return run_shell(args.data, args.kb)


def _cmd_drift(args) -> int:
    import json

    from repro.mining.drift import detect_drift, drift_payload, render_drift_text

    __, knowledge = _load_or_mine(args.data, args.kb)
    fresh = read_csv(args.fresh)
    report = detect_drift(
        knowledge,
        fresh,
        confidence_tolerance=args.confidence_tolerance,
        distribution_tolerance=args.distribution_tolerance,
        min_support=args.min_support,
    )
    if args.json:
        print(json.dumps(drift_payload(report), indent=2))
    else:
        print(render_drift_text(report))
    return 1 if report.is_stale else 0


def _refresh_payload(result) -> dict:
    from repro.mining.drift import drift_payload

    payload = {
        "mode": result.mode,
        "refreshed": result.refreshed,
        "epoch": result.epoch,
        "fingerprint": result.fingerprint,
        "previous_fingerprint": result.previous_fingerprint,
        "rows_folded": result.rows_folded,
        "seconds": result.seconds,
    }
    if result.drift is not None:
        payload["drift"] = drift_payload(result.drift)
    return payload


def _print_refresh(result, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(_refresh_payload(result)))
        return
    if not result.refreshed:
        print(f"refresh: skipped — statistics still fresh (epoch {result.epoch})")
        return
    print(
        f"refresh: {result.mode} fold of {result.rows_folded} row(s) -> "
        f"epoch {result.epoch} in {result.seconds:.3f}s"
    )
    print(f"  fingerprint {result.previous_fingerprint} -> {result.fingerprint}")


def _cmd_refresh(args) -> int:
    from repro.mining.refresh import KnowledgeRefresher

    __, knowledge = _load_or_mine(args.data, args.kb)
    refresher = KnowledgeRefresher(knowledge)
    batch = read_csv(args.batch)
    if args.if_stale:
        result = refresher.refresh_if_stale(
            batch,
            confidence_tolerance=args.confidence_tolerance,
            distribution_tolerance=args.distribution_tolerance,
            min_support=args.min_support,
            database_size=args.db_size,
        )
    else:
        result = refresher.refresh(batch, database_size=args.db_size)
    _print_refresh(result, args.json)
    if result.refreshed and args.out:
        save_knowledge(refresher.knowledge, args.out)
        if not args.json:
            print(f"  wrote {args.out}")
    return 0 if result.refreshed or args.if_stale else 1


def _cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "mine": _cmd_mine,
    "query": _cmd_query,
    "plan": _cmd_plan,
    "relax": _cmd_relax,
    "impute": _cmd_impute,
    "shell": _cmd_shell,
    "report": _cmd_report,
    "demo": _cmd_demo,
    "chaos": _cmd_chaos,
    "drift": _cmd_drift,
    "refresh": _cmd_refresh,
    "lint": _cmd_lint,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QpiadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
