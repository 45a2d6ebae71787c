"""Ablation: rewriting from the base set vs from the sample (Section 4.2).

The paper argues for rewriting from the *base result set* (retrieved live
from the source) rather than from the off-line sample: the sample may miss
determining-set value combinations that the full database holds, costing
recall.  This bench quantifies that gap.
"""

from repro.core import QpiadConfig, QpiadMediator
from repro.planner import Ranker
from repro.core.results import QueryResult, RankedAnswer, RetrievalStats
from repro.core.rewriting import rewriting_bindings, rewritten_from_bindings
from repro.errors import RewritingError
from repro.evaluation import render_table, selection_workload
from repro.query.executor import certain_answers
from repro.relational.values import is_null


def _sample_based_query(env, query, k=30):
    """A QPIAD variant whose rewriting projects the sample, not the base set."""
    source = env.web_source()
    base = source.execute(query)
    sample_matches = certain_answers(query, env.knowledge.sample)
    bindings = rewriting_bindings(query, sample_matches, env.knowledge)
    try:
        candidates = rewritten_from_bindings(query, bindings, env.knowledge)
    except RewritingError:
        candidates = []
    result = QueryResult(query=query, certain=base, stats=RetrievalStats())
    seen = set(base.rows)
    schema = source.schema
    for rewritten in Ranker(0.0, k).order(candidates):
        for row in source.execute(rewritten.query):
            index = schema.index_of(rewritten.target_attribute)
            if not is_null(row[index]) or row in seen:
                continue
            seen.add(row)
            result.ranked.append(
                RankedAnswer(row, rewritten.estimated_precision, rewritten.query,
                             rewritten.target_attribute, rewritten.afd)
            )
    return result


def _run(env):
    queries = selection_workload(env, "body_style", 6, seed=131)
    rows = []
    totals = {"base": 0, "sample": 0, "relevant": 0}
    for query in queries:
        mediator = QpiadMediator(env.web_source(), env.knowledge, QpiadConfig(k=30))
        base_result = mediator.query(query)
        sample_result = _sample_based_query(env, query, k=30)
        relevant = env.total_relevant(query)
        base_hits = sum(
            env.oracle.is_relevant(a.row, query) for a in base_result.ranked
        )
        sample_hits = sum(
            env.oracle.is_relevant(a.row, query) for a in sample_result.ranked
        )
        totals["base"] += base_hits
        totals["sample"] += sample_hits
        totals["relevant"] += relevant
        rows.append(
            [repr(query), relevant, base_hits, sample_hits]
        )
    return rows, totals


def test_ablation_base_set_vs_sample_rewriting(benchmark, cars_env_body_heavy, report):
    rows, totals = benchmark.pedantic(
        _run, args=(cars_env_body_heavy,), rounds=1, iterations=1
    )
    text = render_table(
        ["query", "relevant", "hits (base-set rewriting)", "hits (sample rewriting)"],
        rows
        + [["TOTAL", totals["relevant"], totals["base"], totals["sample"]]],
        title="Ablation — base-set vs sample rewriting (recall support, §4.2)",
    )
    report.emit(text)

    # The paper's claim: base-set rewriting achieves at least the recall of
    # sample-only rewriting (the sample is a subset of what the source holds).
    assert totals["base"] >= totals["sample"]
