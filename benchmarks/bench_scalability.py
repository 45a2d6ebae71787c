"""Scalability micro-benchmarks (not a paper figure).

Times the two hot paths of the system with real repeated measurement:

* knowledge mining (TANE + pruning + selectivity) over growing samples, and
* one mediated selection query (base set + 10 rewritten queries +
  post-filtering) over growing databases.

Sizes come from the shared scale-factor machinery
(:mod:`repro.datasets.scale`), so every run measures the same seeded
relations at the same factors.  This module tracks absolute wall-clock
of the columnar data plane; ``BENCH_8.json`` keeps the historical
row-vs-columnar speedups measured at those factors before the row-by-row
implementation was deleted.

These are the numbers a downstream adopter asks first; the paper's own cost
discussion (Section 6.4) is in tuples, covered by Fig. 8.
"""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.datasets import scaled_incomplete
from repro.mining import KnowledgeBase
from repro.query import SelectionQuery
from repro.sources import AutonomousSource


@pytest.mark.parametrize("factor", [1, 10, 100])
def test_mining_scales_with_sample_size(benchmark, factor):
    cars = scaled_incomplete("cars", factor).incomplete
    result = benchmark(lambda: KnowledgeBase(cars, database_size=10 * len(cars)))
    assert result.afds  # sanity: mining found something at every size


@pytest.mark.parametrize("factor", [1, 10, 100])
def test_mediated_query_scales_with_database_size(benchmark, factor):
    dataset = scaled_incomplete("cars", factor)
    source = AutonomousSource("cars", dataset.incomplete)
    sample = dataset.incomplete.take(max(500, len(dataset.incomplete) // 10))
    knowledge = KnowledgeBase(sample, database_size=len(dataset.incomplete))
    mediator = QpiadMediator(source, knowledge, QpiadConfig(k=10))
    query = SelectionQuery.equals("body_style", "Convt")

    result = benchmark(lambda: mediator.query(query))
    assert len(result.certain) > 0
