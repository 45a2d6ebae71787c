"""Property-based tests of the relational substrate."""

from hypothesis import given, strategies as st

from repro.relational import NULL, Relation, Schema

_VALUES = st.one_of(
    st.just(NULL),
    st.integers(-5, 5),
    st.sampled_from(["Honda", "BMW", "Audi", "Sedan", "Convt"]),
)

_ROWS = st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=40)


def _relation(rows) -> Relation:
    return Relation(Schema.of("a", "b", "c"), rows)


@given(_ROWS)
def test_incomplete_fraction_bounds(rows):
    fraction = _relation(rows).incomplete_fraction()
    assert 0.0 <= fraction <= 1.0


@given(_ROWS)
def test_projection_distinct_is_subset_of_projection(rows):
    relation = _relation(rows)
    full = relation.project(["a", "b"])
    distinct = relation.project(["a", "b"], distinct=True)
    assert set(distinct.rows) == set(full.rows)
    assert len(distinct) <= len(full)


@given(_ROWS)
def test_null_count_matches_column_scan(rows):
    relation = _relation(rows)
    manual = sum(1 for value in relation.column("b") if value is NULL)
    assert relation.null_count("b") == manual


@given(_ROWS, st.integers(0, 50))
def test_take_never_exceeds_length(rows, count):
    relation = _relation(rows)
    assert len(relation.take(count)) == min(count, len(relation))


@given(_ROWS)
def test_concat_length_adds(rows):
    relation = _relation(rows)
    assert len(relation.concat(relation)) == 2 * len(relation)


@given(_ROWS)
def test_value_counts_totals_non_null_values(rows):
    relation = _relation(rows)
    counts = relation.value_counts("a")
    non_null = sum(1 for value in relation.column("a") if value is not NULL)
    assert sum(counts.values()) == non_null
