"""Figure 13: precision-recall of join queries over Cars ⋈ Complaints for
α ∈ {0, 0.5, 2} with a 10-pair budget.

The two queries of Section 6.6:
  (a) Model = Grand Cherokee ⋈ General Component = Engine and Engine Cooling
  (b) Model = F150          ⋈ General Component = Electrical System

Paper shape: α = 0 holds precision but recall stalls early; α = 0.5 / 2
extend recall substantially at a modest precision cost.
"""

from repro.core import JoinConfig, JoinProcessor
from repro.evaluation import precision_recall_curve, render_curves
from repro.query import JoinQuery, SelectionQuery

ALPHAS = (0.0, 0.5, 2.0)
QUERIES = (
    ("Grand Cherokee", "Engine and Engine Cooling"),
    ("F150", "Electrical System"),
)


def _relevant_rows(env, keep):
    """How many distinct hidden rows have a ground truth that satisfies *keep*."""
    return sum(
        1
        for row in dict.fromkeys(env.test.rows)
        if keep(env.oracle.ground_truth_row(row))
    )


def _oracle_join(cars_env, complaints_env, model, component):
    """Ground-truth joined pairs, counted over distinct hidden rows.

    The join answers each distinct ``(left_row, right_row)`` pair once, so
    the oracle counts each distinct hidden row once too, however often the
    relation repeats it; otherwise the recall denominator would count
    duplicate certain pairs as possible answers never retrieved.
    """
    left = _relevant_rows(cars_env, lambda truth: truth[1] == model)
    right = _relevant_rows(
        complaints_env, lambda truth: truth[4] == component and truth[0] == model
    )
    return left * right


def _truth_flags(cars_env, complaints_env, result, model, component):
    """Relevance of each possible joined answer against the ground truth."""
    flags = []
    for answer in result.possible:
        left_truth = cars_env.oracle.ground_truth_row(answer.left_row)
        right_truth = complaints_env.oracle.ground_truth_row(answer.right_row)
        flags.append(
            left_truth[1] == model
            and right_truth[4] == component
            and left_truth[1] == right_truth[0]
        )
    return flags


def _run(cars_env, complaints_env):
    out = {}
    for model, component in QUERIES:
        join = JoinQuery(
            SelectionQuery.equals("model", model),
            SelectionQuery.equals("general_component", component),
            "model",
        )
        per_alpha = {}
        for alpha in ALPHAS:
            processor = JoinProcessor(
                cars_env.web_source(),
                complaints_env.web_source(),
                cars_env.knowledge,
                complaints_env.knowledge,
                JoinConfig(alpha=alpha, k_pairs=10),
            )
            result = processor.query(join)
            flags = _truth_flags(cars_env, complaints_env, result, model, component)
            certain_pairs = len(result.certain)
            oracle_pairs = _oracle_join(cars_env, complaints_env, model, component)
            total_possible = max(oracle_pairs - certain_pairs, 1)
            per_alpha[alpha] = (flags, total_possible)
        out[(model, component)] = per_alpha
    return out


def test_fig13_join_precision_recall(benchmark, cars_env, complaints_env, report):
    results = benchmark.pedantic(
        _run, args=(cars_env, complaints_env), rounds=1, iterations=1
    )

    blocks = []
    for (model, component), per_alpha in results.items():
        curves = {}
        for alpha, (flags, total) in per_alpha.items():
            points = precision_recall_curve(flags, total)
            stride = max(1, len(points) // 10)
            curves[f"alpha={alpha}"] = [
                (p.recall, p.precision) for p in points[::stride]
            ] or [(0.0, 0.0)]
        blocks.append(
            render_curves(
                f"Figure 13 analogue — {model} ⋈ {component} (K=10 pairs)",
                curves,
                x_label="recall",
                y_label="precision",
            )
        )
    report.emit("\n\n".join(blocks))

    for per_alpha in results.values():
        hits = {alpha: sum(flags) for alpha, (flags, __) in per_alpha.items()}
        # Shape: pushing alpha up extends how many relevant joined tuples
        # the pair budget can reach.
        assert hits[2.0] >= hits[0.0]
        assert max(hits.values()) > 0
