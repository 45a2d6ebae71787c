"""Evaluation machinery: ground-truth oracle, IR metrics, experiment harness."""

from repro.evaluation.harness import (
    Environment,
    RunOutcome,
    build_environment,
    classification_accuracy,
    run_all_ranked,
    run_all_returned,
    run_qpiad,
    selection_workload,
)
from repro.evaluation.metrics import (
    PrecisionRecallPoint,
    accumulated_precision,
    accuracy_cdf,
    aggregate_accuracy,
    average_accumulated_precision,
    average_precision,
    precision_at_recall,
    precision_recall_curve,
    tuples_required_for_recall,
)
from repro.evaluation.oracle import GroundTruthOracle
from repro.evaluation.workloads import join_workload
from repro.evaluation.reporting import render_curves, render_series, render_table
from repro.evaluation.stats import IncompletenessReport, incompleteness_report
from repro.evaluation.summary import SummaryResult, experiment_summary, render_summary

__all__ = [
    "GroundTruthOracle",
    "PrecisionRecallPoint",
    "precision_recall_curve",
    "accumulated_precision",
    "average_accumulated_precision",
    "precision_at_recall",
    "tuples_required_for_recall",
    "aggregate_accuracy",
    "accuracy_cdf",
    "average_precision",
    "Environment",
    "build_environment",
    "RunOutcome",
    "run_qpiad",
    "run_all_returned",
    "run_all_ranked",
    "selection_workload",
    "join_workload",
    "classification_accuracy",
    "IncompletenessReport",
    "incompleteness_report",
    "SummaryResult",
    "experiment_summary",
    "render_summary",
    "render_table",
    "render_series",
    "render_curves",
]
