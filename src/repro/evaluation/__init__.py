"""Evaluation harness: accuracy metrics, ground truth, sweeps and reporting.

Everything the benchmark suite needs to turn a searcher (GB-KMV, a
baseline, or an exact method) plus a dataset into the numbers the paper's
tables and figures report: precision, recall, F_α scores (Equation 35),
per-query timings, space usage and construction time.
"""

from repro.evaluation.metrics import (
    ConfusionCounts,
    f_score,
    precision_recall,
)
from repro.evaluation.ground_truth import exact_result_sets
from repro.evaluation.harness import (
    AccuracyReport,
    DynamicEvaluation,
    MethodEvaluation,
    evaluate_dynamic_stream,
    evaluate_search_method,
    run_dynamic_experiment,
    run_experiment,
    supports_operation,
    time_construction,
)
from repro.evaluation.reporting import format_table, series_to_rows

__all__ = [
    "ConfusionCounts",
    "precision_recall",
    "f_score",
    "exact_result_sets",
    "AccuracyReport",
    "DynamicEvaluation",
    "MethodEvaluation",
    "evaluate_dynamic_stream",
    "evaluate_search_method",
    "run_dynamic_experiment",
    "run_experiment",
    "supports_operation",
    "time_construction",
    "format_table",
    "series_to_rows",
]
