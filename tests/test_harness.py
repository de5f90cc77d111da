"""Unit tests for the evaluation harness and reporting helpers."""

from __future__ import annotations

import pytest

from repro._errors import ConfigurationError
from repro.api import Capabilities, SimilarityIndex
from repro.core import GBKMVIndex
from repro.evaluation import (
    evaluate_search_method,
    exact_result_sets,
    format_table,
    series_to_rows,
    time_construction,
)
from repro.baselines import GKMVSearchIndex
from repro.datasets import build_dynamic_workload
from repro.evaluation.harness import (
    evaluate_dynamic_stream,
    measure_accuracy,
    run_dynamic_experiment,
    run_experiment,
)


class TestGroundTruth:
    def test_exact_result_sets(self, tiny_records, example_query):
        truth = exact_result_sets(tiny_records, [example_query], threshold=0.5)
        assert truth == [frozenset({0, 1})]

    def test_one_set_per_query(self, tiny_records):
        truth = exact_result_sets(tiny_records, [["e2"], ["e5"]], threshold=1.0)
        assert truth == [frozenset({0, 1, 2, 3}), frozenset({1, 2})]


class TestMeasureAccuracy:
    def test_perfect_answers(self):
        report = measure_accuracy([{1, 2}], [{1, 2}])
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.f05 == 1.0
        assert report.f1_min == 1.0
        assert report.f1_max == 1.0

    def test_mixed_answers_average(self):
        report = measure_accuracy([{1}, set()], [{1}, {2}])
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.per_query_f1 == (1.0, 0.0)
        assert report.f1_min == 0.0
        assert report.f1_max == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_accuracy([{1}], [{1}, {2}])


class TestEvaluateSearchMethod:
    def test_gbkmv_full_budget_is_perfect(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        truth = exact_result_sets(tiny_records, [example_query], threshold=0.5)
        evaluation = evaluate_search_method(
            "GB-KMV", index, [example_query], truth, threshold=0.5
        )
        assert evaluation.method == "GB-KMV"
        assert evaluation.accuracy.f1 == 1.0
        assert evaluation.avg_query_seconds > 0.0
        assert evaluation.space_in_values > 0.0

    def test_run_experiment_builds_and_times(self, tiny_records, example_query):
        results = run_experiment(
            tiny_records,
            [example_query],
            threshold=0.5,
            methods={
                "GB-KMV": lambda: GBKMVIndex.build(
                    tiny_records, space_fraction=1.0, buffer_size=2
                )
            },
        )
        assert set(results) == {"GB-KMV"}
        assert results["GB-KMV"].construction_seconds > 0.0

    def test_time_construction(self, tiny_records):
        index, seconds = time_construction(
            lambda: GBKMVIndex.build(tiny_records, space_fraction=1.0)
        )
        assert isinstance(index, GBKMVIndex)
        assert seconds > 0.0


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        table = format_table(
            ["name", "f1"], [["GB-KMV", 0.91234], ["LSH-E", 0.5]], float_format="{:.2f}"
        )
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "0.91" in table
        assert "0.50" in table
        assert len(lines) == 4  # header, rule, two rows

    def test_format_table_validation(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])
        with pytest.raises(ConfigurationError):
            format_table(["a"], [["x", "y"]])

    def test_series_to_rows(self):
        headers, rows = series_to_rows(
            {"5%": {"f1": 0.8, "recall": 0.9}, "10%": {"f1": 0.85}}, x_label="space"
        )
        assert headers == ["space", "f1", "recall"]
        assert rows[0][0] == "5%"
        assert rows[1][2] != rows[1][2]  # NaN for the missing metric


class TestEvaluateDynamicStream:
    def test_full_budget_gbkmv_is_perfect_on_mixed_stream(self, zipf_records):
        workload = build_dynamic_workload(
            zipf_records[:200], threshold=0.5, num_operations=150, seed=9
        )
        index = GBKMVIndex.build(list(workload.initial_records), space_fraction=1.0)
        evaluation = evaluate_dynamic_stream("GB-KMV", index, workload)
        assert evaluation.accuracy.f1 == 1.0
        assert evaluation.accuracy.precision == 1.0
        assert evaluation.accuracy.recall == 1.0
        counts = workload.operation_counts()
        assert evaluation.num_inserts == counts["insert"]
        assert evaluation.num_deletes == counts["delete"]
        assert evaluation.num_queries == counts["query"]
        assert evaluation.num_operations == workload.num_operations
        assert evaluation.total_seconds > 0.0
        assert evaluation.space_in_values > 0.0

    def test_mismatched_initial_corpus_rejected(self, zipf_records):
        workload = build_dynamic_workload(
            zipf_records[:100], threshold=0.5, num_operations=60, seed=4
        )
        # One record short: the first insert id the searcher assigns is off
        # by one, which the harness must flag instead of mis-scoring.
        short = list(workload.initial_records)[:-1]
        for coalesce_writes in (False, True):
            index = GBKMVIndex.build(short, space_fraction=1.0)
            if workload.operation_counts()["insert"]:
                with pytest.raises(ConfigurationError):
                    evaluate_dynamic_stream(
                        "GB-KMV", index, workload, coalesce_writes=coalesce_writes
                    )

    def test_run_dynamic_experiment_builds_every_method(self, zipf_records):
        workload = build_dynamic_workload(
            zipf_records[:120], threshold=0.5, num_operations=60, seed=6
        )
        evaluations = run_dynamic_experiment(
            workload,
            {
                "GB-KMV": lambda records: GBKMVIndex.build(records, space_fraction=1.0),
                "G-KMV": lambda records: GKMVSearchIndex.build(records, space_fraction=1.0),
            },
        )
        assert set(evaluations) == {"GB-KMV", "G-KMV"}
        for evaluation in evaluations.values():
            assert evaluation.num_operations == 60
            assert 0.0 <= evaluation.accuracy.f1 <= 1.0

    def test_coalesced_replay_is_equivalent(self, zipf_records):
        # The write-buffer replay must score the stream identically to
        # the per-operation replay (writes coalesce through the serving
        # layer's WriteCoalescer; queries flush first, so every query
        # still sees the exact stream-instant state).
        workload = build_dynamic_workload(
            zipf_records[:150], threshold=0.5, num_operations=120, seed=11
        )
        per_op_index = GBKMVIndex.build(
            list(workload.initial_records), space_fraction=0.5
        )
        batched_index = GBKMVIndex.build(
            list(workload.initial_records), space_fraction=0.5
        )
        per_op = evaluate_dynamic_stream("GB-KMV", per_op_index, workload)
        batched = evaluate_dynamic_stream(
            "GB-KMV", batched_index, workload, coalesce_writes=True
        )
        assert batched.accuracy == per_op.accuracy
        assert batched.num_inserts == per_op.num_inserts
        assert batched.num_deletes == per_op.num_deletes
        assert batched.num_queries == per_op.num_queries

    def test_coalesce_writes_without_insert_many_falls_back(self, zipf_records):
        workload = build_dynamic_workload(
            zipf_records[:80], threshold=0.5, num_operations=40, seed=13
        )

        class LoopOnly(SimilarityIndex):
            """A dynamic index whose insert_many is the base class's loop."""

            capabilities = Capabilities(dynamic=True)

            def __init__(self, inner):
                self.inner = inner

            @classmethod
            def from_records(cls, records, config=None):
                return cls(GBKMVIndex.build(records, space_fraction=1.0))

            def search(self, query, threshold, query_size=None):
                return self.inner.search(query, threshold, query_size=query_size)

            def insert(self, record):
                return self.inner.insert(record)

            def delete(self, record_id):
                self.inner.delete(record_id)

            @property
            def next_record_id(self):
                return self.inner.next_record_id

            @property
            def num_records(self):
                return self.inner.num_records

        searcher = LoopOnly.from_records(list(workload.initial_records))
        evaluation = evaluate_dynamic_stream(
            "GB-KMV", searcher, workload, coalesce_writes=True
        )
        assert evaluation.num_operations == workload.num_operations
        assert evaluation.accuracy.f1 == 1.0
