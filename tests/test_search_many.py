"""The batched query engine must be indistinguishable from looped search."""

from __future__ import annotations

import pytest

from repro._errors import ConfigurationError
from repro.baselines import GKMVSearchIndex, KMVSearchIndex
from repro.core import GBKMVIndex
from repro.datasets import sample_queries
from repro.evaluation import evaluate_search_method, exact_result_sets


def _as_pairs(results):
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


@pytest.fixture(scope="module")
def workload(zipf_records):
    queries, _ids = sample_queries(zipf_records, num_queries=12, seed=2)
    return queries


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.7, 1.0])
class TestIdentityWithLoopedSearch:
    def test_gbkmv(self, zipf_records, workload, threshold):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.1)
        looped = [index.search(query, threshold) for query in workload]
        batched = index.search_many(workload, threshold)
        assert _as_pairs(batched) == _as_pairs(looped)

    def test_kmv_baseline(self, zipf_records, workload, threshold):
        index = KMVSearchIndex.build(zipf_records, space_fraction=0.1)
        looped = [index.search(query, threshold) for query in workload]
        batched = index.search_many(workload, threshold)
        assert _as_pairs(batched) == _as_pairs(looped)

    def test_gkmv_baseline(self, zipf_records, workload, threshold):
        index = GKMVSearchIndex.build(zipf_records, space_fraction=0.1)
        looped = [index.search(query, threshold) for query in workload]
        batched = index.search_many(workload, threshold)
        assert _as_pairs(batched) == _as_pairs(looped)


class TestSearchManyValidation:
    def test_empty_workload(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:50], space_fraction=0.2)
        assert index.search_many([], 0.5) == []

    def test_invalid_threshold_rejected(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:50], space_fraction=0.2)
        with pytest.raises(ConfigurationError):
            index.search_many([zipf_records[0]], 1.5)

    def test_mismatched_query_sizes_rejected(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:50], space_fraction=0.2)
        with pytest.raises(ConfigurationError):
            index.search_many([zipf_records[0]], 0.5, query_sizes=[10, 20])

    def test_explicit_query_sizes_match_looped(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:100], space_fraction=0.2)
        queries = [zipf_records[0], zipf_records[3]]
        sizes = [len(set(query)) * 2 for query in queries]
        looped = [
            index.search(query, 0.25, query_size=size)
            for query, size in zip(queries, sizes)
        ]
        batched = index.search_many(queries, 0.25, query_sizes=sizes)
        assert _as_pairs(batched) == _as_pairs(looped)

    def test_empty_query_rejected(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:50], space_fraction=0.2)
        with pytest.raises(ConfigurationError):
            index.search_many([[]], 0.5)


class TestHarnessBatchedPath:
    def test_batched_and_looped_agree_on_accuracy(self, zipf_records, workload):
        records = zipf_records[:150]
        queries = workload[:6]
        truth = exact_result_sets(records, queries, 0.5)
        index = GBKMVIndex.build(records, space_fraction=0.1)
        batched = evaluate_search_method(
            "gbkmv", index, queries, truth, 0.5, use_batched=True
        )
        looped = evaluate_search_method(
            "gbkmv", index, queries, truth, 0.5, use_batched=False
        )
        assert batched.accuracy == looped.accuracy
