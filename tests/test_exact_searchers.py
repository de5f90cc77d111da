"""Unit tests for the exact searchers (brute force, FrequentSet, PPjoin*)."""

from __future__ import annotations

import pytest

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api import Capabilities, ExactSearchConfig, create_index, get_backend
from repro.exact import BruteForceSearcher, FrequentSetSearcher, PPJoinSearcher

SEARCHERS = [BruteForceSearcher, FrequentSetSearcher, PPJoinSearcher]


@pytest.mark.parametrize("searcher_cls", SEARCHERS)
class TestCommonBehaviour:
    def test_paper_example_1(self, searcher_cls, tiny_records, example_query):
        searcher = searcher_cls(tiny_records)
        hits = searcher.search(example_query, threshold=0.5)
        assert {hit.record_id for hit in hits} == {0, 1}

    def test_scores_are_exact_containment(self, searcher_cls, tiny_records, example_query):
        searcher = searcher_cls(tiny_records)
        scores = {hit.record_id: hit.score for hit in searcher.search(example_query, 0.3)}
        assert scores[0] == pytest.approx(4 / 6)
        assert scores[1] == pytest.approx(3 / 6)
        assert scores[2] == pytest.approx(2 / 6)

    def test_results_sorted_descending(self, searcher_cls, tiny_records, example_query):
        searcher = searcher_cls(tiny_records)
        scores = [hit.score for hit in searcher.search(example_query, 0.0)]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_one(self, searcher_cls, tiny_records):
        searcher = searcher_cls(tiny_records)
        hits = searcher.search(["e2", "e3"], threshold=1.0)
        assert {hit.record_id for hit in hits} == {0, 1}

    def test_unknown_elements_do_not_match(self, searcher_cls, tiny_records):
        searcher = searcher_cls(tiny_records)
        assert searcher.search(["zz", "yy"], threshold=0.5) == []

    def test_validation(self, searcher_cls, tiny_records):
        with pytest.raises(EmptyDatasetError):
            searcher_cls([])
        with pytest.raises(ConfigurationError):
            searcher_cls([["a"], []])
        searcher = searcher_cls(tiny_records)
        with pytest.raises(ConfigurationError):
            searcher.search([], 0.5)
        with pytest.raises(ConfigurationError):
            searcher.search(["e1"], 1.5)

    def test_num_records(self, searcher_cls, tiny_records):
        assert searcher_cls(tiny_records).num_records == 4
        assert len(searcher_cls(tiny_records)) == 4


class TestAgreementOnLargerData:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7, 0.9])
    def test_all_exact_methods_agree(self, zipf_records, threshold):
        records = zipf_records[:150]
        brute = BruteForceSearcher(records)
        frequent = FrequentSetSearcher(records)
        ppjoin = PPJoinSearcher(records)
        for query in records[:8]:
            expected = {hit.record_id for hit in brute.search(query, threshold)}
            assert {hit.record_id for hit in frequent.search(query, threshold)} == expected
            assert {hit.record_id for hit in ppjoin.search(query, threshold)} == expected

    def test_agreement_on_external_queries(self, zipf_records):
        records = zipf_records[:100]
        brute = BruteForceSearcher(records)
        ppjoin = PPJoinSearcher(records)
        frequent = FrequentSetSearcher(records)
        # Queries assembled from two records plus unseen elements.
        query = list(set(records[0]) | set(records[1]))[:40] + [999_999, 888_888]
        for threshold in (0.2, 0.5, 0.8):
            expected = {hit.record_id for hit in brute.search(query, threshold)}
            assert {hit.record_id for hit in ppjoin.search(query, threshold)} == expected
            assert {hit.record_id for hit in frequent.search(query, threshold)} == expected


class TestSearcherSpecifics:
    def test_brute_force_record_access(self, tiny_records):
        searcher = BruteForceSearcher(tiny_records)
        assert searcher.record(1) == frozenset(tiny_records[1])

    def test_frequent_set_overlap_counts(self, tiny_records, example_query):
        searcher = FrequentSetSearcher(tiny_records)
        counts = searcher.overlap_counts(example_query)
        assert list(counts) == [4, 3, 2, 2]
        assert searcher.num_distinct_elements == len(
            {element for record in tiny_records for element in record}
        )

    def test_ppjoin_zero_threshold_returns_everything(self, tiny_records, example_query):
        searcher = PPJoinSearcher(tiny_records)
        assert len(searcher.search(example_query, 0.0)) == len(tiny_records)

    def test_ppjoin_threshold_unreachable_for_unknown_query(self, tiny_records):
        searcher = PPJoinSearcher(tiny_records)
        # Only one of four query tokens exists in the dataset, so 0.5 * 4 = 2
        # overlapping tokens can never be reached.
        assert searcher.search(["e1", "zz", "yy", "xx"], threshold=0.6) == []


@pytest.mark.parametrize(
    "backend_id, searcher_cls",
    [
        ("brute-force", BruteForceSearcher),
        ("frequent-set", FrequentSetSearcher),
        ("ppjoin", PPJoinSearcher),
    ],
)
def test_registered_backend_is_the_searcher_class(backend_id, searcher_cls, tiny_records):
    assert get_backend(backend_id) is searcher_cls
    expected = Capabilities(
        dynamic=False, batched=False, persistent=False, exact=True, scored=True
    )
    for index in (
        searcher_cls(tiny_records),
        create_index(backend_id, tiny_records),
        create_index(backend_id, tiny_records, ExactSearchConfig()),
    ):
        assert type(index) is searcher_cls
        assert index.capabilities == expected
