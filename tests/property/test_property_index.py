"""Property-based tests for GBKMVIndex search invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GBKMVIndex
from repro.exact import BruteForceSearcher, containment_similarity

record_strategy = st.sets(st.integers(min_value=0, max_value=400), min_size=1, max_size=60)
dataset_strategy = st.lists(record_strategy, min_size=2, max_size=15)


class TestIndexProperties:
    @given(dataset=dataset_strategy, query=record_strategy, threshold=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_full_budget_search_is_exact(self, dataset, query, threshold):
        """With a 100% space budget every sketch is exact, so search is exact."""
        index = GBKMVIndex.build(dataset, space_fraction=1.0, buffer_size=0)
        oracle = BruteForceSearcher(dataset)
        expected = {hit.record_id for hit in oracle.search(query, threshold)}
        actual = {hit.record_id for hit in index.search(query, threshold)}
        assert actual == expected

    @given(dataset=dataset_strategy, query=record_strategy)
    @settings(max_examples=40, deadline=None)
    def test_scores_match_exact_containment_at_full_budget(self, dataset, query):
        index = GBKMVIndex.build(dataset, space_fraction=1.0, buffer_size=4)
        hits = index.search(query, threshold=0.0)
        for hit in hits:
            truth = containment_similarity(query, dataset[hit.record_id])
            assert abs(hit.score - truth) < 1e-9

    @given(dataset=dataset_strategy, query=record_strategy, threshold=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_results_sorted_and_above_threshold(self, dataset, query, threshold):
        index = GBKMVIndex.build(dataset, space_fraction=0.5, buffer_size=8)
        hits = index.search(query, threshold)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)
        if threshold > 0:
            for hit in hits:
                assert hit.score >= threshold - 1e-9

    @given(dataset=dataset_strategy, low=st.floats(0.0, 1.0), high=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_higher_threshold_returns_subset(self, dataset, low, high):
        if low > high:
            low, high = high, low
        index = GBKMVIndex.build(dataset, space_fraction=0.5, buffer_size=0)
        query = dataset[0]
        low_hits = {hit.record_id for hit in index.search(query, low)}
        high_hits = {hit.record_id for hit in index.search(query, high)}
        assert high_hits <= low_hits

    @given(dataset=dataset_strategy)
    @settings(max_examples=40, deadline=None)
    def test_space_never_exceeds_budget(self, dataset):
        index = GBKMVIndex.build(dataset, space_fraction=0.25, buffer_size=0)
        assert index.space_in_values() <= index.budget + 1e-9

    @given(dataset=dataset_strategy)
    @settings(max_examples=30, deadline=None)
    def test_self_query_at_full_budget_finds_itself(self, dataset):
        index = GBKMVIndex.build(dataset, space_fraction=1.0)
        for record_id, record in enumerate(dataset):
            hits = {hit.record_id for hit in index.search(record, threshold=1.0)}
            assert record_id in hits


#: A record of 80 distinct elements in every dataset, so a 70-element
#: buffer is always full and its signatures span two 64-bit words.
WIDE_RECORD = set(range(320, 400))
#: Elements no dataset holds: never in the buffer, so their mask is empty.
FRESH_ELEMENTS = set(range(10_000, 10_012))
THRESHOLDS = (0.0, 0.05, 0.5, 1.0)
ROW_BLOCK_SIZES = (1, 7, None)


def _oracle_estimates(index, query):
    """``(id, |Q ∩ X| estimate)`` of every live record, from per-record sketches."""
    sketch = index.query_sketch(query)
    return [
        (record_id, sketch.intersection_size_estimate(index.sketch(record_id)))
        for record_id in index.store.live_record_ids().tolist()
    ]


def _oracle_search(index, query, threshold):
    """The paper's per-record answer: ``(id, estimate / |Q|)`` of every live
    record whose estimate reaches ``threshold * |Q|``, decreasing score,
    ties by increasing id."""
    size = len(set(query))
    floor = threshold * size * (1.0 - 1e-12)
    hits = [
        (record_id, estimate / size)
        for record_id, estimate in _oracle_estimates(index, query)
        if estimate >= floor
    ]
    hits.sort(key=lambda pair: (-pair[1], pair[0]))
    return hits


def _pairs(hits):
    return [(hit.record_id, hit.score) for hit in hits]


class TestEngineMatchesScalarOracle:
    """search, search_many, top_k and top_k_many equal the per-record oracle."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_engine_matches_oracle_after_maintenance(self, data):
        records = [WIDE_RECORD] + data.draw(st.lists(record_strategy, min_size=2, max_size=14))
        buffer_size = data.draw(st.sampled_from([0, 6, 70]), label="buffer_size")
        space_fraction = data.draw(st.sampled_from([0.3, 1.0]), label="space_fraction")
        index = GBKMVIndex.build(
            records, space_fraction=space_fraction, buffer_size=buffer_size
        )
        assert index.store.num_words == -(-buffer_size // 64)

        # Deletes, updates (the updated ids move to the end, out of row
        # order), inserts, a compaction, then tombstones again.
        ids = list(range(len(records)))
        deleted = data.draw(st.sets(st.sampled_from(ids[1:]), max_size=len(ids) // 2))
        for record_id in sorted(deleted):
            index.delete(record_id)
        live = [record_id for record_id in ids if record_id not in deleted]
        for record_id in data.draw(st.lists(st.sampled_from(live), max_size=3, unique=True)):
            index.update(record_id, data.draw(record_strategy))
        index.insert_many(data.draw(st.lists(record_strategy, min_size=1, max_size=3)))
        index.store.compact_tombstones()
        index.delete(live[0])
        index.update(index.store.live_record_ids()[0], data.draw(record_strategy))

        vocabulary = list(index.vocabulary.elements)
        queries = [
            data.draw(record_strategy),
            records[data.draw(st.sampled_from(ids))],
            # Empty buffer mask: no element of it can be in the buffer.
            FRESH_ELEMENTS | {element for element in records[1] if element not in vocabulary},
        ]
        if vocabulary:
            # A buffer-only query: |H_Q| = |Q| reaches every query floor.
            queries.append(set(vocabulary[: data.draw(st.integers(1, len(vocabulary)))]))
        rankings = [_oracle_search(index, query, 0.0) for query in queries]
        num_live = index.num_records

        for threshold in THRESHOLDS:
            expected = [_oracle_search(index, query, threshold) for query in queries]
            for block in ROW_BLOCK_SIZES:
                got = index.search_many(queries, threshold, row_block_size=block)
                assert [_pairs(hits) for hits in got] == expected
            assert [_pairs(index.search(query, threshold)) for query in queries] == expected
        for k in (1, 3, 10, num_live + 3):
            expected = [ranking[:k] for ranking in rankings]
            for block in ROW_BLOCK_SIZES:
                got = index.top_k_many(queries, k, row_block_size=block)
                assert [_pairs(hits) for hits in got] == expected
            assert [_pairs(index.top_k(query, k)) for query in queries] == expected
