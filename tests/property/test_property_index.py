"""Property-based tests for GBKMVIndex search invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.index as index_module
from repro.baselines import GKMVSearchIndex
from repro.core import DEFAULT_ROW_BLOCK_SIZE, GBKMVIndex
from repro.core.sorting import PACKED_SORT_MIN_SIZE, stable_lexsort
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

    @pytest.mark.parametrize("buffer_size", [0, 70])
    def test_engine_matches_oracle_above_the_packed_sort_cutoff(
        self, buffer_size, monkeypatch
    ):
        # The hypothesis case above draws at most 15 records, so every sort
        # it reaches runs on numpy; here the engine's hit and top-k sorts
        # run on the packed passes.  Duplicated records tie across ids.
        rng = np.random.default_rng(buffer_size)
        distinct = [
            set(rng.integers(0, 400, rng.integers(5, 60)).tolist()) for _ in range(300)
        ]
        records = [WIDE_RECORD] + distinct + [distinct[i] for i in rng.integers(0, 300, 120)]
        index = GBKMVIndex.build(records, space_fraction=0.3, buffer_size=buffer_size)
        for record_id in range(1, len(records), 9):
            index.delete(record_id)
        index.update(2, records[5])
        index.store.compact_tombstones()
        index.delete(3)
        queries = [records[i] for i in (0, 5, 7, 301, 400)] + [set(range(0, 400, 3))]
        num_live = index.num_records
        expected = [_oracle_search(index, query, 0.0) for query in queries]

        sort_sizes: list[int] = []

        def recording_lexsort(keys):
            sort_sizes.append(len(keys[0]))
            return stable_lexsort(keys)

        monkeypatch.setattr(index_module, "stable_lexsort", recording_lexsort)
        got = index.search_many(queries, 0.0)
        assert sort_sizes == [sum(len(hits) for hits in got)]
        assert sort_sizes[0] >= PACKED_SORT_MIN_SIZE
        assert [_pairs(hits) for hits in got] == expected
        for k in (num_live, num_live // 2):
            sort_sizes.clear()
            got = index.top_k_many(queries, k)
            assert sort_sizes[0] >= PACKED_SORT_MIN_SIZE  # the first _merge_top
            assert [_pairs(hits) for hits in got] == [ranking[:k] for ranking in expected]


#: Records of the stopping-rule stores: more than three default sweep blocks.
STOP_RULE_RECORDS = 3 * DEFAULT_ROW_BLOCK_SIZE + 400
#: The smallest ids, tombstoned so that filling a list skips them.
STOP_RULE_DELETED = 150


def _stop_rule_records(seed):
    """Sparse power-law records: a few hot elements, most of them rare."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(4, 16, STOP_RULE_RECORDS)
    elements = np.floor(40_000 * rng.random(int(sizes.sum())) ** 2.5).astype(np.int64)
    return [set(chunk.tolist()) for chunk in np.split(elements, np.cumsum(sizes)[:-1])]


def _oracle_rankings(index, queries):
    """``_oracle_search(index, query, 0.0)`` of every query, each record sketched once."""
    sketches = [
        (record_id, index.sketch(record_id))
        for record_id in index.store.live_record_ids().tolist()
    ]
    rankings = []
    for query in queries:
        query_sketch = index.query_sketch(query)
        size = len(set(query))
        ranking = [
            (record_id, query_sketch.intersection_size_estimate(sketch) / size)
            for record_id, sketch in sketches
        ]
        ranking.sort(key=lambda pair: (-pair[1], pair[0]))
        rankings.append(ranking)
    return rankings


def _stop_rule_index(backend, history):
    """A gbkmv or gkmv index over the stopping-rule records after ``history``.

    ``"built"`` is never updated; ``"deleted"`` tombstones the smallest ids
    and compacts, so ids still ascend along the rows but are not the rows;
    ``"updated"`` also updates records, whose ids move to the last rows,
    then compacts once.
    """
    records = _stop_rule_records(7)
    cls = GKMVSearchIndex if backend == "gkmv" else GBKMVIndex
    settings = {} if backend == "gkmv" else {"buffer_size": 24}
    index = cls.build(records, space_fraction=0.2, **settings)
    if history == "built":
        return index, records
    for record_id in range(STOP_RULE_DELETED):
        index.delete(record_id)
    for record_id in range(STOP_RULE_DELETED, STOP_RULE_RECORDS, 997):
        index.delete(record_id)
    if history == "updated":
        for record_id in (STOP_RULE_DELETED + 1, 4_321, 9_876):
            index.update(record_id, records[record_id + 1] | {7, 11})
    index.store.compact_tombstones()
    assert index.store.ids_ascending == (history != "updated")
    return index, records


def _stop_rule_queries(index, records):
    """Zero-bound queries (no buffer element) and mixed ones, of equal count."""
    vocabulary = set(index.vocabulary.elements)
    picks = (STOP_RULE_DELETED + 3, 777, 5_000, 12_001)
    zero = [
        {element for element in records[position] if element not in vocabulary}
        | {1_000_000 + position}
        for position in picks
    ]
    # A query of unseen elements only shares nothing with any record.
    zero.append({2_000_000, 2_000_001, 2_000_002})
    mixed = list(zero[:2])
    if vocabulary:
        hot = index.vocabulary.elements[0]
        mixed += [records[picks[2]] | {hot}, set(index.vocabulary.elements[:3]), records[picks[3]]]
    return zero, mixed


class TestTopKStoppingRule:
    """``top_k_many`` over several sweep blocks equals the oracle ranking.

    A query whose bound ``|H_Q| / |Q|`` is 0 is completed with the smallest
    live ids it does not hold and never swept; the sweep stops once no
    bound can enter a list, when ids ascend along the rows.
    """

    @pytest.mark.parametrize("history", ["built", "deleted", "updated"])
    @pytest.mark.parametrize("backend", ["gbkmv", "gkmv"])
    def test_top_k_many_matches_oracle(self, backend, history):
        index, records = _stop_rule_index(backend, history)
        assert index.store.num_rows > 3 * DEFAULT_ROW_BLOCK_SIZE
        zero, mixed = _stop_rule_queries(index, records)
        for queries in (zero, mixed):
            rankings = _oracle_rankings(index, queries)
            index.search_many(queries, 0.0)
            beyond_pairs = index.last_workload_stats.estimator_pairs + 5
            for k in (1, 10, beyond_pairs):
                expected = [ranking[:k] for ranking in rankings]
                for block in (None, 1_000):
                    got = index.top_k_many(queries, k, row_block_size=block)
                    assert [_pairs(hits) for hits in got] == expected
                assert [_pairs(index.top_k(query, k)) for query in queries] == expected
            if queries is zero:
                stats = index.last_workload_stats
                assert (stats.swept_queries, stats.num_blocks) == (0, 0)
        # Filling a list skipped the tombstoned smallest ids.
        if history != "built":
            first = index.top_k(zero[-1], 3)
            assert [hit.record_id for hit in first] == index.store.smallest_live_ids(3).tolist()
            assert first[0].record_id >= STOP_RULE_DELETED

    @pytest.mark.parametrize("backend", ["gbkmv", "gkmv"])
    def test_zero_bound_workload_is_never_swept(self, backend):
        index, records = _stop_rule_index(backend, "built")
        zero, _mixed = _stop_rule_queries(index, records)
        hits = index.top_k_many(zero, 10)
        stats = index.last_workload_stats
        assert (stats.swept_queries, stats.num_blocks, stats.peak_block_cells) == (0, 0, 0)
        assert stats.hit_pairs == sum(len(h) for h in hits) == 10 * len(zero)

    def test_sweep_stops_at_its_bound(self):
        # Every query holds the hottest buffer element, which many records of
        # the first block share: their lists settle there, and the ids of
        # the later blocks are all larger.
        index, records = _stop_rule_index("gbkmv", "built")
        vocabulary = set(index.vocabulary.elements)
        hot = index.vocabulary.elements[0]
        queries = [
            {element for element in records[position] if element not in vocabulary} | {hot}
            for position in (5, 6_000, 12_000)
        ]
        got = index.top_k_many(queries, 10)
        stats = index.last_workload_stats
        assert stats.swept_queries == len(queries)
        assert 0 < stats.num_blocks < -(-stats.num_rows // DEFAULT_ROW_BLOCK_SIZE)
        expected = [ranking[:10] for ranking in _oracle_rankings(index, queries)]
        assert [_pairs(hits) for hits in got] == expected
