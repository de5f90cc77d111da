"""The fused whole-workload kernels must be indistinguishable from loops.

Store level, the fused kernels must equal per-query and per-bit
references.  Index level, the engine must give the same answers for
every ``row_block_size`` and across the edge cases: empty workload,
empty-value queries, all-tombstone store, duplicate values across
queries, single-query workloads, and ``row_block_size`` smaller than /
equal to / larger than ``num_rows``.  Scores are anchored on the
per-record sketch oracle in ``tests/property/test_property_index.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import ConfigurationError
from repro.baselines import GKMVSearchIndex, KMVSearchIndex
from repro.core import DEFAULT_ROW_BLOCK_SIZE, FrequentElementVocabulary, GBKMVIndex
from repro.core.index import SWEEP_BLOCK_CELLS, SketchStoreIndex
from repro.core.store import ColumnarSketchStore
from repro.datasets import sample_queries
from repro.hashing import UnitHash


def _as_pairs(results):
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


def _dense_counts(store, queries):
    """``match_workload``'s sparse counts scattered into a ``(B, num_rows)`` matrix."""
    dense = np.zeros((len(queries), store.num_rows), dtype=np.int64)
    query_ids, rows, counts = _match(store, queries)
    dense[query_ids, rows] = counts
    return dense


def _match(store, queries):
    """``match_workload`` over a list of per-query value arrays."""
    values = np.concatenate([np.empty(0), *queries])
    return store.match_workload(values, np.cumsum([0, *map(len, queries)]))


def _per_query_counts(store, queries):
    """``|L_Q ∩ L_X|`` per (query, record) by Python set intersection.

    For stores without deletes, where record ``i`` is physical row ``i``.
    """
    rows = [set(store.row_values(record_id).tolist()) for record_id in range(store.num_rows)]
    return np.array(
        [[len(set(query.tolist()) & row) for row in rows] for query in queries],
        dtype=np.int64,
    ).reshape(len(queries), store.num_rows)


def _bit_count_overlaps(store, masks):
    """``|H_Q ∩ H_X|`` per (query, record) by Python integer bit counting.

    For stores without deletes, where record ``i`` is physical row ``i``.
    """
    return np.array(
        [
            [(mask & store.mask_int(record_id)).bit_count() for record_id in range(store.num_rows)]
            for mask in masks
        ],
        dtype=np.int64,
    )


def _store_with_rows(rows, signature_bits=8):
    store = ColumnarSketchStore(signature_bits=signature_bits)
    for values, mask in rows:
        values = np.asarray(values, dtype=np.float64)
        store.append(
            values=values,
            mask=mask,
            residual_record_size=values.size + 1,
            record_size=values.size + 3,
        )
    store.finalize()
    return store


@pytest.fixture
def small_store():
    return _store_with_rows(
        [
            ([0.1, 0.2, 0.5], 0b101),
            ([0.2, 0.3], 0b011),
            ([], 0b110),
            ([0.05, 0.2, 0.5, 0.9], 0b000),
            ([0.5], 0b111),
        ]
    )


class TestStoreFusedKernels:
    """Store-level: fused counts/overlaps equal per-query references."""

    WORKLOADS = {
        "plain": [[0.2, 0.5], [0.1, 0.3, 0.9]],
        "duplicates_across_queries": [[0.2, 0.5], [0.2, 0.5], [0.5]],
        "empty_value_query": [[], [0.2], []],
        "single_query": [[0.05, 0.2]],
        "no_matches": [[0.15, 0.45]],
        "empty_workload": [],
    }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_fused_counts_match_per_query_kernels(self, small_store, name):
        queries = [np.asarray(q, dtype=np.float64) for q in self.WORKLOADS[name]]
        fused = _dense_counts(small_store, queries)
        looped = _per_query_counts(small_store, queries)
        assert np.array_equal(fused, looped)

    def test_sparse_counts_match_dense_block(self, small_store):
        # Exactly the nonzero cells, once each, in (query, row) order.
        for name in ("plain", "duplicates_across_queries"):
            queries = [np.asarray(q, dtype=np.float64) for q in self.WORKLOADS[name]]
            dense = _per_query_counts(small_store, queries)
            query_ids, rows, counts = _match(small_store, queries)
            expected_queries, expected_rows = np.nonzero(dense)
            assert query_ids.tolist() == expected_queries.tolist()
            assert rows.tolist() == expected_rows.tolist()
            assert counts.tolist() == dense[expected_queries, expected_rows].tolist()
            assert np.all(counts > 0)

    def test_packed_masks_overlap_matches_per_query(self, small_store):
        masks = [0b101, 0b0, 0b111, 0b010]
        words = small_store.pack_signature_masks(masks)
        fused = small_store.signature_overlap_block(words)
        looped = _bit_count_overlaps(small_store, masks)
        assert np.array_equal(fused, looped)
        # float accumulation must be exact for popcount-sized integers
        as_float = small_store.signature_overlap_block(words, dtype=np.float64)
        assert np.array_equal(as_float, looped.astype(np.float64))

    def test_overlap_blocking_matches_whole_pass(self, small_store):
        masks = [0b101, 0b110]
        words = small_store.pack_signature_masks(masks)
        whole = small_store.signature_overlap_block(words)
        assembled = np.concatenate(
            [
                small_store.signature_overlap_block(words, lo, min(lo + 2, 5))
                for lo in range(0, 5, 2)
            ],
            axis=1,
        )
        assert np.array_equal(assembled, whole)

    def test_multiword_signatures(self):
        # 70 bits -> two uint64 words; overlap must sum across words.
        wide = 1 << 69 | 0b1011
        store = _store_with_rows(
            [([0.1], wide), ([0.2], 0b1), ([], (1 << 69))], signature_bits=70
        )
        masks = [wide, 0b1, 1 << 69]
        words = store.pack_signature_masks(masks)
        assert words.shape == (3, 2)
        assert np.array_equal(
            store.signature_overlap_block(words), _bit_count_overlaps(store, masks)
        )

    def test_zero_signature_bits(self):
        store = _store_with_rows([([0.1], 0), ([0.4], 0)], signature_bits=0)
        words = store.pack_signature_masks([0, 0])
        assert words.shape == (2, 0)
        assert np.array_equal(
            store.signature_overlap_block(words), np.zeros((2, 2), dtype=np.int64)
        )
        with pytest.raises(ConfigurationError):
            store.pack_signature_masks([0b1])

    def test_match_workload_on_empty_store(self):
        store = _store_with_rows([], signature_bits=4)
        assert all(part.size == 0 for part in _match(store, [np.array([0.25])]))


@pytest.fixture(scope="module")
def engine_setup(zipf_records):
    index = GBKMVIndex.build(zipf_records, space_fraction=0.1)
    queries, _ids = sample_queries(zipf_records, num_queries=10, seed=3)
    return index, list(queries)


class TestFusedEngineIdentity:
    """Index-level: search_many equals looped search for every block size."""

    @pytest.mark.parametrize("block", [1, 17, 400, 10_000, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.4, 1.0])
    def test_block_size_sweep(self, engine_setup, threshold, block):
        # 400 records: blocks smaller than, equal to and larger than num_rows.
        index, queries = engine_setup
        looped = [index.search(query, threshold) for query in queries]
        fused = index.search_many(queries, threshold, row_block_size=block)
        assert _as_pairs(fused) == _as_pairs(looped)

    def test_single_query_workload(self, engine_setup):
        index, queries = engine_setup
        fused = index.search_many(queries[:1], 0.3, row_block_size=7)
        assert _as_pairs(fused) == _as_pairs([index.search(queries[0], 0.3)])

    def test_empty_workload(self, engine_setup):
        index, _queries = engine_setup
        assert index.search_many([], 0.5) == []
        assert index.top_k_many([], 3) == []

    def test_duplicate_queries_in_workload(self, engine_setup):
        index, queries = engine_setup
        workload = [queries[0], queries[1], queries[0]]
        fused = index.search_many(workload, 0.25, row_block_size=64)
        assert _as_pairs(fused) == _as_pairs(
            [index.search(query, 0.25) for query in workload]
        )

    def test_empty_value_queries(self, zipf_records):
        # A query made purely of frequent (vocabulary) elements keeps no
        # residual hash values; scoring must come entirely from the
        # signature overlap, fused and looped alike.
        index = GBKMVIndex.build(zipf_records[:100], space_fraction=0.1, buffer_size=8)
        buffer_query = list(index.vocabulary.elements)[:4]
        assert buffer_query
        assert index.query_sketch(buffer_query).residual.values.size == 0
        workload = [buffer_query, list(zipf_records[0]), buffer_query]
        for threshold in (0.0, 0.2):
            fused = index.search_many(workload, threshold, row_block_size=16)
            looped = [index.search(query, threshold) for query in workload]
            assert _as_pairs(fused) == _as_pairs(looped)

    def test_all_tombstone_store(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:40], space_fraction=0.2)
        queries = [zipf_records[0], zipf_records[5]]
        for record_id in list(range(40)):
            index.delete(record_id)
        for threshold in (0.0, 0.5):
            fused = index.search_many(queries, threshold, row_block_size=8)
            assert fused == [[], []]
            assert _as_pairs(fused) == _as_pairs(
                [index.search(query, threshold) for query in queries]
            )
        assert index.top_k_many(queries, 3, row_block_size=8) == [[], []]

    def test_deletes_and_blocking(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:200], space_fraction=0.1)
        for record_id in range(0, 60, 2):
            index.delete(record_id)
        queries, _ids = sample_queries(zipf_records[:200], num_queries=6, seed=9)
        looped = [index.search(query, 0.3) for query in queries]
        for block in (13, 200, 500):
            fused = index.search_many(queries, 0.3, row_block_size=block)
            assert _as_pairs(fused) == _as_pairs(looped)

    def test_invalid_row_block_size_rejected(self, engine_setup):
        index, queries = engine_setup
        with pytest.raises(ConfigurationError):
            index.search_many(queries[:1], 0.5, row_block_size=0)
        with pytest.raises(ConfigurationError):
            index.top_k_many(queries[:1], 3, row_block_size=-4)


def _buffer_size(index, query):
    """``|H_Q|``: the query's buffer elements."""
    return index.query_sketch(query).buffer.mask.bit_count()


class TestWorkloadStats:
    def test_blocked_execution_never_materialises_dense(self, engine_setup):
        # Threshold 0 sweeps every query, so every block is visited.
        index, queries = engine_setup
        index.search_many(queries, 0.0, row_block_size=64)
        stats = index.last_workload_stats
        assert stats is not None
        assert stats.row_block_size == 64
        assert stats.swept_queries == len(queries)
        assert stats.peak_block_cells == len(queries) * 64
        assert stats.peak_block_cells < stats.dense_cells
        assert stats.num_blocks == -(-stats.num_rows // 64)

    def test_default_block_size(self, engine_setup):
        # search_many grows its default block while few queries are swept;
        # top_k_many sweeps DEFAULT_ROW_BLOCK_SIZE rows per block.
        index, queries = engine_setup
        index.search_many(queries, 0.5)
        stats = index.last_workload_stats
        assert 0 < stats.swept_queries
        assert stats.row_block_size == max(
            DEFAULT_ROW_BLOCK_SIZE, SWEEP_BLOCK_CELLS // stats.swept_queries
        )
        index.search_many(queries * 30, 0.0)
        assert index.last_workload_stats.row_block_size == DEFAULT_ROW_BLOCK_SIZE
        index.top_k_many(queries, 3)
        assert index.last_workload_stats.row_block_size == DEFAULT_ROW_BLOCK_SIZE

    def test_estimator_pruning_observed(self, engine_setup):
        # The Eq-25 estimator must only ever see pairs with a nonzero
        # residual intersection — never the full (B, num_rows) grid.
        index, queries = engine_setup
        index.search_many(queries, 0.5)
        stats = index.last_workload_stats
        assert 0 < stats.estimator_pairs < stats.dense_cells

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.2, 0.5, 1.0])
    def test_only_queries_reaching_their_floor_are_swept(self, engine_setup, threshold):
        index, queries = engine_setup
        floors = [np.ceil(threshold * len(set(q)) * (1.0 - 1e-12)) for q in queries]
        expected = sum(_buffer_size(index, q) >= f for q, f in zip(queries, floors))
        index.search_many(queries, threshold, row_block_size=64)
        stats = index.last_workload_stats
        assert stats.swept_queries == expected
        assert stats.num_blocks == (-(-stats.num_rows // 64) if expected else 0)
        assert stats.peak_block_cells == expected * 64

    def test_no_blocks_when_every_query_is_below_its_floor(self, zipf_records):
        # Without a buffer |H_Q| = 0, below every positive threshold's floor.
        index = GBKMVIndex.build(zipf_records[:200], space_fraction=0.2, buffer_size=0)
        queries, _ids = sample_queries(zipf_records[:200], num_queries=6, seed=4)
        hits = index.search_many(queries, 0.3, row_block_size=16)
        stats = index.last_workload_stats
        assert (stats.swept_queries, stats.num_blocks, stats.peak_block_cells) == (0, 0, 0)
        assert stats.hit_pairs == sum(len(h) for h in hits) > 0

    def test_single_query_calls_report_stats(self, engine_setup):
        index, queries = engine_setup
        index.search(queries[0], 0.5)
        assert index.last_workload_stats.num_queries == 1
        index.last_workload_stats = None
        index.top_k(queries[0], 3)
        stats = index.last_workload_stats
        assert (stats.num_queries, stats.hit_pairs) == (1, 3)


class TestTopKMany:
    @pytest.mark.parametrize("block", [9, 400, 1000, None])
    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_matches_looped_top_k(self, engine_setup, k, block):
        index, queries = engine_setup
        looped = [index.top_k(query, k) for query in queries]
        many = index.top_k_many(queries, k, row_block_size=block)
        assert _as_pairs(many) == _as_pairs(looped)

    def test_k_larger_than_store(self, engine_setup):
        index, queries = engine_setup
        many = index.top_k_many(queries[:2], 10_000, row_block_size=37)
        looped = [index.top_k(query, 10_000) for query in queries[:2]]
        assert _as_pairs(many) == _as_pairs(looped)

    def test_with_deletes(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:120], space_fraction=0.15)
        for record_id in range(0, 40, 3):
            index.delete(record_id)
        queries, _ids = sample_queries(zipf_records[:120], num_queries=5, seed=21)
        many = index.top_k_many(queries, 6, row_block_size=11)
        looped = [index.top_k(query, 6) for query in queries]
        assert _as_pairs(many) == _as_pairs(looped)

    def test_invalid_k_rejected(self, engine_setup):
        index, queries = engine_setup
        with pytest.raises(ConfigurationError):
            index.top_k_many(queries[:1], 0)
        for k in (2.5, 3.0, "3"):
            with pytest.raises(ConfigurationError):
                index.top_k_many(queries[:1], k)
            with pytest.raises(ConfigurationError):
                index.top_k(queries[0], k)
        assert index.top_k(queries[0], np.int64(2)) == index.top_k(queries[0], 2)


class TestKMVFusedPath:
    @pytest.mark.parametrize("block", [5, 150, 4096, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.35, 1.0])
    def test_matches_looped_search(self, zipf_records, threshold, block):
        index = KMVSearchIndex.build(zipf_records[:150], space_fraction=0.1)
        queries, _ids = sample_queries(zipf_records[:150], num_queries=8, seed=6)
        looped = [index.search(query, threshold) for query in queries]
        fused = index.search_many(queries, threshold, row_block_size=block)
        assert _as_pairs(fused) == _as_pairs(looped)

    def test_single_and_empty_workloads(self, zipf_records):
        index = KMVSearchIndex.build(zipf_records[:60], space_fraction=0.2)
        assert index.search_many([], 0.5) == []
        fused = index.search_many([zipf_records[0]], 0.4, row_block_size=7)
        assert _as_pairs(fused) == _as_pairs([index.search(zipf_records[0], 0.4)])

    def test_with_deletes_and_updates(self, zipf_records):
        index = KMVSearchIndex.build(zipf_records[:100], space_fraction=0.15)
        for record_id in range(0, 30, 2):
            index.delete(record_id)
        index.update(31, zipf_records[0])
        queries, _ids = sample_queries(zipf_records[:100], num_queries=6, seed=8)
        looped = [index.search(query, 0.3) for query in queries]
        fused = index.search_many(queries, 0.3, row_block_size=16)
        assert _as_pairs(fused) == _as_pairs(looped)


def _typed_records():
    """Records of integers, of strings, and of both, with hot elements of each."""
    rng = np.random.default_rng(11)
    records = []
    for position in range(600):
        ints = np.floor(900 * rng.random(rng.integers(3, 12)) ** 2.0).astype(int).tolist()
        words = [f"w{int(x)}" for x in np.floor(300 * rng.random(rng.integers(2, 8)) ** 2.0)]
        records.append([ints, words, ints + words][position % 3])
    return records


def _typed_index(backend):
    records = _typed_records()
    if backend == "gbkmv":
        return GBKMVIndex.build(records, space_fraction=0.3, buffer_size=12), records
    if backend == "gkmv":
        return GKMVSearchIndex.build(records, space_fraction=0.3), records
    return KMVSearchIndex.build(records, space_fraction=0.3), records


def _typed_queries(index, records):
    """One query of every shape a workload may mix."""
    hot = list(index.vocabulary.elements[:4]) if hasattr(index, "vocabulary") else []
    return [
        np.array(records[0], dtype=np.int64),  # integer ndarray
        list(records[3]),  # integers, as a list
        list(records[1]),  # strings
        list(records[2]) + ["w1", 3],  # mixed types
        [records[5][0]] * 3 + records[5] + records[5][:2],  # repeated elements
        hot or [0, 1, "w0"],  # buffer elements only (gbkmv)
        [10**9, 10**9 + 1, "never-seen"],  # unseen elements only
        tuple(records[8]),
        set(records[11]),
    ]


@pytest.fixture(params=["gbkmv", "gkmv", "kmv"])
def typed_setup(request):
    index, records = _typed_index(request.param)
    return index, _typed_queries(index, records)


class TestBulkPreparation:
    """A workload is sketched in bulk, a single query record by record, and
    the two give the same answers."""

    def test_workload_equals_queries_alone(self, typed_setup, monkeypatch):
        index, queries = typed_setup
        sketched_alone = []
        sketch_each = SketchStoreIndex._sketch_each

        def recording(self, each):
            sketched_alone.append(len(each))
            return sketch_each(self, each)

        monkeypatch.setattr(SketchStoreIndex, "_sketch_each", recording)
        explicit = [2 * len(set(query)) + 1 for query in queries]
        for sizes in (None, explicit):
            alone_sizes = [None] * len(queries) if sizes is None else sizes
            for threshold in (0.0, 0.3):
                alone = [
                    index.search(query, threshold, query_size=size)
                    for query, size in zip(queries, alone_sizes)
                ]
                fused = index.search_many(queries, threshold, query_sizes=sizes)
                assert _as_pairs(fused) == _as_pairs(alone)
            for k in (1, 5):
                alone = [
                    index.top_k(query, k, query_size=size)
                    for query, size in zip(queries, alone_sizes)
                ]
                fused = index.top_k_many(queries, k, query_sizes=sizes)
                assert _as_pairs(fused) == _as_pairs(alone)
        # Only the one-query calls were sketched one query at a time.
        assert sketched_alone == [1] * (8 * len(queries))

    @pytest.mark.parametrize(
        "bad, size",
        [([], None), ([1, 2.5], None), (np.array([1.5, 2.5]), None), ([1, 2], 0)],
        ids=["empty", "float-element", "float-array", "query-size-0"],
    )
    def test_malformed_query_raises_its_own_error(self, typed_setup, bad, size):
        index, queries = typed_setup
        workload = queries[:2] + [bad] + queries[2:4]
        sizes = None if size is None else [3, 3, size, 3, 3]
        for run_alone, run_fused in (
            (
                lambda: index.search(bad, 0.5, query_size=size),
                lambda: index.search_many(workload, 0.5, query_sizes=sizes),
            ),
            (
                lambda: index.top_k(bad, 3, query_size=size),
                lambda: index.top_k_many(workload, 3, query_sizes=sizes),
            ),
        ):
            with pytest.raises(ConfigurationError) as alone:
                run_alone()
            with pytest.raises(ConfigurationError) as fused:
                run_fused()
            assert type(fused.value) is type(alone.value)
            assert str(fused.value) == str(alone.value)

    def test_colliding_vocabulary_sketches_queries_one_by_one(self):
        # "a" and b"a" share a fingerprint: the bulk kernel cannot split a
        # batch over this vocabulary, so a workload falls back to the
        # per-record split that a single query takes.
        vocabulary = FrequentElementVocabulary(["a", b"a"])
        records = [["a", "x", "y"], [b"a", "x"], ["a", b"a", "z"], ["x", "y", "z"]]
        index = GBKMVIndex.from_parameters(
            records, vocabulary=vocabulary, threshold=0.9, hasher=UnitHash(seed=0), budget=10.0
        )
        queries = [["a", "x"], [b"a", "z"], ["y"]]
        for threshold in (0.0, 0.5):
            alone = [index.search(query, threshold) for query in queries]
            assert _as_pairs(index.search_many(queries, threshold)) == _as_pairs(alone)
        alone = [index.top_k(query, 2) for query in queries]
        assert _as_pairs(index.top_k_many(queries, 2)) == _as_pairs(alone)
