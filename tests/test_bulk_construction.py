"""Bulk construction pipeline: bitwise identity with the per-record path.

The contract of the bulk builder is absolute: for any dataset the
vectorised pipeline must produce *exactly* the index the record-at-a-time
path produces — same vocabulary, same threshold, same store state arrays,
same ``search_many`` output — and ``insert_many`` must be
indistinguishable from looping ``insert``.  These tests pin that contract
on the dataset shapes that exercise every branch: power-law data,
duplicate elements within a record, singleton records, all-buffer and
all-residual records, string elements, and batched ingest on stores that
have already seen deletes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.baselines import GKMVSearchIndex, KMVSearchIndex
from repro.core import (
    BuildProfile,
    FingerprintCollisionError,
    FrequentElementVocabulary,
    GBKMVIndex,
    bulk_kmv_value_rows,
    flatten_records,
    slice_flat_records,
    vocabulary_lookup,
)
from repro.core import bulk
from repro.core.sorting import stable_argsort
from repro.datasets import generate_zipf_dataset, sample_queries
from repro.hashing import UnitHash, fingerprint_many

THRESHOLD = 0.5


def powerlaw_records(num_records: int = 400, seed: int = 3) -> list[list[int]]:
    return generate_zipf_dataset(
        num_records=num_records,
        universe_size=3_000,
        element_exponent=1.15,
        size_exponent=3.0,
        min_record_size=4,
        max_record_size=50,
        seed=seed,
    )


def assert_same_index(bulk: GBKMVIndex, reference: GBKMVIndex, queries) -> None:
    """Vocabulary, threshold, store state and search output all match."""
    assert bulk.vocabulary == reference.vocabulary
    assert bulk.threshold == reference.threshold
    bulk_state = bulk.store.state_arrays()
    reference_state = reference.store.state_arrays()
    assert bulk_state.keys() == reference_state.keys()
    for name in bulk_state:
        assert np.array_equal(bulk_state[name], reference_state[name]), name
    assert bulk.search_many(queries, THRESHOLD) == reference.search_many(
        queries, THRESHOLD
    )


class TestFlattenRecords:
    def test_csr_shape_and_per_record_dedup(self):
        flat = flatten_records([[1, 2, 2, 3], [3, 3], [7]])
        assert flat.num_records == 3
        assert flat.record_sizes.tolist() == [3, 1, 1]
        assert sorted(flat.record_elements(0)) == [1, 2, 3]
        assert flat.record_elements(2) == [7]
        # 3 appears in two records: its count is the containing-record count.
        position = flat.unique_fingerprints.tolist().index(3)
        assert flat.counts[position] == 2

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            flatten_records([])

    def test_empty_record_raises(self):
        with pytest.raises(ConfigurationError):
            flatten_records([[1], []])


class TestBuildIdentity:
    @pytest.mark.parametrize("space_fraction", [0.05, 0.10, 0.30])
    def test_powerlaw_dataset(self, space_fraction):
        records = powerlaw_records()
        queries, _ = sample_queries(records, num_queries=12, seed=9)
        bulk = GBKMVIndex.build(records, space_fraction=space_fraction)
        reference = GBKMVIndex.build(
            records, space_fraction=space_fraction, method="per-record"
        )
        assert_same_index(bulk, reference, queries)

    def test_duplicate_elements_within_records(self):
        records = [[1, 1, 1, 2], [2, 2, 3, 3, 3], [4, 4, 4, 4]]
        bulk = GBKMVIndex.build(records, space_fraction=0.5)
        reference = GBKMVIndex.build(records, space_fraction=0.5, method="per-record")
        assert_same_index(bulk, reference, records)

    def test_singleton_records(self):
        records = [[5], [6], [5], [7]]
        bulk = GBKMVIndex.build(records, space_fraction=0.5)
        reference = GBKMVIndex.build(records, space_fraction=0.5, method="per-record")
        assert_same_index(bulk, reference, records)

    def test_all_buffer_records(self):
        # Buffer wide enough for the whole universe: residuals are empty.
        records = [[1, 2], [2, 3], [1, 3], [1, 2, 3]]
        bulk = GBKMVIndex.build(records, space_fraction=1.0, buffer_size=3)
        reference = GBKMVIndex.build(
            records, space_fraction=1.0, buffer_size=3, method="per-record"
        )
        assert bulk.buffer_size == 3
        assert bulk.store.total_values == 0
        assert_same_index(bulk, reference, records)

    def test_all_residual_records(self):
        records = powerlaw_records(num_records=120)
        bulk = GBKMVIndex.build(records, space_fraction=0.2, buffer_size=0)
        reference = GBKMVIndex.build(
            records, space_fraction=0.2, buffer_size=0, method="per-record"
        )
        assert bulk.buffer_size == 0
        assert_same_index(bulk, reference, records[:10])

    def test_string_elements(self):
        records = [[f"tok{e}" for e in record] for record in powerlaw_records(150)]
        queries, _ = sample_queries(records, num_queries=8, seed=5)
        bulk = GBKMVIndex.build(records, space_fraction=0.15)
        reference = GBKMVIndex.build(
            records, space_fraction=0.15, method="per-record"
        )
        assert_same_index(bulk, reference, queries)

    def test_negative_and_large_int_elements(self):
        records = [[-5, -4, 3], [3, 2**63 + 7, -4], [-5, 2**63 + 7, 11]]
        bulk = GBKMVIndex.build(records, space_fraction=1.0)
        reference = GBKMVIndex.build(records, space_fraction=1.0, method="per-record")
        assert_same_index(bulk, reference, records)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            GBKMVIndex.build([[1, 2]], method="turbo")

    def test_ndarray_records_match_list_records(self):
        # Integer ndarray records take the no-Python concatenate fast
        # path of flatten_records; the index must be bitwise identical.
        lists = powerlaw_records(num_records=150)
        arrays = [np.asarray(record, dtype=np.int64) for record in lists]
        from_arrays = GBKMVIndex.build(arrays, space_fraction=0.2)
        from_lists = GBKMVIndex.build(lists, space_fraction=0.2)
        assert_same_index(from_arrays, from_lists, lists[:10])

    def test_mixed_width_ndarray_records_fall_back_losslessly(self):
        # int64 + uint64 arrays concatenate to float64; the fast path
        # must detect the lossy promotion and take the exact route.
        records = [
            np.array([-5, -4, 3], dtype=np.int64),
            np.array([3, 2**63 + 7], dtype=np.uint64),
            np.array([11, 2**63 + 7], dtype=np.uint64),
        ]
        reference = [[-5, -4, 3], [3, 2**63 + 7], [11, 2**63 + 7]]
        bulk = GBKMVIndex.build(records, space_fraction=1.0)
        expected = GBKMVIndex.build(
            reference, space_fraction=1.0, method="per-record"
        )
        assert_same_index(bulk, expected, reference)

    @pytest.mark.parametrize("narrow_dtype", [np.uint8, np.int32])
    def test_mixed_integer_dtype_ndarray_records(self, narrow_dtype):
        # Every other record narrowed: the per-record path ranks numpy
        # scalars of two dtypes, the bulk path Python ints, and the
        # vocabulary's count tie-break must rank both the same way.
        rng = np.random.default_rng(3)
        records = [
            rng.integers(0, 50, size=int(rng.integers(1, 20))) for _ in range(300)
        ]
        records = [
            record.astype(narrow_dtype) if position % 2 else record
            for position, record in enumerate(records)
        ]
        bulk = GBKMVIndex.build(records, space_fraction=0.5, buffer_size=40)
        reference = GBKMVIndex.build(
            records, space_fraction=0.5, buffer_size=40, method="per-record"
        )
        assert_same_index(bulk, reference, records[:10])

    def test_generator_records_match_lists(self):
        lists = powerlaw_records(num_records=80)
        generators = [iter(record) for record in lists]
        built = GBKMVIndex.build(generators, space_fraction=0.3)
        expected = GBKMVIndex.build(lists, space_fraction=0.3)
        assert_same_index(built, expected, lists[:10])


class TestFromParametersIdentity:
    def test_pinned_rebuild_matches(self):
        records = powerlaw_records()
        queries, _ = sample_queries(records, num_queries=10, seed=11)
        built = GBKMVIndex.build(records, space_fraction=0.1)
        bulk = GBKMVIndex.from_parameters(
            records,
            vocabulary=built.vocabulary,
            threshold=built.threshold,
            hasher=built.hasher,
            budget=built.budget,
        )
        reference = GBKMVIndex.from_parameters(
            records,
            vocabulary=built.vocabulary,
            threshold=built.threshold,
            hasher=built.hasher,
            budget=built.budget,
            method="per-record",
        )
        assert_same_index(bulk, reference, queries)

    def test_vocabulary_fingerprint_collision_falls_back(self):
        # "a" and b"a" are distinct Python objects with equal FNV
        # fingerprints: the bulk membership lookup cannot tell them
        # apart, so ingest must fall back to the exact per-record split.
        vocabulary = FrequentElementVocabulary(["a", b"a"])
        with pytest.raises(FingerprintCollisionError):
            vocabulary_lookup(vocabulary)
        records = [["a", "x", "y"], [b"a", "x"], ["a", b"a", "z"]]
        hasher = UnitHash(seed=0)
        bulk = GBKMVIndex.from_parameters(
            records, vocabulary=vocabulary, threshold=0.9, hasher=hasher, budget=10.0
        )
        reference = GBKMVIndex.from_parameters(
            records,
            vocabulary=vocabulary,
            threshold=0.9,
            hasher=hasher,
            budget=10.0,
            method="per-record",
        )
        assert_same_index(bulk, reference, [["a", "x"]])


class TestInsertMany:
    def test_matches_looped_insert(self):
        records = powerlaw_records()
        extra = powerlaw_records(num_records=80, seed=8)
        queries, _ = sample_queries(records, num_queries=10, seed=13)
        looped = GBKMVIndex.build(records, space_fraction=0.1)
        batched = GBKMVIndex.build(records, space_fraction=0.1)
        looped_ids = [looped.insert(record) for record in extra]
        batched_ids = batched.insert_many(extra)
        assert looped_ids == batched_ids
        assert_same_index(batched, looped, queries)

    def test_after_deletes_ids_continue(self):
        records = powerlaw_records(num_records=60)
        extra = powerlaw_records(num_records=20, seed=21)
        looped = GBKMVIndex.build(records, space_fraction=0.2)
        batched = GBKMVIndex.build(records, space_fraction=0.2)
        for record_id in (0, 7, 31):
            looped.delete(record_id)
            batched.delete(record_id)
        looped_ids = [looped.insert(record) for record in extra]
        batched_ids = batched.insert_many(extra)
        assert looped_ids == batched_ids
        assert_same_index(batched, looped, records[:8])

    def test_interleaved_with_single_inserts_and_search(self):
        records = powerlaw_records(num_records=60)
        extra = powerlaw_records(num_records=30, seed=23)
        looped = GBKMVIndex.build(records, space_fraction=0.2)
        batched = GBKMVIndex.build(records, space_fraction=0.2)
        looped.insert(extra[0])
        batched.insert(extra[0])
        looped.search(extra[0], THRESHOLD)  # force a tail absorb in between
        batched.search(extra[0], THRESHOLD)
        for record in extra[1:]:
            looped.insert(record)
        batched.insert_many(extra[1:])
        assert_same_index(batched, looped, records[:8])

    def test_empty_batch_is_noop(self):
        index = GBKMVIndex.build([[1, 2], [2, 3]], space_fraction=1.0)
        before = index.num_records
        assert index.insert_many([]) == []
        assert index.num_records == before

    def test_empty_record_in_batch_rejected(self):
        index = GBKMVIndex.build([[1, 2], [2, 3]], space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.insert_many([[4], []])


class TestKMVBaselineBulk:
    def test_build_identity(self):
        records = powerlaw_records(num_records=200)
        queries, _ = sample_queries(records, num_queries=10, seed=7)
        bulk = KMVSearchIndex.build(records, space_fraction=0.1)
        reference = KMVSearchIndex.build(
            records, space_fraction=0.1, method="per-record"
        )
        assert bulk.k_per_record == reference.k_per_record
        bulk_state = bulk.store.state_arrays()
        reference_state = reference.store.state_arrays()
        assert bulk_state.keys() == reference_state.keys()
        for name, column in bulk_state.items():
            assert column.dtype == reference_state[name].dtype, name
            assert np.array_equal(column, reference_state[name]), name
        assert bulk.search_many(queries, THRESHOLD) == reference.search_many(
            queries, THRESHOLD
        )

    def test_insert_many_matches_looped_insert(self):
        records = powerlaw_records(num_records=150)
        extra = powerlaw_records(num_records=40, seed=17)
        queries, _ = sample_queries(records, num_queries=8, seed=19)
        looped = KMVSearchIndex.build(records, space_fraction=0.1)
        batched = KMVSearchIndex.build(records, space_fraction=0.1)
        looped_ids = [looped.insert(record) for record in extra]
        batched_ids = batched.insert_many(extra)
        assert looped_ids == batched_ids
        assert batched.insert_many([]) == []
        assert looped.search_many(queries, THRESHOLD) == batched.search_many(
            queries, THRESHOLD
        )

    def test_bulk_value_rows_truncate_to_k(self):
        flat = flatten_records([[1, 2, 3, 4, 5], [6]])
        values, lengths = bulk_kmv_value_rows(flat, UnitHash(seed=0), 2)
        assert lengths.tolist() == [2, 1]
        hasher = UnitHash(seed=0)
        reference = np.unique(hasher.hash_many([1, 2, 3, 4, 5]))[:2]
        assert np.array_equal(values[:2], reference)
        assert np.array_equal(values[2:], hasher.hash_many([6]))

    def test_gkmv_baseline_bulk_matches(self):
        records = powerlaw_records(num_records=120)
        queries, _ = sample_queries(records, num_queries=6, seed=29)
        bulk = GKMVSearchIndex.build(records, space_fraction=0.1)
        reference = GKMVSearchIndex.build(
            records, space_fraction=0.1, method="per-record"
        )
        bulk.insert_many(records[:5])
        for record in records[:5]:
            reference.insert(record)
        assert bulk.search_many(queries, THRESHOLD) == reference.search_many(
            queries, THRESHOLD
        )


class TestStoreBulkAppend:
    def test_shape_validation(self):
        index = GBKMVIndex.build([[1, 2], [2, 3]], space_fraction=1.0)
        store = index.store
        with pytest.raises(ConfigurationError):
            store.append_bulk(
                values=np.array([0.5]),
                value_lengths=np.array([1, 1]),
                signatures=np.zeros((2, store.num_words), dtype=np.uint64),
                residual_record_sizes=np.array([1, 1]),
                record_sizes=np.array([1, 1]),
            )
        with pytest.raises(ConfigurationError):
            store.append_bulk(
                values=np.array([0.5]),
                value_lengths=np.array([1]),
                signatures=np.zeros((2, store.num_words), dtype=np.uint64),
                residual_record_sizes=np.array([1]),
                record_sizes=np.array([1]),
            )

    def test_empty_batch_returns_no_ids(self):
        index = GBKMVIndex.build([[1, 2], [2, 3]], space_fraction=1.0)
        store = index.store
        ids = store.append_bulk(
            values=np.empty(0, dtype=np.float64),
            value_lengths=np.empty(0, dtype=np.int64),
            signatures=np.zeros((0, store.num_words), dtype=np.uint64),
            residual_record_sizes=np.empty(0, dtype=np.int64),
            record_sizes=np.empty(0, dtype=np.int64),
        )
        assert ids.size == 0


FLAT_COLUMNS = (
    "offsets",
    "elements",
    "fingerprints",
    "unique_fingerprints",
    "first_occurrence",
    "inverse",
    "counts",
)


@st.composite
def integer_ndarray_datasets(draw) -> list[np.ndarray]:
    """Integer ndarray records the fast path takes: duplicates within and
    across records (small value pools), negatives or values >= 2**63 (the
    full 64-bit span, two sort passes), and uint8 records mixed in."""
    wide = draw(st.sampled_from([np.int64, np.uint64]))
    if wide is np.int64:
        values = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
    else:
        values = st.one_of(
            st.integers(0, 3), st.integers(2**63, 2**63 + 3), st.integers(0, 2**64 - 1)
        )
    records = []
    for _ in range(draw(st.integers(1, 25))):
        narrow = draw(st.booleans())
        records.append(
            draw(
                hnp.arrays(
                    np.uint8 if narrow else wide,
                    st.integers(1, 12),
                    elements=st.integers(0, 255) if narrow else values,
                )
            )
        )
    return records


def unique_pipeline(records: list[np.ndarray]) -> dict[str, np.ndarray]:
    """The generic pipeline's columns: a Python ``set`` per record, laid
    out by ascending fingerprint, then ``np.unique`` over the fingerprint
    column (``return_index`` gives the first occurrences)."""
    dtype = np.concatenate(records).dtype
    distinct = [
        sorted(set(record.tolist()), key=lambda value: value % 2**64)
        for record in records
    ]
    elements = np.array([value for record in distinct for value in record], dtype=dtype)
    fingerprints = fingerprint_many(elements.tolist())
    unique, first, inverse, counts = np.unique(
        fingerprints, return_index=True, return_inverse=True, return_counts=True
    )
    sizes = [len(record) for record in distinct]
    return {
        "offsets": np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        "elements": elements,
        "fingerprints": fingerprints,
        "unique_fingerprints": unique,
        "first_occurrence": first.astype(np.int64),
        "inverse": inverse.astype(np.int64),
        "counts": counts.astype(np.int64),
    }


class TestFlattenSortOnce:
    """The integer fast path — a sort of packed (fingerprint, record)
    keys, or a stable argsort of the fingerprints when those keys do not
    fit 64 bits, plus one packed (record, unique rank) sort — must
    reproduce the ``np.unique`` pipeline bit for bit, including for
    negative elements, whose uint64 fingerprints sort differently from
    their signed values, and for values at or above 2**63."""

    @given(integer_ndarray_datasets())
    def test_fast_path_matches_unique_pipeline_column_for_column(self, records):
        flat = flatten_records(records)
        assert isinstance(flat.elements, np.ndarray)
        expected = unique_pipeline(records)
        for name in FLAT_COLUMNS:
            column = getattr(flat, name)
            assert column.dtype == expected[name].dtype, name
            assert np.array_equal(column, expected[name]), name

    def _assert_unique_view_consistent(self, flat, records):
        # The universe must be exactly np.unique over the per-record
        # distinct fingerprint column, in ascending uint64 order.
        unique, inverse, counts = np.unique(
            flat.fingerprints, return_inverse=True, return_counts=True
        )
        assert np.array_equal(flat.unique_fingerprints, unique)
        assert np.array_equal(flat.inverse, inverse)
        assert np.array_equal(flat.counts, counts)
        assert np.array_equal(
            flat.unique_fingerprints[flat.inverse], flat.fingerprints
        )
        # first_occurrence points at the earliest flat position.
        for position, fingerprint in enumerate(
            flat.unique_fingerprints.tolist()
        ):
            first = int(flat.first_occurrence[position])
            assert int(flat.fingerprints[first]) == fingerprint
            assert not np.any(flat.fingerprints[:first] == fingerprint)
        # Per-record content is exactly set(record).
        for position, record in enumerate(records):
            assert sorted(flat.record_elements(position)) == sorted(
                set(int(value) for value in record)
            )

    def test_negative_int64_records_take_fast_path_and_match(self):
        rng = np.random.default_rng(11)
        records = [
            rng.integers(-1000, 1000, size=int(rng.integers(1, 30))).astype(
                np.int64
            )
            for _ in range(200)
        ]
        flat = flatten_records(records)
        assert isinstance(flat.elements, np.ndarray)
        # Negative values map to large uint64 fingerprints.
        assert np.array_equal(
            flat.fingerprints, flat.elements.astype(np.uint64)
        )
        self._assert_unique_view_consistent(flat, records)

    def test_powerlaw_fast_path_matches_unique_pipeline(self):
        records = powerlaw_records()
        flat = flatten_records(records)
        assert isinstance(flat.elements, np.ndarray)
        self._assert_unique_view_consistent(flat, records)

    def test_fast_path_rejects_empty_record(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            flatten_records([np.array([1, 2]), np.array([], dtype=np.int64)])

    @pytest.mark.parametrize(
        "records, packed",
        [
            pytest.param(
                [np.array([0], dtype=np.uint64), np.array([2**63 - 1], dtype=np.uint64)],
                True,
                id="63-bit-span-plus-1-record-bit",
            ),
            pytest.param(
                [np.array([0], dtype=np.uint64), np.array([2**63], dtype=np.uint64)],
                False,
                id="64-bit-span-plus-1-record-bit",
            ),
            pytest.param(
                [np.array([-5, -1, -3, -1]), np.array([-2, -7]), np.array([-1])],
                True,
                id="all-negative",
            ),
            pytest.param(
                [np.array([-1, 0, 1, 0]), np.array([5, -5]), np.array([-1])],
                False,
                id="mixed-sign",
            ),
        ],
    )
    def test_packed_sort_boundary(self, monkeypatch, records, packed):
        # The packed (value, record) sort runs exactly when the uint64
        # span of the values plus the record bits fits 64 bits; the
        # argsort fallback covers the rest.  Both match np.unique.
        argsorts = []

        def counting_argsort(keys):
            argsorts.append(keys.size)
            return stable_argsort(keys)

        monkeypatch.setattr(bulk, "stable_argsort", counting_argsort)
        flat = flatten_records(records)
        assert not argsorts if packed else argsorts
        expected = unique_pipeline(records)
        for name in FLAT_COLUMNS:
            column = getattr(flat, name)
            assert column.dtype == expected[name].dtype, name
            assert np.array_equal(column, expected[name]), name

    def test_sparse_corpus_flattens_without_argsort(self, monkeypatch):
        # The bench build corpus's shape at a 20th of its size: a 21-bit
        # value span and 16 record bits must take the packed sort.
        def no_argsort(keys):
            raise AssertionError("the sparse corpus fell back to stable_argsort")

        rng = np.random.default_rng(5)
        sizes = np.minimum(rng.zipf(2.2, size=50_000) + 4, 64)
        values = np.floor(2_000_000 * rng.random(int(sizes.sum())) ** 2.5)
        records = np.split(values.astype(np.int64), np.cumsum(sizes)[:-1])
        monkeypatch.setattr(bulk, "stable_argsort", no_argsort)
        flat = flatten_records(records)
        assert flat.num_records == len(records)
        assert np.array_equal(
            flat.record_sizes, [np.unique(record).size for record in records]
        )


class TestSliceFlatRecords:
    def test_slice_gathers_per_record_columns(self):
        records = powerlaw_records()
        flat = flatten_records(records)
        positions = np.array([7, 0, 399, 123, 123], dtype=np.int64)
        piece = slice_flat_records(flat, positions)
        assert piece.num_records == positions.size
        for local, global_position in enumerate(positions.tolist()):
            assert list(piece.record_elements(local)) == list(
                flat.record_elements(global_position)
            )
        # The unique universe is shared with the parent, and the sliced
        # inverse still indexes it.
        assert piece.unique_fingerprints is flat.unique_fingerprints
        assert piece.counts is flat.counts
        assert np.array_equal(
            piece.unique_fingerprints[piece.inverse], piece.fingerprints
        )

    def test_slice_of_list_elements(self):
        flat = flatten_records([["a", "b"], ["c"], ["a", "d"]])
        piece = slice_flat_records(flat, np.array([2, 0]))
        assert sorted(piece.record_elements(0)) == ["a", "d"]
        assert sorted(piece.record_elements(1)) == ["a", "b"]

    def test_empty_slice_yields_empty_kmv_rows(self):
        flat = flatten_records(powerlaw_records(num_records=20))
        piece = slice_flat_records(flat, np.empty(0, dtype=np.int64))
        assert piece.num_records == 0
        values, lengths = bulk_kmv_value_rows(piece, UnitHash(seed=0), 3)
        assert values.size == 0 and lengths.size == 0

    def test_sliced_sketches_match_full_dataset_rows(self):
        # Sketching a slice under globally pinned parameters must equal
        # the corresponding rows of the full-dataset build.
        records = powerlaw_records()
        queries, _ = sample_queries(records, num_queries=10, seed=5)
        flat = flatten_records(records)
        params = GBKMVIndex.plan_parameters(flat, space_fraction=0.15)
        positions = np.arange(0, len(records), 3, dtype=np.int64)
        piece = slice_flat_records(flat, positions)
        partial = GBKMVIndex.from_flat(
            piece,
            vocabulary=params.vocabulary,
            threshold=params.threshold,
            hasher=params.hasher,
            budget=params.budget,
            in_vocabulary=params.in_vocabulary,
            unique_hashes=params.unique_hashes,
        )
        reference = GBKMVIndex.from_parameters(
            [records[position] for position in positions.tolist()],
            vocabulary=params.vocabulary,
            threshold=params.threshold,
            hasher=params.hasher,
            budget=params.budget,
        )
        assert_same_index(partial, reference, queries)


class TestBuildProfile:
    def test_bulk_build_exposes_stage_breakdown(self):
        records = powerlaw_records()
        index = GBKMVIndex.build(records, space_fraction=0.15)
        profile = index.last_build_profile
        assert profile is not None
        seconds = profile.stage_seconds()
        assert {
            "flatten",
            "cost_model",
            "vocabulary",
            "threshold",
            "sketch",
            "append",
        } <= set(seconds)
        assert all(value >= 0.0 for value in seconds.values())
        rows = profile.stage_rows()
        assert rows["flatten"] == len(records)
        assert rows["cost_model"] == len(records)
        # τ is planned over the residual universe: every distinct element
        # outside the vocabulary.
        universe = flatten_records(records).unique_fingerprints.size
        assert rows["threshold"] == universe - index.buffer_size
        assert rows["sketch"] == len(records)
        assert rows["append"] == len(records)
        assert index.statistics().build_profile is profile
        payload = profile.as_dict()
        assert set(payload) == {"stage_seconds", "stage_rows", "stages"}
        assert all(stage["seconds"] >= 0.0 for stage in payload["stages"])

    def test_fixed_buffer_size_skips_cost_model_stage(self):
        # The cost-model stage is the pair-sampled buffer sizing; pinning
        # buffer_size bypasses it, so it must not appear in the profile.
        records = powerlaw_records(num_records=60)
        index = GBKMVIndex.build(records, space_fraction=0.15, buffer_size=4)
        profile = index.last_build_profile
        assert profile is not None
        assert "cost_model" not in profile.stage_seconds()

    def test_per_record_build_has_no_profile(self):
        records = powerlaw_records(num_records=50)
        index = GBKMVIndex.build(
            records, space_fraction=0.15, method="per-record"
        )
        assert index.last_build_profile is None
        assert index.statistics().build_profile is None

    def test_profile_is_thread_safe_and_orders_recordings(self):
        profile = BuildProfile()
        with profile.stage("flatten", rows=10):
            pass
        profile.record("sketch", 0.25, rows=4)
        profile.record("sketch", 0.5, rows=6)
        assert [stage.name for stage in profile.stages] == [
            "flatten",
            "sketch",
            "sketch",
        ]
        assert profile.stage_rows() == {"flatten": 10, "sketch": 10}
        assert profile.stage_seconds()["sketch"] == pytest.approx(0.75)
        assert profile.total_seconds() >= 0.75
