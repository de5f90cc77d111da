"""The store's growable columns: appends that copy only the batch.

A batch append writes each column into the spare capacity behind it and
reallocates only when the batch does not fit.  These tests pin what that
promises: an append leaves the rows already stored — and every array read
from them — untouched; the store writes only into buffers it allocated
itself (never a snapshot's arrays or an mmap); a replaced column releases
its old buffer; and no sequence of appends, deletes, replaces,
compactions and truncations makes the store differ from one given the
same physical rows at once.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GBKMVConfig, ShardedConfig, create_index, open_index
from repro.core.store import SNAPSHOT_VERSION, ColumnarSketchStore, append_rows
from repro.datasets import generate_zipf_dataset

#: Two signature words, so the signature column is a 2-D buffer.
SIGNATURE_BITS = 70
NUM_WORDS = 2
#: Stored values are multiples of 1/40, so rows share values often.
VALUE_GRID = 40


def _random_rows(rng, num_rows):
    """``num_rows`` random sketch rows: (values, words, residual size, size)."""
    rows = []
    for _ in range(num_rows):
        values = np.unique(rng.integers(1, VALUE_GRID, size=int(rng.integers(0, 6))))
        values = values / VALUE_GRID
        words = np.array(
            [rng.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True), rng.integers(0, 64)],
            dtype=np.uint64,
        )
        residual = values.size + int(rng.integers(0, 2))
        rows.append((values, words, residual, residual + int(rng.integers(0, 3))))
    return rows


def _append_bulk(store, rows):
    return store.append_bulk(
        values=np.concatenate([row[0] for row in rows]),
        value_lengths=np.array([row[0].size for row in rows], dtype=np.int64),
        signatures=np.array([row[1] for row in rows], dtype=np.uint64),
        residual_record_sizes=np.array([row[2] for row in rows], dtype=np.int64),
        record_sizes=np.array([row[3] for row in rows], dtype=np.int64),
    )


def _mask(words):
    return int(words[0]) | (int(words[1]) << 64)


def _grown_store(seed=3, base=200, warm_up=100):
    """A store whose columns hold spare capacity after a warm-up append."""
    rng = np.random.default_rng(seed)
    store = ColumnarSketchStore(signature_bits=SIGNATURE_BITS)
    _append_bulk(store, _random_rows(rng, base))  # into an empty store: exact
    _append_bulk(store, _random_rows(rng, warm_up))  # reallocates with spare
    store.finalize()
    return store, rng


class _Model:
    """The physical rows a store must hold, as plain Python lists."""

    def __init__(self):
        self.rows = []  # [values, words, residual size, size, record id, dead]
        self.next_id = 0

    def append(self, row, record_id=None):
        record_id = self.next_id if record_id is None else record_id
        self.rows.append([*row, record_id, False])
        self.next_id = max(self.next_id, record_id + 1)

    def live_ids(self):
        return [row[4] for row in self.rows if not row[5]]

    def kill(self, record_id):
        for row in self.rows:
            if row[4] == record_id and not row[5]:
                row[5] = True

    def compact(self):
        self.rows = [row for row in self.rows if not row[5]]

    def truncate(self, threshold):
        for row in self.rows:
            row[0] = row[0][row[0] <= threshold]

    def store(self):
        """A store given every physical row and tombstone at once."""
        rows = self.rows
        lengths = np.array([row[0].size for row in rows], dtype=np.int64)
        arrays = {
            "values": np.concatenate([np.empty(0)] + [row[0] for row in rows]),
            "offsets": np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            "signatures": np.array(
                [row[1] for row in rows], dtype=np.uint64
            ).reshape(len(rows), NUM_WORDS),
            "record_sizes": np.array([row[3] for row in rows], dtype=np.int64),
            "residual_record_sizes": np.array([row[2] for row in rows], dtype=np.int64),
            "row_ids": np.array([row[4] for row in rows], dtype=np.int64),
            "tombstones": np.array([row[5] for row in rows], dtype=bool),
            "store_meta": np.array(
                [SNAPSHOT_VERSION, SIGNATURE_BITS, self.next_id], dtype=np.int64
            ),
        }
        return ColumnarSketchStore.from_state(arrays, compact_ratio=1.0)


def _assert_bitwise_equal(store, reference):
    got, want = store.state_arrays(), reference.state_arrays()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name
    assert store.row_max.tobytes() == reference.row_max.tobytes()
    assert store.row_exact.tobytes() == reference.row_exact.tobytes()
    assert store._sorted_values.tobytes() == reference._sorted_values.tobytes()
    assert store._sorted_rows.tobytes() == reference._sorted_rows.tobytes()


class TestAppendRows:
    def test_a_batch_that_fits_is_written_in_place(self):
        buffer = np.arange(8, dtype=np.int64)
        grown = append_rows(buffer, 3, np.array([30, 40]))
        assert grown is buffer
        assert grown[:5].tolist() == [0, 1, 2, 30, 40]

    def test_a_batch_that_does_not_fit_reallocates_with_spare(self):
        buffer = np.arange(4, dtype=np.int64)
        grown = append_rows(buffer, 4, np.arange(4, 20))
        assert grown is not buffer
        assert grown.shape == (20 + 20 // 8,)
        assert grown[:20].tolist() == list(range(20))
        assert buffer.tolist() == [0, 1, 2, 3]

    def test_exact_allocation_and_2d_rows(self):
        buffer = np.zeros((0, 3), dtype=np.uint64)
        grown = append_rows(buffer, 0, np.ones((5, 3), dtype=np.uint64), spare=False)
        assert grown.shape == (5, 3)
        assert int(grown.sum()) == 15


class TestInPlaceGrowth:
    def test_small_append_bulk_shares_memory_with_the_columns_before(self):
        store, rng = _grown_store()
        before = (store.values, store.offsets, store.signatures)
        _append_bulk(store, _random_rows(rng, 5))
        after = (store.values, store.offsets, store.signatures)
        for old, new in zip(before, after):
            assert np.shares_memory(old, new)
            assert new.shape[0] > old.shape[0]

    def test_first_append_into_an_empty_store_allocates_exactly(self):
        rng = np.random.default_rng(5)
        store = ColumnarSketchStore(signature_bits=SIGNATURE_BITS)
        rows = _random_rows(rng, 50)
        _append_bulk(store, rows)
        assert store.values.base.shape == store.values.shape
        assert store.signatures.base.shape == (50, NUM_WORDS)
        assert store.offsets.base.shape == (51,)


class TestOwnership:
    def test_arrays_read_before_an_append_keep_their_contents(self):
        records = generate_zipf_dataset(
            num_records=400,
            universe_size=3_000,
            element_exponent=1.1,
            size_exponent=3.0,
            min_record_size=5,
            max_record_size=40,
            seed=11,
        )
        index = create_index("gbkmv", records[:300], GBKMVConfig(space_fraction=0.3))
        index.insert_many(records[300:340])  # the columns now have spare room
        store = index.store
        read = {
            "values": store.values,
            "row_values": store.row_values(7),
            "live_record_sizes": store.live_record_sizes(),
            "residual": index.sketch(7).residual.values,
        }
        read.update(
            (f"state_arrays[{name}]", array)
            for name, array in store.state_arrays().items()
        )
        copies = {name: array.copy() for name, array in read.items()}
        index.insert_many(records[340:345])  # in place
        index.search(records[0], 0.5)
        index.insert_many(records[345:400])  # reallocates
        index.search(records[0], 0.5)
        for name, array in read.items():
            assert array.tobytes() == copies[name].tobytes(), name

    def test_stores_from_the_same_state_do_not_see_each_others_rows(self):
        source, rng = _grown_store(seed=7, base=60, warm_up=10)
        state = source.state_arrays()
        pristine = {name: array.copy() for name, array in state.items()}
        first = ColumnarSketchStore.from_state(state)
        second = ColumnarSketchStore.from_state(state)
        first_rows, second_rows = _random_rows(rng, 4), _random_rows(rng, 9)
        first.delete(3)  # before any append: the tombstones are still shared
        _append_bulk(first, first_rows)
        _append_bulk(second, second_rows)
        assert first.num_rows == 74 and second.num_rows == 79
        assert second.alive_rows.all()
        for store, rows in ((first, first_rows), (second, second_rows)):
            for offset, row in enumerate(rows):
                assert store.row_values(70 + offset).tolist() == row[0].tolist()
        for name, array in state.items():
            assert array.tobytes() == pristine[name].tobytes(), name

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda store: pickle.loads(pickle.dumps(store))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copied_store_owns_no_buffer(self, clone):
        store, rng = _grown_store(seed=13)
        copied = clone(store)
        copied.delete(3)  # flips a flag in the copy's own column
        _append_bulk(copied, _random_rows(rng, 2))  # must not regrow a stale buffer
        flags = copied.state_arrays()["tombstones"]
        assert flags.size == 302 and np.flatnonzero(flags).tolist() == [3]
        assert not store.state_arrays()["tombstones"].any()

    @pytest.mark.parametrize("mutation", ["compact", "truncate"])
    def test_a_replaced_column_releases_its_old_buffer(self, mutation):
        store, _rng = _grown_store(seed=9)
        values_buffer = weakref.ref(store.values.base)
        offsets_buffer = weakref.ref(store.offsets.base)
        assert values_buffer() is not None and offsets_buffer() is not None
        if mutation == "compact":
            for record_id in range(0, 300, 3):
                store.delete(record_id)
            store.compact_tombstones()
        else:
            store.truncate_values(0.5)
        gc.collect()
        assert values_buffer() is None
        assert offsets_buffer() is None


class TestIdentityAcrossReallocations:
    @given(
        seed=st.integers(0, 2**32 - 1),
        operations=st.lists(
            st.sampled_from(
                ["bulk", "bulk", "single", "delete", "replace", "finalize", "compact", "truncate"]
            ),
            min_size=10,
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_grown_store_equals_one_given_the_rows_at_once(self, seed, operations):
        rng = np.random.default_rng(seed)
        store = ColumnarSketchStore(signature_bits=SIGNATURE_BITS)
        model = _Model()
        buffers = []
        for operation in ["bulk", "bulk", "finalize", "bulk", *operations]:
            live = model.live_ids()
            if operation == "bulk":
                rows = _random_rows(rng, int(rng.integers(1, 21)))
                ids = _append_bulk(store, rows)
                for row, record_id in zip(rows, ids.tolist()):
                    model.append(row, record_id)
            elif operation == "single":
                (row,) = _random_rows(rng, 1)
                record_id = store.append(row[0], _mask(row[1]), row[2], row[3])
                model.append(row, record_id)
            elif operation in ("delete", "replace") and live:
                record_id = live[int(rng.integers(len(live)))]
                if operation == "delete":
                    store.delete(record_id)
                    model.kill(record_id)
                else:
                    (row,) = _random_rows(rng, 1)
                    store.replace(record_id, row[0], _mask(row[1]), row[2], row[3])
                    model.kill(record_id)
                    model.append(row, record_id)
            elif operation == "finalize":
                store.finalize()
                if store.num_rows < len(model.rows):  # finalize compacted
                    model.compact()
                _assert_bitwise_equal(store, model.store())
            elif operation == "compact":
                store.compact_tombstones()
                model.compact()
            elif operation == "truncate":
                threshold = int(rng.integers(VALUE_GRID // 2, VALUE_GRID)) / VALUE_GRID
                store.truncate_values(threshold)
                model.truncate(threshold)
            buffer = store._buffers.get("_record_sizes")
            if buffer is not None and not any(buffer is seen for seen in buffers):
                buffers.append(buffer)
        store.finalize()
        if store.num_rows < len(model.rows):
            model.compact()
        assert store.num_rows == len(model.rows)
        assert store.total_values == sum(row[0].size for row in model.rows if not row[5])
        _assert_bitwise_equal(store, model.store())
        assert len(buffers) >= 2  # the columns were reallocated as they grew


@pytest.mark.parametrize("backend", ["gbkmv", "sharded"])
def test_mmap_opened_index_grows_without_touching_its_snapshot(backend, tmp_path):
    records = generate_zipf_dataset(
        num_records=500,
        universe_size=4_000,
        element_exponent=1.1,
        size_exponent=3.0,
        min_record_size=5,
        max_record_size=40,
        seed=13,
    )
    queries = records[::37]
    inner = GBKMVConfig(space_fraction=0.3)
    config = ShardedConfig(num_shards=2, inner_config=inner) if backend == "sharded" else inner
    in_memory = create_index(backend, records[:400], config)
    path = tmp_path / "snapshot"
    if backend == "gbkmv":
        in_memory.save(path, layout="dir")
    else:
        in_memory.save(path)
    def snapshot_files():
        return {file: file.read_bytes() for file in sorted(path.rglob("*")) if file.is_file()}

    files = snapshot_files()

    mapped = open_index(path, mmap=True)
    for batch in (records[400:410], records[410:413], records[413:500]):
        assert mapped.insert_many(batch) == in_memory.insert_many(batch)
    mapped.delete(3)
    in_memory.delete(3)
    assert snapshot_files() == files

    def answers(index):
        return [
            [(hit.record_id, hit.score) for hit in hits]
            for hits in index.search_many(queries, 0.3) + index.top_k_many(queries, 5)
        ]

    expected = answers(in_memory)
    assert answers(mapped) == expected
    copy = tmp_path / "copy"
    if backend == "gbkmv":
        mapped.save(copy, layout="dir")
    else:
        mapped.save(copy)
    reopened = [open_index(copy), open_index(copy, mmap=True)]
    for index in reopened:
        assert answers(index) == expected
    for index in (mapped, in_memory, *reopened):
        index.close()
