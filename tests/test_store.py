"""Tests for the columnar sketch store and its vectorised kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import ConfigurationError
from repro.core.store import (
    BITS_PER_WORD,
    ColumnarSketchStore,
    mask_to_words,
    words_to_mask,
)


def _join_counts(store, query):
    """Per-row ``|L_Q ∩ L_X|`` through the value→record join index.

    Checks the fused kernel's sparse form on the way: one query, rows
    strictly ascending, every count positive.
    """
    query_ids, rows, counts = store.match_workload(
        np.asarray(query, dtype=np.float64), [0, len(query)]
    )
    assert not query_ids.any()
    assert np.all(rows[1:] > rows[:-1])
    assert np.all(counts > 0)
    dense = np.zeros(store.num_rows, dtype=np.int64)
    dense[rows] = counts
    return dense


def _overlap(store, mask):
    """Per-row ``|H_Q ∩ H_X|`` through the packed-signature kernel."""
    return store.signature_overlap_block(store.pack_signature_masks([mask]))[0]


def _store_with_rows(rows, signature_bits=8):
    store = ColumnarSketchStore(signature_bits=signature_bits)
    for values, mask, residual_size, record_size in rows:
        store.append(
            np.asarray(values, dtype=np.float64),
            mask,
            residual_size,
            record_size,
        )
    return store


class TestMaskPacking:
    def test_round_trip_single_word(self):
        mask = 0b1011_0001
        assert words_to_mask(mask_to_words(mask, 1)) == mask

    def test_round_trip_multi_word(self):
        mask = (1 << 130) | (1 << 64) | 0b101
        words = mask_to_words(mask, 3)
        assert words.shape == (3,)
        assert words_to_mask(words) == mask

    def test_mask_beyond_width_rejected(self):
        with pytest.raises(ConfigurationError):
            mask_to_words(1 << BITS_PER_WORD, 1)

    def test_negative_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            mask_to_words(-1, 1)


class TestAppendAndAccess:
    def test_rows_survive_compaction(self):
        rows = [
            ([0.1, 0.2], 0b01, 3, 5),
            ([], 0b10, 0, 2),
            ([0.05, 0.3, 0.4], 0b11, 3, 7),
        ]
        store = _store_with_rows(rows)
        store.finalize()
        for record_id, (values, mask, residual_size, record_size) in enumerate(rows):
            assert store.row_values(record_id).tolist() == values
            assert store.mask_int(record_id) == mask
            assert store.residual_record_size(record_id) == residual_size
            assert store.record_size(record_id) == record_size

    def test_staged_rows_accessible_before_finalize(self):
        store = _store_with_rows([([0.1], 0b1, 1, 2)])
        store.finalize()
        store.append(np.array([0.2, 0.9]), 0b10, 2, 4)
        assert store.num_records == 2
        assert store.row_values(1).tolist() == [0.2, 0.9]
        assert store.mask_int(1) == 0b10
        assert store.record_size(1) == 4

    def test_offsets_are_csr(self):
        store = _store_with_rows(
            [([0.1, 0.2], 0, 2, 2), ([], 0, 0, 1), ([0.3], 0, 1, 1)]
        )
        assert store.offsets.tolist() == [0, 2, 2, 3]
        assert store.values.tolist() == [0.1, 0.2, 0.3]
        assert store.row_sizes.tolist() == [2, 0, 1]

    def test_row_max_and_exact(self):
        store = _store_with_rows(
            [([0.1, 0.5], 0, 2, 3), ([], 0, 4, 4), ([0.2], 0, 1, 1)]
        )
        assert store.row_max.tolist() == [0.5, 0.0, 0.2]
        assert store.row_exact.tolist() == [True, False, True]


class TestInvalidation:
    def test_append_after_finalize_invalidates_caches(self):
        store = _store_with_rows([([0.1, 0.4], 0b1, 2, 2)])
        store.finalize()
        first = _join_counts(store, [0.1])
        assert first.tolist() == [1]
        store.append(np.array([0.1, 0.2]), 0b1, 2, 3)
        second = _join_counts(store, [0.1])
        assert second.tolist() == [1, 1]
        assert _overlap(store, 0b1).tolist() == [1, 1]

    def test_truncate_drops_values_above_threshold(self):
        store = _store_with_rows(
            [([0.1, 0.4, 0.8], 0, 3, 3), ([0.5, 0.9], 0, 2, 2), ([], 0, 0, 1)]
        )
        store.finalize()
        store.truncate_values(0.45)
        assert store.values.tolist() == [0.1, 0.4]
        assert store.offsets.tolist() == [0, 2, 2, 2]
        assert _join_counts(store, [0.4, 0.5]).tolist() == [1, 0, 0]


def _random_rows(rng, count, max_len=12):
    rows = []
    for _ in range(count):
        values = np.unique(rng.random(rng.integers(0, max_len)))
        rows.append((values, 0, values.size, values.size))
    return rows


class TestIncrementalMerge:
    def test_merge_matches_from_scratch_rebuild(self):
        rng = np.random.default_rng(23)
        rows = _random_rows(rng, 60)
        incremental = _store_with_rows(rows[:40], signature_bits=0)
        incremental.finalize()  # seal the base segment
        for values, mask, residual, size in rows[40:]:
            incremental.append(values, mask, residual, size)
        incremental.finalize()  # two-run merge of the tail

        scratch = _store_with_rows(rows, signature_bits=0)
        scratch.finalize()  # one from-scratch sort

        query = np.unique(np.concatenate([rows[5][0], rows[45][0], rng.random(4)]))
        assert (
            _join_counts(incremental, query).tolist()
            == _join_counts(scratch, query).tolist()
        )
        assert incremental.row_max.tolist() == scratch.row_max.tolist()
        assert incremental.row_exact.tolist() == scratch.row_exact.tolist()
        # The merged join index is exactly what the stable re-sort builds.
        assert incremental._sorted_values.tolist() == scratch._sorted_values.tolist()
        assert incremental._sorted_rows.tolist() == scratch._sorted_rows.tolist()

    def test_interleaved_append_search_stays_correct(self):
        rng = np.random.default_rng(29)
        rows = _random_rows(rng, 10)
        store = _store_with_rows(rows[:4], signature_bits=0)
        for position, (values, mask, residual, size) in enumerate(rows[4:], start=4):
            store.append(values, mask, residual, size)
            query = rows[position][0]
            expected = [
                len(set(v.tolist()) & set(query.tolist()))
                for v, *_rest in rows[: position + 1]
            ]
            assert _join_counts(store, query).tolist() == expected

    def test_rebuild_mode_matches_incremental(self):
        rng = np.random.default_rng(31)
        rows = _random_rows(rng, 30)
        merged = _store_with_rows(rows[:20], signature_bits=0)
        merged.finalize()  # seal 20 rows, then merge 10 more into the caches
        for values, mask, residual, size in rows[20:]:
            merged.append(values, mask, residual, size)
        resorted = _store_with_rows(rows, signature_bits=0)  # one from-scratch build
        query = np.unique(np.concatenate([rows[25][0], rng.random(5)]))
        assert (
            _join_counts(merged, query).tolist()
            == _join_counts(resorted, query).tolist()
        )


class TestDeletes:
    def test_delete_tombstones_without_moving_rows(self):
        store = _store_with_rows(
            [([0.1, 0.2], 0b01, 2, 3), ([0.3], 0b10, 1, 2), ([0.5], 0b11, 1, 1)],
            signature_bits=2,
        )
        store.finalize()
        store.delete(1)
        assert store.num_rows == 3
        assert store.num_records == 2
        assert store.alive_rows.tolist() == [True, False, True]
        assert store.live_record_ids().tolist() == [0, 2]
        assert 1 not in store

    def test_delete_unknown_or_double_raises(self):
        store = _store_with_rows([([0.1], 0, 1, 1)])
        with pytest.raises(ConfigurationError):
            store.delete(7)
        store.delete(0)
        with pytest.raises(ConfigurationError):
            store.delete(0)

    def test_delete_staged_row(self):
        store = _store_with_rows([([0.1], 0, 1, 1)])
        store.finalize()
        new_id = store.append(np.array([0.2, 0.4]), 0, 2, 2)
        store.delete(new_id)  # still in the tail segment
        assert store.num_records == 1
        assert store.total_values == 1

    def test_deleted_values_leave_space_accounting(self):
        store = _store_with_rows([([0.1, 0.2], 0, 2, 2), ([0.3, 0.4, 0.5], 0, 3, 3)])
        assert store.total_values == 5
        store.delete(1)
        assert store.total_values == 2

    def test_replace_keeps_id_and_changes_values(self):
        store = _store_with_rows([([0.1, 0.2], 0b1, 2, 2), ([0.3], 0b0, 1, 1)])
        store.finalize()
        returned = store.replace(0, np.array([0.7]), 0b0, 1, 1)
        assert returned == 0
        assert store.row_values(0).tolist() == [0.7]
        assert store.num_records == 2
        counts = _join_counts(store, np.array([0.7]))
        row_ids, alive = store.result_view()
        if alive is None:  # the replace may have triggered auto-compaction
            alive = np.ones(counts.size, dtype=bool)
        live_counts = {
            int(row_ids[row]): int(counts[row])
            for row in np.nonzero(alive)[0]
        }
        assert live_counts == {0: 1, 1: 0}

    def test_compaction_drops_dead_rows_and_preserves_ids(self):
        rng = np.random.default_rng(37)
        rows = _random_rows(rng, 20)
        store = _store_with_rows(rows, signature_bits=0)
        store.finalize()
        for record_id in range(0, 20, 2):
            store.delete(record_id)
        store.finalize()  # 50% dead >= compact_ratio -> physical compaction
        assert store.num_dead == 0
        assert store.num_rows == 10
        assert store.live_record_ids().tolist() == list(range(1, 20, 2))
        # Searches keep answering under the surviving ids.
        query = rows[3][0]
        counts = _join_counts(store, query)
        row_ids, _alive = store.result_view()
        by_id = dict(zip(row_ids.tolist(), counts.tolist()))
        expected = {
            record_id: len(set(rows[record_id][0].tolist()) & set(query.tolist()))
            for record_id in range(1, 20, 2)
        }
        assert by_id == expected

    def test_append_after_compaction_continues_ids(self):
        store = _store_with_rows(
            [([0.1], 0, 1, 1), ([0.2], 0, 1, 1), ([0.3], 0, 1, 1), ([0.4], 0, 1, 1)]
        )
        store.delete(0)
        store.delete(2)
        store.compact_tombstones()
        new_id = store.append(np.array([0.9]), 0, 1, 1)
        assert new_id == 4
        assert store.live_record_ids().tolist() == [1, 3, 4]


class TestTruncateInsertRegression:
    def test_truncate_then_insert_then_search_matches_fresh_store(self):
        """Regression for the incremental-merge invalidation logic: a
        truncate (which prefix-filters the join index) followed by an
        insert (which two-run-merges into it) must leave the store
        answering exactly like one built from the final rows directly."""
        rng = np.random.default_rng(41)
        rows = _random_rows(rng, 25)
        store = _store_with_rows(rows, signature_bits=0)
        store.finalize()
        cutoff = 0.55
        store.truncate_values(cutoff)
        extra = np.unique(rng.random(6))
        store.append(extra, 0, extra.size, extra.size)

        fresh_rows = [
            (values[values <= cutoff], mask, residual, size)
            for values, mask, residual, size in rows
        ] + [(extra, 0, extra.size, extra.size)]
        fresh = _store_with_rows(fresh_rows, signature_bits=0)

        for query in (extra, rows[7][0], np.unique(rng.random(8))):
            assert (
                _join_counts(store, query).tolist()
                == _join_counts(fresh, query).tolist()
            )
        assert store.row_max.tolist() == fresh.row_max.tolist()
        assert store.row_exact.tolist() == fresh.row_exact.tolist()


class TestSaveLoad:
    @staticmethod
    def _reloaded(store):
        # What an index snapshot restores: copies, so the loaded store's
        # in-place tombstones cannot alias the original's.
        arrays = {name: array.copy() for name, array in store.state_arrays().items()}
        return ColumnarSketchStore.from_state(arrays)

    def test_round_trip_preserves_columns_and_kernels(self):
        rng = np.random.default_rng(43)
        rows = []
        for _ in range(15):
            values = np.unique(rng.random(rng.integers(0, 10)))
            rows.append((values, int(rng.integers(0, 2**10)), values.size + 1, values.size + 2))
        store = _store_with_rows(rows, signature_bits=10)
        store.delete(4)
        loaded = self._reloaded(store)

        assert loaded.signature_bits == store.signature_bits
        assert loaded.num_rows == store.num_rows
        assert loaded.num_records == store.num_records
        assert loaded.values.tolist() == store.values.tolist()
        assert loaded.offsets.tolist() == store.offsets.tolist()
        assert loaded.alive_rows.tolist() == store.alive_rows.tolist()
        query = np.unique(np.concatenate([rows[2][0], rng.random(3)]))
        assert (
            _join_counts(loaded, query).tolist()
            == _join_counts(store, query).tolist()
        )
        assert _overlap(loaded, 0b1011).tolist() == _overlap(store, 0b1011).tolist()

    def test_loaded_store_stays_dynamic(self):
        store = _store_with_rows([([0.1, 0.4], 0, 2, 2), ([0.2], 0, 1, 1)])
        loaded = self._reloaded(store)
        new_id = loaded.append(np.array([0.3]), 0, 1, 1)
        assert new_id == 2
        loaded.delete(0)
        assert loaded.live_record_ids().tolist() == [1, 2]
        assert store.live_record_ids().tolist() == [0, 1]

    def test_version_mismatch_rejected(self, tmp_path):
        store = _store_with_rows([([0.1], 0, 1, 1)])
        arrays = store.state_arrays()
        arrays["store_meta"] = arrays["store_meta"].copy()
        arrays["store_meta"][0] = 999
        with pytest.raises(ConfigurationError):
            ColumnarSketchStore.from_state(arrays)


class TestKernels:
    def test_intersection_counts_matches_python_sets(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(40):
            values = np.unique(rng.random(rng.integers(0, 12)))
            rows.append((values, 0, values.size, values.size))
        store = _store_with_rows(rows, signature_bits=0)
        query = np.unique(
            np.concatenate([rows[4][0], rows[9][0], rng.random(5)])
        )
        joined = _join_counts(store, query)
        expected = [
            len(set(values.tolist()) & set(query.tolist()))
            for values, *_rest in rows
        ]
        assert joined.tolist() == expected

    def test_signature_overlap_matches_bit_counting(self):
        rng = np.random.default_rng(11)
        masks = [int(rng.integers(0, 2**20)) for _ in range(30)]
        rows = [([], mask, 0, 1) for mask in masks]
        store = _store_with_rows(rows, signature_bits=20)
        query_mask = int(rng.integers(0, 2**20))
        overlap = _overlap(store, query_mask)
        expected = [(mask & query_mask).bit_count() for mask in masks]
        assert overlap.tolist() == expected

    def test_empty_store_kernels(self):
        store = ColumnarSketchStore(signature_bits=4)
        assert _join_counts(store, [0.5]).size == 0
        assert _overlap(store, 0b1).size == 0


class TestThresholdForValueBudget:
    """The incremental-refit primitive against a brute-force recomputation."""

    @staticmethod
    def _brute_force(live_values, budget):
        tiny = float(np.finfo(np.float64).tiny)
        values = np.sort(np.asarray(live_values, dtype=np.float64))
        allowed = int(budget)
        if values.size == 0 or allowed == 0:
            return tiny
        if allowed >= values.size:
            return float(values[-1])
        candidates = [
            float(value)
            for value in np.unique(values)
            if int(np.count_nonzero(values <= value)) <= allowed
        ]
        return candidates[-1] if candidates else tiny

    def _rows(self, rng, num_rows, grid=None):
        rows = []
        for _ in range(num_rows):
            size = int(rng.integers(1, 10))
            if grid is None:
                values = np.unique(rng.random(size))
            else:
                # Discrete grid forces cross-row duplicate values, the
                # tie-heavy case the boundary search must get right.
                values = np.unique(rng.integers(1, grid, size) / grid)
            rows.append((values, 0, values.size, values.size + 1))
        return rows

    @pytest.mark.parametrize("grid", [None, 12])
    @pytest.mark.parametrize("num_deleted", [0, 11])
    def test_matches_brute_force(self, grid, num_deleted):
        rng = np.random.default_rng(41 + (grid or 0))
        rows = self._rows(rng, 30, grid=grid)
        store = _store_with_rows(rows, signature_bits=0)
        deleted = set(
            rng.choice(len(rows), size=num_deleted, replace=False).tolist()
        )
        for record_id in deleted:
            store.delete(record_id)
        live_values = np.concatenate(
            [
                rows[record_id][0]
                for record_id in range(len(rows))
                if record_id not in deleted
            ]
        )
        total = live_values.size
        for budget in (0.0, 0.5, 1.0, 3.7, total / 2, total - 1, total, total + 5):
            expected = self._brute_force(live_values, budget)
            assert store.threshold_for_value_budget(budget) == expected, budget

    def test_truncate_at_returned_threshold_fits_budget(self):
        rng = np.random.default_rng(7)
        store = _store_with_rows(self._rows(rng, 40, grid=9), signature_bits=0)
        budget = store.total_values // 3
        threshold = store.threshold_for_value_budget(budget)
        store.truncate_values(threshold)
        assert store.total_values <= budget

    def test_empty_store(self):
        store = ColumnarSketchStore(signature_bits=0)
        tiny = float(np.finfo(np.float64).tiny)
        assert store.threshold_for_value_budget(10.0) == tiny
