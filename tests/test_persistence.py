"""Snapshot persistence tests: save → load must round-trip exactly.

The contract is bitwise: a persisted-then-loaded index answers
``search_many`` with float-for-float identical scores, because the
snapshot carries the exact stored hash values, the vocabulary, the
threshold and the hasher seed — everything the estimator arithmetic
consumes.  The workload mirrors the paper's Figure-17 setup (queries
drawn uniformly from the dataset, threshold 0.5).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import ConfigurationError
from repro.baselines.kmv_search import GKMVSearchIndex, KMVSearchIndex
from repro.core import GBKMVIndex
from repro.datasets import sample_queries


def _flatten(results):
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


@pytest.fixture
def fig17_workload(zipf_records):
    """Fig-17-style queries: drawn uniformly from the dataset, t* = 0.5."""
    queries, _ids = sample_queries(zipf_records, num_queries=25, seed=13)
    return queries


class TestGBKMVIndexRoundTrip:
    def test_search_many_scores_bitwise_identical(
        self, zipf_records, fig17_workload, tmp_path
    ):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.1)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        loaded = GBKMVIndex.load(path)
        original = index.search_many(fig17_workload, threshold=0.5)
        restored = loaded.search_many(fig17_workload, threshold=0.5)
        assert _flatten(original) == _flatten(restored)

    def test_parameters_survive(self, zipf_records, tmp_path):
        index = GBKMVIndex.build(zipf_records[:100], space_fraction=0.15)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        loaded = GBKMVIndex.load(path)
        assert loaded.threshold == index.threshold
        assert loaded.budget == index.budget
        assert loaded.hasher == index.hasher
        assert loaded.vocabulary == index.vocabulary
        assert loaded.num_records == index.num_records
        assert loaded.space_in_values() == index.space_in_values()

    def test_round_trip_after_mutations(self, zipf_records, fig17_workload, tmp_path):
        index = GBKMVIndex.build(zipf_records, space_fraction=0.2, buffer_size=8)
        index.insert(zipf_records[3])
        index.delete(7)
        index.update(11, zipf_records[5])
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        loaded = GBKMVIndex.load(path)
        assert _flatten(index.search_many(fig17_workload, 0.5)) == _flatten(
            loaded.search_many(fig17_workload, 0.5)
        )

    def test_loaded_index_stays_dynamic(self, tiny_records, tmp_path):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        loaded = GBKMVIndex.load(path)
        new_id = loaded.insert(["p1", "p2", "p3"])
        assert new_id == len(tiny_records)
        loaded.delete(0)
        hits = {hit.record_id for hit in loaded.search(["p1", "p2", "p3"], 0.9)}
        assert new_id in hits

    def test_integer_element_vocabulary_round_trips(self, zipf_records, tmp_path):
        # zipf records hold numpy integers; the snapshot must bring the
        # vocabulary back as plain ints that hash identically.
        index = GBKMVIndex.build(zipf_records[:80], space_fraction=0.3, buffer_size=16)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        loaded = GBKMVIndex.load(path)
        assert [int(e) for e in loaded.vocabulary.elements] == [
            int(e) for e in index.vocabulary.elements
        ]

    def test_version_mismatch_rejected(self, tiny_records, tmp_path):
        import json

        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["index_meta"][()]))
        meta["format_version"] = 99
        arrays["index_meta"] = np.array(json.dumps(meta))
        bad_path = tmp_path / "bad.npz"
        np.savez_compressed(bad_path, **arrays)
        with pytest.raises(ConfigurationError):
            GBKMVIndex.load(bad_path)


class TestBaselineRoundTrips:
    def test_kmv_search_bitwise_identical(self, zipf_records, fig17_workload, tmp_path):
        index = KMVSearchIndex.build(zipf_records, space_fraction=0.1)
        index.insert(zipf_records[2])
        index.delete(5)
        path = tmp_path / "kmv.npz"
        index.save(path)
        loaded = KMVSearchIndex.load(path)
        assert loaded.k_per_record == index.k_per_record
        assert loaded.num_records == index.num_records
        assert _flatten(index.search_many(fig17_workload, 0.5)) == _flatten(
            loaded.search_many(fig17_workload, 0.5)
        )

    def test_gkmv_search_bitwise_identical(self, zipf_records, fig17_workload, tmp_path):
        index = GKMVSearchIndex.build(zipf_records, space_fraction=0.1)
        path = tmp_path / "gkmv.npz"
        index.save(path)
        loaded = GKMVSearchIndex.load(path)
        assert loaded.threshold == index.threshold
        assert _flatten(index.search_many(fig17_workload, 0.5)) == _flatten(
            loaded.search_many(fig17_workload, 0.5)
        )


#: The parameters each sketch family's snapshot metadata records.
_SNAPSHOT_META_KEYS = {
    "gbkmv": ("format_version", "threshold", "budget", "hasher_seed", "vocabulary"),
    "gkmv": ("format_version", "threshold", "budget", "hasher_seed", "vocabulary"),
    "kmv": ("format_version", "k_per_record", "budget", "hasher_seed"),
}
_MALFORMED_SNAPSHOTS = [
    (backend, case)
    for backend, keys in _SNAPSHOT_META_KEYS.items()
    for case in (
        *(f"drop-{key}" for key in keys),
        *(f"{key}-x" for key in keys),
        "meta-list",
        "store-version-999",
    )
]


class TestSnapshotFormat:
    """Self-describing snapshots: tags, legacy payloads, clear failures."""

    @pytest.mark.parametrize("backend,case", _MALFORMED_SNAPSHOTS)
    def test_malformed_parameters_raise_snapshot_format_error(
        self, zipf_records, tmp_path, backend, case
    ):
        import json

        from repro._errors import SnapshotFormatError
        from repro.api import open_index

        cls = {"gbkmv": GBKMVIndex, "gkmv": GKMVSearchIndex, "kmv": KMVSearchIndex}[backend]
        path = tmp_path / "index.npz"
        cls.build(zipf_records[:40], space_fraction=0.2).save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["index_meta"][()]))
        assert sorted(meta) == sorted(_SNAPSHOT_META_KEYS[backend])
        if case == "meta-list":
            meta = [meta]
        elif case == "store-version-999":
            arrays["store_meta"] = arrays["store_meta"].copy()
            arrays["store_meta"][0] = 999
        elif case.startswith("drop-"):
            del meta[case[len("drop-"):]]
        else:
            meta[case[: -len("-x")]] = "x"
        arrays["index_meta"] = np.array(json.dumps(meta))
        bad_path = tmp_path / "bad.npz"
        np.savez_compressed(bad_path, **arrays)
        for loader in (open_index, cls.load):
            with pytest.raises(SnapshotFormatError):
                loader(bad_path)

    def test_version_mismatch_raises_snapshot_format_error(
        self, tiny_records, tmp_path
    ):
        import json

        from repro._errors import SnapshotFormatError

        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["index_meta"][()]))
        meta["format_version"] = 99
        arrays["index_meta"] = np.array(json.dumps(meta))
        bad_path = tmp_path / "bad.npz"
        np.savez_compressed(bad_path, **arrays)
        with pytest.raises(SnapshotFormatError):
            GBKMVIndex.load(bad_path)

    def test_foreign_payload_raises_snapshot_format_error(self, tmp_path):
        from repro._errors import SnapshotFormatError

        path = tmp_path / "not_an_index.npz"
        np.savez_compressed(path, some_array=np.arange(5))
        with pytest.raises(SnapshotFormatError):
            GBKMVIndex.load(path)
        with pytest.raises(SnapshotFormatError):
            KMVSearchIndex.load(path)

    def test_truncated_payload_raises_snapshot_format_error(
        self, tiny_records, tmp_path
    ):
        from repro._errors import SnapshotFormatError

        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.pop("values", None)  # drop a store column
        truncated = tmp_path / "truncated.npz"
        np.savez_compressed(truncated, **arrays)
        with pytest.raises(SnapshotFormatError):
            GBKMVIndex.load(truncated)


def _with(column: np.ndarray, position: int, value) -> np.ndarray:
    changed = column.copy()
    changed[position] = value
    return changed


def _decreasing(offsets: np.ndarray) -> np.ndarray:
    middle = offsets.size // 2
    return _with(offsets, middle, offsets[middle + 1] + 1)


#: One broken structural invariant of a store's columns per case: the
#: columns each case replaces, given the intact columns and ``next_id``.
_CORRUPT_COLUMNS = {
    "offsets-truncated": lambda a, next_id: {"offsets": a["offsets"][:-1]},
    "offsets-short-of-values": lambda a, next_id: {"values": np.append(a["values"], 0.5)},
    "offsets-decreasing": lambda a, next_id: {"offsets": _decreasing(a["offsets"])},
    "record-sizes-short": lambda a, next_id: {"record_sizes": a["record_sizes"][:-1]},
    "residual-sizes-short": lambda a, next_id: {
        "residual_record_sizes": a["residual_record_sizes"][:-1]
    },
    "signatures-short": lambda a, next_id: {"signatures": a["signatures"][:-1]},
    "tombstones-truncated": lambda a, next_id: {"tombstones": a["tombstones"][:-1]},
    "row-id-at-next-id": lambda a, next_id: {"row_ids": _with(a["row_ids"], -1, next_id)},
    "negative-row-id": lambda a, next_id: {"row_ids": _with(a["row_ids"], 0, -1)},
    "shared-live-row-id": lambda a, next_id: {
        "row_ids": _with(a["row_ids"], 1, a["row_ids"][0])
    },
    "store-meta-truncated": lambda a, next_id: {"store_meta": a["store_meta"][:-1]},
    "negative-signature-bits": lambda a, next_id: {"store_meta": _with(a["store_meta"], 1, -1)},
    "values-as-strings": lambda a, next_id: {"values": a["values"].astype(str)},
    "offsets-as-floats": lambda a, next_id: {"offsets": a["offsets"] + 0.5},
}


class TestCorruptStoreColumns:
    """Structurally broken store columns raise ``SnapshotFormatError``,
    through ``from_state`` and through every snapshot layout."""

    @pytest.fixture(scope="class")
    def index(self, zipf_records):
        index = GBKMVIndex.build(zipf_records[:300], space_fraction=0.2, buffer_size=8)
        index.delete(5)
        return index

    @pytest.mark.parametrize("loader", ["from_state", "npz", "dir", "dir-mmap"])
    @pytest.mark.parametrize("case", sorted(_CORRUPT_COLUMNS))
    def test_broken_columns_raise_snapshot_format_error(
        self, index, tmp_path, case, loader
    ):
        from repro._errors import SnapshotFormatError
        from repro.api import open_index
        from repro.core.store import ColumnarSketchStore

        arrays = {name: array.copy() for name, array in index.store.state_arrays().items()}
        broken = _CORRUPT_COLUMNS[case](arrays, int(arrays["store_meta"][2]))
        if loader == "from_state":
            with pytest.raises(SnapshotFormatError):
                ColumnarSketchStore.from_state({**arrays, **broken})
            return
        if loader == "npz":
            path = tmp_path / "index.npz"
            index.save(path)
            with np.load(path) as data:
                payload = {name: data[name] for name in data.files}
            np.savez_compressed(path, **{**payload, **broken})
        else:
            path = tmp_path / "index"
            index.save(path, layout="dir")
            for name, column in broken.items():
                np.save(path / f"{name}.npy", column)
        with pytest.raises(SnapshotFormatError):
            open_index(path, mmap=loader == "dir-mmap")

    def test_signature_width_mismatch_raises_snapshot_format_error(self, index, tmp_path):
        # A valid store whose signature width is not the vocabulary's.
        from repro._errors import SnapshotFormatError
        from repro.api import open_index

        path = tmp_path / "index.npz"
        index.save(path)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["store_meta"] = _with(payload["store_meta"], 1, 16)
        np.savez_compressed(path, **payload)
        with pytest.raises(SnapshotFormatError):
            open_index(path)

    def test_row_order_is_not_an_id_invariant(self, zipf_records, tmp_path):
        # update() gives a record's id a new last row, so updating every
        # record in reverse and compacting reverses row_ids: a reachable
        # state, which must load and answer as saved.
        from repro.api import open_index

        records = zipf_records[:40]
        index = GBKMVIndex.build(records, space_fraction=0.2, buffer_size=8)
        for record_id in reversed(range(len(records))):
            index.update(record_id, records[record_id])
        index.store.compact_tombstones()
        assert index.store.row_ids.tolist() == list(reversed(range(len(records))))
        path = tmp_path / "index.npz"
        index.save(path)
        assert _flatten(open_index(path).search_many(records[:10], 0.5)) == _flatten(
            index.search_many(records[:10], 0.5)
        )


class TestOpenIndex:
    """`repro.api.open_index` dispatches on the embedded backend id."""

    def test_gbkmv_snapshot_restores_bitwise(
        self, zipf_records, fig17_workload, tmp_path
    ):
        from repro.api import open_index

        index = GBKMVIndex.build(zipf_records, space_fraction=0.1)
        path = tmp_path / "gbkmv.npz"
        index.save(path)
        restored = open_index(path)
        assert isinstance(restored, GBKMVIndex)
        assert _flatten(index.search_many(fig17_workload, 0.5)) == _flatten(
            restored.search_many(fig17_workload, 0.5)
        )

    def test_gkmv_snapshot_restores_the_wrapper(self, zipf_records, tmp_path):
        from repro.api import open_index

        index = GKMVSearchIndex.build(zipf_records[:80], space_fraction=0.1)
        path = tmp_path / "gkmv.npz"
        index.save(path)
        restored = open_index(path)
        assert isinstance(restored, GKMVSearchIndex)
        assert restored.threshold == index.threshold

    def test_legacy_untagged_snapshot_still_opens(self, zipf_records, tmp_path):
        # Snapshots written before the api_meta tag existed are recognised
        # by their payload keys.
        from repro.api import open_index

        index = GBKMVIndex.build(zipf_records[:60], space_fraction=0.2)
        path = tmp_path / "tagged.npz"
        index.save(path)
        with np.load(path) as data:
            arrays = {
                name: data[name] for name in data.files if name != "api_meta"
            }
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)
        restored = open_index(legacy)
        assert isinstance(restored, GBKMVIndex)
        assert restored.num_records == index.num_records

    def test_unrecognisable_file_raises_snapshot_format_error(self, tmp_path):
        from repro._errors import SnapshotFormatError
        from repro.api import open_index

        path = tmp_path / "garbage.npz"
        np.savez_compressed(path, stuff=np.arange(3))
        with pytest.raises(SnapshotFormatError):
            open_index(path)
        text = tmp_path / "not_even_npz.txt"
        text.write_text("hello")
        with pytest.raises(SnapshotFormatError):
            open_index(text)
