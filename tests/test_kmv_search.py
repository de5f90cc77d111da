"""Unit tests for the KMV / G-KMV search baselines (repro.baselines.kmv_search)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._errors import ConfigurationError, EmptyDatasetError, SnapshotFormatError
from repro.api import open_index
from repro.api.registry import snapshot_tag
from repro.baselines import GKMVSearchIndex, KMVSearchIndex
from repro.core import FrequentElementVocabulary, GBKMVIndex, flatten_records
from repro.exact import BruteForceSearcher
from repro.hashing import UnitHash


class TestKMVSearchIndex:
    def test_equal_allocation(self, zipf_records):
        records = zipf_records[:100]
        index = KMVSearchIndex.build(records, space_fraction=0.1)
        total = sum(len(set(r)) for r in records)
        assert index.k_per_record == max(int(0.1 * total) // 100, 1)
        assert index.num_records == 100
        assert len(index) == 100

    def test_space_does_not_exceed_budget(self, zipf_records):
        records = zipf_records[:100]
        index = KMVSearchIndex.build(records, space_fraction=0.1)
        total = sum(len(set(r)) for r in records)
        assert index.space_in_values() <= 0.1 * total + index.num_records
        assert 0.0 < index.space_fraction() <= 0.12

    def test_exact_when_budget_is_full(self, tiny_records, example_query):
        index = KMVSearchIndex.build(tiny_records, space_budget=1_000)
        hits = {hit.record_id for hit in index.search(example_query, 0.5)}
        assert hits == {0, 1}

    def test_scores_normalised_by_query_size(self, tiny_records, example_query):
        index = KMVSearchIndex.build(tiny_records, space_budget=1_000)
        scores = {hit.record_id: hit.score for hit in index.search(example_query, 0.0)}
        assert scores[0] == pytest.approx(4 / 6)

    def test_zero_threshold_returns_all_records(self, tiny_records, example_query):
        index = KMVSearchIndex.build(tiny_records, space_budget=1_000)
        assert len(index.search(example_query, 0.0)) == len(tiny_records)

    def test_recall_against_oracle(self, zipf_records):
        records = zipf_records[:150]
        index = KMVSearchIndex.build(records, space_fraction=0.3)
        oracle = BruteForceSearcher(records)
        hits = 0
        total = 0
        for query in records[:10]:
            truth = {h.record_id for h in oracle.search(query, 0.5)}
            found = {h.record_id for h in index.search(query, 0.5)}
            hits += len(truth & found)
            total += len(truth)
        assert hits / total > 0.5

    def test_validation(self, tiny_records):
        with pytest.raises(EmptyDatasetError):
            KMVSearchIndex.build([])
        with pytest.raises(ConfigurationError):
            KMVSearchIndex.build([["a"], []])
        with pytest.raises(ConfigurationError):
            KMVSearchIndex.build(tiny_records, space_fraction=0.0)
        with pytest.raises(ConfigurationError):
            KMVSearchIndex.build(tiny_records, space_budget=-1)
        index = KMVSearchIndex.build(tiny_records, space_budget=100)
        with pytest.raises(ConfigurationError):
            index.search([], 0.5)
        with pytest.raises(ConfigurationError):
            index.search(["e1"], 1.5)


class TestGKMVSearchIndex:
    def test_wraps_zero_buffer_gbkmv(self, zipf_records):
        records = zipf_records[:100]
        index = GKMVSearchIndex.build(records, space_fraction=0.1)
        assert index.buffer_size == 0
        assert index.num_records == 100
        assert len(index) == 100
        assert 0.0 < index.threshold <= 1.0
        assert index.space_fraction() <= 0.11
        assert index.space_in_values() > 0

    @pytest.mark.parametrize("layout", ["npz", "dir"])
    def test_load_rejects_a_buffered_snapshot(self, zipf_records, tmp_path, layout):
        # Restoring a buffered GB-KMV index as G-KMV would report GB-KMV
        # numbers under the G-KMV label.
        path = tmp_path / "buffered"
        GBKMVIndex.build(zipf_records[:50], buffer_size=4).save(path, layout=layout)
        if layout == "npz":
            path = path.with_suffix(".npz")
        with pytest.raises(ConfigurationError, match="buffer size 4"):
            GKMVSearchIndex.load(path)

    def test_rejects_a_buffer_on_every_construction_path(self, zipf_records):
        records = zipf_records[:30]
        pinned = dict(
            vocabulary=FrequentElementVocabulary([records[0][0]]),
            threshold=0.9,
            hasher=UnitHash(seed=0),
            budget=10.0,
        )
        with pytest.raises(ConfigurationError, match="buffer size 1"):
            GKMVSearchIndex.from_parameters(records, **pinned)
        with pytest.raises(ConfigurationError, match="buffer size 1"):
            GKMVSearchIndex.from_flat(flatten_records(records), **pinned)
        with pytest.raises(ConfigurationError, match="buffer size 1"):
            GKMVSearchIndex(**pinned)

    def test_exact_when_budget_is_full(self, tiny_records, example_query):
        index = GKMVSearchIndex.build(tiny_records, space_fraction=1.0)
        hits = {hit.record_id for hit in index.search(example_query, 0.5)}
        assert hits == {0, 1}

    def test_gkmv_recall_not_worse_than_kmv(self, zipf_records):
        """The Figure 6 ordering: G-KMV ≥ KMV in answer quality at equal space."""
        records = zipf_records[:200]
        oracle = BruteForceSearcher(records)
        kmv = KMVSearchIndex.build(records, space_fraction=0.05)
        gkmv = GKMVSearchIndex.build(records, space_fraction=0.05)

        def average_f1(index) -> float:
            scores = []
            for query in records[:15]:
                truth = {h.record_id for h in oracle.search(query, 0.5)}
                found = {h.record_id for h in index.search(query, 0.5)}
                tp = len(truth & found)
                precision = tp / len(found) if found else 1.0
                recall = tp / len(truth) if truth else 1.0
                scores.append(
                    0.0
                    if precision + recall == 0
                    else 2 * precision * recall / (precision + recall)
                )
            return sum(scores) / len(scores)

        assert average_f1(gkmv) >= average_f1(kmv) - 0.05


class TestDynamicAPI:
    """Both baselines expose the same insert/delete/update surface as GBKMVIndex."""

    @pytest.fixture(params=[KMVSearchIndex, GKMVSearchIndex], ids=["kmv", "gkmv"])
    def index(self, request, zipf_records):
        return request.param.build(zipf_records[:60], space_fraction=0.5)

    def test_insert_assigns_sequential_ids(self, index):
        assert index.insert(["n1", "n2", "n3"]) == 60
        assert index.insert(["n4", "n5"]) == 61
        assert index.num_records == 62

    def test_inserted_record_is_searchable(self, index):
        new_id = index.insert(["q1", "q2", "q3", "q4"])
        hits = {hit.record_id for hit in index.search(["q1", "q2", "q3", "q4"], 0.0)}
        assert new_id in hits

    def test_delete_removes_record_everywhere(self, index, zipf_records):
        index.delete(7)
        query = zipf_records[7]
        assert 7 not in {hit.record_id for hit in index.search(query, 0.0)}
        assert 7 not in {
            hit.record_id for hit in index.search_many([query], 0.0)[0]
        }
        assert index.num_records == 59

    def test_delete_unknown_or_double_raises(self, index):
        with pytest.raises(ConfigurationError):
            index.delete(1000)
        index.delete(3)
        with pytest.raises(ConfigurationError):
            index.delete(3)

    def test_update_keeps_id(self, index):
        assert index.update(10, ["u1", "u2", "u3"]) == 10
        assert index.num_records == 60
        assert 10 in {hit.record_id for hit in index.search(["u1", "u2", "u3"], 0.0)}

    def test_empty_mutations_rejected(self, index):
        with pytest.raises(ConfigurationError):
            index.insert([])
        with pytest.raises(ConfigurationError):
            index.update(0, [])

    def test_rejected_update_keeps_the_old_record(self, index, zipf_records):
        with pytest.raises(ConfigurationError, match="unsupported element type"):
            index.update(10, [1.5, 2.5])
        assert index.num_records == 60
        assert 10 in {hit.record_id for hit in index.search(zipf_records[10], 0.0)}

    def test_surviving_scores_unchanged_by_delete(self, index, zipf_records):
        query = zipf_records[20]
        before = {hit.record_id: hit.score for hit in index.search(query, 0.0)}
        index.delete(41)
        after = {hit.record_id: hit.score for hit in index.search(query, 0.0)}
        del before[41]
        assert after == before


def _answers(index, queries):
    return (
        [[(hit.record_id, hit.score) for hit in hits] for hits in index.search_many(queries, 0.0)],
        [[(hit.record_id, hit.score) for hit in hits] for hits in index.search_many(queries, 0.3)],
        [[(hit.record_id, hit.score) for hit in hits] for hits in index.top_k_many(queries, 4)],
    )


class TestKMVSnapshots:
    """KMV snapshots: the shared format in both layouts, and the older one."""

    @pytest.fixture
    def index(self, zipf_records):
        index = KMVSearchIndex.build(zipf_records[:80], space_fraction=0.2)
        for record_id in (3, 17, 40):
            index.delete(record_id)
        index.update(5, zipf_records[90])
        index.insert_many(zipf_records[81:86])
        return index

    def test_directory_snapshot_maps_and_answers_identically(
        self, index, zipf_records, tmp_path
    ):
        queries = zipf_records[:6]
        path = tmp_path / "kmv-dir"
        index.save(path, layout="dir")
        assert (path / "manifest.json").exists()
        mapped = open_index(path, mmap=True)
        assert isinstance(mapped, KMVSearchIndex)
        assert isinstance(mapped.store.values.base, np.memmap)
        assert mapped.k_per_record == index.k_per_record
        assert mapped.next_record_id == index.next_record_id
        assert _answers(mapped, queries) == _answers(index, queries)
        # A mapped index still accepts writes.
        mapped.delete(0)
        index.delete(0)
        assert mapped.insert(zipf_records[95]) == index.insert(zipf_records[95])
        assert _answers(mapped, queries) == _answers(index, queries)

    def _write_version_1(self, index, path, skip=None):
        """The layout KMV snapshots had before KMV rows lived in the store."""
        state = index.store.state_arrays()
        meta = {
            "format_version": 1,
            "k_per_record": index.k_per_record,
            "budget": index.budget,
            "hasher_seed": index.hasher.seed,
            "next_id": index.next_record_id,
        }
        columns = {
            "values": state["values"],
            "offsets": state["offsets"],
            "record_sizes": state["record_sizes"],
            "row_ids": state["row_ids"],
            "alive": ~state["tombstones"],
        }
        columns.pop(skip, None)
        np.savez_compressed(
            path,
            api_meta=snapshot_tag("kmv", 1),
            kmv_meta=np.array(json.dumps(meta)),
            **columns,
        )

    def test_version_1_snapshot_loads(self, index, zipf_records, tmp_path):
        queries = zipf_records[:6]
        path = tmp_path / "kmv-v1.npz"
        self._write_version_1(index, path)
        for restored in (KMVSearchIndex.load(path), open_index(path)):
            assert isinstance(restored, KMVSearchIndex)
            assert restored.num_records == index.num_records
            assert restored.next_record_id == index.next_record_id
            assert _answers(restored, queries) == _answers(index, queries)
        # Saving it again writes the shared format.
        resaved = tmp_path / "kmv-v2.npz"
        restored.save(resaved)
        with np.load(resaved) as data:
            assert "index_meta" in data.files and "kmv_meta" not in data.files
        assert _answers(open_index(resaved), queries) == _answers(index, queries)

    @pytest.mark.parametrize("column", ["values", "offsets", "record_sizes", "row_ids", "alive"])
    def test_version_1_snapshot_missing_a_column_is_rejected(self, index, tmp_path, column):
        path = tmp_path / "kmv-v1.npz"
        self._write_version_1(index, path, skip=column)
        with pytest.raises(SnapshotFormatError, match=column):
            KMVSearchIndex.load(path)
        with pytest.raises(SnapshotFormatError, match=column):
            open_index(path)
