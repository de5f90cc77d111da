"""Unit tests for asymmetric minwise hashing (repro.baselines.asymmetric_minhash)."""

from __future__ import annotations

import pytest

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api import (
    AsymmetricMinHashConfig,
    Capabilities,
    create_index,
    get_backend,
    open_index,
)
from repro.baselines import AsymmetricMinHashIndex
from repro.baselines.asymmetric_minhash import padded_jaccard_threshold
from repro.exact import BruteForceSearcher


class TestPaddedThreshold:
    def test_monotone_in_containment(self):
        low = padded_jaccard_threshold(0.2, query_size=50, max_record_size=500)
        high = padded_jaccard_threshold(0.8, query_size=50, max_record_size=500)
        assert high > low

    def test_larger_max_size_lowers_threshold(self):
        small = padded_jaccard_threshold(0.5, query_size=50, max_record_size=100)
        large = padded_jaccard_threshold(0.5, query_size=50, max_record_size=10_000)
        assert large < small

    def test_bounds(self):
        assert 0.0 <= padded_jaccard_threshold(0.0, 10, 100) <= 1.0
        assert 0.0 <= padded_jaccard_threshold(1.0, 10, 100) <= 1.0

    def test_invalid_query_size(self):
        with pytest.raises(ConfigurationError):
            padded_jaccard_threshold(0.5, 0, 100)


class TestAsymmetricMinHashIndex:
    def test_build_and_properties(self, zipf_records):
        records = zipf_records[:80]
        index = AsymmetricMinHashIndex.build(records, num_perm=32)
        assert index.num_records == 80
        assert len(index) == 80
        assert index.max_record_size == max(len(set(r)) for r in records)
        assert index.space_in_values() == 32 * 80
        assert index.space_fraction() > 0

    def test_validation(self):
        with pytest.raises(EmptyDatasetError):
            AsymmetricMinHashIndex.build([])
        with pytest.raises(ConfigurationError):
            AsymmetricMinHashIndex.build([["a"], []])
        with pytest.raises(ConfigurationError):
            AsymmetricMinHashIndex(num_perm=1)

    def test_search_validation(self, tiny_records):
        index = AsymmetricMinHashIndex.build(tiny_records, num_perm=16)
        with pytest.raises(ConfigurationError):
            index.search([], 0.5)
        with pytest.raises(ConfigurationError):
            index.search(["e1"], -0.1)

    def test_finds_near_identical_records(self, zipf_records):
        records = zipf_records[:80]
        index = AsymmetricMinHashIndex.build(records, num_perm=128)
        oracle = BruteForceSearcher(records)
        recalls = []
        for query in records[:8]:
            truth = {hit.record_id for hit in oracle.search(query, 0.9)}
            found = {hit.record_id for hit in index.search(query, 0.9)}
            if truth:
                recalls.append(len(truth & found) / len(truth))
        # Padding hurts recall on skewed sizes (the known weakness), but
        # near-duplicates of the query itself should still be found often.
        assert sum(recalls) / len(recalls) > 0.4


class TestPersistence:
    def test_round_trip_search_identical(self, zipf_records, tmp_path):
        records = zipf_records[:100]
        index = AsymmetricMinHashIndex.build(records, num_perm=64)
        path = tmp_path / "amh.npz"
        index.save(path)
        loaded = AsymmetricMinHashIndex.load(path)
        assert loaded.num_records == index.num_records
        assert loaded.max_record_size == index.max_record_size
        assert loaded.space_in_values() == index.space_in_values()
        for query in records[:6]:
            original = [(h.record_id, h.score) for h in index.search(query, 0.5)]
            restored = [(h.record_id, h.score) for h in loaded.search(query, 0.5)]
            assert original == restored

    def test_wrong_snapshot_rejected(self, tiny_records, tmp_path):
        from repro._errors import SnapshotFormatError
        from repro.baselines import LSHEnsembleIndex

        other = LSHEnsembleIndex.build(tiny_records, num_perm=16, num_partitions=2)
        path = tmp_path / "lshe.npz"
        other.save(path)
        with pytest.raises(SnapshotFormatError):
            AsymmetricMinHashIndex.load(path)


class TestRegisteredBackend:
    def test_every_entry_point_returns_the_class_itself(self, tiny_records, tmp_path):
        assert get_backend("asymmetric-minhash") is AsymmetricMinHashIndex
        built = AsymmetricMinHashIndex.build(tiny_records, num_perm=32)
        created = create_index(
            "asymmetric-minhash", tiny_records, AsymmetricMinHashConfig(num_perm=32)
        )
        created.save(tmp_path / "amh.npz")
        opened = open_index(tmp_path / "amh.npz")
        expected = Capabilities(
            dynamic=False, batched=False, persistent=True, exact=False, scored=False
        )
        for index in (built, created, opened, AsymmetricMinHashIndex.load(tmp_path / "amh.npz")):
            assert type(index) is AsymmetricMinHashIndex
            assert index.capabilities == expected
