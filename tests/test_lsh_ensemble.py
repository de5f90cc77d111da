"""Unit tests for the LSH Ensemble baseline (repro.baselines.lsh_ensemble)."""

from __future__ import annotations

import pytest

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api import Capabilities, LSHEnsembleConfig, create_index, get_backend, open_index
from repro.baselines import LSHEnsembleIndex
from repro.baselines.lsh_ensemble import containment_to_jaccard, jaccard_to_containment
from repro.exact import BruteForceSearcher


class TestTransformations:
    def test_equation_12_roundtrip(self):
        for containment in (0.1, 0.3, 0.5, 0.8, 1.0):
            for record_size, query_size in ((10, 5), (100, 50), (7, 21)):
                if containment > record_size / query_size:
                    continue  # infeasible: |Q ∩ X| cannot exceed |X|
                jaccard = containment_to_jaccard(containment, record_size, query_size)
                back = jaccard_to_containment(jaccard, record_size, query_size)
                assert back == pytest.approx(containment, rel=1e-9)

    def test_infeasible_containment_clamps_to_certain_jaccard(self):
        # A containment above |X| / |Q| is impossible; the transform saturates.
        assert containment_to_jaccard(0.8, record_size=7, query_size=21) == 1.0

    def test_intro_example_values(self):
        """The restaurant example of the introduction: t = 1.0 and 0.5."""
        # Q = {five, guys}, X has 9 words, overlap 2 → Jaccard 2/9, containment 1.0.
        assert jaccard_to_containment(2 / 9, record_size=9, query_size=2) == pytest.approx(1.0)
        # Y has 3 words, overlap 1 → Jaccard 1/4, containment 0.5.
        assert jaccard_to_containment(1 / 4, record_size=3, query_size=2) == pytest.approx(0.5)

    def test_upper_bound_lowers_jaccard_threshold(self):
        tight = containment_to_jaccard(0.5, record_size=20, query_size=10)
        loose = containment_to_jaccard(0.5, record_size=200, query_size=10)
        assert loose < tight

    def test_bad_query_size_rejected(self):
        with pytest.raises(ConfigurationError):
            containment_to_jaccard(0.5, 10, 0)
        with pytest.raises(ConfigurationError):
            jaccard_to_containment(0.5, 10, 0)

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= containment_to_jaccard(1.0, 1, 100) <= 1.0


class TestBuild:
    def test_basic_construction(self, zipf_records):
        index = LSHEnsembleIndex.build(zipf_records[:100], num_perm=32, num_partitions=4)
        assert index.num_records == 100
        assert len(index) == 100
        assert index.num_perm == 32
        assert 1 <= index.num_partitions <= 4
        assert index.construction_seconds > 0.0

    def test_partitions_are_equal_depth_and_ordered(self, zipf_records):
        index = LSHEnsembleIndex.build(zipf_records[:120], num_perm=16, num_partitions=4)
        bounds = index.partition_bounds()
        # Partition upper bounds must not decrease (records sorted by size).
        uppers = [upper for _lower, upper in bounds]
        assert uppers == sorted(uppers)
        lowers = [lower for lower, _upper in bounds]
        assert lowers == sorted(lowers)

    def test_space_accounting(self, zipf_records):
        index = LSHEnsembleIndex.build(zipf_records[:50], num_perm=32, num_partitions=4)
        assert index.space_in_values() == 32 * 50
        assert index.space_fraction() > 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            LSHEnsembleIndex.build([], num_perm=16)

    def test_empty_record_rejected(self):
        with pytest.raises(ConfigurationError):
            LSHEnsembleIndex.build([["a"], []], num_perm=16)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LSHEnsembleIndex(num_perm=1)
        with pytest.raises(ConfigurationError):
            LSHEnsembleIndex(num_perm=16, num_partitions=0)

    def test_more_partitions_than_records(self, tiny_records):
        index = LSHEnsembleIndex.build(tiny_records, num_perm=16, num_partitions=32)
        assert index.num_partitions <= len(tiny_records)


class TestSearch:
    def test_high_recall_on_self_queries(self, zipf_records):
        records = zipf_records[:200]
        index = LSHEnsembleIndex.build(records, num_perm=64, num_partitions=8)
        oracle = BruteForceSearcher(records)
        recalls = []
        for query in records[:10]:
            truth = {hit.record_id for hit in oracle.search(query, 0.5)}
            candidates = {hit.record_id for hit in index.search(query, 0.5)}
            if truth:
                recalls.append(len(truth & candidates) / len(truth))
        assert sum(recalls) / len(recalls) > 0.8

    def test_verification_improves_precision(self, zipf_records):
        records = zipf_records[:200]
        index = LSHEnsembleIndex.build(records, num_perm=64, num_partitions=8)
        oracle = BruteForceSearcher(records)
        query = records[0]
        truth = {hit.record_id for hit in oracle.search(query, 0.5)}
        raw = {hit.record_id for hit in index.search(query, 0.5, verify=False)}
        verified = {hit.record_id for hit in index.search(query, 0.5, verify=True)}
        assert verified <= raw
        if raw:
            raw_precision = len(raw & truth) / len(raw)
            verified_precision = len(verified & truth) / max(len(verified), 1)
            assert verified_precision >= raw_precision

    def test_scores_are_one_without_verification(self, tiny_records, example_query):
        index = LSHEnsembleIndex.build(tiny_records, num_perm=16, num_partitions=2)
        for hit in index.search(example_query, 0.5):
            assert hit.score == 1.0

    def test_invalid_threshold_rejected(self, tiny_records, example_query):
        index = LSHEnsembleIndex.build(tiny_records, num_perm=16, num_partitions=2)
        with pytest.raises(ConfigurationError):
            index.search(example_query, threshold=-0.2)

    def test_empty_query_rejected(self, tiny_records):
        index = LSHEnsembleIndex.build(tiny_records, num_perm=16, num_partitions=2)
        with pytest.raises(ConfigurationError):
            index.search([], threshold=0.5)

    def test_query_signature_reusable(self, tiny_records, example_query):
        index = LSHEnsembleIndex.build(tiny_records, num_perm=16, num_partitions=2)
        signature = index.query_signature(example_query)
        assert signature.size == 16


class TestPersistence:
    def test_round_trip_search_identical(self, zipf_records, tmp_path):
        records = zipf_records[:120]
        index = LSHEnsembleIndex.build(records, num_perm=64, num_partitions=8)
        path = tmp_path / "lshe.npz"
        index.save(path)
        loaded = LSHEnsembleIndex.load(path)
        assert loaded.num_records == index.num_records
        assert loaded.num_perm == index.num_perm
        assert loaded.partition_bounds() == index.partition_bounds()
        for query in records[:6]:
            original = [(h.record_id, h.score) for h in index.search(query, 0.5)]
            restored = [(h.record_id, h.score) for h in loaded.search(query, 0.5)]
            assert original == restored

    def test_round_trip_with_verification(self, zipf_records, tmp_path):
        records = zipf_records[:60]
        index = LSHEnsembleIndex.build(records, num_perm=32, num_partitions=4)
        path = tmp_path / "lshe.npz"
        index.save(path)
        loaded = LSHEnsembleIndex.load(path)
        query = records[0]
        original = [(h.record_id, h.score) for h in index.search(query, 0.5, verify=True)]
        restored = [(h.record_id, h.score) for h in loaded.search(query, 0.5, verify=True)]
        assert original == restored

    def test_wrong_snapshot_rejected(self, tiny_records, tmp_path):
        from repro._errors import SnapshotFormatError
        from repro.baselines import AsymmetricMinHashIndex

        other = AsymmetricMinHashIndex.build(tiny_records, num_perm=16)
        path = tmp_path / "amh.npz"
        other.save(path)
        with pytest.raises(SnapshotFormatError):
            LSHEnsembleIndex.load(path)

    def test_verify_default_round_trips(self, zipf_records, tmp_path):
        records = zipf_records[:60]
        index = LSHEnsembleIndex.build(
            records, num_perm=32, num_partitions=4, verify=True
        )
        assert index.verify_default
        path = tmp_path / "lshe.npz"
        index.save(path)
        loaded = LSHEnsembleIndex.load(path)
        assert loaded.verify_default
        query = records[0]
        # Default-mode search must verify on both sides (scored hits).
        original = [(h.record_id, h.score) for h in index.search(query, 0.5)]
        restored = [(h.record_id, h.score) for h in loaded.search(query, 0.5)]
        assert original == restored
        assert original == [
            (h.record_id, h.score) for h in index.search(query, 0.5, verify=True)
        ]


class TestRegisteredBackend:
    @pytest.mark.parametrize("verify", [False, True])
    def test_every_entry_point_returns_the_class_itself(self, tiny_records, tmp_path, verify):
        assert get_backend("lsh-ensemble") is LSHEnsembleIndex
        built = LSHEnsembleIndex.build(
            tiny_records, num_perm=32, num_partitions=2, verify=verify
        )
        created = create_index(
            "lsh-ensemble",
            tiny_records,
            LSHEnsembleConfig(num_perm=32, num_partitions=2, verify=verify),
        )
        created.save(tmp_path / "lshe.npz")
        opened = open_index(tmp_path / "lshe.npz")
        # Only verification scores hits, and only on the instance.
        expected = Capabilities(
            dynamic=False, batched=False, persistent=True, exact=False, scored=verify
        )
        for index in (built, created, opened, LSHEnsembleIndex.load(tmp_path / "lshe.npz")):
            assert type(index) is LSHEnsembleIndex
            assert index.capabilities == expected
        assert not LSHEnsembleIndex.capabilities.scored
