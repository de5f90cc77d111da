"""Shared conformance suite: every registered backend, one contract.

Each test parametrises over ``available_backends()`` and exercises the
uniform :class:`repro.api.SimilarityIndex` surface — build through the
registry, search/search_many identity, capability-gated mutation,
top-k, and save/load round-trips (including dispatch through
``open_index``).  Unsupported operations must fail with
:class:`~repro.api.CapabilityError`, never ``AttributeError``.

A new backend added to the registry is covered automatically: the suite
reads the backend list and each backend's declared capabilities at
collection time.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CapabilityError,
    Capabilities,
    ConfigurationError,
    GBKMVConfig,
    KMVConfig,
    SimilarityIndex,
    available_backends,
    create_index,
    get_backend,
    open_index,
)
from repro.datasets import generate_zipf_dataset, sample_queries

THRESHOLD = 0.5


@pytest.fixture(scope="module")
def records() -> list[list[int]]:
    """A small skewed dataset every backend builds over."""
    return generate_zipf_dataset(
        num_records=80,
        universe_size=800,
        element_exponent=1.1,
        size_exponent=3.0,
        min_record_size=10,
        max_record_size=60,
        seed=29,
    )


@pytest.fixture(scope="module")
def queries(records) -> list[list[int]]:
    sampled, _ids = sample_queries(records, num_queries=6, seed=7)
    return sampled


@pytest.fixture(scope="module", params=available_backends())
def backend_id(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def index(backend_id, records) -> SimilarityIndex:
    """One built index per backend, shared by the module's tests.

    Mutating tests must not use this fixture — they build their own.
    """
    return create_index(backend_id, records)


def _flatten(results):
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


class TestBuildAndIntrospection:
    def test_registry_serves_a_similarity_index(self, backend_id, index):
        assert isinstance(index, SimilarityIndex)
        assert index.backend_id == backend_id
        assert isinstance(index.capabilities, Capabilities)

    def test_num_records_and_len(self, index, records):
        assert index.num_records == len(records)
        assert len(index) == len(records)

    def test_statistics_report_record_count(self, index, records):
        assert index.statistics().num_records == len(records)

    def test_space_accounting_is_non_negative(self, index):
        assert index.space_in_values() >= 0.0
        assert index.space_fraction() >= 0.0

    def test_wrong_config_type_is_rejected(self, backend_id, records):
        # No backend accepts another backend's config.
        wrong = GBKMVConfig() if backend_id != "gbkmv" else KMVConfig()
        with pytest.raises(ConfigurationError):
            create_index(backend_id, records, wrong)


class TestSearchContract:
    def test_search_returns_valid_hits(self, index, queries, records):
        for query in queries:
            hits = index.search(query, THRESHOLD)
            ids = [hit.record_id for hit in hits]
            assert len(ids) == len(set(ids))
            assert all(0 <= record_id < len(records) for record_id in ids)

    def test_search_many_matches_looped_search(self, index, queries):
        batched = index.search_many(queries, THRESHOLD)
        looped = [index.search(query, THRESHOLD) for query in queries]
        assert _flatten(batched) == _flatten(looped)

    def test_exact_backends_agree_with_brute_force(self, index, records, queries):
        if not index.capabilities.exact:
            pytest.skip("approximate backend")
        reference = create_index("brute-force", records)
        # Exact backends must produce identical result sets and scores.
        for query in queries:
            expected = {
                (h.record_id, round(h.score, 12))
                for h in reference.search(query, THRESHOLD)
            }
            got = {
                (h.record_id, round(h.score, 12))
                for h in index.search(query, THRESHOLD)
            }
            assert got == expected


class TestTopK:
    def test_top_k_matches_capability(self, index, queries):
        if not index.capabilities.scored:
            with pytest.raises(CapabilityError):
                index.top_k(queries[0], k=3)
            return
        hits = index.top_k(queries[0], k=3)
        assert len(hits) <= 3
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_many_matches_looped_top_k(self, index, queries):
        if not index.capabilities.scored:
            with pytest.raises(CapabilityError):
                index.top_k_many(queries, k=3)
            return
        assert _flatten(index.top_k_many(queries, k=3)) == _flatten(
            [index.top_k(query, k=3) for query in queries]
        )

    @pytest.mark.parametrize("k", [0, 2.5, 3.0, "3"])
    def test_non_positive_integer_k_is_rejected(self, index, queries, k):
        expected = ConfigurationError if index.capabilities.scored else CapabilityError
        with pytest.raises(expected):
            index.top_k(queries[0], k=k)
        with pytest.raises(expected):
            index.top_k_many(queries, k=k)
        with pytest.raises(expected):
            index.top_k_many([], k=k)


class TestDynamicOperations:
    def test_insert_many_then_search_sees_the_batch(
        self, backend_id, records, queries
    ):
        fresh = create_index(backend_id, records)
        batch = [list(records[1]), list(records[2])]
        if not fresh.capabilities.dynamic:
            with pytest.raises(CapabilityError):
                fresh.insert_many(batch)
            with pytest.raises(CapabilityError):
                fresh.insert(batch[0])
            with pytest.raises(CapabilityError):
                fresh.delete(0)
            with pytest.raises(CapabilityError):
                fresh.update(0, batch[0])
            return
        assigned = fresh.insert_many(batch)
        assert assigned == [len(records), len(records) + 1]
        assert fresh.num_records == len(records) + 2
        # Threshold 0 keeps every live record, so visibility of the new
        # rows (and invisibility after delete) is estimate-independent.
        hits = {hit.record_id for hit in fresh.search(records[1], 0.0)}
        assert set(assigned) <= hits
        fresh.delete(assigned[0])
        hits = {hit.record_id for hit in fresh.search(records[1], 0.0)}
        assert assigned[0] not in hits
        assert assigned[1] in hits


class TestLifecycle:
    def test_context_manager_closes_on_exit(self, backend_id, records):
        with create_index(backend_id, records) as index:
            assert isinstance(index, SimilarityIndex)
            assert index.num_records == len(records)
        index.close()  # close is idempotent

    def test_next_record_id_matches_dynamic_capability(self, index, records):
        # Every dynamic backend declares the sequential-id invariant the
        # serving write buffer builds on; static backends return None.
        if index.capabilities.dynamic:
            assert index.next_record_id == len(records)
        else:
            assert index.next_record_id is None

    def test_insert_advances_next_record_id(self, backend_id, records):
        fresh = create_index(backend_id, records)
        if not fresh.capabilities.dynamic:
            return
        assigned = fresh.insert(list(records[0]))
        assert assigned == len(records)
        assert fresh.next_record_id == len(records) + 1
        fresh.close()


class TestPersistence:
    def test_save_load_round_trip(self, backend_id, records, queries, tmp_path):
        index = create_index(backend_id, records)
        path = tmp_path / f"{backend_id}.npz"
        if not index.capabilities.persistent:
            with pytest.raises(CapabilityError):
                index.save(path)
            with pytest.raises(CapabilityError):
                get_backend(backend_id).load(path)
            return
        index.save(path)
        before = _flatten(index.search_many(queries, THRESHOLD))

        loaded = get_backend(backend_id).load(path)
        assert _flatten(loaded.search_many(queries, THRESHOLD)) == before

        opened = open_index(path)
        assert isinstance(opened, get_backend(backend_id))
        assert _flatten(opened.search_many(queries, THRESHOLD)) == before


class TestVerifiedLSHEnsemble:
    """The verify flag is index state: it scores hits and survives save/load."""

    def test_verified_instances_score_and_round_trip(
        self, records, queries, tmp_path
    ):
        from repro.api import LSHEnsembleConfig

        index = create_index(
            "lsh-ensemble",
            records,
            LSHEnsembleConfig(num_perm=32, num_partitions=4, verify=True),
        )
        assert index.capabilities.scored
        top = index.top_k(queries[0], k=3)
        assert [hit.score for hit in top] == sorted(
            (hit.score for hit in top), reverse=True
        )

        path = tmp_path / "lshe-verified.npz"
        index.save(path)
        restored = open_index(path)
        assert restored.capabilities.scored
        assert _flatten(restored.search_many(queries, THRESHOLD)) == _flatten(
            index.search_many(queries, THRESHOLD)
        )

    def test_raw_instances_stay_unscored(self, records, queries):
        raw = create_index("lsh-ensemble", records)
        assert not raw.capabilities.scored
        with pytest.raises(CapabilityError):
            raw.top_k(queries[0], k=3)
