"""SimilarityService end-to-end: identity, visibility policies, lifecycle.

The serving front's contract is *transparency*: every answer it returns
must be bitwise identical to calling the wrapped index directly, no
matter how requests were fused or writes coalesced.  These tests pin
that identity, the two visibility policies, the flush triggers
(buffer-full and lag deadline), and the drain/close lifecycle.  The
closed-loop load generator is exercised here too — tiny runs, shape
assertions only; ``benchmarks/test_serving.py`` owns the real numbers.

No pytest-asyncio in the toolchain: each test drives its coroutine with
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import (
    CapabilityError,
    ConfigurationError,
    ServingConfig,
    ShardedConfig,
    create_index,
)
from repro.core.index import GBKMVIndex
from repro.datasets import generate_zipf_dataset, sample_queries
from repro.serving import SimilarityService, run_closed_loop, run_load

THRESHOLD = 0.5


@pytest.fixture(scope="module")
def records() -> list[list[int]]:
    return generate_zipf_dataset(
        num_records=120,
        universe_size=900,
        element_exponent=1.1,
        size_exponent=3.0,
        min_record_size=10,
        max_record_size=50,
        seed=23,
    )


@pytest.fixture(scope="module")
def queries(records) -> list[list[int]]:
    sampled, _ids = sample_queries(records, num_queries=8, seed=5)
    return sampled


def fresh_index(records) -> GBKMVIndex:
    return GBKMVIndex.build(records, space_fraction=0.5)


class TestQueryIdentity:
    def test_search_matches_direct_index_calls(self, records, queries):
        index = fresh_index(records)
        expected = [index.search(query, THRESHOLD) for query in queries]

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                return [
                    await service.search(query, THRESHOLD) for query in queries
                ]

        assert asyncio.run(scenario()) == expected

    def test_concurrent_searches_fuse_and_match_search_many(
        self, records, queries
    ):
        index = fresh_index(records)
        expected = index.search_many(queries, THRESHOLD)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                results = await asyncio.gather(
                    *(service.search(query, THRESHOLD) for query in queries)
                )
                return results, service.stats()

        results, stats = asyncio.run(scenario())
        assert results == expected
        # The burst landed in one loop iteration: it must have fused.
        assert stats.batcher.requests == len(queries)
        assert stats.batcher.batches < len(queries)
        assert stats.batcher.largest_batch > 1

    def test_top_k_matches_direct_index_calls(self, records, queries):
        index = fresh_index(records)
        expected = index.top_k_many(queries, 5)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                return await asyncio.gather(
                    *(service.top_k(query, 5) for query in queries)
                )

        assert asyncio.run(scenario()) == expected

    def test_non_integer_k_is_rejected_before_batching(self, records, queries):
        index = fresh_index(records)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                for k in (0, 2.5, "3"):
                    with pytest.raises(ConfigurationError, match="positive integer"):
                        await service.top_k(queries[0], k)
                return service.stats().batcher.batches

        assert asyncio.run(scenario()) == 0

    def test_different_thresholds_do_not_fuse(self, records, queries):
        index = fresh_index(records)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                low, high = await asyncio.gather(
                    service.search(queries[0], 0.1),
                    service.search(queries[0], 0.9),
                )
                return low, high, service.stats()

        low, high, stats = asyncio.run(scenario())
        assert low == index.search(queries[0], 0.1)
        assert high == index.search(queries[0], 0.9)
        assert stats.batcher.batches == 2

    def test_query_size_override_matches_direct_call(self, records, queries):
        index = fresh_index(records)
        expected = index.search(queries[0], THRESHOLD, query_size=500)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                return await service.search(queries[0], THRESHOLD, query_size=500)

        assert asyncio.run(scenario()) == expected


class TestFailureIsolation:
    @pytest.mark.parametrize("backend", ["gbkmv", "sharded"])
    def test_malformed_request_fails_only_its_own_caller(self, backend, records):
        config = ShardedConfig(num_shards=2, max_workers=2) if backend == "sharded" else None
        index = create_index(backend, records, config)

        def direct(call):
            try:
                return call()
            except Exception as error:  # noqa: BLE001 - compared below
                return error

        calls = [
            ("search", records[0], 0.5, None),
            ("search", [], 0.5, None),
            ("search", records[1], 0.5, None),
            ("search", [1.5, 2], 0.5, None),
            ("top_k", records[2], 3, None),
            ("top_k", [], 3, None),
            ("search", records[3], 0.5, 20),
            ("search", records[4], 0.5, 0),
        ]
        expected = [
            direct(lambda: getattr(index, op)(query, parameter, query_size=size))
            for op, query, parameter, size in calls
        ]

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                outcomes = await asyncio.gather(
                    *(
                        getattr(service, op)(query, parameter, query_size=size)
                        for op, query, parameter, size in calls
                    ),
                    return_exceptions=True,
                )
                return outcomes, service.stats()

        outcomes, stats = asyncio.run(scenario())
        index.close()
        assert stats.batcher.largest_batch > 1  # the bad requests were fused
        for outcome, want in zip(outcomes, expected):
            if isinstance(want, Exception):
                assert type(outcome) is type(want)
                assert str(outcome) == str(want)
            else:
                assert outcome == want
        assert sum(isinstance(want, Exception) for want in expected) == 4


    @pytest.mark.parametrize("backend", ["gbkmv", "sharded"])
    def test_rejected_insert_fails_only_its_own_caller(self, backend, records):
        config = ShardedConfig(num_shards=2, max_workers=2) if backend == "sharded" else None
        index = create_index(backend, records, config)
        bad_records = ([[1, 2], [3]], [1.5, 2.5], [None, 1])
        expected = []
        for bad in bad_records:
            try:
                index.insert(bad)
            except Exception as error:  # noqa: BLE001 - compared below
                expected.append(error)
        assert len(expected) == len(bad_records)
        handled = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: handled.append(context)
            )
            async with SimilarityService(index, close_index=False) as service:
                first = await service.insert(records[0])
                outcomes = []
                for bad in bad_records:
                    try:
                        outcomes.append(await service.insert(bad))
                    except Exception as error:  # noqa: BLE001 - compared below
                        outcomes.append(error)
                last = await service.insert(records[1])
                hits = await service.search(records[1], 0.0)  # flushes first
                return first, outcomes, last, hits

        first, outcomes, last, hits = asyncio.run(scenario())
        for outcome, want in zip(outcomes, expected):
            assert type(outcome) is type(want)
            assert str(outcome) == str(want)
        assert last == first + 1
        assert index.next_record_id == last + 1
        assert last in {hit.record_id for hit in hits}
        assert handled == []
        index.close()


class TestVisibilityPolicies:
    def test_read_your_writes_sees_the_insert_immediately(self, records):
        index = fresh_index(records)
        new_id = len(records)

        async def scenario():
            config = ServingConfig(visibility="read-your-writes")
            async with SimilarityService(index, config) as service:
                assert await service.insert(records[0]) == new_id
                hits = await service.search(records[0], 0.0)
                return {hit.record_id for hit in hits}, service.pending_writes

        hit_ids, pending = asyncio.run(scenario())
        assert new_id in hit_ids
        assert pending == 0  # the query flushed the buffer

    def test_buffered_delete_is_never_visible(self, records):
        index = fresh_index(records)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                doomed = await service.insert(records[0])
                await service.delete(doomed)
                hits = await service.search(records[0], 0.0)
                return doomed, {hit.record_id for hit in hits}

        doomed, hit_ids = asyncio.run(scenario())
        assert doomed not in hit_ids
        # Exactly-once: the buffered insert+delete flushed once, so the
        # live count is back to the original corpus.
        assert index.num_records == len(records)

    def test_bounded_staleness_defers_the_flush(self, records):
        index = fresh_index(records)
        new_id = len(records)

        async def scenario():
            config = ServingConfig(
                visibility="bounded-staleness", max_write_lag_ms=30.0
            )
            async with SimilarityService(index, config) as service:
                await service.insert(records[0])
                hits = await service.search(records[0], 0.0)
                stale_ids = {hit.record_id for hit in hits}
                stale_pending = service.pending_writes
                # Wait out the lag deadline; the timer flush runs in the
                # background lane.
                deadline = 100
                while service.pending_writes and deadline:
                    await asyncio.sleep(0.01)
                    deadline -= 1
                hits = await service.search(records[0], 0.0)
                return stale_ids, stale_pending, {hit.record_id for hit in hits}

        stale_ids, stale_pending, fresh_ids = asyncio.run(scenario())
        assert new_id not in stale_ids  # the query did not flush
        assert stale_pending == 1
        assert new_id in fresh_ids  # but the lag deadline did

    def test_full_buffer_flushes_without_waiting_for_the_lag(self, records):
        index = fresh_index(records)

        async def scenario():
            config = ServingConfig(
                visibility="bounded-staleness",
                max_write_lag_ms=60_000.0,  # the lag never fires in-test
                max_buffered_writes=4,
            )
            async with SimilarityService(index, config) as service:
                for i in range(4):
                    await service.insert(records[i])
                deadline = 100
                while service.pending_writes and deadline:
                    await asyncio.sleep(0.01)
                    deadline -= 1
                return service.pending_writes, service.stats()

        pending, stats = asyncio.run(scenario())
        assert pending == 0
        assert stats.writes.flushes >= 1
        assert stats.writes.flushed_operations == 4

    def test_unknown_visibility_policy_is_rejected(self, records):
        index = fresh_index(records)
        with pytest.raises(ConfigurationError, match="visibility"):
            SimilarityService(index, ServingConfig(visibility="psychic"))
        index.close()


class TestLifecycle:
    def test_close_drains_buffered_writes_exactly_once(self, records):
        index = fresh_index(records)

        async def scenario():
            config = ServingConfig(
                visibility="bounded-staleness", max_write_lag_ms=60_000.0
            )
            service = SimilarityService(index, config, close_index=False)
            for i in range(5):
                await service.insert(records[i])
            await service.close()
            return service.stats()

        stats = asyncio.run(scenario())
        # Every buffered write applied exactly once: a double apply would
        # either raise (id drift) or inflate the record count.
        assert index.num_records == len(records) + 5
        assert stats.writes.flushed_operations == 5
        assert stats.writes.pending == 0

    def test_close_is_idempotent_and_rejects_further_requests(self, records):
        index = fresh_index(records)

        async def scenario():
            service = SimilarityService(index)
            await service.close()
            await service.close()
            assert service.closed
            with pytest.raises(ConfigurationError, match="closed"):
                await service.search(records[0], THRESHOLD)
            with pytest.raises(ConfigurationError, match="closed"):
                await service.insert(records[0])

        asyncio.run(scenario())

    def test_drain_keeps_the_service_open(self, records, queries):
        index = fresh_index(records)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                await service.insert(records[0])
                await service.drain()
                assert service.pending_writes == 0
                # Still serving after the drain.
                return await service.search(queries[0], THRESHOLD)

        assert asyncio.run(scenario()) == index.search(queries[0], THRESHOLD)

    def test_static_backend_serves_reads_and_refuses_writes(self, records, queries):
        static = create_index("brute-force", records)
        expected = static.search(queries[0], THRESHOLD)

        async def scenario():
            async with SimilarityService(static) as service:
                hits = await service.search(queries[0], THRESHOLD)
                assert service.stats().writes is None
                with pytest.raises(CapabilityError, match="not dynamic"):
                    await service.insert(records[0])
                with pytest.raises(CapabilityError):
                    await service.delete(0)
                return hits

        assert asyncio.run(scenario()) == expected

    def test_invalid_configs_are_rejected(self, records):
        index = fresh_index(records)
        for bad in (
            ServingConfig(max_batch_size=0),
            ServingConfig(max_write_lag_ms=-5.0),
            ServingConfig(max_buffered_writes=0),
        ):
            with pytest.raises(ConfigurationError):
                SimilarityService(index, bad)
        index.close()


class TestLoadGenerator:
    def test_closed_loop_report_shape(self, records, queries):
        index = fresh_index(records)

        async def scenario():
            async with SimilarityService(index, close_index=False) as service:
                return await run_closed_loop(
                    service,
                    queries,
                    THRESHOLD,
                    num_clients=4,
                    requests_per_client=6,
                    insert_pool=records[:10],
                    write_fraction=0.4,
                    top_k_fraction=0.25,
                    seed=3,
                )

        report = asyncio.run(scenario())
        assert report.total_requests == 24
        assert report.throughput_rps > 0.0
        assert sum(report.operation_counts.values()) == 24
        assert set(report.operation_counts) <= {"search", "top_k", "insert", "delete"}
        assert report.latency.count == 24
        assert report.latency.p99_ms >= report.latency.p50_ms
        payload = json.dumps(report.as_dict())  # JSON-ready for BENCH_*
        assert "throughput_rps" in payload
        # The drain at the end of the loop leaves nothing buffered.
        assert index.num_records >= len(records)
        index.close()

    def test_closed_loop_is_deterministic_in_request_mix(self, records, queries):
        def run_once():
            index = fresh_index(records)
            service = SimilarityService(index)
            return run_load(
                service,
                queries,
                THRESHOLD,
                num_clients=3,
                requests_per_client=5,
                insert_pool=records[:6],
                write_fraction=0.5,
                seed=11,
            )

        first, second = run_once(), run_once()
        assert first.operation_counts == second.operation_counts
        assert first.total_requests == second.total_requests == 15

    def test_load_generator_validates_inputs(self, records, queries):
        index = fresh_index(records)

        async def scenario():
            async with SimilarityService(index) as service:
                with pytest.raises(ConfigurationError):
                    await run_closed_loop(service, [], THRESHOLD)
                with pytest.raises(ConfigurationError):
                    await run_closed_loop(service, queries, THRESHOLD, num_clients=0)
                with pytest.raises(ConfigurationError):
                    await run_closed_loop(
                        service, queries, THRESHOLD, write_fraction=0.5
                    )  # no insert_pool

        asyncio.run(scenario())
