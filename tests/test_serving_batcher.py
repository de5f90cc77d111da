"""MicroBatcher mechanics: lane-driven fusion, key order, fan-out.

The batcher is index-agnostic, so these tests drive it with plain echo
executors and assert on the *shape* of the executions: which requests
fused, in which order buckets fired, how errors fan out.  A gated
executor holds each batch in flight until the test releases it, which
is how requests come to wait behind a busy lane.  There is no
pytest-asyncio in the toolchain — every test runs its coroutine through
``asyncio.run`` directly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro._errors import ConfigurationError
from repro.serving import MicroBatcher


class EchoExecutor:
    """Returns each item unchanged and records every batch it ran."""

    def __init__(self) -> None:
        self.batches: list[tuple[object, list]] = []

    async def __call__(self, key, items):
        self.batches.append((key, list(items)))
        return list(items)


class GatedExecutor(EchoExecutor):
    """Echo executor that holds every batch until ``gate`` is released."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = asyncio.Semaphore(0)

    async def __call__(self, key, items):
        self.batches.append((key, list(items)))
        await self.gate.acquire()
        return list(items)


async def settle() -> None:
    """Let every callback and task step that is ready run."""
    for _ in range(10):
        await asyncio.sleep(0)


class TestFusion:
    def test_same_iteration_burst_fuses_into_one_batch(self):
        async def scenario():
            executor = EchoExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            futures = [batcher.submit("k", i) for i in range(5)]
            results = await asyncio.gather(*futures)
            return executor, batcher, results

        executor, batcher, results = asyncio.run(scenario())
        assert results == [0, 1, 2, 3, 4]
        assert len(executor.batches) == 1
        assert executor.batches[0] == ("k", [0, 1, 2, 3, 4])
        stats = batcher.stats()
        assert stats.requests == 5
        assert stats.batches == 1
        assert stats.largest_batch == 5
        assert stats.mean_batch_size == pytest.approx(5.0)

    def test_over_full_bucket_splits_and_its_remainder_fires_next(self):
        async def scenario():
            executor = EchoExecutor()
            batcher = MicroBatcher(executor, max_batch_size=2)
            futures = [batcher.submit("k", i) for i in range(5)]
            futures.append(batcher.submit("j", 5))
            return executor, await asyncio.gather(*futures)

        executor, results = asyncio.run(scenario())
        assert results == [0, 1, 2, 3, 4, 5]
        # The remainder keeps its place ahead of the younger "j" bucket.
        assert executor.batches == [("k", [0, 1]), ("k", [2, 3]), ("k", [4]), ("j", [5])]

    def test_distinct_keys_never_fuse(self):
        async def scenario():
            executor = EchoExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            futures = [batcher.submit(i % 2, i) for i in range(6)]
            return executor, await asyncio.gather(*futures)

        executor, results = asyncio.run(scenario())
        assert results == [0, 1, 2, 3, 4, 5]
        assert sorted(key for key, _items in executor.batches) == [0, 1]
        by_key = dict(executor.batches)
        assert by_key[0] == [0, 2, 4]
        assert by_key[1] == [1, 3, 5]

    def test_requests_arriving_while_a_batch_runs_fuse_into_the_next(self):
        async def scenario():
            executor = GatedExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            first = batcher.submit("k", "a")
            await settle()  # "a" is in flight, holding the lane
            second = batcher.submit("k", "b")
            await asyncio.sleep(0.01)  # a later loop iteration, well apart
            third = batcher.submit("k", "c")
            executor.gate.release()
            await settle()
            executor.gate.release()
            return executor, await asyncio.gather(first, second, third)

        executor, results = asyncio.run(scenario())
        assert results == ["a", "b", "c"]
        assert executor.batches == [("k", ["a"]), ("k", ["b", "c"])]

    def test_pending_keys_alternate_oldest_first(self):
        async def scenario():
            executor = GatedExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            futures = [batcher.submit("x", "x0")]
            await settle()
            futures += [batcher.submit("x", "x1"), batcher.submit("y", "y1")]
            executor.gate.release()
            await settle()  # x1 (the oldest) is in flight
            futures.append(batcher.submit("x", "x2"))
            for _ in range(3):
                executor.gate.release()
                await settle()
            return executor, await asyncio.gather(*futures)

        executor, results = asyncio.run(scenario())
        assert results == ["x0", "x1", "y1", "x2"]
        # y1 is older than x2, so a busy "x" cannot starve "y".
        assert executor.batches == [("x", ["x0"]), ("x", ["x1"]), ("y", ["y1"]), ("x", ["x2"])]


class TestCancellation:
    def test_cancelled_requests_are_skipped(self):
        async def scenario():
            executor = GatedExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            first = batcher.submit("k", "a")
            await settle()
            cancelled = batcher.submit("k", "b")
            await asyncio.sleep(0.01)
            third = batcher.submit("k", "c")
            cancelled.cancel()
            executor.gate.release()
            await settle()
            executor.gate.release()
            results = await asyncio.gather(first, third)
            return executor, batcher, results, cancelled

        executor, batcher, results, cancelled = asyncio.run(scenario())
        assert results == ["a", "c"]
        assert cancelled.cancelled()
        assert executor.batches == [("k", ["a"]), ("k", ["c"])]
        assert batcher.stats().requests == 2

    def test_a_bucket_with_only_cancelled_requests_makes_no_call(self):
        async def scenario():
            executor = EchoExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            doomed = batcher.submit("k", "a")
            doomed.cancel()
            await batcher.drain()
            return executor, batcher.stats()

        executor, stats = asyncio.run(scenario())
        assert executor.batches == []
        assert stats.batches == 0


class TestErrors:
    def test_execution_error_fans_out_to_every_request(self):
        async def scenario():
            async def explode(key, items):
                raise RuntimeError("engine failure")

            batcher = MicroBatcher(explode, max_batch_size=64)
            futures = [batcher.submit("k", i) for i in range(3)]
            return await asyncio.gather(*futures, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 3
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)

    def test_result_length_mismatch_is_an_error(self):
        async def scenario():
            async def short(key, items):
                return list(items)[:-1]

            batcher = MicroBatcher(short, max_batch_size=64)
            futures = [batcher.submit("k", i) for i in range(3)]
            return await asyncio.gather(*futures, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert all(isinstance(outcome, ConfigurationError) for outcome in outcomes)

    def test_exception_result_fails_only_its_request(self):
        async def scenario():
            async def picky(key, items):
                return [ValueError(f"bad {i}") if i < 0 else i for i in items]

            batcher = MicroBatcher(picky, max_batch_size=64)
            first, bad, third = (batcher.submit("k", i) for i in (1, -2, 3))
            with pytest.raises(ValueError, match="bad -2"):
                await bad
            return batcher, await first, await third

        batcher, first, third = asyncio.run(scenario())
        assert (first, third) == (1, 3)
        assert batcher.stats().batches == 1

    def test_raising_batch_frees_the_lane_for_the_next_bucket(self):
        async def scenario():
            async def flaky(key, items):
                if key == "bad":
                    raise RuntimeError("engine failure")
                return list(items)

            batcher = MicroBatcher(flaky, max_batch_size=64)
            bad = batcher.submit("bad", 1)
            good = batcher.submit("good", 2)
            return await asyncio.gather(bad, good, return_exceptions=True)

        bad, good = asyncio.run(scenario())
        assert isinstance(bad, RuntimeError)
        assert good == 2

    def test_invalid_parameters_are_rejected(self):
        async def noop(key, items):
            return list(items)

        with pytest.raises(ConfigurationError):
            MicroBatcher(noop, max_batch_size=0)


class TestLifecycle:
    def test_close_delivers_pending_then_rejects(self):
        async def scenario():
            executor = EchoExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            pending = batcher.submit("k", "late")
            await batcher.close()
            delivered = await pending
            with pytest.raises(ConfigurationError, match="closed"):
                batcher.submit("k", "too late")
            return delivered

        assert asyncio.run(scenario()) == "late"

    def test_drain_waits_for_in_flight_batches(self):
        async def scenario():
            started = asyncio.Event()

            async def slow(key, items):
                started.set()
                await asyncio.sleep(0.01)
                return list(items)

            batcher = MicroBatcher(slow, max_batch_size=1)
            future = batcher.submit("k", 1)
            await started.wait()
            await batcher.drain()
            assert future.done()
            return await future

        assert asyncio.run(scenario()) == 1

    def test_drain_delivers_buckets_queued_behind_an_in_flight_batch(self):
        async def scenario():
            executor = GatedExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            first = batcher.submit("k", "a")
            await settle()
            queued = batcher.submit("j", "b")
            drain = asyncio.create_task(batcher.drain())
            await settle()
            assert not drain.done()  # "a" still holds the lane
            executor.gate.release()
            await settle()
            assert not drain.done()  # "b" runs behind it
            executor.gate.release()
            await drain
            assert first.done() and queued.done()
            return executor, await first, await queued

        executor, first, queued = asyncio.run(scenario())
        assert (first, queued) == ("a", "b")
        assert executor.batches == [("k", ["a"]), ("j", ["b"])]

    def test_pending_counts_unfired_requests(self):
        async def scenario():
            executor = EchoExecutor()
            batcher = MicroBatcher(executor, max_batch_size=64)
            future = batcher.submit("k", 1)
            depth = batcher.pending
            await batcher.close()
            await future
            return depth, batcher.pending

        assert asyncio.run(scenario()) == (1, 0)
