"""Query micro-batching: concurrent requests fused into one engine call.

The fused query engine answers a workload of queries far faster than the
same queries one at a time (``BENCH_query_engine.json``), but a live
service receives them one at a time.  :class:`MicroBatcher` recovers the
workload shape at the front door: requests accumulate per *batch key* —
requests are only fused when one engine call can answer them all, e.g.
searches sharing a threshold — and execute as one batch, fanning the
per-request results back to per-request futures.

Batches are driven by the lane that executes them, not by a timer: at
most one batch is in flight, because the service's lane has one thread.
Requests that arrive while a batch executes wait in their buckets; when
it completes and its results are delivered, the bucket holding the
oldest pending request fires with up to ``max_batch_size`` of its
requests.  The busier the lane, the larger the next batch — the
iteration-level scheduling of Orca (Yu et al., OSDI 2022).  The next
batch is chosen one loop hop after the results are delivered, so
callers woken by them can join it; likewise a request reaching an idle
batcher fires after one ``call_soon`` hop, so a burst submitted in one
loop iteration still fuses.

The batcher is transport-agnostic: it knows nothing about indexes, only
an async ``execute(key, items) -> results`` callable supplied by the
owner (:class:`repro.serving.service.SimilarityService` runs the fused
engine call on its worker lane there).  All batcher state lives on the
event loop thread — no locks.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Hashable, NamedTuple, Sequence

from repro._errors import ConfigurationError


@dataclass(frozen=True)
class BatcherStats:
    """Cumulative counters of one :class:`MicroBatcher`.

    ``requests / batches`` is the achieved fusion factor; ``largest_batch``
    shows whether the configured ceiling was ever reached.  Requests
    whose caller cancelled before their batch fired never execute and
    are not counted.
    """

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per executed batch (0.0 before any batch)."""
        return self.requests / self.batches if self.batches else 0.0


class _Request(NamedTuple):
    """One pending request; ``arrival`` orders requests across buckets."""

    arrival: int
    item: object
    future: asyncio.Future


class MicroBatcher:
    """Fuse per-key requests into batches, one batch in flight at a time.

    Parameters
    ----------
    execute:
        Async callable receiving ``(key, items)`` and returning one
        result per item, in item order.  A result that is an exception
        instance is that request's error: it is raised to that caller
        alone, while the batch's other requests receive their results.
        An exception raised by ``execute`` itself fails every request of
        the batch.
    max_batch_size:
        Batch ceiling; a bucket holding more fires its oldest
        ``max_batch_size`` requests and keeps the rest in line.  ``1``
        degenerates to one execution per request (the unbatched
        baseline).
    """

    def __init__(
        self,
        execute: Callable[[Hashable, Sequence], Awaitable[Sequence]],
        max_batch_size: int = 64,
    ) -> None:
        if int(max_batch_size) < 1:
            raise ConfigurationError("max_batch_size must be at least 1")
        self._execute = execute
        self._max_batch_size = int(max_batch_size)
        self._buckets: dict[Hashable, list[_Request]] = {}
        self._arrivals = 0
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        self._requests = 0
        self._batches = 0
        self._largest_batch = 0

    # ------------------------------------------------------------------ submit
    def submit(self, key: Hashable, item) -> asyncio.Future:
        """Enqueue one request; the returned future resolves to its result."""
        if self._closed:
            raise ConfigurationError("the micro-batcher is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        request = _Request(self._arrivals, item, future)
        self._buckets.setdefault(key, []).append(request)
        self._arrivals += 1
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = loop.create_task(self._dispatch())
        return future

    # ------------------------------------------------------------------- fire
    async def _dispatch(self) -> None:
        """Execute batches one at a time until no request is pending."""
        while self._buckets:
            key, batch = self._next_batch()
            if batch:
                await self._run(key, batch)
                # One loop hop before choosing the next batch: callers
                # woken by these results submit again first and join it.
                await asyncio.sleep(0)

    def _next_batch(self) -> tuple[Hashable, list[_Request]]:
        """Detach the oldest request's bucket, up to the batch ceiling.

        Requests whose future is already done (the caller cancelled) are
        dropped here; the remainder of an over-full bucket stays pending
        and competes by its own oldest request.
        """
        key = min(self._buckets, key=lambda k: self._buckets[k][0].arrival)
        live = [request for request in self._buckets.pop(key) if not request.future.done()]
        if len(live) > self._max_batch_size:
            self._buckets[key] = live[self._max_batch_size :]
            live = live[: self._max_batch_size]
        return key, live

    async def _run(self, key: Hashable, batch: list[_Request]) -> None:
        self._requests += len(batch)
        self._batches += 1
        self._largest_batch = max(self._largest_batch, len(batch))
        items = [request.item for request in batch]
        try:
            results = await self._execute(key, items)
            if len(results) != len(items):
                raise ConfigurationError(
                    f"batch execution returned {len(results)} results for "
                    f"{len(items)} requests"
                )
        except Exception as error:  # noqa: BLE001 - fan the error out
            results = [error] * len(items)
        for request, result in zip(batch, results):
            if request.future.done():
                continue
            if isinstance(result, BaseException):
                request.future.set_exception(result)
            else:
                request.future.set_result(result)

    # --------------------------------------------------------------- lifecycle
    async def drain(self) -> None:
        """Wait until every pending request has been executed and delivered."""
        while self._dispatcher is not None and not self._dispatcher.done():
            # wait() rather than await: cancelling the drain must not
            # cancel the batches other callers are waiting on.
            await asyncio.wait((self._dispatcher,))

    async def close(self) -> None:
        """Reject all further submissions, then drain."""
        self._closed = True
        await self.drain()

    # ------------------------------------------------------------- inspection
    @property
    def pending(self) -> int:
        """Requests waiting for a batch (not counting the one in flight)."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def stats(self) -> BatcherStats:
        """Snapshot of the cumulative counters."""
        return BatcherStats(
            requests=self._requests,
            batches=self._batches,
            largest_batch=self._largest_batch,
        )
