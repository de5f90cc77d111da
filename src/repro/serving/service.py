""":class:`SimilarityService` — the asyncio serving front of any backend.

The service wraps one built :class:`~repro.api.SimilarityIndex` (any
registered backend) behind an async request API shaped like the index
surface itself::

    service = SimilarityService(index, ServingConfig())
    async with service:
        hits = await service.search(query, threshold=0.5)
        top = await service.top_k(query, k=10)
        record_id = await service.insert(record)

Three mechanisms make the single-request API run at workload speed:

- **Query micro-batching** (:class:`~repro.serving.batcher.MicroBatcher`):
  concurrent ``search``/``top_k`` calls landing inside the configured
  window fuse into one ``search_many``/``top_k_many`` engine call.
  Requests fuse only when one call can answer them all — same operation,
  same threshold (or ``k``) — and the engine guarantees batched results
  are identical to per-query calls, so fusion is invisible to clients.
- **Write coalescing** (:class:`~repro.serving.write_buffer.WriteCoalescer`):
  ``insert``/``delete``/``update`` buffer in arrival order with eagerly
  assigned ids and flush as bulk ingests, under an explicit visibility
  policy — ``read-your-writes`` (the buffer flushes before every query
  batch) or ``bounded-staleness`` (queries never wait on writes; the
  buffer flushes within ``max_write_lag_ms``).  Either way a full buffer
  (``max_buffered_writes``) flushes immediately.
- **One worker lane**: every index call — batch queries and write
  flushes — runs through a single worker thread off the event loop, in
  submission order.  The indexes are not thread-safe under mutation;
  the single lane makes flush-then-query ordering deterministic and
  keeps the event loop free to accumulate the next batch while the
  engine runs (the kernels release the GIL).

Lifecycle: ``start`` is implicit in the first request; ``drain`` fires
pending batches and flushes every buffered write; ``close`` drains, then
shuts down the batcher, the worker lane, and (by default) the wrapped
index itself — releasing e.g. the sharded backend's executor pools
deterministically.  ``async with`` does start/close automatically.

The service assumes it is the index's **only writer** while open (the
eager id assignment depends on it); concurrent read-only access from
outside is harmless but unserialised.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro._errors import CapabilityError, ConfigurationError
from repro.api.config import VISIBILITY_POLICIES, ServingConfig
from repro.api.interface import SimilarityIndex, positive_k
from repro.api.results import SearchResult
from repro.serving.batcher import BatcherStats, MicroBatcher
from repro.serving.write_buffer import WriteBufferStats, WriteCoalescer

_SEARCH = "search"
_TOP_K = "top_k"


@dataclass(frozen=True)
class ServiceStats:
    """One snapshot of a service's cumulative counters.

    ``batcher.requests / batcher.batches`` is the query fusion factor;
    ``writes.inserts / writes.insert_batches`` the write coalescing
    factor.  ``writes`` is ``None`` for a service over a static index.
    """

    batcher: BatcherStats
    writes: WriteBufferStats | None


def _validate_config(config: ServingConfig) -> ServingConfig:
    if int(config.max_batch_size) < 1:
        raise ConfigurationError("max_batch_size must be at least 1")
    if float(config.max_batch_delay_us) < 0.0:
        raise ConfigurationError("max_batch_delay_us must be non-negative")
    if config.visibility not in VISIBILITY_POLICIES:
        raise ConfigurationError(
            f"unknown visibility policy {config.visibility!r}; "
            f"use one of {VISIBILITY_POLICIES}"
        )
    if float(config.max_write_lag_ms) < 0.0:
        raise ConfigurationError("max_write_lag_ms must be non-negative")
    if int(config.max_buffered_writes) < 1:
        raise ConfigurationError("max_buffered_writes must be at least 1")
    return config


class SimilarityService:
    """Async micro-batching / write-coalescing front over one index.

    Parameters
    ----------
    index:
        Any built backend.  Static backends serve queries only — their
        write methods keep raising
        :class:`~repro._errors.CapabilityError` through the service.
    config:
        A :class:`~repro.api.ServingConfig`; ``None`` uses the defaults.
    next_record_id:
        Override of the write buffer's id seed (rarely needed — every
        dynamic backend in the library exposes ``next_record_id``).
    close_index:
        Whether :meth:`close` also closes the wrapped index (default
        true; pass false when the index outlives the service).
    """

    def __init__(
        self,
        index: SimilarityIndex,
        config: ServingConfig | None = None,
        *,
        next_record_id: int | None = None,
        close_index: bool = True,
    ) -> None:
        self._index = index
        self._config = _validate_config(config or ServingConfig())
        self._close_index = bool(close_index)
        self._writes = (
            WriteCoalescer(index, next_record_id=next_record_id)
            if index.capabilities.dynamic
            else None
        )
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch_size=self._config.max_batch_size,
            max_delay=self._config.max_batch_delay_us / 1e6,
        )
        self._lane: ThreadPoolExecutor | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        self._lag_timer: asyncio.TimerHandle | None = None
        self._closed = False

    # --------------------------------------------------------------- plumbing
    @property
    def index(self) -> SimilarityIndex:
        """The wrapped index (do not mutate it while the service is open)."""
        return self._index

    @property
    def config(self) -> ServingConfig:
        """The validated serving configuration."""
        return self._config

    def start(self) -> "SimilarityService":
        """Create the worker lane eagerly (otherwise the first request does)."""
        self._require_open()
        if self._lane is None:
            self._lane = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serving"
            )
        return self

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the serving layer is closed")

    async def _in_lane(self, fn, *args):
        """Run one index call on the worker lane, in submission order."""
        self.start()
        return await asyncio.get_running_loop().run_in_executor(
            self._lane, fn, *args
        )

    async def _execute_batch(self, key, items: Sequence) -> Sequence:
        """Run one fused engine call for a batch (plus any due RYW flush)."""
        kind, parameter, has_sizes = key
        queries = [item[0] for item in items]
        sizes = [item[1] for item in items] if has_sizes else None
        flush_first = (
            self._writes is not None
            and self._config.visibility == "read-your-writes"
        )

        def work():
            # Flush inside the same lane slot as the queries: the pair is
            # atomic relative to every other flush and batch in the lane.
            if flush_first and self._writes.pending:
                self._writes.flush()
            if kind == _SEARCH:
                return self._index.search_many(queries, parameter, query_sizes=sizes)
            return self._index.top_k_many(queries, parameter, query_sizes=sizes)

        return await self._in_lane(work)

    # ----------------------------------------------------------------- reads
    async def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Serve one containment search; identical to ``index.search``.

        Requests sharing a threshold (and ``query_size`` presence) that
        land inside the micro-batch window execute as one
        ``search_many`` call.
        """
        self._require_open()
        key = (_SEARCH, float(threshold), query_size is not None)
        item = (list(query), None if query_size is None else int(query_size))
        return await self._batcher.submit(key, item)

    async def top_k(
        self, query: Iterable[object], k: int, query_size: int | None = None
    ) -> list[SearchResult]:
        """Serve one top-k query; identical to ``index.top_k``."""
        self._require_open()
        key = (_TOP_K, positive_k(k), query_size is not None)
        item = (list(query), None if query_size is None else int(query_size))
        return await self._batcher.submit(key, item)

    # ---------------------------------------------------------------- writes
    def _writes_or_raise(self) -> WriteCoalescer:
        self._require_open()
        if self._writes is None:
            raise CapabilityError(
                f"backend {self._index.backend_id or type(self._index).__name__!r} "
                "is not dynamic; the serving layer cannot buffer writes for it"
            )
        return self._writes

    async def insert(self, record: Iterable[object]) -> int:
        """Buffer an insert; returns its (already final) record id.

        Visibility follows the configured policy: under
        ``read-your-writes`` any later query through this service sees
        the record; under ``bounded-staleness`` it appears within
        ``max_write_lag_ms``.
        """
        record_id = self._writes_or_raise().insert(record)
        self._after_write()
        return record_id

    async def delete(self, record_id: int) -> None:
        """Buffer a delete (the target may itself still be buffered)."""
        self._writes_or_raise().delete(record_id)
        self._after_write()

    async def update(self, record_id: int, record: Iterable[object]) -> int:
        """Buffer an in-place replace; returns the unchanged record id."""
        result = self._writes_or_raise().update(record_id, record)
        self._after_write()
        return result

    def _after_write(self) -> None:
        """Arm the flush triggers: buffer-full now, or the lag deadline."""
        if self._writes.pending >= self._config.max_buffered_writes:
            if self._lag_timer is not None:
                self._lag_timer.cancel()
                self._lag_timer = None
            self._spawn_flush()
        elif self._lag_timer is None:
            self._lag_timer = asyncio.get_running_loop().call_later(
                self._config.max_write_lag_ms / 1e3, self._lag_flush
            )

    def _lag_flush(self) -> None:
        self._lag_timer = None
        if not self._closed and self._writes.pending:
            self._spawn_flush()

    def _spawn_flush(self) -> None:
        task = asyncio.get_running_loop().create_task(
            self._in_lane(self._writes.flush)
        )
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_done)

    def _flush_done(self, task: asyncio.Task) -> None:
        self._flush_tasks.discard(task)
        # A background flush has no awaiter; surface its failure instead
        # of letting the event loop's "exception was never retrieved"
        # warning swallow it.
        if not task.cancelled() and task.exception() is not None:
            asyncio.get_running_loop().call_exception_handler(
                {
                    "message": "serving write-buffer flush failed",
                    "exception": task.exception(),
                }
            )

    # -------------------------------------------------------------- lifecycle
    async def flush_writes(self) -> int:
        """Flush the write buffer now; returns the operations applied."""
        self._require_open()
        if self._writes is None or not self._writes.pending:
            return 0
        return await self._in_lane(self._writes.flush)

    async def drain(self) -> None:
        """Deliver everything in flight: batches executed, writes flushed.

        Fires every pending micro-batch immediately, waits for their
        results to fan out, waits for background flushes, and flushes
        whatever the write buffer still holds.  The service stays open.
        """
        self._require_open()
        await self._batcher.drain()
        while self._flush_tasks:
            await asyncio.gather(*list(self._flush_tasks), return_exceptions=True)
        if self._writes is not None and self._writes.pending:
            await self._in_lane(self._writes.flush)

    async def close(self) -> None:
        """Drain, then shut everything down; idempotent.

        Stops the batcher (later submissions raise), cancels the lag
        timer, joins the worker lane, and — unless constructed with
        ``close_index=False`` — closes the wrapped index, releasing
        e.g. a sharded backend's fan-out pools deterministically.
        """
        if self._closed:
            return
        await self.drain()
        await self._batcher.close()
        if self._lag_timer is not None:
            self._lag_timer.cancel()
            self._lag_timer = None
        self._closed = True
        if self._lane is not None:
            self._lane.shutdown(wait=True)
            self._lane = None
        if self._close_index:
            self._index.close()

    async def __aenter__(self) -> "SimilarityService":
        return self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # ------------------------------------------------------------- inspection
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._closed

    @property
    def pending_writes(self) -> int:
        """Buffered (not yet flushed) write operations."""
        return 0 if self._writes is None else self._writes.pending

    def stats(self) -> ServiceStats:
        """Snapshot of the batching and coalescing counters."""
        return ServiceStats(
            batcher=self._batcher.stats(),
            writes=None if self._writes is None else self._writes.stats(),
        )
