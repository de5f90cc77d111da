"""Write coalescing: buffered inserts/deletes/updates, flushed in bulk.

A live service receives writes one at a time, but the dynamic backends
ingest an order of magnitude faster through ``insert_many`` (the bulk
pipeline) than through per-record ``insert`` calls.
:class:`WriteCoalescer` closes that gap without changing semantics: it
buffers write operations in arrival order, assigns record ids *eagerly*
(the sequential-id invariant every dynamic backend in the library
declares via ``next_record_id``), and on :meth:`flush` replays the
buffer in order with maximal runs of consecutive inserts collapsed into
one ``insert_many`` call.

Because order is preserved, every interleaving is well-defined: a
delete of a buffered-but-unflushed insert simply lands after it in the
same flush (the record is never visible to any query), and an update
racing a flush goes to the *next* flush — the flush snapshots the
buffer atomically and operations enqueued during it stay queued.

The coalescer is deliberately synchronous and serves any dynamic
:class:`~repro.api.SimilarityIndex`, seeding its ids from the index's
``next_record_id``: the asyncio serving layer
(:mod:`repro.serving.service`) drives it from a worker thread under its
visibility policy, and the dynamic-stream harness
(:func:`repro.evaluation.harness.evaluate_dynamic_stream`) drives it
inline — one coalescing path for service and harness.

The coalescer assumes it is the **single writer** of the index it
wraps; a concurrent writer would break the eager id assignment (the
flush validates assigned ids and raises if the assumption was
violated).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro._errors import ConfigurationError
from repro.api.interface import SimilarityIndex
from repro.hashing import check_record, materialize_record

_INSERT = "insert"
_DELETE = "delete"
_UPDATE = "update"


@dataclass(frozen=True)
class WriteBufferStats:
    """Cumulative counters of one :class:`WriteCoalescer`.

    ``insert_batches`` counts the ``insert_many`` calls issued by
    flushes, so ``inserts / insert_batches`` is the achieved coalescing
    factor; ``pending`` is the current (not yet flushed) buffer depth.
    """

    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    flushes: int = 0
    flushed_operations: int = 0
    insert_batches: int = 0
    pending: int = 0


class WriteCoalescer:
    """Order-preserving write buffer over one dynamic :class:`SimilarityIndex`.

    Parameters
    ----------
    index:
        The dynamic index every flush applies to.  Its
        ``next_record_id`` seeds the eager id assignment.

    Raises
    ------
    ConfigurationError
        If the index is not a dynamic :class:`SimilarityIndex`, or does
        not name its next record id.
    """

    def __init__(self, index: SimilarityIndex) -> None:
        if not (isinstance(index, SimilarityIndex) and index.capabilities.dynamic):
            raise ConfigurationError(
                f"{type(index).__name__} is not dynamic; a write buffer needs "
                "a SimilarityIndex with insert_many/delete/update support"
            )
        next_record_id = index.next_record_id
        if next_record_id is None:
            raise ConfigurationError(
                f"{type(index).__name__} does not expose next_record_id; a "
                "write buffer needs it to assign record ids eagerly"
            )
        self._index = index
        self._next_id = int(next_record_id)
        self._ops: deque[tuple] = deque()
        # Guards the buffer, not the index: enqueues may race a flush
        # running on the service's worker thread.  The flush snapshots
        # the buffer under the lock and applies it outside, so enqueue
        # latency never includes index work.
        self._lock = threading.Lock()
        self._inserts = 0
        self._deletes = 0
        self._updates = 0
        self._flushes = 0
        self._flushed_operations = 0
        self._insert_batches = 0

    # ----------------------------------------------------------------- enqueue
    def insert(self, record: Iterable[object]) -> int:
        """Buffer an insert; returns the id the flush will assign to it.

        The id is final the moment this returns (sequential assignment,
        single writer): callers may delete or update it before the
        record ever reaches the index — the operations replay in order.
        A record the index would reject raises the index's own error
        here and takes no id.
        """
        # Checked before it takes an id: buffered, a record the index
        # rejects would fail its whole flush and leave the promised ids
        # out of step with the index's.
        materialized = materialize_record(record)
        check_record(materialized)
        with self._lock:
            record_id = self._next_id
            self._next_id += 1
            self._ops.append((_INSERT, materialized, record_id))
            self._inserts += 1
        return record_id

    def delete(self, record_id: int) -> None:
        """Buffer a delete of a flushed *or still-buffered* record.

        Ids are range-checked eagerly (an id no insert ever assigned is
        rejected here); deleting an already-deleted record surfaces at
        flush time, from the index itself.
        """
        record_id = int(record_id)
        with self._lock:
            if record_id < 0 or record_id >= self._next_id:
                raise ConfigurationError(f"unknown record id {record_id}")
            self._ops.append((_DELETE, record_id))
            self._deletes += 1

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Buffer an in-place replace; returns the (unchanged) record id."""
        materialized = materialize_record(record)
        check_record(materialized, "cannot update a record to be empty")
        record_id = int(record_id)
        with self._lock:
            if record_id < 0 or record_id >= self._next_id:
                raise ConfigurationError(f"unknown record id {record_id}")
            self._ops.append((_UPDATE, record_id, materialized))
            self._updates += 1
        return record_id

    # ------------------------------------------------------------------ flush
    def flush(self) -> int:
        """Apply every buffered operation to the index, in order; return count.

        Maximal runs of consecutive inserts become one ``insert_many``
        call; deletes and updates apply individually between runs.  The
        buffer is snapshotted atomically up front: operations enqueued
        while the flush runs go to the next flush.  Each buffered
        operation is applied exactly once — if one raises, it is
        discarded, the operations after it are re-queued ahead of any
        concurrent enqueues, and the error propagates.
        """
        with self._lock:
            if not self._ops:
                return 0
            ops = list(self._ops)
            self._ops.clear()
            self._flushes += 1
        applied = 0  # operations known to have reached the index
        consumed = 0  # operations taken off the buffer (applied or failed)
        try:
            position = 0
            while position < len(ops):
                operation = ops[position]
                if operation[0] == _INSERT:
                    stop = position + 1
                    while stop < len(ops) and ops[stop][0] == _INSERT:
                        stop += 1
                    run = ops[position:stop]
                    # A failing bulk ingest consumes the whole run: how
                    # much of it landed is the backend's business, so
                    # none of it may be replayed.
                    consumed = stop
                    assigned = self._index.insert_many([op[1] for op in run])
                    self._check_assigned(assigned, run)
                    self._insert_batches += 1
                    applied = stop
                    position = stop
                else:
                    consumed = position + 1
                    if operation[0] == _DELETE:
                        self._index.delete(operation[1])
                    else:
                        self._index.update(operation[1], operation[2])
                    position += 1
                    applied = position
        except BaseException:
            # `applied` ops landed and the failing op/run is consumed;
            # the rest re-queue at the head (ahead of any concurrent
            # enqueues) so no later write is dropped or doubled.
            with self._lock:
                self._ops.extendleft(reversed(ops[consumed:]))
                self._flushed_operations += applied
            raise
        with self._lock:
            self._flushed_operations += applied
        return applied

    def _check_assigned(self, assigned: list[int], run: list[tuple]) -> None:
        if len(assigned) != len(run):
            raise ConfigurationError(
                f"insert_many returned {len(assigned)} ids for {len(run)} "
                "buffered inserts"
            )
        for got, op in zip(assigned, run):
            if int(got) != op[2]:
                raise ConfigurationError(
                    f"index assigned record id {got} where the write buffer "
                    f"promised {op[2]}; the buffer must be the index's only "
                    "writer"
                )

    # ------------------------------------------------------------- inspection
    @property
    def pending(self) -> int:
        """Number of buffered (not yet flushed) operations."""
        with self._lock:
            return len(self._ops)

    @property
    def next_record_id(self) -> int:
        """The id the next buffered insert will be assigned."""
        with self._lock:
            return self._next_id

    def stats(self) -> WriteBufferStats:
        """Snapshot of the cumulative counters."""
        with self._lock:
            return WriteBufferStats(
                inserts=self._inserts,
                deletes=self._deletes,
                updates=self._updates,
                flushes=self._flushes,
                flushed_operations=self._flushed_operations,
                insert_batches=self._insert_batches,
                pending=len(self._ops),
            )
