"""Deterministic record-id → shard routing.

A record's shard is a pure function of its *global record id*:
``mix64(id) % num_shards``.  Hashing the id rather than taking
``id % num_shards`` keeps shards balanced under any insertion pattern
(round-robin would do that too, but the hash also decorrelates shard
membership from dataset order, so power-law datasets spread their heavy
records evenly), and makes the routing reconstructable from nothing but
the number of ids ever assigned — which is all the sharded snapshot
manifest has to persist.

Within a shard, a record's *local* id is its arrival rank: the inner
backends assign sequential ids from 0, and global ids are themselves
assigned sequentially, so the ``k``-th global id routed to a shard is
exactly the shard's local id ``k``.  :func:`routing_tables` rebuilds the
full bidirectional mapping from ``next_global_id`` alone in one
vectorised pass.
"""

from __future__ import annotations

import numpy as np

from repro.core.sorting import stable_argsort
from repro.hashing import mix64, mix64_many


def shard_of(record_id: int, num_shards: int) -> int:
    """The shard a single global record id routes to."""
    return int(mix64(int(record_id)) % num_shards)


def shards_of(record_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Vectorised :func:`shard_of` over an id column (int64 result)."""
    return (mix64_many(record_ids) % np.uint64(num_shards)).astype(np.int64)


def routing_tables(
    next_global_id: int, num_shards: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rebuild the routing of every id ever assigned, from the count alone.

    Returns ``(local_ids, shard_globals)`` where ``local_ids[g]`` is the
    local id of global id ``g`` inside its shard, and
    ``shard_globals[s]`` lists the global ids routed to shard ``s`` in
    local-id order (an increasing sequence — the property the result
    merge's tie-breaking relies on).
    """
    count = int(next_global_id)
    shards = shards_of(np.arange(count, dtype=np.uint64), num_shards)
    # Stable sort groups ids by shard while keeping each group in global
    # (= arrival) order; a group's offsets are then exactly local ids.
    order = stable_argsort(shards)
    counts = np.bincount(shards, minlength=num_shards)
    starts = np.zeros(num_shards + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    local_ids = np.empty(count, dtype=np.int64)
    local_ids[order] = np.arange(count, dtype=np.int64) - np.repeat(
        starts[:-1], counts
    )
    shard_globals = [
        order[starts[shard] : starts[shard + 1]].astype(np.int64, copy=False)
        for shard in range(num_shards)
    ]
    return local_ids, shard_globals
