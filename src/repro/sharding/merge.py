"""Merging per-shard search results into the global result order.

Every shard answers a query over its own records with *local* record ids.
The merge remaps local ids to global ids through the shard's
``shard_globals`` table and re-sorts the union under the library-wide
result order — decreasing score, ties by increasing record id — which is
exactly what the unsharded backends produce.  Because a shard's local-id
order coincides with its global-id order (ids are assigned in arrival
order on both levels), per-shard orderings are globally consistent and
the merged lists are *identical* to the unsharded ones, ties included.

For ``top_k`` the same argument makes the shard-wise merge exact: the
global ``k`` best records are each among their own shard's ``k`` best,
so concatenating per-shard top-``k`` lists and truncating the re-sorted
union to ``k`` loses nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.results import SearchResult
from repro.core.index import sorted_hits


def _collect(hits: Sequence[SearchResult]) -> tuple[np.ndarray, np.ndarray]:
    """Split a hit list into parallel (ids, scores) columns."""
    count = len(hits)
    ids = np.fromiter((hit.record_id for hit in hits), dtype=np.int64, count=count)
    scores = np.fromiter((hit.score for hit in hits), dtype=np.float64, count=count)
    return ids, scores


def merge_query_hits(
    per_shard_hits: Sequence[Sequence[SearchResult]],
    shard_globals: Sequence[np.ndarray],
    limit: int | None = None,
) -> list[SearchResult]:
    """Merge one query's per-shard hit lists into the global order.

    ``per_shard_hits[s]`` holds shard ``s``'s hits under local ids;
    ``shard_globals[s]`` maps its local ids to global record ids.
    ``limit`` truncates the merged list (the ``top_k`` case).
    """
    id_chunks: list[np.ndarray] = []
    score_chunks: list[np.ndarray] = []
    for shard, hits in enumerate(per_shard_hits):
        if not hits:
            continue
        local_ids, scores = _collect(hits)
        id_chunks.append(shard_globals[shard][local_ids])
        score_chunks.append(scores)
    if not id_chunks:
        return []
    merged = sorted_hits(np.concatenate(id_chunks), np.concatenate(score_chunks))
    return merged if limit is None else merged[:limit]


def merge_workload_hits(
    per_shard_workloads: Sequence[Sequence[Sequence[SearchResult]]],
    shard_globals: Sequence[np.ndarray],
    num_queries: int,
    limit: int | None = None,
) -> list[list[SearchResult]]:
    """Workload variant: ``per_shard_workloads[s][q]`` → merged ``[q]``."""
    return [
        merge_query_hits(
            [workload[query] for workload in per_shard_workloads],
            shard_globals,
            limit=limit,
        )
        for query in range(num_queries)
    ]
