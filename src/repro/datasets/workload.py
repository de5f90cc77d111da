"""Query workloads for the containment similarity search experiments.

The paper evaluates every method with 200 queries drawn uniformly at
random from the dataset itself (Section V-A, "the query Q is randomly
chosen from the records").  :func:`sample_queries` reproduces that and
:class:`QueryWorkload` bundles the queries with their exact ground-truth
result sets so accuracy metrics can be computed for any searcher.

Beyond the paper's static setup, :func:`build_dynamic_workload` generates
*mixed streams* — interleaved inserts, deletes and queries with exact
ground truth computed against the live record set at each query — the
workload shape a search service with mutable data actually faces.  The
evaluation path for these streams lives in
:func:`repro.evaluation.harness.evaluate_dynamic_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.exact.frequent_set import FrequentSetSearcher


@dataclass(frozen=True)
class QueryWorkload:
    """Queries plus exact ground truth at a fixed containment threshold.

    Attributes
    ----------
    queries:
        The query records (each a list of elements).
    query_record_ids:
        For queries drawn from the dataset, the id of the source record
        (``-1`` for external queries).
    threshold:
        The containment similarity threshold the ground truth was
        computed at.
    ground_truth:
        For each query, the set of record ids whose exact containment
        similarity is at least the threshold.
    """

    queries: tuple[tuple[object, ...], ...]
    query_record_ids: tuple[int, ...]
    threshold: float
    ground_truth: tuple[frozenset[int], ...]

    @property
    def num_queries(self) -> int:
        """Number of queries in the workload."""
        return len(self.queries)


def sample_queries(
    records: Sequence[Sequence[object]],
    num_queries: int = 200,
    seed: int = 13,
) -> tuple[list[list[object]], list[int]]:
    """Draw queries uniformly at random from the dataset's records.

    Returns the queries and the ids of the records they were drawn from.
    Sampling is with replacement when ``num_queries`` exceeds the dataset
    size, matching the paper's setup of 200 random queries.
    """
    if not records:
        raise EmptyDatasetError("cannot sample queries from an empty dataset")
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    rng = np.random.default_rng(seed)
    replace = num_queries > len(records)
    ids = rng.choice(len(records), size=num_queries, replace=replace)
    queries = [list(records[int(record_id)]) for record_id in ids]
    return queries, [int(record_id) for record_id in ids]


def build_workload(
    records: Sequence[Sequence[object]],
    threshold: float,
    num_queries: int = 200,
    seed: int = 13,
) -> QueryWorkload:
    """Sample queries and compute their exact ground-truth result sets."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError("threshold must be in [0, 1]")
    queries, query_ids = sample_queries(records, num_queries=num_queries, seed=seed)
    oracle = FrequentSetSearcher(records)
    truth = []
    for query in queries:
        hits = oracle.search(query, threshold)
        truth.append(frozenset(hit.record_id for hit in hits))
    return QueryWorkload(
        queries=tuple(tuple(query) for query in queries),
        query_record_ids=tuple(query_ids),
        threshold=float(threshold),
        ground_truth=tuple(truth),
    )


@dataclass(frozen=True)
class StreamOperation:
    """One step of a mixed insert/delete/query stream.

    Attributes
    ----------
    op:
        ``"insert"``, ``"delete"`` or ``"query"``.
    record:
        The record to insert (``insert`` only).
    record_id:
        The id the searcher will assign to this insert, or the id to
        delete; ``-1`` for queries.  Ids follow the library's dynamic
        indexes: sequential assignment starting after the initial
        dataset, never reused.
    query:
        The query record (``query`` only).
    ground_truth:
        Exact record ids whose containment similarity reaches the
        workload threshold *against the live set at this point of the
        stream* (``query`` only).
    """

    op: str
    record: tuple[object, ...] | None = None
    record_id: int = -1
    query: tuple[object, ...] | None = None
    ground_truth: frozenset[int] | None = field(default=None, hash=False)


@dataclass(frozen=True)
class DynamicWorkload:
    """An initial dataset plus a mixed insert/delete/query stream.

    Build one with :func:`build_dynamic_workload`; replay it against any
    dynamic searcher with
    :func:`repro.evaluation.harness.evaluate_dynamic_stream`.
    """

    initial_records: tuple[tuple[object, ...], ...]
    threshold: float
    operations: tuple[StreamOperation, ...]

    @property
    def num_operations(self) -> int:
        """Number of stream operations (inserts + deletes + queries)."""
        return len(self.operations)

    def operation_counts(self) -> dict[str, int]:
        """How many operations of each kind the stream contains."""
        counts = {"insert": 0, "delete": 0, "query": 0}
        for operation in self.operations:
            counts[operation.op] += 1
        return counts


def _exact_live_hits(
    query_elements: frozenset, live: dict[int, frozenset], threshold: float
) -> frozenset[int]:
    """Record ids of the live set whose exact containment reaches the threshold.

    Uses the same relative tolerance as the query engines' hit test
    (:meth:`repro.core.index.GBKMVIndex.search_many`), so a sketch that
    estimates exactly can reach perfect F1 on the stream.
    """
    theta = threshold * len(query_elements)
    return frozenset(
        record_id
        for record_id, elements in live.items()
        if len(query_elements & elements) >= theta * (1.0 - 1e-12)
    )


def build_dynamic_workload(
    records: Sequence[Sequence[object]],
    threshold: float,
    num_initial: int | None = None,
    num_operations: int = 300,
    insert_fraction: float = 0.4,
    delete_fraction: float = 0.2,
    seed: int = 13,
) -> DynamicWorkload:
    """Generate a mixed insert/delete/query stream with exact ground truth.

    The first ``num_initial`` records (half the dataset by default) form
    the initial corpus; later records are fed in as inserts (cycling with
    random re-draws once exhausted).  Deletes pick a uniformly random
    live record; queries are drawn uniformly from the live set, matching
    the paper's queries-from-the-dataset setup, and carry the exact
    result set computed against the records alive at that instant.

    Parameters
    ----------
    records:
        The record pool; must be non-empty.
    threshold:
        Containment similarity threshold shared by every query.
    num_initial:
        Size of the initial corpus (default ``len(records) // 2``, at
        least 1).
    num_operations:
        Length of the stream.
    insert_fraction, delete_fraction:
        Expected operation mix; the remainder are queries.  Deletes that
        would empty the corpus are re-drawn as queries.
    seed:
        Seed for the operation-kind, delete-target and query draws.
    """
    if not records:
        raise EmptyDatasetError("cannot build a dynamic workload from no records")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError("threshold must be in [0, 1]")
    if num_operations < 1:
        raise ConfigurationError("num_operations must be >= 1")
    if insert_fraction < 0.0 or delete_fraction < 0.0:
        raise ConfigurationError("operation fractions must be non-negative")
    if insert_fraction + delete_fraction > 1.0:
        raise ConfigurationError("insert_fraction + delete_fraction must be <= 1")
    if num_initial is None:
        num_initial = max(len(records) // 2, 1)
    if not 1 <= num_initial <= len(records):
        raise ConfigurationError("num_initial must be in [1, len(records)]")

    rng = np.random.default_rng(seed)
    initial = [tuple(record) for record in records[:num_initial]]
    insert_pool = [tuple(record) for record in records[num_initial:]]
    live: dict[int, frozenset] = {
        record_id: frozenset(record) for record_id, record in enumerate(initial)
    }
    # Parallel list of live ids with swap-and-pop removal, so drawing a
    # uniform delete/query target is O(1) instead of sorting the dict.
    live_ids: list[int] = list(live)
    live_positions: dict[int, int] = {
        record_id: position for position, record_id in enumerate(live_ids)
    }

    def draw_live_id() -> int:
        return live_ids[int(rng.integers(0, len(live_ids)))]

    def drop_live_id(record_id: int) -> None:
        position = live_positions.pop(record_id)
        last = live_ids.pop()
        if last != record_id:
            live_ids[position] = last
            live_positions[last] = position

    next_id = len(initial)
    next_pool = 0

    query_fraction = 1.0 - insert_fraction - delete_fraction
    kinds = rng.choice(
        3, size=num_operations, p=[insert_fraction, delete_fraction, query_fraction]
    )
    operations: list[StreamOperation] = []
    for kind in kinds.tolist():
        if kind == 1 and len(live) <= 1:
            kind = 2  # never delete the last record; query instead
        if kind == 0:
            if next_pool < len(insert_pool):
                record = insert_pool[next_pool]
                next_pool += 1
            else:
                record = tuple(records[int(rng.integers(0, len(records)))])
            operations.append(
                StreamOperation(op="insert", record=record, record_id=next_id)
            )
            live[next_id] = frozenset(record)
            live_ids.append(next_id)
            live_positions[next_id] = len(live_ids) - 1
            next_id += 1
        elif kind == 1:
            target = draw_live_id()
            operations.append(StreamOperation(op="delete", record_id=target))
            del live[target]
            drop_live_id(target)
        else:
            source = draw_live_id()
            query = tuple(sorted(live[source], key=repr))
            operations.append(
                StreamOperation(
                    op="query",
                    query=query,
                    ground_truth=_exact_live_hits(live[source], live, threshold),
                )
            )
    return DynamicWorkload(
        initial_records=tuple(initial),
        threshold=float(threshold),
        operations=tuple(operations),
    )
