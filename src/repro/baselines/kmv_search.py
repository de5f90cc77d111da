"""KMV and G-KMV containment search baselines (no buffer).

``KMVSearchIndex`` keeps, for every record, its ``k = ⌊b / m⌋`` smallest
hash values — the equal allocation Theorem 1 shows to be optimal for
plain KMV under a space budget ``b`` — and answers containment search
with the Equation-10 intersection estimator.  The per-record values live
in a dense ``(num_records, k)`` float64 matrix (rows padded with
``+inf``) inside a :class:`repro.core.batched.KMVBatchEstimator`, whose
fused workload kernels answer :meth:`KMVSearchIndex.search_many`;
:meth:`KMVSearchIndex.search` is a one-query call of it.

``GKMVSearchIndex`` keeps every hash value below a single global
threshold ``τ`` chosen so the sketches fill the budget, and estimates
with the enlarged-``k`` estimator of Equations 24–26.  That is GB-KMV
(Equation 27) with an empty buffer, so it is a
:class:`~repro.core.GBKMVIndex` whose builds pin ``buffer_size=0`` —
segmented columnar store, query engine and all.

Both expose the same dynamic surface as :class:`~repro.core.GBKMVIndex`
— ``insert`` / ``delete`` / ``update`` under stable record ids, and
``save`` / ``load`` snapshots — so the evaluation harness can drive
every method through an identical mixed insert/delete/query stream.

Both appear as the non-buffered points of Figure 6.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError, SnapshotFormatError
from repro.api.config import GKMVConfig, KMVConfig
from repro.api.interface import Capabilities, SimilarityIndex
from repro.api.registry import snapshot_tag
from repro.core.batched import KMVBatchEstimator
from repro.core.bulk import bulk_kmv_value_rows, flatten_records, resolve_space_budget
from repro.core.index import (
    GBKMVIndex,
    SearchResult,
    _assemble_workload_results,
    _resolve_row_block_size,
)
from repro.hashing import UnitHash, check_record

#: Version tag written into KMV snapshots.
KMV_SNAPSHOT_VERSION = 1

#: Tombstoned-row fraction above which the KMV baseline compacts its row
#: lists (mirroring the segmented store's ``compact_ratio``).
KMV_COMPACT_RATIO = 0.25


class KMVSearchIndex(SimilarityIndex):
    """Plain-KMV containment similarity search with equal allocation."""

    backend_id = "kmv"
    config_type = KMVConfig
    capabilities = Capabilities(
        dynamic=True, batched=True, persistent=True, exact=False, scored=True
    )

    def __init__(
        self,
        hasher: UnitHash,
        k_per_record: int,
        budget: float,
    ) -> None:
        self._hasher = hasher
        self._k = int(k_per_record)
        self._budget = float(budget)
        # Per-record rows with stable ids and tombstone flags; the dense
        # batched estimator over the live rows is a derived cache rebuilt
        # lazily after any mutation.
        self._value_rows: list[np.ndarray] = []
        self._record_sizes: list[int] = []
        self._row_ids: list[int] = []
        self._alive: list[bool] = []
        self._id_to_pos: dict[int, int] = {}
        self._next_id = 0
        self._num_dead = 0
        self._estimator: KMVBatchEstimator | None = None
        self._live_ids: np.ndarray | None = None
        self._stored_values = 0

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        hasher: UnitHash | None = None,
        seed: int = 0,
        method: str = "bulk",
    ) -> "KMVSearchIndex":
        """Build the index with the Theorem-1 equal allocation ``k = ⌊b / m⌋``.

        ``method="bulk"`` (default) hashes the whole dataset in one
        vectorised pass and selects every record's ``k`` smallest values
        with one global sort (:func:`repro.core.bulk.bulk_kmv_value_rows`);
        ``"per-record"`` is the historical record-at-a-time loop, kept as
        the benchmark baseline.  Both produce identical sketches.
        """
        if method not in ("bulk", "per-record"):
            raise ConfigurationError(
                f"unknown construction method {method!r}; use 'bulk' or 'per-record'"
            )
        if hasher is None:
            hasher = UnitHash(seed=seed)
        if method == "bulk":
            flat = flatten_records(records)
            budget = resolve_space_budget(
                flat.total_elements, space_fraction, space_budget
            )
            k = max(int(budget // flat.num_records), 1)
            index = cls(hasher=hasher, k_per_record=k, budget=budget)
            index._extend_rows(
                bulk_kmv_value_rows(flat, hasher, k), flat.record_sizes.tolist()
            )
            return index
        materialized = [set(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot build an index over an empty dataset")
        if any(len(record) == 0 for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")
        total_elements = sum(len(record) for record in materialized)
        budget = resolve_space_budget(
            total_elements, space_fraction, space_budget
        )
        k = max(int(budget // len(materialized)), 1)

        index = cls(hasher=hasher, k_per_record=k, budget=budget)
        for record in materialized:
            index._add_record(record)
        return index

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: KMVConfig | None = None,
    ) -> "KMVSearchIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(
            records,
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            seed=config.seed,
            method=config.method,
        )

    def _extend_rows(
        self, value_rows: list[np.ndarray], record_sizes: list[int]
    ) -> list[int]:
        """Append a batch of pre-sketched rows; returns their record ids."""
        ids = list(range(self._next_id, self._next_id + len(value_rows)))
        self._value_rows.extend(value_rows)
        self._record_sizes.extend(record_sizes)
        self._row_ids.extend(ids)
        self._alive.extend([True] * len(value_rows))
        base = len(self._value_rows) - len(value_rows)
        for position, record_id in enumerate(ids):
            self._id_to_pos[record_id] = base + position
        self._next_id += len(value_rows)
        self._stored_values += int(sum(row.size for row in value_rows))
        self._estimator = None
        return ids

    def _add_record(self, record: set, record_id: int | None = None) -> int:
        if record_id is None:
            record_id = self._next_id
        else:
            record_id = int(record_id)
            if record_id in self._id_to_pos:
                raise ConfigurationError(f"record id {record_id} is already live")
        hashes = np.unique(self._hasher.hash_many(list(record)))
        kept = hashes[: self._k]
        self._id_to_pos[record_id] = len(self._value_rows)
        self._value_rows.append(kept)
        self._record_sizes.append(len(record))
        self._row_ids.append(record_id)
        self._alive.append(True)
        self._next_id = max(self._next_id, record_id + 1)
        self._stored_values += int(kept.size)
        self._estimator = None
        return record_id

    # ----------------------------------------------------------------- updates
    def insert(self, record: Iterable[object]) -> int:
        """Insert a new record; returns its stable record id."""
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot insert an empty record")
        return self._add_record(materialized)

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Batched ingest: sketch and append a whole batch in one bulk pass.

        Record ids and sketch state are identical to looping
        :meth:`insert`; the batch is hashed and truncated to ``k`` values
        per record with the vectorised pipeline instead of one
        ``hash_many`` + ``np.unique`` call per record.
        """
        if len(records) == 0:
            return []
        flat = flatten_records(records)
        return self._extend_rows(
            bulk_kmv_value_rows(flat, self._hasher, self._k),
            flat.record_sizes.tolist(),
        )

    def delete(self, record_id: int) -> None:
        """Tombstone a record; it disappears from every subsequent search.

        Raises
        ------
        ConfigurationError
            If ``record_id`` is unknown or already deleted.
        """
        position = self._id_to_pos.pop(int(record_id), None)
        if position is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        self._alive[position] = False
        self._stored_values -= int(self._value_rows[position].size)
        self._num_dead += 1
        self._estimator = None
        if self._num_dead >= KMV_COMPACT_RATIO * len(self._value_rows):
            self._compact_rows()

    def _compact_rows(self) -> None:
        """Physically drop tombstoned rows so long streams stay bounded."""
        if self._num_dead == 0:
            return
        live = [position for position, alive in enumerate(self._alive) if alive]
        self._value_rows = [self._value_rows[position] for position in live]
        self._record_sizes = [self._record_sizes[position] for position in live]
        self._row_ids = [self._row_ids[position] for position in live]
        self._alive = [True] * len(live)
        self._id_to_pos = {
            record_id: position for position, record_id in enumerate(self._row_ids)
        }
        self._num_dead = 0

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Replace a record's content in place, keeping its record id."""
        materialized = set(record)
        # Checked before the delete, so a bad record leaves the old one live.
        check_record(materialized, "cannot update a record to be empty")
        self.delete(record_id)
        return self._add_record(materialized, record_id=record_id)

    # ------------------------------------------------------------ introspection
    @property
    def k_per_record(self) -> int:
        """The per-record sketch capacity ``k = ⌊b / m⌋``."""
        return self._k

    @property
    def num_records(self) -> int:
        """Number of live indexed records."""
        return len(self._record_sizes) - self._num_dead

    @property
    def next_record_id(self) -> int:
        """The id the next :meth:`insert` will assign (sequential, never reused)."""
        return self._next_id

    def __len__(self) -> int:
        return self.num_records

    def space_in_values(self) -> float:
        """Actual space used by live sketches, in signature-value units."""
        return float(self._stored_values)

    def space_fraction(self) -> float:
        """Space used as a fraction of the (live) dataset size."""
        total = sum(
            size for size, alive in zip(self._record_sizes, self._alive) if alive
        )
        return self.space_in_values() / total if total else 0.0

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Snapshot the index (rows, ids, tombstones, parameters) to npz."""
        lengths = np.array([row.size for row in self._value_rows], dtype=np.int64)
        values = (
            np.concatenate(self._value_rows)
            if self._value_rows
            else np.empty(0, dtype=np.float64)
        )
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)]
        )
        meta = {
            "format_version": KMV_SNAPSHOT_VERSION,
            "k_per_record": self._k,
            "budget": self._budget,
            "hasher_seed": self._hasher.seed,
            "next_id": self._next_id,
        }
        np.savez_compressed(
            path,
            api_meta=snapshot_tag(self.backend_id, KMV_SNAPSHOT_VERSION),
            kmv_meta=np.array(json.dumps(meta)),
            values=values,
            offsets=offsets,
            record_sizes=np.asarray(self._record_sizes, dtype=np.int64),
            row_ids=np.asarray(self._row_ids, dtype=np.int64),
            alive=np.asarray(self._alive, dtype=bool),
        )

    @classmethod
    def load(cls, path) -> "KMVSearchIndex":
        """Restore an index saved with :meth:`save` (bitwise-identical search).

        Raises
        ------
        SnapshotFormatError
            If the file is not a KMV snapshot or was written by an
            unsupported format version.
        """
        with np.load(path) as data:
            if "kmv_meta" not in data.files:
                raise SnapshotFormatError(
                    f"{path!r} is not a KMV index snapshot (no kmv_meta "
                    "payload); use repro.api.open_index for other backends"
                )
            try:
                meta = json.loads(str(data["kmv_meta"][()]))
            except json.JSONDecodeError as error:
                raise SnapshotFormatError(
                    f"malformed KMV snapshot metadata: {error}"
                ) from error
            try:
                values = np.asarray(data["values"], dtype=np.float64)
                offsets = np.asarray(data["offsets"], dtype=np.int64)
                record_sizes = np.asarray(data["record_sizes"], dtype=np.int64)
                row_ids = np.asarray(data["row_ids"], dtype=np.int64)
                alive = np.asarray(data["alive"], dtype=bool)
            except KeyError as error:
                raise SnapshotFormatError(
                    f"KMV snapshot is missing column {error}; the payload is "
                    "truncated or from an unsupported layout"
                ) from error
        version = meta.get("format_version")
        if version != KMV_SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"unsupported KMV snapshot version {version!r} "
                f"(this build reads version {KMV_SNAPSHOT_VERSION})"
            )
        index = cls(
            hasher=UnitHash(seed=int(meta["hasher_seed"])),
            k_per_record=int(meta["k_per_record"]),
            budget=float(meta["budget"]),
        )
        for position in range(record_sizes.size):
            row = values[offsets[position] : offsets[position + 1]].copy()
            index._value_rows.append(row)
            index._record_sizes.append(int(record_sizes[position]))
            index._row_ids.append(int(row_ids[position]))
            index._alive.append(bool(alive[position]))
            if alive[position]:
                index._id_to_pos[int(row_ids[position])] = position
                index._stored_values += int(row.size)
            else:
                index._num_dead += 1
        index._next_id = int(meta["next_id"])
        return index

    # ----------------------------------------------------------------- search
    def _finalize(self) -> KMVBatchEstimator:
        """Pack the live rows into the dense padded matrix of the estimator."""
        if self._estimator is None:
            live = [position for position, alive in enumerate(self._alive) if alive]
            self._estimator = KMVBatchEstimator.from_value_rows(
                [self._value_rows[position] for position in live],
                [self._record_sizes[position] for position in live],
                self._k,
            )
            ids = np.array(
                [self._row_ids[position] for position in live], dtype=np.int64
            )
            identity = bool(np.array_equal(ids, np.arange(ids.size, dtype=np.int64)))
            self._live_ids = None if identity else ids
        return self._estimator

    def _query_values(self, query_elements: set) -> tuple[np.ndarray, int]:
        """Kept query sketch values plus the query's distinct hash count."""
        query_hashes = np.unique(self._hasher.hash_many(list(query_elements)))
        return query_hashes[: self._k], int(query_hashes.size)

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Containment similarity search with the plain-KMV estimator.

        A one-query :meth:`search_many` call.
        """
        sizes = None if query_size is None else [query_size]
        return self.search_many([query], threshold, query_sizes=sizes)[0]

    def search_many(
        self,
        queries: Sequence[Iterable[object]],
        threshold: float,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Containment search for a whole workload (the Equation-10 engine).

        Every query's sketch values are resolved against all records'
        values in one join-index pass, and the records are swept in
        blocks of ``row_block_size`` (peak memory ``O(B × block)``).
        Scores equal the scalar
        :meth:`~repro.core.kmv.KMVSketch.intersection_size_estimate`
        divided by ``|Q|``, bit for bit, for every ``row_block_size``;
        where that estimator refuses a pair (``k < 2``), the count of
        shared sketch values stands in.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        if len(queries) == 0:
            return []
        estimator = self._finalize()
        block = _resolve_row_block_size(row_block_size)

        num_queries = len(queries)
        value_rows: list[np.ndarray] = []
        hash_counts = np.zeros(num_queries, dtype=np.int64)
        sizes = np.zeros(num_queries, dtype=np.float64)
        for position, query in enumerate(queries):
            query_elements = set(query)
            if not query_elements:
                raise ConfigurationError("query must contain at least one element")
            q = (
                len(query_elements)
                if query_sizes is None
                else int(query_sizes[position])
            )
            if q <= 0:
                raise ConfigurationError("query_size must be positive")
            values, hash_count = self._query_values(query_elements)
            value_rows.append(values)
            hash_counts[position] = hash_count
            sizes[position] = q
        value_counts = np.fromiter(
            (values.size for values in value_rows), dtype=np.int64, count=num_queries
        )
        query_exact = value_counts >= hash_counts
        query_matrix = np.full(
            (num_queries, max(int(value_counts.max()), 1)), np.inf, dtype=np.float64
        )
        for position, values in enumerate(value_rows):
            query_matrix[position, : values.size] = values

        matches = estimator.match_workload(value_rows)
        theta = threshold * sizes
        num_records = estimator.num_records
        hit_query_chunks: list[np.ndarray] = []
        hit_id_chunks: list[np.ndarray] = []
        hit_score_chunks: list[np.ndarray] = []
        for row_lo in range(0, num_records, block):
            row_hi = min(row_lo + block, num_records)
            estimates = estimator.intersection_workload_block(
                query_matrix, value_counts, query_exact, matches, row_lo, row_hi
            )
            if threshold > 0.0:
                hits = estimates >= theta[:, np.newaxis] * (1.0 - 1e-12)
            else:
                hits = np.ones(estimates.shape, dtype=bool)
            hit_queries, hit_cols = np.nonzero(hits)
            if not hit_queries.size:
                continue
            rows = hit_cols + row_lo
            hit_query_chunks.append(hit_queries)
            hit_id_chunks.append(
                rows if self._live_ids is None else self._live_ids[rows]
            )
            hit_score_chunks.append(
                estimates[hit_queries, hit_cols] / sizes[hit_queries]
            )
        return _assemble_workload_results(
            num_queries, hit_query_chunks, hit_id_chunks, hit_score_chunks
        )


class GKMVSearchIndex(GBKMVIndex):
    """G-KMV containment search (Equations 24–26): GB-KMV with an empty buffer.

    Every build pins ``buffer_size=0``; the store, the query engine, the
    dynamic maintenance and the snapshots are :class:`GBKMVIndex`'s own.
    Snapshots carry this backend's tag, so :func:`repro.api.open_index`
    restores them as this class.
    """

    backend_id = "gkmv"
    config_type = GKMVConfig

    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        hasher: UnitHash | None = None,
        seed: int = 0,
        method: str = "bulk",
    ) -> "GKMVSearchIndex":
        """Build G-KMV sketches under the given budget (no frequent-element buffer)."""
        return super().build(
            records,
            space_fraction=space_fraction,
            space_budget=space_budget,
            buffer_size=0,
            hasher=hasher,
            seed=seed,
            method=method,
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: GKMVConfig | None = None,
    ) -> "GKMVSearchIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(
            records,
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            seed=config.seed,
            method=config.method,
        )

    @classmethod
    def load(cls, path, mmap: bool = False) -> "GKMVSearchIndex":
        """Restore an index saved with :meth:`save` (either layout).

        Raises
        ------
        ConfigurationError
            If the snapshot holds a *buffered* GB-KMV index: restoring it
            would silently report GB-KMV numbers under the G-KMV label.
        """
        index = super().load(path, mmap=mmap)
        if index.buffer_size != 0:
            raise ConfigurationError(
                "snapshot holds a GB-KMV index with buffer size "
                f"{index.buffer_size}; G-KMV requires buffer size 0"
            )
        return index
