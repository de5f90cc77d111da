"""The GB-KMV index: sketch construction and containment similarity search.

This module implements Algorithm 1 (index construction) and Algorithm 2
(containment similarity search) of the paper, together with the practical
machinery a user needs: budget accounting, a cost-model-driven buffer
size, and full dynamic maintenance — insert, delete, update — plus
snapshot persistence.

Everything but the sketch family lives in :class:`SketchStoreIndex`, once:
the store, the build primitives, the dynamic operations, the query
engine and the snapshots.  :class:`GBKMVIndex` derives from it (and
G-KMV from ``GBKMVIndex``), and so does the plain-KMV baseline
(:class:`~repro.baselines.kmv_search.KMVSearchIndex`); a family only
says how its global parameters are planned, which hash values a record
or query keeps and how a pair sharing a stored value is estimated.  Its
bulk ``build`` is then flatten → ``plan_parameters`` →
:meth:`SketchStoreIndex.from_flat`, the same path the sharded backend
takes per shard.

All per-record sketch state lives in a
:class:`~repro.core.store.ColumnarSketchStore` — a segmented columnar
layout (sealed base + mutable tail) of residual hash values with CSR
offsets, a packed uint64 signature matrix for the frequent-element
buffers, and parallel size columns — so a query is scored against
*every* record with a handful of vectorised kernels instead of a
per-record Python loop.  One engine answers every query:
:meth:`GBKMVIndex.search_many` scores a whole workload's value-sharing
pairs through the store's value→record join index and sweeps the
signature matrix only for queries whose buffer can still reach the
threshold.  :meth:`GBKMVIndex.search` and :meth:`GBKMVIndex.top_k` are
one-query calls of it and of :meth:`GBKMVIndex.top_k_many`.
Inserts merge into the sealed segment incrementally (no wholesale
re-sort), deletes tombstone in O(1) and compact lazily, and
:meth:`GBKMVIndex.save` / :meth:`GBKMVIndex.load` round-trip the entire
index state — columns, vocabulary, threshold, hasher seed — through one
snapshot, an npz archive or a directory of columns.

Typical usage::

    from repro.core import GBKMVIndex

    index = GBKMVIndex.build(records, space_fraction=0.10)
    results = index.search(query, threshold=0.5)
    for hit in results:
        print(hit.record_id, hit.score)

    all_results = index.search_many(queries, threshold=0.5)

    new_id = index.insert(new_record)
    index.delete(new_id)
    index.save("index.npz")
    restored = GBKMVIndex.load("index.npz")
"""

from __future__ import annotations

import base64
import dataclasses
import json
import time
from abc import abstractmethod
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError, SnapshotFormatError
from repro.api.config import GBKMVConfig, IndexConfig
from repro.api.interface import Capabilities, SimilarityIndex, positive_k
from repro.api.registry import (
    SNAPSHOT_MANIFEST,
    directory_manifest,
    read_directory_manifest,
    snapshot_tag,
)
from repro.api.results import SearchResult
from repro.core.batched import residual_intersection_estimates
from repro.core.buffer import (
    BITS_PER_SIGNATURE_UNIT,
    FrequentElementBuffer,
    FrequentElementVocabulary,
)
from repro.core.bulk import (
    BulkSketches,
    FingerprintCollisionError,
    FlatRecords,
    VocabularyLookup,
    bulk_sketch,
    flatten_records,
    resolve_space_budget,
    select_vocabulary,
    vocabulary_lookup,
)
from repro.core.cost_model import (
    choose_buffer_size,
    residual_threshold,
    residual_threshold_from_hashes,
)
from repro.core.gbkmv import GBKMVSketch
from repro.core.gkmv import GKMVSketch
from repro.core.profiling import BuildProfile
from repro.core.sorting import stable_argsort, stable_lexsort
from repro.core.store import BITS_PER_WORD, ColumnarSketchStore
from repro.hashing import UnitHash


@dataclass(frozen=True)
class IndexStatistics:
    """Summary of a built index, used by the space/time benchmarks.

    ``build_profile`` is the per-stage wall-clock breakdown of the build
    that produced the index (``None`` for indexes built per-record,
    loaded from a snapshot, or grown purely through inserts).
    """

    num_records: int
    total_elements: int
    buffer_size: int
    threshold: float
    space_in_values: float
    space_fraction: float
    budget_in_values: float
    build_profile: BuildProfile | None = None


#: Default number of physical rows per signature-sweep block.  Peak
#: intermediate memory of a sweep is one ``(swept queries, block)``
#: matrix — independent of the store size.
DEFAULT_ROW_BLOCK_SIZE = 4096

#: (swept query, row) cells a default :meth:`GBKMVIndex.search_many`
#: sweep block holds at least: with fewer swept queries than
#: ``SWEEP_BLOCK_CELLS / DEFAULT_ROW_BLOCK_SIZE`` the default block grows,
#: so a sweep of one query (a single ``search``) pays for few blocks.
SWEEP_BLOCK_CELLS = 256 * DEFAULT_ROW_BLOCK_SIZE


@dataclass(frozen=True)
class WorkloadExecutionStats:
    """Observed footprint of one engine call (for benchmarks/tests).

    ``estimator_pairs`` counts the live (query, row) pairs sharing a
    stored value, the only pairs the family's estimator sees.
    ``swept_queries`` counts the queries the blocked signature sweep
    visited at all, in blocks of ``row_block_size`` rows (the size used,
    derived when the caller left it to the default).  ``num_blocks`` and
    ``peak_block_cells`` (the largest ``(swept queries, block)`` matrix
    materialised) count only that swept work, so a call whose queries
    all fall below their bound reports ``0`` for all three.  A query
    whose bound ``|H_Q| / |Q|`` is 0 is never swept: ``search_many`` has
    no hit for it outside its estimator pairs at a positive threshold,
    and ``top_k_many`` completes its list with the smallest live ids.
    ``dense_cells`` is the ``(B, num_rows)`` matrix an unblocked,
    unpruned engine would have allocated; ``hit_pairs`` the pairs
    finally emitted as results.
    """

    num_queries: int
    num_rows: int
    row_block_size: int
    swept_queries: int
    num_blocks: int
    peak_block_cells: int
    dense_cells: int
    estimator_pairs: int
    hit_pairs: int


@dataclass(frozen=True)
class PlannedParameters:
    """Algorithm 1's derived global parameters, before any ingest.

    Returned by :meth:`GBKMVIndex.plan_parameters`: everything the
    construction pinned over the full dataset — the frequent-element
    vocabulary, the residual threshold ``τ``, the shared hasher and the
    resolved space budget — plus the two derivation by-products over the
    dataset's unique fingerprints (``in_vocabulary``, each value's
    vocabulary membership, and ``unique_hashes``) that the ingest reuses
    instead of recomputing.  The fields are
    :meth:`SketchStoreIndex.from_flat`'s keywords.
    """

    vocabulary: FrequentElementVocabulary
    threshold: float
    hasher: UnitHash
    budget: float
    in_vocabulary: np.ndarray
    unique_hashes: np.ndarray


def _resolve_row_block_size(row_block_size: int | None) -> int:
    if row_block_size is None:
        return DEFAULT_ROW_BLOCK_SIZE
    block = int(row_block_size)
    if block <= 0:
        raise ConfigurationError("row_block_size must be positive")
    return block


def _hits(ids: np.ndarray, scores: np.ndarray) -> list[SearchResult]:
    """Materialise parallel id/score columns as hits, in their order.

    ``tuple.__new__`` mapped over the zipped columns builds exactly the
    objects the named tuple's own constructors build, without running a
    Python frame per hit.
    """
    return list(
        map(tuple.__new__, repeat(SearchResult), zip(ids.tolist(), scores.tolist()))
    )


def _assemble_workload_results(
    num_queries: int,
    query_chunks: Sequence[np.ndarray],
    id_chunks: Sequence[np.ndarray],
    score_chunks: Sequence[np.ndarray],
    limit: int | None = None,
) -> list[list[SearchResult]]:
    """Group hit chunks by query and put each query's hits in result order.

    The library-wide result order — decreasing score, ties by increasing
    record id — lives here, for the engine and the sharded merge alike.
    Chunks may arrive in any order: the sort below fixes every query's
    order completely.  ``limit`` keeps each query's first ``limit`` hits
    (the top-k cut).
    """
    if not any(chunk.size for chunk in query_chunks):  # nothing to sort
        return [[] for _ in range(num_queries)]
    query_ids = np.concatenate(query_chunks)
    hit_ids = np.concatenate(id_chunks)
    hit_scores = np.concatenate(score_chunks)
    # One global three-key sort realises every query's (decreasing score,
    # increasing id) order at once; record ids are unique per query, so
    # the order is total and identical to a per-query lexsort.
    order = stable_lexsort((hit_ids, -hit_scores, query_ids))
    query_ids = query_ids[order]
    if limit is not None:
        # A hit's rank within its query is its distance from the query's start.
        keep = np.arange(order.size) - np.searchsorted(query_ids, query_ids) < limit
        order, query_ids = order[keep], query_ids[keep]
    hits = _hits(hit_ids[order], hit_scores[order])
    bounds = np.searchsorted(query_ids, np.arange(num_queries + 1)).tolist()
    return [hits[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def _encode_elements(elements: Sequence[object]) -> list[list[object]]:
    """JSON-safe tagged encoding of vocabulary elements (int/str/bytes/bool)."""
    encoded: list[list[object]] = []
    for element in elements:
        if isinstance(element, bool):
            encoded.append(["bool", bool(element)])
        elif isinstance(element, (int, np.integer)):
            encoded.append(["int", int(element)])
        elif isinstance(element, str):
            encoded.append(["str", element])
        elif isinstance(element, bytes):
            encoded.append(["bytes", base64.b64encode(element).decode("ascii")])
        else:
            raise ConfigurationError(
                f"cannot persist vocabulary element of type {type(element).__name__!r}; "
                "elements must be int, str, bytes or bool"
            )
    return encoded


def _decode_elements(encoded: Sequence[Sequence[object]]) -> list[object]:
    """Inverse of :func:`_encode_elements`."""
    decoded: list[object] = []
    for tag, payload in encoded:
        if tag == "bool":
            decoded.append(bool(payload))
        elif tag == "int":
            decoded.append(int(payload))
        elif tag == "str":
            decoded.append(str(payload))
        elif tag == "bytes":
            decoded.append(base64.b64decode(str(payload)))
        else:
            raise SnapshotFormatError(f"unknown vocabulary element tag {tag!r}")
    return decoded


def _json_payload(path, data, key: str, backend_id: str) -> dict:
    """The JSON metadata stored under ``key`` of an open npz snapshot."""
    if key not in data.files:
        raise SnapshotFormatError(
            f"{path!r} is not a {backend_id} index snapshot (no {key} payload); "
            "use repro.api.open_index for other backends"
        )
    try:
        meta = json.loads(str(data[key][()]))
    except json.JSONDecodeError as error:
        raise SnapshotFormatError(
            f"malformed {backend_id} snapshot metadata: {error}"
        ) from error
    if not isinstance(meta, dict):
        raise SnapshotFormatError(
            f"malformed {backend_id} snapshot metadata: a JSON "
            f"{type(meta).__name__}, not an object"
        )
    return meta


@dataclass(frozen=True)
class _Workload:
    """A workload reduced to the arrays the engine consumes, a row per query."""

    #: Kept residual hash values, query after query, each query's sorted
    #: ascending: ``values[offsets[i]:offsets[i + 1]]`` are query ``i``'s.
    values: np.ndarray
    offsets: np.ndarray
    #: Distinct residual elements per query, kept or not.
    residual_sizes: np.ndarray
    #: Packed buffer bitmaps, ``(B, num_words)`` uint64.
    words: np.ndarray
    #: ``|Q|`` as float64, the divisor of every score.
    sizes: np.ndarray

    def value_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """``|L_Q|`` of each query, and whether it kept every residual hash
        value: the store's ``row_exact`` rule, the scalar ``is_exact``.

        Only the estimators read them, once per workload with value-sharing
        pairs, so they are derived there and not for every workload.
        """
        num_values = self.offsets[1:] - self.offsets[:-1]
        return num_values, num_values >= self.residual_sizes


#: Id of an empty slot in a running top-k list: sorts after every record id.
_NO_ID = np.iinfo(np.int64).max


def _top_cells(
    scores: np.ndarray, candidates: np.ndarray, limit: int, ids_ascending: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of the candidate cells that can enter a row's top ``limit``.

    A row with more than ``limit`` candidates keeps those scoring above
    its ``limit``-th best candidate score plus the ties at that score —
    and when ids ascend with the column, only the leftmost ties that
    fill the ``limit`` slots.  Every dropped cell is beaten by ``limit``
    kept ones, so merging the kept cells gives the same top lists.
    """
    crowded = np.count_nonzero(candidates, axis=1) > limit
    if crowded.any():
        crowded_scores = np.where(candidates[crowded], scores[crowded], -np.inf)
        cutoff = -np.partition(-crowded_scores, limit - 1, axis=1)[:, limit - 1 : limit]
        above = crowded_scores > cutoff
        ties = crowded_scores == cutoff
        if ids_ascending:
            needed = limit - np.count_nonzero(above, axis=1, keepdims=True)
            ties &= np.cumsum(ties, axis=1) <= needed
        candidates[crowded] = above | ties
    return np.nonzero(candidates)


def _clear_pair_cells(
    cells: np.ndarray,
    local: np.ndarray,
    pair_rows: np.ndarray,
    pair_queries: np.ndarray,
    row_lo: int,
    row_hi: int,
) -> None:
    """Clear the estimator-pair cells of rows ``[row_lo, row_hi)`` in ``cells``.

    Those pairs were scored in full up front, so a sweep over their
    buffer overlap alone must skip them.  ``local`` maps a query to its
    row of ``cells`` (``-1`` when it has none); the pairs are row-sorted,
    so a block's pairs are one slice.
    """
    lo, hi = np.searchsorted(pair_rows, (row_lo, row_hi))
    cell_rows = local[pair_queries[lo:hi]]
    mine = cell_rows >= 0
    cells[cell_rows[mine], pair_rows[lo:hi][mine] - row_lo] = False


def _merge_top(
    top_scores: np.ndarray,
    top_ids: np.ndarray,
    queries: np.ndarray,
    ids: np.ndarray,
    scores: np.ndarray,
) -> None:
    """Fold candidate hits into the running per-query top lists, in place.

    Each row of ``top_scores``/``top_ids`` is kept in final order —
    decreasing score, ties by increasing id — with empty slots at the end
    (score ``-inf``, id :data:`_NO_ID`).  One global three-key sort orders
    the touched queries' lists and candidates together, and each query
    keeps the entries ranked below the list length.
    """
    limit = top_scores.shape[1]
    touched = np.unique(queries)
    all_queries = np.concatenate([np.repeat(touched, limit), queries])
    all_scores = np.concatenate([top_scores[touched].ravel(), scores])
    all_ids = np.concatenate([top_ids[touched].ravel(), ids])
    order = stable_lexsort((all_ids, -all_scores, all_queries))
    all_queries = all_queries[order]
    rank = np.arange(all_queries.size) - np.searchsorted(all_queries, all_queries)
    keep = rank < limit
    slots = (all_queries[keep], rank[keep])
    top_scores[slots] = all_scores[order][keep]
    top_ids[slots] = all_ids[order][keep]


def _fill_with_zero_scores(
    top_scores: np.ndarray,
    top_ids: np.ndarray,
    queries: np.ndarray,
    store: ColumnarSketchStore,
) -> None:
    """Complete the running top lists of ``queries`` with the smallest live ids.

    These queries' bound ``|H_Q| / |Q|`` is 0: every record outside their
    lists scores exactly ``0.0``, so the smallest ids they do not hold
    fill their lists.  A list holds at most ``limit`` ids, so the
    ``limit`` + (most held) smallest live ids contain enough it lacks.
    """
    limit = top_ids.shape[1]
    held = top_ids[queries]
    num_held = np.count_nonzero(held != _NO_ID, axis=1)
    smallest = store.smallest_live_ids(limit + int(num_held.max()))
    empty = num_held == 0
    top_scores[queries[empty]] = 0.0
    top_ids[queries[empty]] = smallest[:limit]
    if empty.all():
        return
    # A held id keeps its own score: drop it from the candidates, by
    # matching packed (list, id) keys.
    partial, held = queries[~empty], held[~empty]
    lists, slots = np.nonzero(held != _NO_ID)
    span = store.next_id
    fresh = ~np.isin(
        np.arange(partial.size)[:, np.newaxis] * span + smallest,
        lists * span + held[lists, slots],
    )
    lists, columns = np.nonzero(fresh)
    _merge_top(
        top_scores, top_ids, partial[lists], smallest[columns], np.zeros(lists.size)
    )


class SketchStoreIndex(SimilarityIndex):
    """The half of a sketch index that every sketch family shares.

    The families — GB-KMV in :class:`GBKMVIndex` (G-KMV is its
    zero-buffer subclass) and plain KMV in
    :class:`~repro.baselines.kmv_search.KMVSearchIndex` — differ only in
    how their global parameters are planned, which hash values a record
    or query keeps and how a pair sharing a stored value is estimated.
    Everything else exists here, once: the
    :class:`~repro.core.store.ColumnarSketchStore` that owns every row
    (stable ids, tombstones, compaction), the build primitives
    (:meth:`from_flat`, :meth:`from_parameters`), the dynamic
    operations, the pair-then-sweep query engine and the snapshot I/O.
    A family supplies the hooks below.
    """

    capabilities = Capabilities(
        dynamic=True, batched=True, persistent=True, exact=False, scored=True
    )

    #: The keywords of a plan (see :meth:`plan_parameters`) that are not
    #: constructor parameters but by-products of planning over a flattened
    #: dataset, which :meth:`_ingest_bulk` reuses instead of recomputing.
    _INGEST_HINTS: tuple[str, ...] = ("unique_hashes",)

    def __init__(self, hasher: UnitHash, budget: float, signature_bits: int) -> None:
        self._hasher = hasher
        self._budget = float(budget)
        self._store = ColumnarSketchStore(signature_bits=signature_bits)
        #: Footprint of the most recent fused workload pass (``search_many``
        #: / ``top_k_many``), or ``None`` before the first one.
        self.last_workload_stats: WorkloadExecutionStats | None = None
        #: Per-stage wall-clock breakdown of the bulk build that produced
        #: this index, or ``None`` when no bulk build ran.
        self.last_build_profile: BuildProfile | None = None

    # ---------------------------------------------------------- family hooks
    @abstractmethod
    def _split(self, record: Iterable[object]) -> tuple[int, list]:
        """A record's buffer bitmap and its distinct elements outside the buffer."""

    @abstractmethod
    def _keep(self, hashes: np.ndarray) -> np.ndarray:
        """The values a sketch keeps of a record's sorted distinct hashes."""

    @classmethod
    @abstractmethod
    def plan_parameters(
        cls, flat: FlatRecords, profile: BuildProfile | None = None, **settings
    ):
        """Algorithm 1's global parameters, derived once over a whole dataset.

        ``settings`` are the family config's fields but ``method``.  The
        returned plan's fields are :meth:`from_flat`'s keywords.
        """

    @classmethod
    @abstractmethod
    def _build_per_record(
        cls, records: Sequence[Iterable[object]], **settings
    ) -> "SketchStoreIndex":
        """The paper-literal record-at-a-time construction (the oracle)."""

    @abstractmethod
    def _sketch_bulk(
        self, flat: FlatRecords, profile: BuildProfile | None = None, **hints
    ) -> BulkSketches | None:
        """Sketch a flattened batch with the family's bulk kernel, all at once.

        ``hints`` are the :attr:`_INGEST_HINTS` a plan derived over the
        dataset ``flat`` was flattened from.  ``None`` when the kernel
        cannot sketch under these parameters (a vocabulary with a
        fingerprint collision); the batch is then sketched record by
        record.
        """

    @abstractmethod
    def _residual_estimates(
        self,
        workload: _Workload,
        query_idx: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Intersection estimates, buffer aside, of pairs sharing ``counts`` values."""

    @abstractmethod
    def _snapshot_meta(self) -> dict:
        """The family's parameters a snapshot records (JSON-safe)."""

    @classmethod
    @abstractmethod
    def _from_snapshot_meta(cls, meta: dict) -> "SketchStoreIndex":
        """An empty index under the parameters :meth:`_snapshot_meta` wrote."""

    # ------------------------------------------------------------------ build
    @classmethod
    def from_records(
        cls, records: Sequence[Iterable[object]], config: IndexConfig | None = None
    ) -> "SketchStoreIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config.

        Every field of a sketch family's config is the :meth:`build`
        parameter of the same name.
        """
        config = cls.resolve_config(config)
        return cls.build(records, **dataclasses.asdict(config))

    @classmethod
    def _build(
        cls, records: Sequence[Iterable[object]], method: str, **settings
    ) -> "SketchStoreIndex":
        """Algorithm 1 under ``settings``, :meth:`plan_parameters`' keywords.

        ``method="bulk"`` flattens the dataset once, plans once and
        sketches through :meth:`from_flat`; ``"per-record"`` is the
        family's record-at-a-time construction, kept verbatim as the
        oracle the bulk path must equal bit for bit.
        """
        cls._check_build_method(method)
        if method == "per-record":
            return cls._build_per_record(records, **settings)
        profile = BuildProfile()
        flat = flatten_records(records, profile=profile)
        plan = cls.plan_parameters(flat, profile=profile, **settings)
        return cls.from_flat(flat, profile=profile, **vars(plan))

    @classmethod
    def _pinned(cls, plan: dict) -> tuple["SketchStoreIndex", dict]:
        """An empty index under a plan's parameters, and the plan's ingest hints."""
        parameters = dict(plan)
        hints = {
            name: parameters.pop(name)
            for name in cls._INGEST_HINTS
            if name in parameters
        }
        return cls(**parameters), hints

    @classmethod
    def from_flat(
        cls, flat: FlatRecords, profile: BuildProfile | None = None, **plan
    ) -> "SketchStoreIndex":
        """Sketch an already-flattened dataset under pinned parameters.

        ``plan`` holds the constructor's parameters and, optionally, the
        :attr:`_INGEST_HINTS` planned over the dataset ``flat`` was
        flattened from.  ``flat`` may be a
        :func:`~repro.core.bulk.slice_flat_records` view of that dataset
        (only its offsets and its ``inverse`` into the shared universe
        are read), which is how the sharded planner
        sketches every shard without hashing anything twice.
        """
        index, hints = cls._pinned(plan)
        index._ingest_bulk(flat, profile=profile, **hints)
        index.last_build_profile = profile
        return index

    @classmethod
    def from_parameters(
        cls, records: Sequence[Iterable[object]], method: str = "bulk", **plan
    ) -> "SketchStoreIndex":
        """Sketch a dataset under *pinned* parameters (no planning).

        The rebuild primitive of the dynamic-data story: given the
        parameters of an existing index, produce a freshly constructed
        index whose sketches, and therefore search results, are bitwise
        identical to what incremental maintenance of the original yields.
        ``method="bulk"`` ingests through the flatten-once pipeline;
        ``"per-record"`` is an empty index under the parameters followed
        by one :meth:`_add_record` per record.  Ingest hints in ``plan``
        describe the dataset they were planned over, not ``records``, so
        they are not used.
        """
        cls._check_build_method(method)
        index, _ = cls._pinned(plan)
        if method == "bulk":
            profile = BuildProfile()
            index._ingest_bulk(flatten_records(records, profile=profile), profile=profile)
            index.last_build_profile = profile
            return index
        for record in records:
            materialized = set(record)
            if not materialized:
                raise ConfigurationError("records must be non-empty sets of elements")
            index._add_record(materialized)
        return index

    @staticmethod
    def _check_build_method(method: str) -> None:
        if method not in ("bulk", "per-record"):
            raise ConfigurationError(
                f"unknown construction method {method!r}; use 'bulk' or 'per-record'"
            )

    # ------------------------------------------------------------ introspection
    @property
    def num_records(self) -> int:
        """Number of live records indexed (deleted records excluded)."""
        return self._store.num_records

    @property
    def next_record_id(self) -> int:
        """The id the next :meth:`insert` will assign (sequential, never reused)."""
        return self._store.next_id

    @property
    def hasher(self) -> UnitHash:
        """The hash function shared by all sketches."""
        return self._hasher

    @property
    def budget(self) -> float:
        """The space budget ``b`` in signature-value units."""
        return self._budget

    @property
    def store(self) -> ColumnarSketchStore:
        """The columnar sketch store backing this index."""
        return self._store

    def __len__(self) -> int:
        return self.num_records

    def record_size(self, record_id: int) -> int:
        """Distinct-element count of an indexed record."""
        return self._store.record_size(record_id)

    def record_sizes(self) -> np.ndarray:
        """Distinct-element counts of every live indexed record."""
        return self._store.live_record_sizes().copy()

    def space_in_values(self) -> float:
        """Actual space used, in signature-value units (values + r/32 per record).

        Live sketch content only: tombstoned rows stop counting the
        moment they are deleted (compaction reclaims their memory later).
        """
        buffer_cost = (
            self.num_records * self._store.signature_bits / BITS_PER_SIGNATURE_UNIT
        )
        return self._store.total_values + buffer_cost

    def space_fraction(self) -> float:
        """Space used as a fraction of the (live) dataset size."""
        total_elements = int(self._store.live_record_sizes().sum())
        if total_elements == 0:
            return 0.0
        return self.space_in_values() / total_elements

    # ---------------------------------------------------------------- updates
    def _sketch_parts(self, record: Iterable[object]) -> tuple[int, np.ndarray, int]:
        """Split a record into (buffer mask, kept residual values, residual size)."""
        mask, residual = self._split(record)
        hashes = np.unique(self._hasher.hash_many(residual))
        return mask, self._keep(hashes), len(residual)

    def _ingest_bulk(
        self, flat: FlatRecords, profile: BuildProfile | None = None, **hints
    ) -> np.ndarray:
        """Sketch a flattened batch in bulk and append it in one staged merge.

        Returns the assigned record ids.  Falls back to one
        :meth:`_add_record` per record when :meth:`_sketch_bulk` cannot
        sketch the batch.
        """
        sketches = self._sketch_bulk(flat, profile=profile, **hints)
        if sketches is None:
            ids = [
                self._add_record(set(flat.record_elements(position)))
                for position in range(flat.num_records)
            ]
            return np.asarray(ids, dtype=np.int64)
        return self._store.append_bulk(
            values=sketches.values,
            value_lengths=sketches.value_lengths,
            signatures=sketches.signatures,
            residual_record_sizes=sketches.residual_record_sizes,
            record_sizes=sketches.record_sizes,
            profile=profile,
        )

    def _add_record(self, record: set) -> int:
        """Insert one record's sketch row; returns its record id."""
        mask, kept, residual_size = self._sketch_parts(record)
        return self._store.append(
            values=kept,
            mask=mask,
            residual_record_size=residual_size,
            record_size=len(record),
        )

    def insert(self, record: Iterable[object]) -> int:
        """Insert a new record under the index's current sketch parameters.

        Returns the new record id.  The record lands in the store's
        mutable tail segment and is merged into the sealed columns
        incrementally on the next search — no wholesale re-sort — so the
        insert is visible immediately and insert/search interleaving
        stays cheap.
        """
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot insert an empty record")
        return self._add_record(materialized)

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Batched ingest: insert a whole batch of records in one bulk pass.

        The batch is sketched with the vectorised pipeline of
        :mod:`repro.core.bulk` (one fingerprint pass, one unique-hash
        pass) and lands in the segmented store through one staged-batch
        merge — the value→record join index absorbs the whole batch with
        a single two-run merge.  Record ids, store state and every later
        search result are identical to looping :meth:`insert` over the
        batch; the wall-clock cost is what :func:`~repro.core.bulk`
        removes.

        Returns the assigned record ids, in batch order.  An empty batch
        is a no-op returning ``[]``.
        """
        if len(records) == 0:
            return []
        flat = flatten_records(records)
        return self._ingest_bulk(flat).tolist()

    def delete(self, record_id: int) -> None:
        """Delete a record: an O(1) tombstone, invisible to every later search.

        Physical space is reclaimed lazily — once the tombstoned fraction
        crosses the store's ``compact_ratio``, the next search compacts
        the columns.  Record ids of surviving records never change.

        Raises
        ------
        ConfigurationError
            If ``record_id`` is unknown or already deleted.
        """
        self._store.delete(int(record_id))

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Replace a record's content in place, keeping its record id.

        The new version is sketched under the current parameters
        (tombstone the old row + append the new one); returns the
        unchanged record id.  A record that cannot be sketched leaves
        the old version live.
        """
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot update a record to be empty")
        mask, kept, residual_size = self._sketch_parts(materialized)
        return self._store.replace(
            int(record_id),
            values=kept,
            mask=mask,
            residual_record_size=residual_size,
            record_size=len(materialized),
        )

    # ------------------------------------------------------------ persistence
    SNAPSHOT_FORMAT_VERSION = 1

    #: Store columns worth memory-mapping: the two large payloads.  The
    #: bookkeeping columns stay eagerly loaded (and therefore writable) —
    #: in particular ``tombstones``, which ``delete`` flips in place.
    _MMAP_COLUMNS = frozenset({"values", "signatures"})

    def save(self, path, layout: str = "npz") -> None:
        """Snapshot the full index state to one self-describing snapshot.

        Everything :meth:`load` needs to answer queries identically is
        written: the store's columns (CSR values, signatures, size
        columns, row ids, tombstones), the family's parameters (for
        GB-KMV the frequent-element vocabulary, the global threshold
        ``τ``, the space budget and the hasher seed) — plus the format
        tag :func:`repro.api.open_index` dispatches on, which names the
        class's :attr:`backend_id`.

        ``layout`` picks the on-disk shape: ``"npz"`` (default) writes a
        single compressed archive; ``"dir"`` writes a directory of raw
        per-column ``.npy`` files plus a ``manifest.json``, which is the
        only layout :meth:`load` can memory-map.
        """
        meta = {"format_version": self.SNAPSHOT_FORMAT_VERSION, **self._snapshot_meta()}
        if layout == "dir":
            self._save_directory(path, meta)
            return
        if layout != "npz":
            raise ConfigurationError(
                f"unknown snapshot layout {layout!r}; use 'npz' or 'dir'"
            )
        np.savez_compressed(
            path,
            api_meta=snapshot_tag(self.backend_id, self.SNAPSHOT_FORMAT_VERSION),
            index_meta=np.array(json.dumps(meta)),
            **self._store.state_arrays(),
        )

    def _save_directory(self, path, meta: dict) -> None:
        """Write the ``layout="dir"`` snapshot: manifest + per-column .npy."""
        directory = Path(path)
        if directory.exists() and not directory.is_dir():
            raise ConfigurationError(
                f"cannot write a directory snapshot over the file {str(path)!r}"
            )
        directory.mkdir(parents=True, exist_ok=True)
        arrays = self._store.state_arrays()
        for name, array in arrays.items():
            np.save(directory / f"{name}.npy", np.ascontiguousarray(array))
        manifest = directory_manifest(
            self.backend_id,
            self.SNAPSHOT_FORMAT_VERSION,
            index_meta=meta,
            arrays=sorted(arrays),
        )
        (directory / SNAPSHOT_MANIFEST).write_text(
            json.dumps(manifest), encoding="utf-8"
        )

    @classmethod
    def _load_directory(cls, path, mmap: bool) -> tuple[dict, dict]:
        """Read a ``layout="dir"`` snapshot back into (meta, arrays)."""
        directory = Path(path)
        manifest = read_directory_manifest(directory)
        meta = manifest.get("index_meta")
        if not isinstance(meta, dict):
            raise SnapshotFormatError(
                f"{str(path)!r} is not a {cls.backend_id} index snapshot (no "
                "index_meta in its manifest); use repro.api.open_index for "
                "other backends"
            )
        arrays = {}
        for name in manifest.get("arrays", []):
            column = directory / f"{name}.npy"
            try:
                if mmap and name in cls._MMAP_COLUMNS:
                    arrays[name] = np.load(column, mmap_mode="r")
                else:
                    arrays[name] = np.load(column)
            except (OSError, ValueError) as error:
                raise SnapshotFormatError(
                    f"cannot read snapshot column {name!r} "
                    f"from {str(path)!r}: {error}"
                ) from error
        return meta, arrays

    @classmethod
    def _read_npz(cls, path, data) -> tuple[dict, dict]:
        """Read an open npz snapshot back into (meta, arrays)."""
        meta = _json_payload(path, data, "index_meta", cls.backend_id)
        arrays = {
            name: data[name]
            for name in data.files
            if name not in ("index_meta", "api_meta")
        }
        return meta, arrays

    @classmethod
    def load(cls, path, mmap: bool = False) -> "SketchStoreIndex":
        """Restore an index saved with :meth:`save` (either layout).

        The restored index answers :meth:`search` / :meth:`search_many`
        with bitwise-identical scores (same values, same parameters,
        same hasher seed ⇒ same estimator arithmetic) and keeps every
        dynamic capability of the original.

        With ``mmap=True`` (directory snapshots only) the value and
        signature columns are memory-mapped read-only instead of read
        into RAM; queries page in only what they touch, and any mutation
        materialises fresh private arrays, so dynamic operations still
        work on a mapped index.

        Raises
        ------
        SnapshotFormatError
            If the path is not a snapshot of this family, was written by
            an unsupported format version, or records a missing or
            malformed parameter.
        ConfigurationError
            If ``mmap=True`` on an npz snapshot (compressed archives
            cannot be mapped).
        """
        if Path(path).is_dir():
            meta, arrays = cls._load_directory(path, mmap=mmap)
        else:
            if mmap:
                raise ConfigurationError(
                    "memory-mapped loading requires a directory snapshot "
                    "(written with save(..., layout='dir')); npz archives "
                    "store compressed members and cannot be mapped"
                )
            with np.load(path) as data:
                meta, arrays = cls._read_npz(path, data)
        version = meta.get("format_version")
        if version != cls.SNAPSHOT_FORMAT_VERSION:
            raise SnapshotFormatError(
                f"unsupported index snapshot version {version!r} "
                f"(this build reads version {cls.SNAPSHOT_FORMAT_VERSION})"
            )
        try:
            index = cls._from_snapshot_meta(meta)
        except (KeyError, OverflowError, TypeError, ValueError) as error:
            raise SnapshotFormatError(
                f"malformed {cls.backend_id} snapshot parameters: {error!r}"
            ) from error
        try:
            store = ColumnarSketchStore.from_state(arrays)
        except KeyError as error:
            raise SnapshotFormatError(
                f"{cls.backend_id} snapshot is missing store column {error}; "
                "the payload is truncated or from an unsupported layout"
            ) from error
        if store.signature_bits != index._store.signature_bits:
            raise SnapshotFormatError(
                "snapshot signature width does not match its buffer size"
            )
        index._store = store
        return index

    # ----------------------------------------------------------------- search
    def _prepare_workload(
        self,
        queries: Sequence[Iterable[object]],
        query_sizes: Sequence[int] | None,
    ) -> _Workload:
        """Sketch a workload into the arrays the engine consumes.

        Each query keeps exactly the values, buffer bits and exactness
        that a record of the same elements keeps.  A workload of two or
        more queries is sketched as :meth:`insert_many` sketches records:
        one :func:`~repro.core.bulk.flatten_records` pass and the family's
        bulk kernel (:meth:`_sketch_bulk`), with no Python step per query.
        A single query is sketched as :meth:`insert` sketches a record
        (:meth:`_sketch_parts`), which costs less than the bulk kernels'
        fixed cost.  The queries are also sketched one at a time when the
        bulk kernel cannot sketch under the index's parameters, and when
        the bulk pass rejects the workload, so that a malformed query
        (empty, or holding an element of an unsupported type) raises the
        error it raises alone.
        """
        sketches = None
        if len(queries) > 1:
            try:
                sketches = self._sketch_bulk(flatten_records(queries))
            except (ConfigurationError, TypeError):
                pass  # sketched one at a time below, where each raises its own error
        if sketches is None:
            sketches = self._sketch_each(queries)
        if query_sizes is None:
            sizes = sketches.record_sizes
        else:
            sizes = np.array([int(size) for size in query_sizes], dtype=np.int64)
            if np.any(sizes <= 0):
                raise ConfigurationError("query_size must be positive")
        return _Workload(
            values=sketches.values,
            offsets=sketches.value_offsets,
            residual_sizes=sketches.residual_record_sizes,
            words=sketches.signatures,
            sizes=sizes.astype(np.float64),
        )

    def _sketch_each(self, queries: Sequence[Iterable[object]]) -> BulkSketches:
        """The queries' sketches, one :meth:`_sketch_parts` call per query."""
        masks, kept, residual_sizes, record_sizes = [], [], [], []
        for query in queries:
            mask, values, residual_size = self._sketch_parts(query)
            if not (mask or residual_size):
                raise ConfigurationError("query must contain at least one element")
            masks.append(mask)
            kept.append(values)
            residual_sizes.append(residual_size)
            record_sizes.append(mask.bit_count() + residual_size)
        return BulkSketches(
            values=np.concatenate(kept),
            value_offsets=np.array([0, *accumulate(map(len, kept))], dtype=np.int64),
            signatures=self._store.pack_signature_masks(masks),
            residual_record_sizes=np.array(residual_sizes),
            record_sizes=np.array(record_sizes),
        )

    def _score_estimator_pairs(
        self, workload: _Workload, alive: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score every live (query, row) pair that shares a stored value, once.

        Only these pairs have a nonzero residual estimate (``K∩ = 0``
        estimates to exactly ``0.0`` down every branch of both
        families' estimators), so every other cell scores its buffer
        overlap alone.  Returns ``(query_idx, rows, estimates)`` sorted by
        query, then row, with ``estimates`` the full intersection
        estimate: the exact buffer overlap plus the family's residual
        estimate, in the scalar sketch's order.  Cost is ``O(matches)``:
        nothing touches rows the queries miss.
        """
        store = self._store
        query_idx, rows, counts = store.match_workload(workload.values, workload.offsets)
        if alive is not None and query_idx.size:
            keep = alive[rows]
            query_idx, rows, counts = query_idx[keep], rows[keep], counts[keep]
        if not query_idx.size:
            return query_idx, rows, np.empty(0, dtype=np.float64)
        # Exact popcount sums, accumulated per signature word straight into
        # float64: a reduction over the short word axis costs several times
        # more, and so does fancy-indexing whole rows instead of ``take``.
        words = np.bitwise_count(
            np.take(store.signatures, rows, axis=0)
            & np.take(workload.words, query_idx, axis=0)
        )
        overlap = np.zeros(rows.size, dtype=np.float64)
        for word_overlap in words.T:
            overlap += word_overlap
        residual = self._residual_estimates(workload, query_idx, rows, counts)
        return query_idx, rows, overlap + residual

    def _engine_inputs(self, workload: _Workload):
        """What both engine calls start from: the result view, ``|H_Q|`` per
        query and the scored estimator pairs."""
        store = self._store
        store.finalize()
        row_ids, alive = store.result_view()
        buffer_sizes = np.bitwise_count(workload.words).sum(axis=1, dtype=np.int64)
        pairs = self._score_estimator_pairs(workload, alive)
        return row_ids, alive, buffer_sizes, pairs

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Algorithm 2: return records with estimated containment ``>= threshold``.

        A one-query :meth:`search_many` call: the same engine, which for
        a query below its buffer bound costs ``O(matches)``, not
        ``O(num_rows)``.

        Parameters
        ----------
        query:
            The query record ``Q``.
        threshold:
            The containment similarity threshold ``t*`` in ``[0, 1]``.
        query_size:
            Exact query size ``|Q|``; defaults to the number of distinct
            elements in ``query`` (Remark 1: the query size is assumed
            known).

        Returns
        -------
        list[SearchResult]
            Hits sorted by decreasing estimated containment similarity.
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
        """Batched Algorithm 2: answer a whole workload in one engine call.

        Every score equals the paper's per-record estimate — the query's
        sketch's ``intersection_size_estimate`` of the record's sketch,
        divided by ``|Q|`` — bit for bit.  The engine works in two passes:

        * **Estimator pairs** — the whole workload's query values are
          resolved against the store's value→record join index in one
          ``searchsorted`` pass; every live (query, row) pair sharing a
          stored value is scored once (buffer popcount plus the family's
          estimator: Equation 25 for GB-KMV, Equation 10 for plain KMV).
        * **Bounded sweep** — every other record scores its buffer
          overlap ``|H_Q ∩ H_X|`` alone, at most ``|H_Q|``.  So only the
          queries with ``|H_Q| ≥ ⌈θ·|Q|·(1 − 1e-12)⌉`` can have such hits,
          and only they are swept over the packed signature matrix in
          blocks of ``row_block_size`` rows.  At threshold ``0`` every
          query is swept; a query below its bound never touches a row it
          shares no value with.

        Peak memory is one ``(swept queries, block)`` matrix, never the
        dense ``(B, num_rows)`` score matrix.  :attr:`last_workload_stats`
        reports the swept queries and blocks.

        Parameters
        ----------
        queries:
            The query records.
        threshold:
            The containment similarity threshold ``t*`` in ``[0, 1]``,
            shared by the whole workload.
        query_sizes:
            Optional exact query sizes, parallel to ``queries``.
        row_block_size:
            Rows swept per block.  The default is
            :data:`DEFAULT_ROW_BLOCK_SIZE` rows, or more when fewer than
            ``SWEEP_BLOCK_CELLS / DEFAULT_ROW_BLOCK_SIZE`` queries are
            swept (:data:`SWEEP_BLOCK_CELLS` cells per block).  Purely an
            execution knob: results are bitwise identical for every value.

        Returns
        -------
        list[list[SearchResult]]
            One result list per query, each sorted by decreasing score,
            ties by increasing record id.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        block = _resolve_row_block_size(row_block_size)
        if len(queries) == 0:
            return []
        workload = self._prepare_workload(queries, query_sizes)
        store = self._store
        row_ids, alive, buffer_sizes, pairs = self._engine_inputs(workload)
        query_idx, pair_rows, pair_scores = pairs
        sizes = workload.sizes
        num_queries, num_rows = sizes.size, store.num_rows

        def ids_of(rows: np.ndarray) -> np.ndarray:
            return rows if row_ids is None else row_ids[rows]

        # Relative tolerance so exact integer estimates survive the float
        # noise of ``threshold * |Q|`` without admitting lower scores.
        cut = threshold * sizes * (1.0 - 1e-12)
        hit = pair_scores >= cut[query_idx]
        hit_queries = [query_idx[hit]]
        hit_ids = [ids_of(pair_rows[hit])]
        hit_scores = [pair_scores[hit] / sizes[query_idx[hit]]]

        # Any other record scores its integer buffer overlap, at most
        # |H_Q|, and the float test ``overlap >= cut`` is the integer test
        # ``overlap >= ceil(cut)``: sweep only the queries that can pass it.
        floor = np.ceil(cut)
        swept = np.nonzero(buffer_sizes >= floor)[0]
        if row_block_size is None and swept.size:
            block = max(block, SWEEP_BLOCK_CELLS // swept.size)
        if swept.size:
            # Swept floors are at most |H_Q| <= 64·num_words, so the
            # narrowest integer dtype holding that keeps the test exact.
            max_overlap = BITS_PER_WORD * store.num_words
            dtype = np.uint8 if max_overlap <= np.iinfo(np.uint8).max else np.int32
            swept_words = workload.words[swept]
            swept_floor = floor[swept].astype(dtype)[:, np.newaxis]
            local = np.full(num_queries, -1, dtype=np.int64)
            local[swept] = np.arange(swept.size)
            mine = local[query_idx] >= 0
            order = stable_argsort(pair_rows[mine])
            skip_rows, skip_queries = pair_rows[mine][order], query_idx[mine][order]
            for row_lo in range(0, num_rows, block):
                row_hi = min(row_lo + block, num_rows)
                overlap = store.signature_overlap_block(
                    swept_words, row_lo, row_hi, dtype=dtype
                )
                hits = overlap >= swept_floor
                if alive is not None:
                    hits &= alive[np.newaxis, row_lo:row_hi]
                _clear_pair_cells(hits, local, skip_rows, skip_queries, row_lo, row_hi)
                block_queries, columns = np.nonzero(hits)
                if not block_queries.size:
                    continue
                queries_hit = swept[block_queries]
                hit_queries.append(queries_hit)
                hit_ids.append(ids_of(columns + row_lo))
                hit_scores.append(
                    overlap[block_queries, columns].astype(np.float64) / sizes[queries_hit]
                )

        swept_rows = num_rows if swept.size else 0
        self.last_workload_stats = WorkloadExecutionStats(
            num_queries=num_queries,
            num_rows=num_rows,
            row_block_size=block,
            swept_queries=int(swept.size),
            num_blocks=-(-swept_rows // block),
            peak_block_cells=int(swept.size) * min(block, swept_rows),
            dense_cells=num_queries * num_rows,
            estimator_pairs=int(query_idx.size),
            hit_pairs=sum(int(chunk.size) for chunk in hit_queries),
        )
        return _assemble_workload_results(num_queries, hit_queries, hit_ids, hit_scores)

    def top_k(
        self, query: Iterable[object], k: int, query_size: int | None = None
    ) -> list[SearchResult]:
        """Return the ``k`` records with the highest estimated containment.

        A one-query :meth:`top_k_many` call; ties are broken by
        increasing record id.
        """
        sizes = None if query_size is None else [query_size]
        return self.top_k_many([query], k, query_sizes=sizes)[0]

    def top_k_many(
        self,
        queries: Sequence[Iterable[object]],
        k: int,
        query_sizes: Sequence[int] | None = None,
        row_block_size: int | None = None,
    ) -> list[list[SearchResult]]:
        """Workload variant of :meth:`top_k`, on the :meth:`search_many` engine.

        Each query's running top-``k`` list (decreasing score, ties by
        increasing id) is seeded with its scored estimator pairs.  Every
        other record scores at most the bound ``|H_Q| / |Q|``, and the
        threshold algorithm's stopping rule (Fagin, Lotem and Naor,
        "Optimal Aggregation Algorithms for Middleware", PODS 2001) decides
        what is left to score:

        * A query whose bound is 0 scores exactly ``0.0`` on every other
          record, so its list is completed at once with the smallest live
          ids it does not hold, and it is never swept.
        * Any other query is swept over a block of rows only while its
          bound can still displace its running ``k``-th entry: the list
          holds fewer than ``k`` records, the bound is above the ``k``-th
          score, or it equals it and the block holds a live id below the
          ``k``-th id.  Only the swept cells that beat the ``k``-th entry
          are merged in.
        * While ids ascend with the rows (no record was updated since the
          last compaction or load), the sweep stops at the first block
          that no query can enter: no bound beats its ``k``-th score, and
          every tied list's ``k``-th id is at most the block's first id.

        Peak memory is ``O(B × (row_block_size + k))``.
        """
        k = positive_k(k)
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        block = _resolve_row_block_size(row_block_size)
        if len(queries) == 0:
            return []
        workload = self._prepare_workload(queries, query_sizes)
        store = self._store
        row_ids, alive, buffer_sizes, pairs = self._engine_inputs(workload)
        query_idx, pair_rows, pair_scores = pairs
        sizes = workload.sizes
        num_queries, num_rows = sizes.size, store.num_rows
        # No list can hold more than every live record.
        limit = min(k, store.num_records)
        top_scores = np.full((num_queries, limit), -np.inf)
        top_ids = np.full((num_queries, limit), _NO_ID, dtype=np.int64)
        if limit and query_idx.size:
            _merge_top(
                top_scores,
                top_ids,
                query_idx,
                pair_rows if row_ids is None else row_ids[pair_rows],
                pair_scores / sizes[query_idx],
            )
        # The same float division the cell scores use, so the bound holds.
        bound = buffer_sizes.astype(np.float64) / sizes
        sweepable = buffer_sizes > 0
        if limit and not sweepable.all():
            _fill_with_zero_scores(top_scores, top_ids, np.flatnonzero(~sweepable), store)
        swept = np.zeros(num_queries, dtype=bool)
        num_blocks = peak_cells = 0
        if limit and sweepable.any():
            order = stable_argsort(pair_rows)
            skip_rows, skip_queries = pair_rows[order], query_idx[order]
            local = np.full(num_queries, -1, dtype=np.int64)
            ids_ascending = store.ids_ascending
            for row_lo in range(0, num_rows, block):
                row_hi = min(row_lo + block, num_rows)
                kth_scores, kth_ids = top_scores[:, -1], top_ids[:, -1]
                active = sweepable & (bound > kth_scores)
                tied = sweepable & (bound == kth_scores)
                if ids_ascending and not active.any():
                    # Every later row holds an id at least this block's first.
                    first_id = row_lo if row_ids is None else row_ids[row_lo]
                    if not np.any(kth_ids[tied] > first_id):
                        break
                column_ids = (
                    np.arange(row_lo, row_hi) if row_ids is None else row_ids[row_lo:row_hi]
                )
                alive_block = None if alive is None else alive[row_lo:row_hi]
                if tied.any():
                    live_ids = column_ids if alive_block is None else column_ids[alive_block]
                    if live_ids.size:
                        active |= tied & (live_ids.min() < kth_ids)
                active_queries = np.nonzero(active)[0]
                if not active_queries.size:
                    continue
                num_blocks += 1
                peak_cells = max(peak_cells, active_queries.size * (row_hi - row_lo))
                swept[active_queries] = True
                cell_scores = store.signature_overlap_block(
                    workload.words[active_queries], row_lo, row_hi, dtype=np.float64
                )
                cell_scores /= sizes[active_queries, np.newaxis]
                kth_score = kth_scores[active_queries, np.newaxis]
                beats = (cell_scores > kth_score) | (
                    (cell_scores == kth_score)
                    & (column_ids < kth_ids[active_queries, np.newaxis])
                )
                if alive_block is not None:
                    beats &= alive_block
                local.fill(-1)
                local[active_queries] = np.arange(active_queries.size)
                _clear_pair_cells(beats, local, skip_rows, skip_queries, row_lo, row_hi)
                candidates, columns = _top_cells(
                    cell_scores,
                    beats,
                    limit,
                    ids_ascending or bool(np.all(column_ids[1:] > column_ids[:-1])),
                )
                if candidates.size:
                    _merge_top(
                        top_scores,
                        top_ids,
                        active_queries[candidates],
                        column_ids[columns],
                        cell_scores[candidates, columns],
                    )

        filled_queries, slots = np.nonzero(top_ids != _NO_ID)
        self.last_workload_stats = WorkloadExecutionStats(
            num_queries=num_queries,
            num_rows=num_rows,
            row_block_size=block,
            swept_queries=int(np.count_nonzero(swept)),
            num_blocks=num_blocks,
            peak_block_cells=peak_cells,
            dense_cells=num_queries * num_rows,
            estimator_pairs=int(query_idx.size),
            hit_pairs=int(filled_queries.size),
        )
        return _assemble_workload_results(
            num_queries,
            [filled_queries],
            [top_ids[filled_queries, slots]],
            [top_scores[filled_queries, slots]],
        )


class GBKMVIndex(SketchStoreIndex):
    """GB-KMV sketches in columnar storage plus a batched query engine.

    Build with :meth:`build` (which chooses the buffer size via the cost
    model unless one is supplied) or, through the unified
    :mod:`repro.api` surface, with :meth:`from_records` — rather than
    calling ``__init__`` directly.
    """

    backend_id = "gbkmv"
    config_type = GBKMVConfig
    _INGEST_HINTS = ("in_vocabulary", "unique_hashes")

    def __init__(
        self,
        vocabulary: FrequentElementVocabulary,
        threshold: float,
        hasher: UnitHash,
        budget: float,
    ) -> None:
        super().__init__(hasher, budget, signature_bits=vocabulary.size)
        self._vocabulary = vocabulary
        self._threshold = float(threshold)
        # The bulk kernel's view of the vocabulary, for every batch of
        # records or queries; None when two of its elements share a
        # fingerprint, and every batch is then split record by record.
        self._lookup: VocabularyLookup | None
        try:
            self._lookup = vocabulary_lookup(vocabulary)
        except FingerprintCollisionError:
            self._lookup = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        buffer_size: int | str = "auto",
        hasher: UnitHash | None = None,
        seed: int = 0,
        cost_model_pair_sample: int = 256,
        method: str = "bulk",
    ) -> "GBKMVIndex":
        """Algorithm 1: construct the GB-KMV index of a dataset.

        Parameters
        ----------
        records:
            The dataset ``S``; each record is an iterable of elements.
        space_fraction:
            Space budget as a fraction of the dataset size (total number
            of per-record distinct elements), the measure used throughout
            the paper's evaluation.  Ignored when ``space_budget`` is given.
        space_budget:
            Absolute budget ``b`` in signature-value units.
        buffer_size:
            Either an explicit ``r`` or ``"auto"`` to let the cost model of
            Section IV-C6 choose it.
        hasher:
            Hash function shared by all sketches; defaults to a fixed-seed
            :class:`~repro.hashing.UnitHash` derived from ``seed``.
        seed:
            Seed for the default hasher and the cost model sampling.
        cost_model_pair_sample:
            Number of record pairs the cost model averages over.
        method:
            ``"bulk"`` (default) runs the vectorised whole-dataset
            pipeline of :mod:`repro.core.bulk` — one fingerprint pass,
            ``np.unique`` frequency counting, bulk signature packing and
            one staged-batch store append.  ``"per-record"`` is the
            historical record-at-a-time path, kept verbatim as the
            benchmark baseline; both produce bitwise-identical indexes.
        """
        return cls._build(
            records,
            method,
            space_fraction=space_fraction,
            space_budget=space_budget,
            buffer_size=buffer_size,
            hasher=hasher,
            seed=seed,
            cost_model_pair_sample=cost_model_pair_sample,
        )

    @classmethod
    def plan_parameters(
        cls,
        flat: FlatRecords,
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        buffer_size: int | str = "auto",
        hasher: UnitHash | None = None,
        seed: int = 0,
        cost_model_pair_sample: int = 256,
        profile: BuildProfile | None = None,
    ) -> "PlannedParameters":
        """Algorithm 1's parameter derivation, without the ingest.

        Runs the global derivation — space budget, cost-model buffer
        sizing, vocabulary selection, residual threshold ``τ`` — over an
        already-flattened dataset and returns the pinned parameters
        instead of a built index.  :meth:`build` is exactly this followed
        by :meth:`from_flat`; the sharded backend runs it once over the
        *full* dataset and then sketches every shard with
        :meth:`from_flat`, which is what makes per-shard sketches (and
        merged search results) bitwise identical to the unsharded index.
        """
        if hasher is None:
            hasher = UnitHash(seed=seed)
        budget = resolve_space_budget(
            flat.total_elements, space_fraction, space_budget
        )

        # np.unique over the per-record-distinct fingerprint column *is*
        # the Counter of the per-record path: each unique fingerprint's
        # occurrence count equals its containing-record count.
        counts = flat.counts
        if buffer_size == "auto":
            # The pair-sampled buffer sizing is the one planning stage that
            # is pure Python + small-array work; time it as its own stage
            # so the profile accounts for the full build wall clock.
            start = time.perf_counter()
            sizing = choose_buffer_size(
                flat.record_sizes,
                counts.astype(np.float64),
                budget,
                pair_sample=cost_model_pair_sample,
                seed=seed,
            )
            if profile is not None:
                profile.record(
                    "cost_model",
                    time.perf_counter() - start,
                    rows=flat.num_records,
                )
            chosen_r = sizing.buffer_size
        else:
            chosen_r = int(buffer_size)
            if chosen_r < 0:
                raise ConfigurationError("buffer_size must be non-negative")

        vocabulary = select_vocabulary(flat, chosen_r, profile=profile)
        buffer_cost = flat.num_records * vocabulary.size / BITS_PER_SIGNATURE_UNIT
        residual_budget = max(budget - buffer_cost, 0.0)
        # The vocabulary's elements are exactly representatives of unique
        # fingerprints, so the residual split over uniques is a
        # fingerprint-membership mask — no mapping materialisation.  The
        # ingest reuses the mask instead of deciding membership again.
        start = time.perf_counter()
        in_vocabulary = vocabulary_lookup(vocabulary).member_mask(flat.unique_fingerprints)
        residual_unique = ~in_vocabulary
        unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)
        threshold = residual_threshold_from_hashes(
            unique_hashes[residual_unique],
            counts[residual_unique].astype(np.float64),
            residual_budget,
        )
        if profile is not None:
            profile.record(
                "threshold",
                time.perf_counter() - start,
                rows=int(np.count_nonzero(residual_unique)),
            )
        return PlannedParameters(
            vocabulary=vocabulary,
            threshold=threshold,
            hasher=hasher,
            budget=budget,
            in_vocabulary=in_vocabulary,
            unique_hashes=unique_hashes,
        )

    @classmethod
    def _build_per_record(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        buffer_size: int | str = "auto",
        hasher: UnitHash | None = None,
        seed: int = 0,
        cost_model_pair_sample: int = 256,
    ) -> "GBKMVIndex":
        """The historical record-at-a-time Algorithm 1 (benchmark baseline).

        Kept verbatim so ``BENCH_bulk_build`` measures the bulk pipeline
        against the real pre-bulk construction cost, and so the bitwise
        identity of the two paths stays testable.
        """
        materialized = [set(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot build an index over an empty dataset")
        if any(len(record) == 0 for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")
        if hasher is None:
            hasher = UnitHash(seed=seed)

        record_sizes = np.array([len(r) for r in materialized], dtype=np.int64)
        budget = resolve_space_budget(
            int(record_sizes.sum()), space_fraction, space_budget
        )

        frequencies: Counter = Counter()
        for record in materialized:
            frequencies.update(record)

        if buffer_size == "auto":
            sizing = choose_buffer_size(
                record_sizes,
                np.array(list(frequencies.values()), dtype=np.float64),
                budget,
                pair_sample=cost_model_pair_sample,
                seed=seed,
            )
            chosen_r = sizing.buffer_size
        else:
            chosen_r = int(buffer_size)
            if chosen_r < 0:
                raise ConfigurationError("buffer_size must be non-negative")

        vocabulary = FrequentElementVocabulary.from_frequencies(frequencies, chosen_r)
        buffer_cost = len(materialized) * vocabulary.size / BITS_PER_SIGNATURE_UNIT
        residual_budget = max(budget - buffer_cost, 0.0)
        residual_frequencies = {
            element: count
            for element, count in frequencies.items()
            if element not in vocabulary
        }
        threshold = residual_threshold(residual_frequencies, residual_budget, hasher)

        index = cls(
            vocabulary=vocabulary,
            threshold=threshold,
            hasher=hasher,
            budget=budget,
        )
        for record in materialized:
            index._add_record(record)
        return index

    def _split(self, record: Iterable[object]) -> tuple[int, list]:
        buffer, residual = self._vocabulary.split_record(record)
        return buffer.mask, residual

    def _keep(self, hashes: np.ndarray) -> np.ndarray:
        return hashes[hashes <= self._threshold]

    def _sketch_bulk(
        self,
        flat: FlatRecords,
        profile: BuildProfile | None = None,
        in_vocabulary: np.ndarray | None = None,
        unique_hashes: np.ndarray | None = None,
    ) -> BulkSketches | None:
        """:func:`~repro.core.bulk.bulk_sketch` under the index's parameters.

        ``None`` when the vocabulary has an internal fingerprint collision
        (the one case the bulk membership lookup cannot resolve).
        """
        if self._lookup is None:
            return None
        return bulk_sketch(
            flat,
            self._lookup,
            self._threshold,
            self._hasher,
            self._store.num_words,
            unique_hashes=unique_hashes,
            in_vocabulary=in_vocabulary,
            profile=profile,
        )

    def _residual_estimates(
        self,
        workload: _Workload,
        query_idx: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Equation 25 over the value-sharing pairs."""
        store = self._store
        offsets = store.offsets
        num_values, exact = workload.value_counts()
        # Each query's last kept value is its largest; only queries that
        # share a value, so keep one, are gathered.
        max_values = workload.values[workload.offsets[1:] - 1]
        return residual_intersection_estimates(
            counts,
            offsets[rows + 1] - offsets[rows],
            store.row_max[rows],
            store.row_exact[rows],
            num_values[query_idx],
            max_values[query_idx],
            exact[query_idx],
        )

    def _snapshot_meta(self) -> dict:
        return {
            "threshold": self._threshold,
            "budget": self._budget,
            "hasher_seed": self._hasher.seed,
            "vocabulary": _encode_elements(self._vocabulary.elements),
        }

    @classmethod
    def _from_snapshot_meta(cls, meta: dict) -> "GBKMVIndex":
        return cls(
            vocabulary=FrequentElementVocabulary(_decode_elements(meta["vocabulary"])),
            threshold=float(meta["threshold"]),
            hasher=UnitHash(seed=int(meta["hasher_seed"])),
            budget=float(meta["budget"]),
        )

    # ------------------------------------------------------------ introspection
    @property
    def vocabulary(self) -> FrequentElementVocabulary:
        """The frequent-element vocabulary shared by all sketches."""
        return self._vocabulary

    @property
    def buffer_size(self) -> int:
        """The buffer size ``r`` chosen or supplied at build time."""
        return self._vocabulary.size

    @property
    def threshold(self) -> float:
        """The global hash-value threshold ``τ``."""
        return self._threshold

    def statistics(self) -> IndexStatistics:
        """Summary statistics of the built index."""
        return IndexStatistics(
            num_records=self.num_records,
            total_elements=int(self._store.live_record_sizes().sum()),
            buffer_size=self.buffer_size,
            threshold=self._threshold,
            space_in_values=self.space_in_values(),
            space_fraction=self.space_fraction(),
            budget_in_values=self._budget,
            build_profile=self.last_build_profile,
        )

    def sketch(self, record_id: int) -> GBKMVSketch:
        """Materialise the GB-KMV sketch of an indexed record."""
        buffer = FrequentElementBuffer(
            self._vocabulary, self._store.mask_int(record_id)
        )
        residual = GKMVSketch(
            threshold=self._threshold,
            values=self._store.row_values(record_id),
            record_size=self._store.residual_record_size(record_id),
            hasher=self._hasher,
        )
        return GBKMVSketch(
            buffer=buffer,
            residual=residual,
            record_size=self._store.record_size(record_id),
        )

    def sketches(self) -> Iterator[GBKMVSketch]:
        """Iterate over the sketches of all live indexed records."""
        for record_id in self._store.live_record_ids().tolist():
            yield self.sketch(record_id)

    # ---------------------------------------------------------------- updates
    def refit_threshold(self) -> float:
        """Recompute ``τ`` so the index fits its budget again, shrinking sketches.

        Only lowers the threshold (hash values above the new ``τ`` are
        dropped); raising it would require access to the original records.
        Returns the new threshold.

        The refit is incremental: the store's O(1) ``total_values``
        tracker answers the common post-``insert_many`` case — batch
        landed, still under budget — without touching the value column
        at all, and when the budget *is* exceeded the new ``τ`` comes
        from a prefix cut of the incrementally merged value→record join
        index (:meth:`~repro.core.store.ColumnarSketchStore.threshold_for_value_budget`)
        instead of gathering and re-sorting every live value.  The
        chosen threshold is identical to the historical full re-derive:
        the largest distinct value whose cumulative live occurrence
        count fits the residual budget.
        """
        buffer_cost = self.num_records * self._vocabulary.size / BITS_PER_SIGNATURE_UNIT
        residual_budget = max(self._budget - buffer_cost, 0.0)
        total_values = self._store.total_values
        if total_values == 0 or total_values <= residual_budget:
            return self._threshold
        new_threshold = self._store.threshold_for_value_budget(residual_budget)
        if new_threshold >= self._threshold:
            return self._threshold
        self._threshold = new_threshold
        self._store.truncate_values(new_threshold)
        return self._threshold

    # ----------------------------------------------------------------- search
    def query_sketch(self, query: Iterable[object]) -> GBKMVSketch:
        """Build the GB-KMV sketch of a query under the index's parameters."""
        return GBKMVSketch.from_record(
            query,
            vocabulary=self._vocabulary,
            threshold=self._threshold,
            hasher=self._hasher,
        )

    def estimate_containment(self, query: Iterable[object], record_id: int) -> float:
        """Estimate ``C(Q, X_record_id)`` for a single record."""
        query_sketch = self.query_sketch(query)
        return query_sketch.containment_estimate(self.sketch(record_id))
