"""KMV and G-KMV containment search baselines (no buffer).

``KMVSearchIndex`` keeps, for every record, its ``k = ⌊b / m⌋`` smallest
hash values — the equal allocation Theorem 1 shows to be optimal for
plain KMV under a space budget ``b`` — and answers containment search
with the Equation-10 intersection estimator.  It is a
:class:`~repro.core.index.SketchStoreIndex` like GB-KMV: its rows live in
a :class:`~repro.core.store.ColumnarSketchStore` with zero-width
signatures, it is built by the same flatten → plan → ``from_flat``
pipeline (:meth:`KMVSearchIndex.plan_parameters` pins the global ``k``,
and a sharded build pins every shard to that one plan), and it answers
through the same pair-then-sweep engine, with
:func:`~repro.core.batched.kmv_intersection_estimates` scoring the pairs
that share a value.

``GKMVSearchIndex`` keeps every hash value below a single global
threshold ``τ`` chosen so the sketches fill the budget, and estimates
with the enlarged-``k`` estimator of Equations 24–26.  That is GB-KMV
(Equation 27) with an empty buffer, so it is a
:class:`~repro.core.GBKMVIndex` whose vocabulary must be empty.

Both therefore share GB-KMV's dynamic surface — ``insert`` /
``delete`` / ``update`` under stable record ids, and ``save`` / ``load``
snapshots in either layout — so the evaluation harness can drive every
method through an identical mixed insert/delete/query stream.

Both appear as the non-buffered points of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError, SnapshotFormatError
from repro.api.config import GKMVConfig, KMVConfig
from repro.core.batched import kmv_intersection_estimates
from repro.core.buffer import FrequentElementVocabulary
from repro.core.bulk import (
    BulkSketches,
    FlatRecords,
    bulk_kmv_value_rows,
    resolve_space_budget,
)
from repro.core.index import GBKMVIndex, SketchStoreIndex, _json_payload, _Workload
from repro.core.profiling import BuildProfile
from repro.core.store import SNAPSHOT_VERSION
from repro.hashing import UnitHash


@dataclass(frozen=True)
class KMVPlan:
    """Theorem 1's global parameters, before any ingest.

    Returned by :meth:`KMVSearchIndex.plan_parameters`: the shared hasher,
    ``k = ⌊b / m⌋``, the resolved budget and the hashes of the planned
    dataset's unique fingerprints.  The fields are
    :meth:`~repro.core.index.SketchStoreIndex.from_flat`'s keywords.
    """

    hasher: UnitHash
    k_per_record: int
    budget: float
    unique_hashes: np.ndarray


class KMVSearchIndex(SketchStoreIndex):
    """Plain-KMV containment similarity search with equal allocation."""

    backend_id = "kmv"
    config_type = KMVConfig

    def __init__(self, hasher: UnitHash, k_per_record: int, budget: float) -> None:
        super().__init__(hasher, budget, signature_bits=0)
        self._k = int(k_per_record)

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
        return cls._build(
            records,
            method,
            space_fraction=space_fraction,
            space_budget=space_budget,
            hasher=hasher,
            seed=seed,
        )

    @classmethod
    def plan_parameters(
        cls,
        flat: FlatRecords,
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        hasher: UnitHash | None = None,
        seed: int = 0,
        profile: BuildProfile | None = None,
    ) -> KMVPlan:
        """Theorem 1's equal allocation ``k = ⌊b / m⌋`` over the whole dataset.

        Also hashes the unique universe once: a fingerprint's hash does
        not depend on which records carry it, so every slice of ``flat``
        gathers its rows from the same column.  The plan is one hash
        pass, so ``profile`` records no stage of its own.
        """
        if hasher is None:
            hasher = UnitHash(seed=seed)
        budget = resolve_space_budget(flat.total_elements, space_fraction, space_budget)
        return KMVPlan(
            hasher=hasher,
            k_per_record=max(int(budget // flat.num_records), 1),
            budget=budget,
            unique_hashes=hasher.hash_fingerprints(flat.unique_fingerprints),
        )

    @classmethod
    def _build_per_record(
        cls,
        records: Sequence[Iterable[object]],
        space_fraction: float = 0.10,
        space_budget: float | None = None,
        hasher: UnitHash | None = None,
        seed: int = 0,
    ) -> "KMVSearchIndex":
        """The historical record-at-a-time build (the bulk path's oracle)."""
        if hasher is None:
            hasher = UnitHash(seed=seed)
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

    # ----------------------------------------------------------- the family
    def _split(self, record: Iterable[object]) -> tuple[int, list]:
        return 0, list(set(record))

    def _keep(self, hashes: np.ndarray) -> np.ndarray:
        return hashes[: self._k]

    def _sketch_bulk(
        self,
        flat: FlatRecords,
        profile: BuildProfile | None = None,
        unique_hashes: np.ndarray | None = None,
    ) -> BulkSketches:
        values, lengths = bulk_kmv_value_rows(
            flat, self._hasher, self._k, unique_hashes=unique_hashes, profile=profile
        )
        # A KMV row has no buffer (a zero-width signature) and records |X|
        # as both of its sizes, so exactness (kept values >= residual size)
        # is KMVSketch.is_exact.
        return BulkSketches(
            values=values,
            value_offsets=np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)]),
            signatures=np.empty((lengths.size, 0), dtype=np.uint64),
            residual_record_sizes=flat.record_sizes,
            record_sizes=flat.record_sizes,
        )

    def _residual_estimates(
        self,
        workload: _Workload,
        query_idx: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Equation 10 over the value-sharing pairs."""
        store = self._store
        offsets = store.offsets
        num_values, exact = workload.value_counts()
        return kmv_intersection_estimates(
            counts,
            store.values,
            offsets[rows],
            offsets[rows + 1] - offsets[rows],
            store.row_exact[rows],
            workload.values,
            workload.offsets[query_idx],
            num_values[query_idx],
            exact[query_idx],
        )

    # ------------------------------------------------------------ persistence
    def _snapshot_meta(self) -> dict:
        return {
            "k_per_record": self._k,
            "budget": self._budget,
            "hasher_seed": self._hasher.seed,
        }

    @classmethod
    def _from_snapshot_meta(cls, meta: dict) -> "KMVSearchIndex":
        return cls(
            hasher=UnitHash(seed=int(meta["hasher_seed"])),
            k_per_record=int(meta["k_per_record"]),
            budget=float(meta["budget"]),
        )

    @classmethod
    def _read_npz(cls, path, data) -> tuple[dict, dict]:
        """Also reads the version-1 layout written before KMV shared the store.

        That layout carries its parameters (plus ``next_id``) under
        ``kmv_meta`` and its rows as CSR ``values``/``offsets``, with
        ``record_sizes``, ``row_ids`` and an ``alive`` mask; they map onto
        the store's columns one for one.
        """
        if "kmv_meta" not in data.files:
            return super()._read_npz(path, data)
        meta = _json_payload(path, data, "kmv_meta", cls.backend_id)
        try:
            values, offsets, sizes, row_ids, alive = (
                data[name] for name in ("values", "offsets", "record_sizes", "row_ids", "alive")
            )
            store_meta = np.array([SNAPSHOT_VERSION, 0, meta["next_id"]], dtype=np.int64)
        except KeyError as error:
            raise SnapshotFormatError(
                f"KMV snapshot is missing column {error}; the payload is "
                "truncated or from an unsupported layout"
            ) from error
        return meta, dict(
            values=values,
            offsets=offsets,
            signatures=np.empty((sizes.size, 0), dtype=np.uint64),
            record_sizes=sizes,
            residual_record_sizes=sizes,
            row_ids=row_ids,
            tombstones=~np.asarray(alive, dtype=bool),
            store_meta=store_meta,
        )

    # ------------------------------------------------------------ introspection
    @property
    def k_per_record(self) -> int:
        """The per-record sketch capacity ``k = ⌊b / m⌋``."""
        return self._k


class GKMVSearchIndex(GBKMVIndex):
    """G-KMV containment search (Equations 24–26): GB-KMV with an empty buffer.

    The constructor refuses a non-empty vocabulary, so every path to an
    index — the builds and :meth:`plan_parameters`, which pin
    ``buffer_size=0``, ``from_parameters``, ``from_flat``, the sharded
    planner and :meth:`load` — yields one without a buffer; a buffered
    index would report GB-KMV numbers under the G-KMV label.  The store, the query engine, the dynamic
    maintenance and the snapshots are :class:`GBKMVIndex`'s own.
    Snapshots carry this backend's tag, so :func:`repro.api.open_index`
    restores them as this class.
    """

    backend_id = "gkmv"
    config_type = GKMVConfig

    def __init__(
        self,
        vocabulary: FrequentElementVocabulary,
        threshold: float,
        hasher: UnitHash,
        budget: float,
    ) -> None:
        if vocabulary.size:
            raise ConfigurationError(
                f"G-KMV keeps no frequent-element buffer, got buffer size "
                f"{vocabulary.size}; use GBKMVIndex for a buffered index"
            )
        super().__init__(vocabulary, threshold, hasher, budget)

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
        return cls._build(
            records,
            method,
            space_fraction=space_fraction,
            space_budget=space_budget,
            hasher=hasher,
            seed=seed,
        )

    @classmethod
    def plan_parameters(
        cls, flat: FlatRecords, profile: BuildProfile | None = None, **settings
    ):
        """GB-KMV's derivation under :class:`GKMVConfig`'s fields, buffer pinned empty."""
        return super().plan_parameters(flat, buffer_size=0, profile=profile, **settings)

    @classmethod
    def _build_per_record(cls, records: Sequence[Iterable[object]], **settings):
        return super()._build_per_record(records, buffer_size=0, **settings)
