"""Building the per-shard inner indexes under globally pinned parameters.

The point of the planner is *bitwise identity*: a sharded index must
return exactly the results of its unsharded inner backend, or sharding
would silently change the numbers a benchmark reports.  Every per-record
sketch in the native backends depends only on the record's content and
the *global* construction parameters — the frequent-element vocabulary,
the residual threshold ``τ``, the hasher, and KMV's per-record ``k`` —
never on which other records share its store.  So the planner derives
those parameters once over the **full** dataset (exactly as the
unsharded construction would) and then sketches each shard's records
under the pinned values.

For the native sketch backends the whole pipeline is *flatten once,
plan once, sketch shards concurrently*:

- the dataset is flattened and fingerprinted exactly once
  (:func:`~repro.core.bulk.flatten_records`); each shard's view is a
  CSR gather out of that one pass
  (:func:`~repro.core.bulk.slice_flat_records`) — no per-shard
  re-hashing and no second frequency pass;
- ``gbkmv`` / ``gkmv`` pin parameters via
  :meth:`~repro.core.index.GBKMVIndex.plan_parameters` and sketch each
  slice with :meth:`~repro.core.index.GBKMVIndex.from_flat` (``gkmv``
  pins ``buffer_size=0`` and builds its shards as the zero-buffer
  subclass :class:`~repro.baselines.kmv_search.GKMVSearchIndex`);
  ``kmv`` applies the Theorem-1 allocation ``k = ⌊b / m⌋`` with the
  *global* ``b`` and ``m``, hashes the unique universe once,
  bulk-selects each slice's values as CSR columns
  (:func:`~repro.core.bulk.bulk_kmv_value_rows`) and appends them to the
  shard's store in one ``append_bulk``, as the GB-KMV shards do;
- the per-shard sketch kernels fan out on a
  :class:`~repro.sharding.executor.ShardExecutor` sized by
  ``build_workers`` — threads by default (the kernels release the GIL),
  or a process pool (``build_executor="process"``) whose module-level
  workers receive plain arrays and return sketch columns.

Other dynamic backends shard through their ordinary ``from_records``;
they still answer every query (each shard sees all queries and the merge
is order-exact), but their per-shard parameters are derived per shard,
so results may differ from the unsharded build — and an empty shard is
an error, since there is no pinned-parameter way to construct one.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError
from repro.api.config import IndexConfig
from repro.api.interface import SimilarityIndex
from repro.api.registry import get_backend
from repro.baselines.kmv_search import GKMVSearchIndex, KMVSearchIndex, append_kmv_rows
from repro.core.bulk import (
    FlatRecords,
    VocabularyLookup,
    bulk_kmv_value_rows,
    bulk_sketch,
    flatten_records,
    resolve_space_budget,
    slice_flat_records,
)
from repro.core.index import GBKMVIndex
from repro.core.profiling import BuildProfile
from repro.hashing import UnitHash
from repro.sharding.executor import EXECUTOR_KINDS, ShardExecutor

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


def build_shards(
    records: Sequence[Iterable[object]],
    groups: Sequence[np.ndarray],
    inner_backend: str,
    inner_config: IndexConfig | None,
    build_workers: int | None = None,
    build_executor: str = "thread",
    profile: BuildProfile | None = None,
) -> list[SimilarityIndex]:
    """Build one inner index per shard.

    ``records`` is the full dataset in global-id order and ``groups[s]``
    the ascending positions (int64) of the records routed to shard ``s``
    — ascending order is what makes inner local ids line up with arrival
    ranks.  ``inner_config`` is validated against the inner backend's
    ``config_type``.

    ``build_workers`` sizes the construction fan-out (``None`` means one
    worker per core, capped at the shard count; an explicit value below
    the shard count is an oversubscription guard) and ``build_executor``
    picks threads or processes for it; both only apply to the native
    sketch backends' bulk pipeline.  ``profile`` collects the per-stage
    build breakdown.
    """
    if build_executor not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor kind {build_executor!r}; use 'thread' or 'process'"
        )
    if inner_backend == "gbkmv":
        return _gbkmv_shards(
            records, groups, inner_config, build_workers, build_executor, profile
        )
    if inner_backend == "gkmv":
        return _gkmv_shards(
            records, groups, inner_config, build_workers, build_executor, profile
        )
    if inner_backend == "kmv":
        return _kmv_shards(
            records, groups, inner_config, build_workers, build_executor, profile
        )
    return _generic_shards(records, groups, inner_backend, inner_config)


def _records_of(records, group: np.ndarray) -> list:
    """Materialise one shard's records as a Python list (fallback paths)."""
    return [records[position] for position in group.tolist()]


def _sketch_shard_arrays(payload):
    """Process-pool worker: bulk-sketch one shard's sliced columns.

    Runs in a child process, so it receives plain picklable arrays
    rather than the parent's :class:`FlatRecords`/index objects, and
    returns the sketch columns plus its own wall time for the parent to
    record.  The reconstructed ``FlatRecords`` carries empty
    universe columns — :func:`bulk_sketch` never reads them when
    ``unique_hashes`` is supplied (and never reads ``elements`` at all).
    """
    (
        offsets,
        fingerprints,
        inverse,
        sorted_fingerprints,
        bit_positions,
        threshold,
        hasher,
        num_words,
        unique_hashes,
    ) = payload
    start = time.perf_counter()
    flat = FlatRecords(
        offsets=offsets,
        elements=fingerprints,
        fingerprints=fingerprints,
        unique_fingerprints=_EMPTY_U64,
        first_occurrence=_EMPTY_I64,
        inverse=inverse,
        counts=_EMPTY_I64,
    )
    lookup = VocabularyLookup(
        sorted_fingerprints=sorted_fingerprints, bit_positions=bit_positions
    )
    sketches = bulk_sketch(
        flat, lookup, threshold, hasher, num_words, unique_hashes=unique_hashes
    )
    return sketches, time.perf_counter() - start


def _kmv_shard_rows(payload):
    """Process-pool worker: one shard's k-smallest KMV values as CSR columns."""
    offsets, inverse, hasher, k_per_record, unique_hashes = payload
    start = time.perf_counter()
    flat = FlatRecords(
        offsets=offsets,
        elements=inverse,
        fingerprints=_EMPTY_U64,
        unique_fingerprints=_EMPTY_U64,
        first_occurrence=_EMPTY_I64,
        inverse=inverse,
        counts=_EMPTY_I64,
    )
    columns = bulk_kmv_value_rows(
        flat, hasher, k_per_record, unique_hashes=unique_hashes
    )
    return columns, time.perf_counter() - start


def _pinned_gbkmv_shards(
    index_type: type[GBKMVIndex],
    records,
    groups,
    method: str,
    plan_kwargs: dict,
    build_workers,
    build_executor,
    profile,
) -> list[GBKMVIndex]:
    """Flatten once, plan once, sketch every shard under the pinned params.

    ``index_type`` is the class every shard is built as: ``GBKMVIndex``
    or its zero-buffer subclass ``GKMVSearchIndex``.
    """
    flat = flatten_records(records, profile=profile)
    params = index_type.plan_parameters(flat, profile=profile, **plan_kwargs)
    # Each shard carries an equal slice of the global budget; the budget
    # only feeds per-shard bookkeeping (refit headroom, statistics) —
    # sketch content is fully determined by the pinned parameters.
    share = params.budget / len(groups)
    if method == "per-record":
        # The historical baseline sketches record-at-a-time from the raw
        # records; it stays serial (and re-materialises shard lists).
        return [
            index_type.from_parameters(
                _records_of(records, group),
                vocabulary=params.vocabulary,
                threshold=params.threshold,
                hasher=params.hasher,
                budget=share,
                method="per-record",
            )
            if group.size
            else index_type(
                vocabulary=params.vocabulary,
                threshold=params.threshold,
                hasher=params.hasher,
                budget=share,
            )
            for group in groups
        ]

    pieces = [slice_flat_records(flat, group) for group in groups]
    executor = ShardExecutor(len(groups), build_workers, kind=build_executor)
    try:
        if build_executor == "process":
            shards = [
                index_type(
                    vocabulary=params.vocabulary,
                    threshold=params.threshold,
                    hasher=params.hasher,
                    budget=share,
                )
                for _ in groups
            ]
            occupied = [
                position for position, piece in enumerate(pieces) if piece.num_records
            ]
            payloads = [
                (
                    pieces[position].offsets,
                    pieces[position].fingerprints,
                    pieces[position].inverse,
                    params.lookup.sorted_fingerprints,
                    params.lookup.bit_positions,
                    params.threshold,
                    params.hasher,
                    shards[position].store.num_words,
                    params.unique_hashes,
                )
                for position in occupied
            ]
            results = executor.map(_sketch_shard_arrays, payloads)
            for position, (sketches, seconds) in zip(occupied, results):
                if profile is not None:
                    profile.record(
                        "sketch",
                        seconds,
                        rows=sketches.num_records,
                        nbytes=sketches.values.nbytes + sketches.signatures.nbytes,
                    )
                shards[position].store.append_bulk(
                    values=sketches.values,
                    value_lengths=sketches.value_lengths,
                    signatures=sketches.signatures,
                    residual_record_sizes=sketches.residual_record_sizes,
                    record_sizes=sketches.record_sizes,
                    profile=profile,
                )
                shards[position].last_build_profile = profile
            return shards

        def build_one(piece: FlatRecords) -> GBKMVIndex:
            if piece.num_records == 0:
                return index_type(
                    vocabulary=params.vocabulary,
                    threshold=params.threshold,
                    hasher=params.hasher,
                    budget=share,
                )
            return index_type.from_flat(
                piece,
                vocabulary=params.vocabulary,
                threshold=params.threshold,
                hasher=params.hasher,
                budget=share,
                lookup=params.lookup,
                unique_hashes=params.unique_hashes,
                profile=profile,
            )

        return executor.map(build_one, pieces)
    finally:
        executor.close()


def _gbkmv_shards(
    records, groups, inner_config, build_workers, build_executor, profile
):
    config = GBKMVIndex.resolve_config(inner_config)
    GBKMVIndex._check_build_method(config.method)
    return _pinned_gbkmv_shards(
        GBKMVIndex,
        records,
        groups,
        config.method,
        dict(
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            buffer_size=config.buffer_size,
            seed=config.seed,
            cost_model_pair_sample=config.cost_model_pair_sample,
        ),
        build_workers,
        build_executor,
        profile,
    )


def _gkmv_shards(
    records, groups, inner_config, build_workers, build_executor, profile
):
    config = GKMVSearchIndex.resolve_config(inner_config)
    GBKMVIndex._check_build_method(config.method)
    return _pinned_gbkmv_shards(
        GKMVSearchIndex,
        records,
        groups,
        config.method,
        dict(
            space_fraction=config.space_fraction,
            space_budget=config.space_budget,
            buffer_size=0,
            seed=config.seed,
        ),
        build_workers,
        build_executor,
        profile,
    )


def _kmv_shards(
    records, groups, inner_config, build_workers, build_executor, profile
):
    config = KMVSearchIndex.resolve_config(inner_config)
    flat = flatten_records(records, profile=profile)
    budget = resolve_space_budget(
        flat.total_elements, config.space_fraction, config.space_budget
    )
    # Theorem 1's equal allocation under the *global* budget and record
    # count — the same k every record gets in the unsharded build.
    k = max(int(budget // flat.num_records), 1)
    hasher = UnitHash(seed=config.seed)
    share = budget / len(groups)
    # Hash the unique universe once for every shard: a fingerprint's
    # hash does not depend on which records carry it, so per-shard rows
    # under the global hash column equal per-shard re-hashing.
    unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)
    pieces = [slice_flat_records(flat, group) for group in groups]
    executor = ShardExecutor(len(groups), build_workers, kind=build_executor)
    try:
        if build_executor == "process":
            payloads = [
                (piece.offsets, piece.inverse, hasher, k, unique_hashes)
                for piece in pieces
            ]
            results = executor.map(_kmv_shard_rows, payloads)
            for piece, (_, seconds) in zip(pieces, results):
                if profile is not None:
                    profile.record("sketch", seconds, rows=piece.num_records)
            shard_columns = [columns for columns, _ in results]
        else:
            shard_columns = executor.map(
                lambda piece: bulk_kmv_value_rows(
                    piece, hasher, k, unique_hashes=unique_hashes, profile=profile
                ),
                pieces,
            )
    finally:
        executor.close()
    shards = []
    for piece, columns in zip(pieces, shard_columns):
        index = KMVSearchIndex(hasher=hasher, k_per_record=k, budget=share)
        append_kmv_rows(index.store, columns, piece.record_sizes, profile)
        shards.append(index)
    return shards


def _generic_shards(records, groups, inner_backend, inner_config):
    inner_cls = get_backend(inner_backend)
    config = inner_cls.resolve_config(inner_config)
    shards = []
    for position, group in enumerate(groups):
        if group.size == 0:
            raise ConfigurationError(
                f"shard {position} of {len(groups)} is empty; backend "
                f"{inner_backend!r} has no pinned-parameter construction and "
                "cannot build an empty shard — use fewer shards or a native "
                "sketch backend (gbkmv/gkmv/kmv)"
            )
        shards.append(
            inner_cls.from_records(_records_of(records, group), config=config)
        )
    return shards
