"""Building the per-shard inner indexes under globally pinned parameters.

The point of the planner is *bitwise identity*: a sharded index must
return exactly the results of its unsharded inner backend, or sharding
would silently change the numbers a benchmark reports.  Every per-record
sketch in the native backends depends only on the record's content and
the *global* construction parameters — the frequent-element vocabulary,
the residual threshold ``τ``, the hasher, and KMV's per-record ``k`` —
never on which other records share its store.  So a shard is just a row
subset sketched under parameters planned once over the **full** dataset,
exactly as the unsharded construction plans them.

Every :class:`~repro.core.index.SketchStoreIndex` backend (gbkmv, gkmv,
kmv) takes the one native path, chosen by class:

- the dataset is flattened and fingerprinted exactly once
  (:func:`~repro.core.bulk.flatten_records`);
- the family's ``plan_parameters`` pins the global parameters once,
  together with the hashes of the unique universe;
- each shard's view is a CSR gather out of that one pass
  (:func:`~repro.core.bulk.slice_flat_records`), sketched by the shared
  ``from_flat`` — no per-shard re-hashing and no second frequency pass;
- the per-shard ``from_flat`` calls fan out on a
  :class:`~repro.sharding.executor.ShardExecutor` thread pool sized by
  the sharded config's ``max_workers`` (the sketch kernels release the
  GIL).

A config whose ``method`` is ``"per-record"`` sketches every shard record
at a time under the same pinned parameters (``from_parameters``), the
oracle the bulk path must equal.

Other dynamic backends shard through their ordinary ``from_records``;
they still answer every query (each shard sees all queries and the merge
is order-exact), but their per-shard parameters are derived per shard,
so results may differ from the unsharded build — and an empty shard is
an error, since there is no pinned-parameter way to construct one.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError
from repro.api.config import IndexConfig
from repro.api.interface import SimilarityIndex
from repro.api.registry import get_backend
from repro.core.bulk import flatten_records, slice_flat_records
from repro.core.index import SketchStoreIndex
from repro.core.profiling import BuildProfile
from repro.sharding.executor import ShardExecutor


def build_shards(
    records: Sequence[Iterable[object]],
    groups: Sequence[np.ndarray],
    inner_backend: str,
    inner_config: IndexConfig | None,
    max_workers: int | None = None,
    profile: BuildProfile | None = None,
) -> list[SimilarityIndex]:
    """Build one inner index per shard.

    ``records`` is the full dataset in global-id order and ``groups[s]``
    the ascending positions (int64) of the records routed to shard ``s``
    — ascending order is what makes inner local ids line up with arrival
    ranks.  ``inner_config`` is validated against the inner backend's
    ``config_type``.

    ``max_workers`` sizes the construction fan-out of the sketch
    backends (``None`` means one thread per core, capped at the shard
    count; an explicit value below the shard count is an
    oversubscription guard).  ``profile`` collects the per-stage build
    breakdown.
    """
    inner_cls = get_backend(inner_backend)
    config = inner_cls.resolve_config(inner_config)
    if issubclass(inner_cls, SketchStoreIndex):
        return _pinned_shards(inner_cls, records, groups, config, max_workers, profile)
    return _generic_shards(inner_cls, records, groups, config)


def _records_of(records, group: np.ndarray) -> list:
    """Materialise one shard's records as a Python list."""
    return [records[position] for position in group.tolist()]


def _pinned_shards(
    index_type: type[SketchStoreIndex],
    records,
    groups,
    config: IndexConfig,
    max_workers: int | None,
    profile: BuildProfile | None,
) -> list[SketchStoreIndex]:
    """Flatten once, plan once, sketch every shard under the pinned plan."""
    settings = dataclasses.asdict(config)
    method = settings.pop("method")
    index_type._check_build_method(method)
    flat = flatten_records(records, profile=profile)
    plan = index_type.plan_parameters(flat, profile=profile, **settings)
    # Each shard carries an equal slice of the global budget; the budget
    # only feeds per-shard bookkeeping (refit headroom, statistics) —
    # sketch content is fully determined by the pinned parameters.
    pinned = {**vars(plan), "budget": plan.budget / len(groups)}
    if method == "per-record":
        return [
            index_type.from_parameters(
                _records_of(records, group), method="per-record", **pinned
            )
            for group in groups
        ]
    pieces = [slice_flat_records(flat, group) for group in groups]
    executor = ShardExecutor(len(groups), max_workers)
    try:
        return executor.map(
            lambda piece: index_type.from_flat(piece, profile=profile, **pinned),
            pieces,
        )
    finally:
        executor.close()


def _generic_shards(inner_cls, records, groups, config):
    shards = []
    for position, group in enumerate(groups):
        if group.size == 0:
            raise ConfigurationError(
                f"shard {position} of {len(groups)} is empty; backend "
                f"{inner_cls.backend_id!r} has no pinned-parameter construction "
                "and cannot build an empty shard — use fewer shards or a native "
                "sketch backend (gbkmv/gkmv/kmv)"
            )
        shards.append(inner_cls.from_records(_records_of(records, group), config=config))
    return shards
