"""Sharded multi-core execution of the similarity-search backends.

The ``"sharded"`` backend partitions a dataset by record-id hash across
``S`` independent inner indexes (any dynamic registered backend — GB-KMV
by default) and implements the full
:class:`~repro.api.interface.SimilarityIndex` protocol on top of them:
queries fan out to every shard on a thread pool (the numpy kernels
release the GIL, so shards can overlap on a multi-core machine) and the
per-shard hits are merged back, through the query engine's own global
sort, into exactly the result lists the unsharded index returns.

Package layout
--------------
``partitioner``
    Deterministic record-id → shard routing (SplitMix64 over the id) and
    the reconstruction of the full routing tables from a record count.
``executor``
    The order-preserving thread-pool fan-out primitive, for queries,
    inserts and construction alike.
``planner``
    Builds the per-shard inner indexes under globally pinned parameters,
    which is what makes sharded search results bitwise identical to the
    unsharded backend for the native sketch backends: every
    :class:`~repro.core.index.SketchStoreIndex` family is flattened and
    planned once and sketched per shard through its shared ``from_flat``.
``persistence``
    The directory-of-shard-snapshots format behind ``save``/``load``.
``backend``
    :class:`ShardedIndex`, the registered ``SimilarityIndex``; its
    search maps each shard's local ids to global ids and merges the hits
    through :func:`~repro.core.index._assemble_workload_results`, the
    one home of the result order.
"""

from repro.sharding.backend import ShardedIndex

__all__ = ["ShardedIndex"]
