"""``repro.serving`` — the asyncio serving layer over any backend.

A built index answers workloads fast (the fused engine, the sharded
fan-out) but a live service receives requests one at a time.  This
package recovers the workload shape at the front door:

:class:`SimilarityService`
    The async front: query micro-batching, write coalescing under an
    explicit visibility policy, one worker lane off the event loop, and
    ``start``/``drain``/``close`` lifecycle (``async with`` supported).
:class:`~repro.api.ServingConfig`
    Its typed configuration (batch ceiling, visibility policy,
    staleness bound, buffer depth) — defined in
    :mod:`repro.api.config` with the rest of the typed configs.
:class:`MicroBatcher` / :class:`WriteCoalescer`
    The two mechanisms, separately reusable: per-key request fusion on
    the event loop, and the synchronous order-preserving write buffer
    (also driven by the dynamic-stream evaluation harness).
:func:`run_closed_loop` / :func:`run_load` / :class:`LoadReport`
    The closed-loop load generator behind ``BENCH_serving.json``.
"""

from repro.api.config import ServingConfig
from repro.serving.batcher import BatcherStats, MicroBatcher
from repro.serving.loadgen import (
    LatencySummary,
    LoadReport,
    run_closed_loop,
    run_load,
)
from repro.serving.service import ServiceStats, SimilarityService
from repro.serving.write_buffer import WriteBufferStats, WriteCoalescer

__all__ = [
    "SimilarityService",
    "ServingConfig",
    "ServiceStats",
    "MicroBatcher",
    "BatcherStats",
    "WriteCoalescer",
    "WriteBufferStats",
    "run_closed_loop",
    "run_load",
    "LoadReport",
    "LatencySummary",
]
