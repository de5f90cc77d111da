"""Macro-benchmark — the sharded backend at the million-record scale.

The sharding PR claims the ``sharded`` backend turns GB-KMV into a
multi-core index without changing a single answer: records are
partitioned by id hash across independent inner GB-KMV stores that share
one globally-planned parameter set, search fans out across shards on a
thread pool (the numpy kernels release the GIL), and the per-shard hits
merge back into exactly the ordering the unsharded index produces.

This benchmark pins the claim on the first million-record dataset the
repository builds: a vectorised power-law corpus (4M records x
``REPRO_BENCH_SCALE``, so 1M at the default 0.25) pushed through

* the plain ``gbkmv`` backend as the unsharded baseline, and
* the ``sharded`` backend at 1, 2, 4 and 8 shards,

timing construction and the batched ``search_many`` workload for each
shard count.  Asserted invariants:

* every shard count returns **bitwise-identical** hits/scores/ordering
  to the unsharded baseline — sharding is a layout change, not an
  approximation;
* a **parallel-built** index (``max_workers=4`` through the shard
  executor) is bitwise-identical to a serially built one
  (``max_workers=1``) — parallel construction is a scheduling change,
  not an approximation;
* on a machine with >= 4 cores at the full 1M-record scale, the best
  multi-shard ``search_many`` wall-clock beats the single-shard
  configuration by at least **2x**, and the best multi-shard *build*
  beats the single-shard build by at least **2x** (reduced-size or
  few-core runs — CI smoke, this container — record the scaling table
  without the guards);
* shard occupancy is balanced: the emptiest shard holds at least half
  the records of the fullest.

Every build also attaches its per-stage profile (flatten / vocabulary /
sketch / append wall-clock from ``last_build_profile``), so the table
shows *where* construction time goes as the shard count grows.

With ``REPRO_BENCH_RECORD=1``, results (including ``cpu_count``, so a
1-core table cannot be mistaken for a scaling failure) land in
``BENCH_sharded.json`` at the repository root.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from _util import bench_num_queries, bench_scale, record_json, write_report

from repro.api import GBKMVConfig, ShardedConfig, create_index
from repro.core import GBKMVIndex

SPACE_FRACTION = 0.10
THRESHOLD = 0.5
SHARD_COUNTS = (1, 2, 4, 8)
#: Records at full benchmark scale, below which the 2x multi-shard guard
#: is recorded but not enforced (reduced-size CI smoke runs).
FULL_SCALE_RECORDS = 1_000_000
#: Cores below which the 2x guard is meaningless: the shard executor
#: runs inline on a single worker and parallel speedup is impossible.
MIN_CORES_FOR_GUARD = 4
#: PR 7's unsharded 1M-record build on this container (BENCH_sharded.json
#: before the flatten-once + sort-once-reuse work), kept as the reference
#: the refreshed single-core build is compared against in the payload.
PR7_BASELINE_BUILD_SECONDS = 8.3718

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"


def _num_records() -> int:
    """1M records at the default scale (0.25); REPRO_BENCH_SCALE tunes it."""
    return max(int(4_000_000 * bench_scale()), 20_000)


def _power_law_dataset(
    num_records: int, universe_size: int = 2_000_000, seed: int = 47
) -> list[np.ndarray]:
    """Vectorised power-law corpus.

    ``generate_zipf_dataset`` draws record-at-a-time through Python and
    is unusable at the million-record scale this benchmark targets, so
    every record size and element is drawn here in single vectorised
    passes: zipf-tailed record sizes, inverse-CDF power-law element
    frequencies (small ids are hot, mirroring the proxy corpora), and
    one ``np.split`` slicing the flat element array into per-record
    views.
    """
    rng = np.random.default_rng(seed)
    sizes = np.minimum(rng.zipf(2.2, size=num_records) + 4, 64).astype(np.int64)
    draws = rng.random(int(sizes.sum()))
    elements = np.floor(universe_size * draws**2.5).astype(np.int64)
    return np.split(elements, np.cumsum(sizes)[:-1])


def _queries(records: list[np.ndarray]) -> list[np.ndarray]:
    """An evenly-strided sample of records, reused as the query workload."""
    num_queries = min(bench_num_queries(), len(records))
    stride = max(len(records) // num_queries, 1)
    return records[::stride][:num_queries]


def _best_of(function, rounds: int = 3):
    """Keep the last result and the fastest wall-clock of ``rounds`` runs."""
    result = None
    seconds = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = function()
        seconds = min(seconds, time.perf_counter() - start)
    return result, seconds


def _flatten(results) -> list[list[tuple[int, float]]]:
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


def _run() -> dict[str, object]:
    num_records = _num_records()
    records = _power_law_dataset(num_records)
    queries = _queries(records)
    cpu_count = os.cpu_count() or 1

    # --- unsharded baseline ------------------------------------------------
    # Builds are timed single-shot: at 1M records a best-of-3 would
    # triple a multi-minute benchmark for a number that barely moves.
    start = time.perf_counter()
    baseline = GBKMVIndex.build(records, space_fraction=SPACE_FRACTION)
    baseline_build_seconds = time.perf_counter() - start
    baseline_hits, baseline_search_seconds = _best_of(
        lambda: baseline.search_many(queries, THRESHOLD)
    )
    expected = _flatten(baseline_hits)

    # --- sharded scaling table --------------------------------------------
    scaling: list[dict[str, object]] = []
    search_seconds_by_shards: dict[int, float] = {}
    build_seconds_by_shards: dict[int, float] = {}
    identical = True
    for num_shards in SHARD_COUNTS:
        config = ShardedConfig(
            num_shards=num_shards,
            inner_backend="gbkmv",
            inner_config=GBKMVConfig(space_fraction=SPACE_FRACTION),
        )
        start = time.perf_counter()
        index = create_index("sharded", records, config)
        build_seconds = time.perf_counter() - start
        hits, search_seconds = _best_of(
            lambda index=index: index.search_many(queries, THRESHOLD)
        )
        identical = identical and _flatten(hits) == expected
        occupancy = [shard.num_records for shard in index.shards]
        assert min(occupancy) >= 0.5 * max(occupancy), (
            f"unbalanced shards at num_shards={num_shards}: {occupancy}"
        )
        search_seconds_by_shards[num_shards] = search_seconds
        build_seconds_by_shards[num_shards] = build_seconds
        scaling.append(
            {
                "num_shards": num_shards,
                "build_seconds": round(build_seconds, 4),
                "build_stage_seconds": {
                    name: round(seconds, 4)
                    for name, seconds in index.last_build_profile.stage_seconds().items()
                },
                "search_many_seconds": round(search_seconds, 4),
                "speedup_vs_one_shard": None,  # filled once the 1-shard row exists
                "shard_records_min": int(min(occupancy)),
                "shard_records_max": int(max(occupancy)),
            }
        )
        index.close()
    assert identical, "sharded search drifted from the unsharded baseline"

    # --- parallel vs serial construction ----------------------------------
    # The same 4-shard configuration built with an explicit single-worker
    # executor and with a forced 4-worker pool: wall-clocks land in the
    # payload and the two indexes must be bitwise interchangeable.
    serial_config = ShardedConfig(
        num_shards=4,
        inner_backend="gbkmv",
        inner_config=GBKMVConfig(space_fraction=SPACE_FRACTION),
        max_workers=1,
    )
    start = time.perf_counter()
    serial_index = create_index("sharded", records, serial_config)
    serial_build_seconds = time.perf_counter() - start
    parallel_config = ShardedConfig(
        num_shards=4,
        inner_backend="gbkmv",
        inner_config=GBKMVConfig(space_fraction=SPACE_FRACTION),
        max_workers=4,
    )
    start = time.perf_counter()
    parallel_index = create_index("sharded", records, parallel_config)
    parallel_build_seconds = time.perf_counter() - start
    parallel_identical = (
        _flatten(serial_index.search_many(queries, THRESHOLD)) == expected
        and _flatten(parallel_index.search_many(queries, THRESHOLD)) == expected
        and all(
            serial_shard.store.state_arrays().keys()
            == parallel_shard.store.state_arrays().keys()
            and all(
                np.array_equal(
                    serial_shard.store.state_arrays()[name],
                    parallel_shard.store.state_arrays()[name],
                )
                for name in serial_shard.store.state_arrays()
            )
            for serial_shard, parallel_shard in zip(
                serial_index.shards, parallel_index.shards
            )
        )
    )
    assert parallel_identical, "parallel build drifted from the serial build"
    serial_index.close()
    parallel_index.close()

    one_shard_seconds = search_seconds_by_shards[SHARD_COUNTS[0]]
    for row in scaling:
        row["speedup_vs_one_shard"] = round(
            one_shard_seconds / row["search_many_seconds"], 2
        )
    multi_shard = [s for s in SHARD_COUNTS if s > 1]
    best_shards = min(multi_shard, key=search_seconds_by_shards.__getitem__)
    best_speedup = one_shard_seconds / search_seconds_by_shards[best_shards]
    one_shard_build = build_seconds_by_shards[SHARD_COUNTS[0]]
    best_build_shards = min(multi_shard, key=build_seconds_by_shards.__getitem__)
    best_build_speedup = one_shard_build / build_seconds_by_shards[best_build_shards]

    # The headline claims — >= 2x search AND >= 2x build at the full
    # million-record scale on a multi-core machine.  Single-core or
    # reduced-size runs still emit the full scaling table (with
    # cpu_count) but skip the guards: the shard executor degrades to
    # inline execution and cannot speed up.
    guard_applies = num_records >= FULL_SCALE_RECORDS and cpu_count >= MIN_CORES_FOR_GUARD
    if guard_applies:
        assert best_speedup >= 2.0, (
            f"search_many at {best_shards} shards is only {best_speedup:.2f}x "
            f"the single-shard configuration ({cpu_count} cores)"
        )
        assert best_build_speedup >= 2.0, (
            f"build at {best_build_shards} shards is only "
            f"{best_build_speedup:.2f}x the single-shard build "
            f"({cpu_count} cores)"
        )

    payload = {
        "dataset": {
            "num_records": num_records,
            "distribution": "power-law (zipf record size, inverse-CDF element frequency)",
            "space_fraction": SPACE_FRACTION,
            "threshold": THRESHOLD,
            "num_queries": len(queries),
        },
        "machine": {"cpu_count": cpu_count},
        "baseline_gbkmv": {
            "build_seconds": round(baseline_build_seconds, 4),
            "search_many_seconds": round(baseline_search_seconds, 4),
            "build_profile": baseline.last_build_profile.as_dict(),
            "pr7_build_seconds_reference": PR7_BASELINE_BUILD_SECONDS,
        },
        "sharded_scaling": scaling,
        "parallel_build": {
            "num_shards": 4,
            "serial_build_seconds": round(serial_build_seconds, 4),
            "parallel_build_seconds": round(parallel_build_seconds, 4),
            "max_workers": 4,
            "identical_to_serial": bool(parallel_identical),
        },
        "best_multi_shard": {
            "num_shards": best_shards,
            "speedup_vs_one_shard": round(best_speedup, 2),
            "build_speedup_vs_one_shard": round(best_build_speedup, 2),
            "guard_enforced": guard_applies,
        },
        "identical_results": bool(identical and parallel_identical),
    }
    record_json(BENCH_JSON, payload)
    return payload


def test_sharded_scaling(run_once):
    payload = run_once(_run)
    rows = [
        [
            "gbkmv (unsharded)",
            payload["baseline_gbkmv"]["build_seconds"],
            payload["baseline_gbkmv"]["search_many_seconds"],
            "-",
        ]
    ]
    rows.extend(
        [
            f"sharded x{row['num_shards']}",
            row["build_seconds"],
            row["search_many_seconds"],
            row["speedup_vs_one_shard"],
        ]
        for row in payload["sharded_scaling"]
    )
    write_report(
        "sharded",
        f"Sharded backend scaling ({payload['dataset']['num_records']} "
        f"power-law records, {payload['machine']['cpu_count']} cores)",
        ["configuration", "build_seconds", "search_many_seconds", "speedup_vs_1_shard"],
        rows,
    )
    assert payload["identical_results"] is True
