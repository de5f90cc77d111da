"""Micro-benchmark — segmented dynamic store vs rebuilding on every batch.

The segmented store claims that a GB-KMV index can absorb an
insert-heavy stream incrementally: a batch is written into the spare
capacity behind the store's columns and the value→record join index is
maintained with a sorted two-run merge (``O(T + S log S)`` for ``S``
new values over ``T`` stored ones) instead of rebuilding the index from
scratch on every batch (what a build-once reproduction must do).  This
benchmark pins that claim on a 10k-record power-law dataset driven
through an insert-heavy stream of interleaved batch-inserts and
searches:

* **incremental merge** — one index maintained with
  :meth:`GBKMVIndex.insert_many` (the batched-ingest path of the bulk
  construction pipeline), each batch merged into the sealed segment;
* **rebuild from scratch** — :meth:`GBKMVIndex.from_parameters` over the
  accumulated records at every checkpoint, the only option an index
  without dynamic maintenance offers.  The rebuild runs through the
  *bulk* construction pipeline, so the incremental-vs-rebuild comparison
  charges rebuild at its post-bulk-PR (much cheaper) price.

The store once also had an *invalidation re-sort* mode, which dropped
the join index after every insert and re-sorted it from scratch on the
next search.  It existed only as this benchmark's baseline and is gone;
its last measured times are kept in the report as frozen
``*_reference`` fields.

Asserted invariants:

* both paths return **identical** hits at every checkpoint, and the
  final incremental index answers exactly like a freshly built index
  over the full dataset — dynamic maintenance is free of drift;
* the incremental path beats rebuild-from-scratch by at least **3×**
  wall-clock on the stream, each path timed as its fastest of
  ``TIMING_ROUNDS`` interleaved rounds with the cyclic garbage collector
  paused;
* a :meth:`GBKMVIndex.save` → :meth:`GBKMVIndex.load` round-trip of the
  final index reproduces its ``search_many`` output bitwise.

A mixed insert/delete/query stream (the new
:func:`~repro.datasets.build_dynamic_workload` /
:func:`~repro.evaluation.evaluate_dynamic_stream` path) is also replayed
to record end-to-end accuracy under churn.  With
``REPRO_BENCH_RECORD=1``, results land in ``BENCH_dynamic_store.json`` at
the repository root.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from pathlib import Path

from _util import bench_num_queries, bench_scale, record_json, write_report

from repro.core import GBKMVIndex
from repro.datasets import build_dynamic_workload, generate_zipf_dataset, sample_queries
from repro.evaluation import evaluate_dynamic_stream

SPACE_FRACTION = 0.10
THRESHOLD = 0.5
NUM_CHECKPOINTS = 8
INSERT_GROWTH = 0.20  # total inserted fraction of the base dataset
NUM_ALTERNATIONS = 300  # single insert → single search cycles
#: Each batch-stream path is timed this many times, the paths
#: interleaved round by round so that a slow phase of a shared host hits
#: all of them; each path's fastest round counts.
TIMING_ROUNDS = 3
#: The deleted invalidation re-sort mode's last measured times at the
#: default scale on a shared 2-vCPU VM (batch stream, then the
#: single-insert alternation), frozen as references.
INVALIDATION_RESORT_SECONDS_REFERENCE = 0.0446
INVALIDATION_RESORT_ALTERNATION_SECONDS_REFERENCE = 0.3494

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_dynamic_store.json"


def _num_records() -> int:
    """10k records at the default scale (0.25); REPRO_BENCH_SCALE tunes it."""
    return max(int(40_000 * bench_scale()), 1_000)


def _dataset(num_records: int) -> list[list[int]]:
    return generate_zipf_dataset(
        num_records=num_records,
        universe_size=80_000,
        element_exponent=1.15,
        size_exponent=3.0,
        min_record_size=10,
        max_record_size=200,
        seed=41,
    )


def _pinned_index(parameters: GBKMVIndex, records) -> GBKMVIndex:
    """Fresh index over ``records`` under ``parameters``' pinned sketch config."""
    index = GBKMVIndex.from_parameters(
        records,
        vocabulary=parameters.vocabulary,
        threshold=parameters.threshold,
        hasher=parameters.hasher,
        budget=parameters.budget,
    )
    index.store.finalize()
    return index


def _flatten(results) -> list[list[tuple[int, float]]]:
    return [[(hit.record_id, hit.score) for hit in hits] for hits in results]


def _drive_maintained(index: GBKMVIndex, batches, queries):
    """Ingest each batch (batched) then search — the maintenance stream."""
    checkpoints = []
    start = time.perf_counter()
    for batch in batches:
        index.insert_many(batch)
        checkpoints.append(_flatten(index.search_many(queries, THRESHOLD)))
    return checkpoints, time.perf_counter() - start


@contextmanager
def _collector_paused():
    """Keep cyclic garbage collection out of a timed stream, as ``timeit`` does.

    Every checkpoint keeps thousands of result tuples alive, and the
    collections they trigger cost time in proportion to everything else
    the test process holds — up to half of the incremental stream after
    the unit suite — rather than to the maintenance work being compared.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _drive_rebuilt(parameters: GBKMVIndex, base, batches, queries):
    """Rebuild from scratch over the accumulated records, then search."""
    checkpoints = []
    accumulated = list(base)
    start = time.perf_counter()
    for batch in batches:
        accumulated.extend(batch)
        rebuilt = _pinned_index(parameters, accumulated)
        checkpoints.append(_flatten(rebuilt.search_many(queries, THRESHOLD)))
    return checkpoints, time.perf_counter() - start


def _run(tmp_path: Path) -> dict[str, object]:
    num_records = _num_records()
    num_inserts = int(num_records * INSERT_GROWTH)
    records = _dataset(num_records + num_inserts + NUM_ALTERNATIONS)
    base = records[:num_records]
    pool = records[num_records : num_records + num_inserts]
    alternation_pool = records[num_records + num_inserts :]
    queries, _ids = sample_queries(base, num_queries=bench_num_queries(), seed=17)

    # One cost-model build fixes vocabulary / threshold / hasher; every
    # path sketches under these pinned parameters so results must agree.
    built = GBKMVIndex.build(base, space_fraction=SPACE_FRACTION)

    per_checkpoint = max(num_inserts // NUM_CHECKPOINTS, 1)
    batches = [
        pool[position : position + per_checkpoint]
        for position in range(0, len(pool), per_checkpoint)
    ]

    timings: dict[str, list[float]] = {"incremental": [], "rebuild": []}
    for _round in range(TIMING_ROUNDS):
        # Incremental merge (the segmented store's default).
        incremental_index = _pinned_index(built, base)
        with _collector_paused():
            incremental_checkpoints, seconds = _drive_maintained(
                incremental_index, batches, queries
            )
        timings["incremental"].append(seconds)

        # Rebuild from scratch at every checkpoint.
        with _collector_paused():
            rebuild_checkpoints, seconds = _drive_rebuilt(
                built, base, batches, queries
            )
        timings["rebuild"].append(seconds)
    incremental_seconds = min(timings["incremental"])
    rebuild_seconds = min(timings["rebuild"])

    # --- identity checks --------------------------------------------------
    assert incremental_checkpoints == rebuild_checkpoints, (
        "incremental maintenance drifted from rebuild-from-scratch"
    )
    fresh = _pinned_index(built, records[: num_records + num_inserts])
    identical_results = (
        _flatten(incremental_index.search_many(queries, THRESHOLD))
        == _flatten(fresh.search_many(queries, THRESHOLD))
    )
    assert identical_results, (
        "incrementally maintained index differs from a freshly built one"
    )

    # --- snapshot round-trip ----------------------------------------------
    snapshot = tmp_path / "gbkmv_dynamic.npz"
    incremental_index.save(snapshot)
    restored = GBKMVIndex.load(snapshot)
    roundtrip_identical = (
        _flatten(incremental_index.search_many(queries, THRESHOLD))
        == _flatten(restored.search_many(queries, THRESHOLD))
    )
    assert roundtrip_identical, "save → load changed search_many output"

    speedup_vs_rebuild = rebuild_seconds / incremental_seconds
    assert speedup_vs_rebuild >= 3.0, (
        f"incremental merge is only {speedup_vs_rebuild:.1f}x rebuild-from-scratch"
    )

    # --- fine-grained alternation: one insert, one search, repeat ---------
    # Batch streams amortise the join-index merge over many inserts; a
    # service interleaving single writes with reads cannot, so every cycle
    # here absorbs one staged row before its search.
    start = time.perf_counter()
    for record in alternation_pool:
        incremental_index.insert(record)
        _flatten([incremental_index.search(record, THRESHOLD)])
    alternation_seconds = time.perf_counter() - start

    # --- mixed stream through the evaluation path -------------------------
    mixed_records = base[: max(num_records // 5, 500)]
    workload = build_dynamic_workload(
        mixed_records,
        threshold=THRESHOLD,
        num_operations=200,
        insert_fraction=0.4,
        delete_fraction=0.2,
        seed=29,
    )
    mixed_index = GBKMVIndex.build(
        list(workload.initial_records), space_fraction=SPACE_FRACTION
    )
    mixed = evaluate_dynamic_stream("GB-KMV", mixed_index, workload)
    # At full budget the sketches are exact, so churn must not cost a
    # single false positive or negative — the end-to-end correctness
    # guard for the insert/delete/query path.
    exact_index = GBKMVIndex.build(
        list(workload.initial_records), space_fraction=1.0
    )
    exact = evaluate_dynamic_stream("GB-KMV (full budget)", exact_index, workload)
    assert exact.accuracy.f1 == 1.0, "full-budget stream must be exact under churn"

    payload = {
        "dataset": {
            "num_records": num_records,
            "distribution": "power-law (zipf element frequency, zipf record size)",
            "space_fraction": SPACE_FRACTION,
            "threshold": THRESHOLD,
            "num_queries": len(queries),
        },
        "stream": {
            "num_checkpoints": len(batches),
            "inserts_per_checkpoint": per_checkpoint,
            "total_inserts": num_inserts,
        },
        "seconds": {
            "incremental_merge": round(incremental_seconds, 4),
            "invalidation_resort_reference": INVALIDATION_RESORT_SECONDS_REFERENCE,
            "rebuild_from_scratch": round(rebuild_seconds, 4),
        },
        "speedup": {
            "incremental_vs_rebuild": round(speedup_vs_rebuild, 1),
        },
        "single_insert_search_alternation": {
            "num_cycles": len(alternation_pool),
            "incremental_merge_seconds": round(alternation_seconds, 4),
            "invalidation_resort_seconds_reference": (
                INVALIDATION_RESORT_ALTERNATION_SECONDS_REFERENCE
            ),
        },
        "identical_results": bool(identical_results),
        "save_load_roundtrip_identical": bool(roundtrip_identical),
        "mixed_stream": {
            "num_operations": mixed.num_operations,
            "inserts": mixed.num_inserts,
            "deletes": mixed.num_deletes,
            "queries": mixed.num_queries,
            "f1": round(mixed.accuracy.f1, 4),
            "precision": round(mixed.accuracy.precision, 4),
            "recall": round(mixed.accuracy.recall, 4),
            "full_budget_f1": round(exact.accuracy.f1, 4),
        },
    }
    record_json(BENCH_JSON, payload)
    return payload


def test_dynamic_store_speedup(run_once, tmp_path):
    payload = run_once(_run, tmp_path)
    seconds = payload["seconds"]
    alternation = payload["single_insert_search_alternation"]
    write_report(
        "dynamic_store",
        "Dynamic segmented store: insert-heavy stream maintenance (10k power-law records)",
        ["path", "batch_stream_seconds", "alternation_seconds", "speedup_vs_incremental"],
        [
            [
                "incremental merge",
                seconds["incremental_merge"],
                alternation["incremental_merge_seconds"],
                1.0,
            ],
            [
                "invalidation re-sort (frozen reference)",
                seconds["invalidation_resort_reference"],
                alternation["invalidation_resort_seconds_reference"],
                "-",
            ],
            [
                "rebuild from scratch",
                seconds["rebuild_from_scratch"],
                "-",
                payload["speedup"]["incremental_vs_rebuild"],
            ],
        ],
    )
    assert payload["speedup"]["incremental_vs_rebuild"] >= 3.0
    assert payload["identical_results"] is True
    assert payload["save_load_roundtrip_identical"] is True
