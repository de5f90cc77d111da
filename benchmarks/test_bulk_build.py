"""Micro-benchmark — bulk construction pipeline vs the per-record builder.

The bulk-build PR claims Algorithm 1 no longer needs to run
record-at-a-time through Python: the whole dataset is flattened into one
CSR pair, fingerprinted and hashed in single vectorised passes,
frequencies come from ``np.unique`` instead of a ``Counter`` loop, each
record's kept residual hashes are selected with one global lexsort, and
the columnar store ingests the entire batch through one staged-batch
merge (``append_bulk``).  This benchmark pins the claim on a 10k-record
power-law dataset:

* **per-record build** — ``GBKMVIndex.build(method="per-record")``, the
  historical path kept verbatim as the baseline;
* **bulk build** — ``GBKMVIndex.build()`` (the default), the vectorised
  pipeline;
* the same pair for the plain-KMV baseline builder; and
* **looped insert vs insert_many** on a 2k-record ingest stream against
  an existing warm index (both paths charged through to a finalized
  store, since looped inserts defer the join-index merge to the next
  search).

Asserted invariants:

* the bulk index is **bitwise identical** to the per-record one — same
  vocabulary, same threshold, same store ``state_arrays()``, same
  ``search_many`` hits/scores/ordering — the speed comes from batching,
  not approximation;
* bulk build is at least **5×** the per-record builder at the full
  10k-record scale (reduced-size runs guard a sanity floor only);
* ``insert_many`` beats looping ``insert`` over the 2k-insert stream,
  with identical post-ingest store state and search results.

With ``REPRO_BENCH_RECORD=1``, results land in ``BENCH_bulk_build.json``
at the repository root.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from _util import bench_num_queries, bench_scale, record_json, write_report

from repro.baselines import KMVSearchIndex
from repro.core import GBKMVIndex
from repro.datasets import generate_zipf_dataset, sample_queries

SPACE_FRACTION = 0.10
THRESHOLD = 0.5
NUM_INSERTS = 2_000
#: Records at full benchmark scale, below which the 5x bulk guard
#: degrades to a sanity floor (reduced-size CI smoke runs).
FULL_SCALE_RECORDS = 10_000

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_bulk_build.json"


def _num_records() -> int:
    """10k records at the default scale (0.25); REPRO_BENCH_SCALE tunes it."""
    return max(int(40_000 * bench_scale()), 1_000)


def _dataset(num_records: int, seed: int = 41) -> list[list[int]]:
    return generate_zipf_dataset(
        num_records=num_records,
        universe_size=80_000,
        element_exponent=1.15,
        size_exponent=3.0,
        min_record_size=10,
        max_record_size=200,
        seed=seed,
    )


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


def _states_identical(left: GBKMVIndex, right: GBKMVIndex) -> bool:
    left_state = left.store.state_arrays()
    right_state = right.store.state_arrays()
    return left_state.keys() == right_state.keys() and all(
        np.array_equal(left_state[name], right_state[name])
        for name in left_state
    )


def _run() -> dict[str, object]:
    num_records = _num_records()
    records = _dataset(num_records)
    insert_pool = _dataset(NUM_INSERTS, seed=43)
    queries, _ids = sample_queries(records, num_queries=bench_num_queries(), seed=17)

    # --- whole-dataset construction ---------------------------------------
    per_record_index, per_record_seconds = _best_of(
        lambda: GBKMVIndex.build(
            records, space_fraction=SPACE_FRACTION, method="per-record"
        )
    )
    bulk_index, bulk_seconds = _best_of(
        lambda: GBKMVIndex.build(records, space_fraction=SPACE_FRACTION)
    )
    build_speedup = per_record_seconds / bulk_seconds

    identical_results = (
        per_record_index.vocabulary == bulk_index.vocabulary
        and per_record_index.threshold == bulk_index.threshold
        and _states_identical(per_record_index, bulk_index)
        and _flatten(per_record_index.search_many(queries, THRESHOLD))
        == _flatten(bulk_index.search_many(queries, THRESHOLD))
    )
    assert identical_results, "bulk build drifted from the per-record builder"

    # --- KMV baseline construction ----------------------------------------
    kmv_per_record, kmv_per_record_seconds = _best_of(
        lambda: KMVSearchIndex.build(
            records, space_fraction=SPACE_FRACTION, method="per-record"
        )
    )
    kmv_bulk, kmv_bulk_seconds = _best_of(
        lambda: KMVSearchIndex.build(records, space_fraction=SPACE_FRACTION)
    )
    kmv_speedup = kmv_per_record_seconds / kmv_bulk_seconds
    assert _flatten(kmv_per_record.search_many(queries, THRESHOLD)) == _flatten(
        kmv_bulk.search_many(queries, THRESHOLD)
    ), "bulk KMV build drifted from the per-record builder"

    # --- batched ingest: insert_many vs looped insert ---------------------
    # Fresh pinned-parameter indexes; the timed region runs the ingest
    # through store.finalize() so the looped path is charged for the
    # join-index merge it defers to the next search.
    def _pinned() -> GBKMVIndex:
        index = GBKMVIndex.from_parameters(
            records,
            vocabulary=bulk_index.vocabulary,
            threshold=bulk_index.threshold,
            hasher=bulk_index.hasher,
            budget=bulk_index.budget,
        )
        index.store.finalize()
        return index

    looped_index = _pinned()
    start = time.perf_counter()
    looped_ids = [looped_index.insert(record) for record in insert_pool]
    looped_index.store.finalize()
    looped_insert_seconds = time.perf_counter() - start

    batched_index = _pinned()
    start = time.perf_counter()
    batched_ids = batched_index.insert_many(insert_pool)
    batched_index.store.finalize()
    insert_many_seconds = time.perf_counter() - start
    insert_speedup = looped_insert_seconds / insert_many_seconds

    assert looped_ids == batched_ids, "insert_many assigned different record ids"
    insert_identical = _states_identical(looped_index, batched_index) and (
        _flatten(looped_index.search_many(queries, THRESHOLD))
        == _flatten(batched_index.search_many(queries, THRESHOLD))
    )
    assert insert_identical, "insert_many drifted from looped insert"
    assert insert_speedup > 1.0, (
        f"insert_many ({insert_many_seconds:.4f}s) does not beat looped "
        f"insert ({looped_insert_seconds:.4f}s) on the {NUM_INSERTS}-insert stream"
    )

    # The headline claim — >= 5x at the full 10k-record scale (see
    # BENCH_bulk_build.json); reduced-size runs only sanity-check that
    # the bulk path is not slower than the loop.
    build_guard = 5.0 if num_records >= FULL_SCALE_RECORDS else 1.5
    assert build_speedup >= build_guard, (
        f"bulk build is only {build_speedup:.1f}x the per-record builder "
        f"(guard: {build_guard}x at {num_records} records)"
    )

    payload = {
        "dataset": {
            "num_records": num_records,
            "distribution": "power-law (zipf element frequency, zipf record size)",
            "space_fraction": SPACE_FRACTION,
            "threshold": THRESHOLD,
            "num_queries": len(queries),
        },
        "build_seconds": {
            "gbkmv_per_record": round(per_record_seconds, 4),
            "gbkmv_bulk": round(bulk_seconds, 4),
            "kmv_per_record": round(kmv_per_record_seconds, 4),
            "kmv_bulk": round(kmv_bulk_seconds, 4),
        },
        "build_records_per_second": {
            "gbkmv_per_record": round(num_records / per_record_seconds, 1),
            "gbkmv_bulk": round(num_records / bulk_seconds, 1),
        },
        "speedup": {
            "gbkmv_bulk_vs_per_record": round(build_speedup, 1),
            "kmv_bulk_vs_per_record": round(kmv_speedup, 1),
            "insert_many_vs_looped_insert": round(insert_speedup, 1),
        },
        "insert_stream": {
            "num_inserts": NUM_INSERTS,
            "looped_insert_seconds": round(looped_insert_seconds, 4),
            "insert_many_seconds": round(insert_many_seconds, 4),
        },
        # Per-stage breakdown of the (fastest-round) bulk build: where
        # the remaining wall-clock goes — flatten / vocabulary / sketch /
        # append — from GBKMVIndex.last_build_profile.
        "build_profile": bulk_index.last_build_profile.as_dict(),
        "identical_results": bool(identical_results and insert_identical),
    }
    record_json(BENCH_JSON, payload)
    return payload


def test_bulk_build_speedup(run_once):
    payload = run_once(_run)
    build = payload["build_seconds"]
    stream = payload["insert_stream"]
    speedup = payload["speedup"]
    write_report(
        "bulk_build",
        f"Bulk construction pipeline ({payload['dataset']['num_records']} "
        "power-law records)",
        ["path", "seconds", "speedup_vs_baseline"],
        [
            ["GB-KMV per-record build", build["gbkmv_per_record"], 1.0],
            [
                "GB-KMV bulk build",
                build["gbkmv_bulk"],
                speedup["gbkmv_bulk_vs_per_record"],
            ],
            ["KMV per-record build", build["kmv_per_record"], 1.0],
            ["KMV bulk build", build["kmv_bulk"], speedup["kmv_bulk_vs_per_record"]],
            [
                f"looped insert x{stream['num_inserts']}",
                stream["looped_insert_seconds"],
                1.0,
            ],
            [
                "insert_many",
                stream["insert_many_seconds"],
                speedup["insert_many_vs_looped_insert"],
            ],
        ],
    )
    assert payload["identical_results"] is True
    assert payload["speedup"]["insert_many_vs_looped_insert"] > 1.0
