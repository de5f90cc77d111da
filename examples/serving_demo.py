"""Serving demo: an async front with micro-batching and write coalescing.

A built index answers a *workload* of queries far faster than the same
queries one at a time, but a live service receives them one at a time.
:class:`repro.api.SimilarityService` recovers the workload shape at the
front door:

1. concurrent searches fuse into batched engine calls: while the
   engine runs one batch, the requests that arrive wait and run
   together as the next (invisibly — answers are identical to direct
   index calls),
2. inserts and deletes coalesce in a write buffer that flushes as bulk
   ingests under an explicit visibility policy (here read-your-writes:
   a query never misses a write this service accepted), and
3. a closed-loop load generator measures the throughput and latency a
   deployment would see.

Run with::

    python examples/serving_demo.py
"""

from __future__ import annotations

import asyncio

from repro.api import (
    GBKMVConfig,
    ServingConfig,
    SimilarityService,
    create_index,
    generate_zipf_dataset,
    run_closed_loop,
    sample_queries,
)


async def main() -> None:
    records = generate_zipf_dataset(
        num_records=2_000,
        universe_size=20_000,
        element_exponent=1.15,
        size_exponent=3.0,
        min_record_size=10,
        max_record_size=200,
        seed=7,
    )
    queries, _ids = sample_queries(records, num_queries=32, seed=11)
    index = create_index("gbkmv", records, GBKMVConfig(space_fraction=0.10))

    config = ServingConfig(max_batch_size=64, visibility="read-your-writes")
    async with SimilarityService(index, config) as service:
        # --- a burst of concurrent searches fuses into few engine calls
        print("=== Concurrent searches, micro-batched ===")
        results = await asyncio.gather(
            *(service.search(query, threshold=0.5) for query in queries)
        )
        stats = service.stats()
        print(f"  {stats.batcher.requests} requests answered in "
              f"{stats.batcher.batches} engine calls "
              f"(mean batch size {stats.batcher.mean_batch_size:.1f})")
        total_hits = sum(len(hits) for hits in results)
        print(f"  {total_hits} hits above threshold 0.5 across the burst")
        print()

        # --- writes coalesce, and read-your-writes means no query misses them
        print("=== Write coalescing under read-your-writes ===")
        new_id = await service.insert(records[0])
        hits = await service.search(records[0], threshold=0.0)
        visible = any(hit.record_id == new_id for hit in hits)
        print(f"  inserted record got id {new_id}; "
              f"visible to the very next query: {visible}")
        await service.delete(new_id)
        print()

        # --- a small closed-loop run: throughput and tail latency
        print("=== Closed-loop load (16 clients, mixed reads/writes) ===")
        report = await run_closed_loop(
            service,
            queries,
            threshold=0.5,
            num_clients=16,
            requests_per_client=8,
            insert_pool=records[:64],
            write_fraction=0.25,
            top_k_fraction=0.25,
            seed=3,
        )
        print(f"  {report.total_requests} requests at "
              f"{report.throughput_rps:,.0f} req/s "
              f"(p50 {report.latency.p50_ms:.2f} ms, "
              f"p99 {report.latency.p99_ms:.2f} ms)")
        writes = service.stats().writes
        print(f"  write coalescing: {writes.inserts} inserts flushed in "
              f"{writes.insert_batches} bulk ingests")


if __name__ == "__main__":
    asyncio.run(main())
