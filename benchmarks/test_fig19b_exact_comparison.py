"""Figure 19(b) — running time against exact algorithms as records grow.

The paper partitions WEBSPAM (average record length ≈ 3700) into groups
by record size and reports the per-query running time of GB-KMV against
the exact methods PPjoin* and FrequentSet.  The claims: exact methods
slow down as records grow, while GB-KMV's query time stays flat (it only
ever touches a fixed number of samples), all while keeping recall above
0.9 and F1 above 0.8.

Here the groups are synthetic datasets with increasing record sizes,
shaped like WEBSPAM (very skewed element frequency, near-constant record
size within a group).
"""

from __future__ import annotations

import time

from _util import DEFAULT_THRESHOLD, bench_num_queries, bench_scale, write_report

from repro.core import GBKMVIndex
from repro.datasets import generate_zipf_dataset, sample_queries
from repro.evaluation import evaluate_search_method, exact_result_sets
from repro.exact import FrequentSetSearcher, PPJoinSearcher

RECORD_SIZE_GROUPS = (250, 500, 1_000, 2_000)
#: Every method's per-query time is its fastest of this many rounds, the
#: methods interleaved round by round so that a slow phase of a shared
#: host hits all of them: the growth-ratio check compares sub-millisecond
#: times, which one spiked round would otherwise decide.
TIMING_ROUNDS = 5


def _group_dataset(record_size: int) -> list[list[int]]:
    num_records = max(int(400 * bench_scale()), 60)
    return generate_zipf_dataset(
        num_records=num_records,
        universe_size=60_000,
        element_exponent=1.33,
        size_exponent=9.34,
        min_record_size=max(record_size - 50, 10),
        max_record_size=record_size,
        seed=31,
    )


def _best_query_seconds(methods: dict, num_queries: int) -> dict[str, float]:
    """Fastest-round average per-query time of each method, rounds interleaved."""
    best = dict.fromkeys(methods, float("inf"))
    for _round in range(TIMING_ROUNDS):
        for name, run_queries in methods.items():
            start = time.perf_counter()
            run_queries()
            best[name] = min(best[name], (time.perf_counter() - start) / num_queries)
    return best


def _run() -> list[list[object]]:
    rows: list[list[object]] = []
    num_queries = min(bench_num_queries(), 15)
    # The paper's point is that GB-KMV uses "a fixed number of samples for a
    # given budget": the absolute budget is fixed across the record-size
    # groups (10% of the smallest group's volume), so per-record sample
    # counts do not grow with the records.
    smallest = _group_dataset(RECORD_SIZE_GROUPS[0])
    fixed_budget = 0.10 * sum(len(set(record)) for record in smallest)
    for record_size in RECORD_SIZE_GROUPS:
        records = _group_dataset(record_size)
        queries, _ids = sample_queries(records, num_queries=num_queries, seed=7)
        truth = exact_result_sets(records, queries, DEFAULT_THRESHOLD)

        gbkmv = GBKMVIndex.build(records, space_budget=fixed_budget)
        gbkmv_eval = evaluate_search_method(
            "GB-KMV", gbkmv, queries, truth, DEFAULT_THRESHOLD, use_batched=True
        )
        # GB-KMV goes through the batched engine, as in the evaluation
        # above; the exact searchers have no batched path and are looped
        # per query.
        ppjoin = PPJoinSearcher(records)
        freqset = FrequentSetSearcher(records)
        seconds = _best_query_seconds(
            {
                "gbkmv": lambda: gbkmv.search_many(queries, DEFAULT_THRESHOLD),
                "ppjoin": lambda: [ppjoin.search(q, DEFAULT_THRESHOLD) for q in queries],
                "freqset": lambda: [freqset.search(q, DEFAULT_THRESHOLD) for q in queries],
            },
            len(queries),
        )
        rows.append(
            [
                record_size,
                round(seconds["gbkmv"] * 1e3, 3),
                round(seconds["ppjoin"] * 1e3, 3),
                round(seconds["freqset"] * 1e3, 3),
                round(gbkmv_eval.accuracy.f1, 3),
                round(gbkmv_eval.accuracy.recall, 3),
            ]
        )
    return rows


def test_fig19b_exact_algorithm_comparison(run_once):
    rows = run_once(_run)
    write_report(
        "fig19b_exact_comparison",
        "Figure 19(b): per-query time (ms) vs record size — GB-KMV vs exact methods",
        ["record_size", "gbkmv_ms", "ppjoin_ms", "freqset_ms", "gbkmv_f1", "gbkmv_recall"],
        rows,
    )
    # Shape checks: exact methods' query time grows with record size much
    # faster than GB-KMV's, and GB-KMV keeps a decent accuracy throughout.
    first, last = rows[0], rows[-1]
    gbkmv_growth = last[1] / max(first[1], 1e-9)
    exact_growth = last[3] / max(first[3], 1e-9)
    assert exact_growth > gbkmv_growth
    for row in rows:
        assert row[5] >= 0.5  # recall stays reasonably high throughout
