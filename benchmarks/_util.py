"""Shared plumbing for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper on
proxy datasets (see ``repro.datasets.proxies`` and DESIGN.md for the
substitution rationale).  The helpers here keep the modules declarative:
they load (and cache) proxies, run the standard query workload, evaluate
methods, and print a plain-text report; with ``REPRO_BENCH_RECORD=1``
they also write it to ``benchmarks/results/<name>.txt``, and the
micro-benchmarks write their ``BENCH_*.json`` at the repository root.

Environment knobs
-----------------
``REPRO_BENCH_SCALE``
    Multiplier on proxy dataset sizes (default ``0.25``).  Use ``1.0`` for
    a slower, higher-fidelity run.
``REPRO_BENCH_QUERIES``
    Number of queries per workload (default ``30``; the paper uses 200).
``REPRO_BENCH_RECORD``
    ``1`` writes the reports and ``BENCH_*.json`` files to disk, replacing
    the committed ones; any other value (the default) only prints, so a
    test run leaves the tree as it was.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

from repro.datasets import DATASET_PROFILES, load_proxy, sample_queries
from repro.evaluation import evaluate_search_method, exact_result_sets, format_table
from repro.evaluation.harness import MethodEvaluation, time_construction

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset names in the order the paper's figures present them.
ALL_DATASETS = tuple(DATASET_PROFILES)

#: The paper's default containment similarity threshold.
DEFAULT_THRESHOLD = 0.5


def bench_scale() -> float:
    """Proxy-size multiplier, from ``REPRO_BENCH_SCALE`` (default 0.25)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def bench_num_queries() -> int:
    """Workload size, from ``REPRO_BENCH_QUERIES`` (default 30)."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", "30"))


def bench_record() -> bool:
    """Whether to write reports to disk, from ``REPRO_BENCH_RECORD``."""
    return os.environ.get("REPRO_BENCH_RECORD") == "1"


def record_json(path: Path, payload: dict) -> None:
    """Write a ``BENCH_*.json`` payload, when :func:`bench_record` says so."""
    if bench_record():
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@lru_cache(maxsize=None)
def bench_dataset(name: str) -> tuple[tuple[object, ...], ...]:
    """Load (and memoise) the proxy dataset for a paper corpus."""
    records = load_proxy(name, scale=bench_scale(), seed=7)
    return tuple(tuple(record) for record in records)


@lru_cache(maxsize=None)
def bench_workload(
    name: str, threshold: float = DEFAULT_THRESHOLD
) -> tuple[tuple[tuple[object, ...], ...], tuple[frozenset[int], ...]]:
    """Queries drawn from the proxy plus their exact ground truth."""
    records = bench_dataset(name)
    queries, _ids = sample_queries(records, num_queries=bench_num_queries(), seed=13)
    truth = exact_result_sets(records, queries, threshold)
    return tuple(tuple(q) for q in queries), tuple(truth)


def evaluate_methods(
    records: Sequence[Sequence[object]],
    queries: Sequence[Sequence[object]],
    ground_truth: Sequence[frozenset[int]],
    threshold: float,
    methods: dict[str, Callable[[], object]],
    use_batched: bool = True,
) -> dict[str, MethodEvaluation]:
    """Build and evaluate each method on a shared workload.

    Methods exposing ``search_many`` (GB-KMV and the KMV/G-KMV baselines)
    are driven through the batched query engine; the rest (LSH-E,
    asymmetric MinHash, the exact searchers) fall back to per-query
    loops inside the harness.
    """
    evaluations: dict[str, MethodEvaluation] = {}
    for name, builder in methods.items():
        built, construction_seconds = time_construction(builder)
        evaluations[name] = evaluate_search_method(
            name,
            built,
            queries,
            ground_truth,
            threshold,
            construction_seconds=construction_seconds,
            use_batched=use_batched,
        )
    return evaluations


def write_report(name: str, title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a table, print it, and persist it under ``benchmarks/results/``
    when :func:`bench_record` says so."""
    table = format_table(headers, rows)
    report = f"{title}\n{'=' * len(title)}\n(scale={bench_scale()}, queries={bench_num_queries()})\n\n{table}\n"
    if bench_record():
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(report, encoding="utf-8")
    print(f"\n{report}")
    return report
