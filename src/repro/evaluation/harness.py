"""Experiment harness: run a searcher over a workload and measure everything.

The benchmark modules in ``benchmarks/`` all follow the same recipe:

1. build (or load) a dataset,
2. sample a query workload and compute its exact ground truth,
3. build one index per method under the experiment's space setting,
4. run every query through every method, and
5. aggregate precision / recall / F_1 / F_0.5, per-query time, space used
   and construction time.

Steps 2–5 live here so the benchmark files stay declarative: they state
what the paper's figure varies and print the resulting rows.

Beyond the paper's static experiments, the harness replays *mixed
insert/delete/query streams*
(:class:`~repro.datasets.workload.DynamicWorkload`) against any searcher
exposing the dynamic API — :func:`evaluate_dynamic_stream` measures
accuracy against the per-instant exact ground truth plus separate
mutation and query throughput.

Every harness entry point drives searchers through the unified
:class:`repro.api.SimilarityIndex` protocol, which every search method
of the library implements: what a backend supports is read off its
:class:`~repro.api.Capabilities` declaration, so there is no per-method
special-casing anywhere below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError
from repro.api.interface import SimilarityIndex
from repro.api.results import SearchResult
from repro.evaluation.ground_truth import exact_result_sets
from repro.evaluation.metrics import ConfusionCounts


@dataclass(frozen=True)
class AccuracyReport:
    """Averaged accuracy of one method over one workload."""

    precision: float
    recall: float
    f1: float
    f05: float
    per_query_precision: tuple[float, ...]
    per_query_recall: tuple[float, ...]
    per_query_f1: tuple[float, ...]

    @property
    def f1_min(self) -> float:
        """Worst per-query F1 (Figure 14 reports min / avg / max)."""
        return min(self.per_query_f1) if self.per_query_f1 else 0.0

    @property
    def f1_max(self) -> float:
        """Best per-query F1."""
        return max(self.per_query_f1) if self.per_query_f1 else 0.0


@dataclass(frozen=True)
class MethodEvaluation:
    """Accuracy plus cost measurements of one method on one experiment point."""

    method: str
    accuracy: AccuracyReport
    avg_query_seconds: float
    space_in_values: float
    space_fraction: float
    construction_seconds: float


def _result_ids(hits: Iterable[SearchResult]) -> set[int]:
    """The record ids of a searcher's hits."""
    return {int(hit.record_id) for hit in hits}


def measure_accuracy(
    answers: Sequence[Iterable[int]],
    ground_truth: Sequence[Iterable[int]],
) -> AccuracyReport:
    """Average per-query precision / recall / F-scores over a workload."""
    if len(answers) != len(ground_truth):
        raise ConfigurationError("answers and ground_truth must have the same length")
    precisions: list[float] = []
    recalls: list[float] = []
    f1s: list[float] = []
    f05s: list[float] = []
    for answer, truth in zip(answers, ground_truth):
        counts = ConfusionCounts.from_sets(truth, answer)
        precisions.append(counts.precision)
        recalls.append(counts.recall)
        f1s.append(counts.f_score(1.0))
        f05s.append(counts.f_score(0.5))
    return AccuracyReport(
        precision=float(np.mean(precisions)) if precisions else 0.0,
        recall=float(np.mean(recalls)) if recalls else 0.0,
        f1=float(np.mean(f1s)) if f1s else 0.0,
        f05=float(np.mean(f05s)) if f05s else 0.0,
        per_query_precision=tuple(precisions),
        per_query_recall=tuple(recalls),
        per_query_f1=tuple(f1s),
    )


def evaluate_search_method(
    method_name: str,
    searcher: SimilarityIndex,
    queries: Sequence[Sequence[object]],
    ground_truth: Sequence[Iterable[int]],
    threshold: float,
    construction_seconds: float = 0.0,
    use_batched: bool = True,
) -> MethodEvaluation:
    """Run every query through a searcher and aggregate accuracy and timing.

    The workload goes through ``search_many`` — one engine call for the
    whole workload — unless ``use_batched`` is false, which loops
    ``search`` instead.  The two paths return identical hits, so
    accuracy numbers are unaffected — only the measured query time
    changes.
    """
    if len(queries) != len(ground_truth):
        raise ConfigurationError("queries and ground_truth must have the same length")
    start = time.perf_counter()
    if use_batched:
        all_hits = searcher.search_many(queries, threshold)
    else:
        all_hits = [searcher.search(query, threshold) for query in queries]
    elapsed = time.perf_counter() - start
    answers = [_result_ids(hits) for hits in all_hits]
    accuracy = measure_accuracy(answers, ground_truth)

    return MethodEvaluation(
        method=method_name,
        accuracy=accuracy,
        avg_query_seconds=elapsed / max(len(queries), 1),
        space_in_values=searcher.space_in_values(),
        space_fraction=searcher.space_fraction(),
        construction_seconds=construction_seconds,
    )


@dataclass(frozen=True)
class DynamicEvaluation:
    """Accuracy plus throughput of one method over one mixed stream."""

    method: str
    accuracy: AccuracyReport
    num_operations: int
    num_inserts: int
    num_deletes: int
    num_queries: int
    total_seconds: float
    avg_query_seconds: float
    avg_mutation_seconds: float
    space_in_values: float
    space_fraction: float


def evaluate_dynamic_stream(
    method_name: str,
    searcher: SimilarityIndex,
    workload,
    *,
    coalesce_writes: bool = False,
) -> DynamicEvaluation:
    """Replay a mixed insert/delete/query stream and measure everything.

    ``searcher`` must already hold ``workload.initial_records`` (build it
    on exactly those records so the stream's record ids line up with the
    searcher's sequential id assignment).  Each query is scored against
    the stream's per-instant exact ground truth; mutation and query time
    are accounted separately so insert-heavy and query-heavy mixes stay
    comparable.

    With ``coalesce_writes`` enabled, the replay rides the serving
    layer's write buffer
    (:class:`repro.serving.write_buffer.WriteCoalescer`): writes buffer
    in stream order with eagerly assigned (and validated) ids, every
    query flushes the buffer first — read-your-writes, so the
    per-instant ground truth stays exact — and runs of consecutive
    inserts reach the searcher as ``insert_many`` bulk ingests.  This is
    the same coalescing path :class:`repro.serving.SimilarityService`
    serves live traffic through; stream semantics are unchanged, only
    the measured mutation wall-clock drops.  A static searcher replays
    per operation: the searcher itself is the writer and the flush a
    no-op, in the same loop.
    """
    writer, flush = searcher, lambda: 0
    if coalesce_writes and searcher.capabilities.dynamic:
        from repro.serving.write_buffer import WriteCoalescer

        writer = WriteCoalescer(searcher)
        flush = writer.flush
    answers: list[set[int]] = []
    truths: list[frozenset[int]] = []
    num_inserts = num_deletes = 0
    mutation_seconds = query_seconds = 0.0
    for operation in workload.operations:
        if operation.op == "insert":
            start = time.perf_counter()
            assigned = writer.insert(list(operation.record))
            mutation_seconds += time.perf_counter() - start
            num_inserts += 1
            if int(assigned) != operation.record_id:
                raise ConfigurationError(
                    f"the searcher assigned id {assigned} where the stream "
                    f"expected {operation.record_id}; build it on the "
                    "workload's initial_records"
                )
        elif operation.op == "delete":
            start = time.perf_counter()
            writer.delete(operation.record_id)
            mutation_seconds += time.perf_counter() - start
            num_deletes += 1
        elif operation.op == "query":
            # Flush time is mutation time: the deferred cost of the
            # buffered writes, paid before the query sees them.
            start = time.perf_counter()
            flush()
            mutation_seconds += time.perf_counter() - start
            start = time.perf_counter()
            hits = searcher.search(list(operation.query), workload.threshold)
            query_seconds += time.perf_counter() - start
            answers.append(_result_ids(hits))
            truths.append(operation.ground_truth)
        else:
            raise ConfigurationError(f"unknown stream operation {operation.op!r}")
    start = time.perf_counter()
    flush()
    mutation_seconds += time.perf_counter() - start
    return _assemble_dynamic_evaluation(
        method_name,
        searcher,
        workload,
        answers,
        truths,
        num_inserts=num_inserts,
        num_deletes=num_deletes,
        mutation_seconds=mutation_seconds,
        query_seconds=query_seconds,
    )


def _assemble_dynamic_evaluation(
    method_name: str,
    searcher: SimilarityIndex,
    workload,
    answers: list[set[int]],
    truths: list[frozenset[int]],
    *,
    num_inserts: int,
    num_deletes: int,
    mutation_seconds: float,
    query_seconds: float,
) -> DynamicEvaluation:
    accuracy = measure_accuracy(answers, truths)
    num_queries = len(answers)
    num_mutations = num_inserts + num_deletes
    return DynamicEvaluation(
        method=method_name,
        accuracy=accuracy,
        num_operations=workload.num_operations,
        num_inserts=num_inserts,
        num_deletes=num_deletes,
        num_queries=num_queries,
        total_seconds=mutation_seconds + query_seconds,
        avg_query_seconds=query_seconds / max(num_queries, 1),
        avg_mutation_seconds=mutation_seconds / max(num_mutations, 1),
        space_in_values=searcher.space_in_values(),
        space_fraction=searcher.space_fraction(),
    )


def run_dynamic_experiment(
    workload,
    methods: dict[str, Callable[[Sequence[Sequence[object]]], SimilarityIndex]],
) -> dict[str, DynamicEvaluation]:
    """Build every method on the stream's initial records and replay it.

    ``methods`` maps a display name to a one-argument builder taking the
    initial records, mirroring :func:`run_experiment`.
    """
    evaluations: dict[str, DynamicEvaluation] = {}
    for name, builder in methods.items():
        searcher = builder(list(workload.initial_records))
        evaluations[name] = evaluate_dynamic_stream(name, searcher, workload)
    return evaluations


def run_experiment(
    records: Sequence[Sequence[object]],
    queries: Sequence[Sequence[object]],
    threshold: float,
    methods: dict[str, Callable[[], SimilarityIndex]],
) -> dict[str, MethodEvaluation]:
    """Build every method, evaluate it, and return the results keyed by name.

    ``methods`` maps a display name to a zero-argument builder so that the
    harness can time construction itself.
    """
    ground_truth = exact_result_sets(records, queries, threshold)
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
        )
    return evaluations


def time_construction(
    builder: Callable[[], SimilarityIndex],
) -> tuple[SimilarityIndex, float]:
    """Build an index and report the wall-clock construction time."""
    start = time.perf_counter()
    built = builder()
    elapsed = time.perf_counter() - start
    return built, elapsed
