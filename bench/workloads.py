"""The benchmark's workloads, their inputs and their correctness checks.

Every workload follows the same shape, driven by :class:`Run`:

1. generate its inputs from the seed (not timed; the program receives
   only the generated records and queries);
2. set up the program :data:`SETUP_REPS` times, timing each (``setup_s``
   is their median);
3. run one untimed warm-up round (build-1m's set-up already is one);
4. repeat timed rounds of fixed work for about ``seconds`` (at least
   :data:`MIN_ROUNDS`); under ``--trace`` every other round, starting
   with the first, runs with the tracer's wrappers installed;
5. check the answers it got.

Every timed operation (a set-up, a fused call, a block of single searches,
a build, a serving round) lies between two reference samples of the host's
speed, and its time is scaled to a host of nominal speed (:meth:`Run.scale`).

The end-to-end metrics are the same five for every workload; what one
"operation" is differs, as listed in ``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

from repro.api import (
    GBKMVConfig,
    ShardedConfig,
    SimilarityService,
    create_index,
    open_index,
)

from bench.stats import summarize
from bench.trace import OPEN_MMAP, NullTracer, Tracer

SPACE_FRACTION = 0.10
THRESHOLD = 0.5
TOP_K = 10
#: Queries per fused ``search_many`` call, and the prefix ``top_k_many`` gets.
BATCH_QUERIES = 256
TOP_K_QUERIES = 64
SETUP_REPS = 3
MIN_ROUNDS = 2
#: A host-speed sample younger than this is reused: the sample after one
#: operation is the sample before the next.
FRESH_SAMPLE_S = 0.05

SPARSE_RECORDS = 1_000_000
SPARSE_UNIVERSE = 2_000_000
#: Records of the small build that warms build-1m up before it is timed.
WARMUP_RECORDS = 50_000
#: Single ``search`` calls per round, on the same leading queries every
#: round: enough for a p90 (1M) or p96 (overlap) tail per round.
SINGLES_1M = 100
SINGLES_OVERLAP = 256

OVERLAP_RECORDS = 50_000
OVERLAP_UNIVERSE = 60_000
F1_QUERIES = 128
#: The lowest F1 the overlap workload accepts: well below what the index
#: reaches at a 10% budget (0.22-0.29 over seeds 1-10, returning about 3.5
#: times too many records), well above an engine that returns nothing.
#: F1 repeats exactly per seed, and ``compare.py`` flags any change in it.
F1_FLOOR = 0.1

SERVE_RECORDS = 200_000
SERVE_UNIVERSE = 400_000
SERVE_INSERT_POOL = 4_096
SERVE_SHARDS = 2
SERVE_CLIENTS = 32
SERVE_ROUND_S = 2.5
WRITE_FRACTION = 0.25
DELETE_SHARE_OF_WRITES = 0.25
TOP_K_SHARE_OF_READS = 0.25

ORACLE_QUERIES = 8
ORACLE_NON_HITS = 2_000
#: Threshold of the search that reads the engine's score of non-hits.  A
#: positive intersection estimate is at least 1/2 (Eq. 25 gives
#: K∩ (k - 1) / (k U(k)) with K∩ >= 1, k >= 2 and U(k) <= 1; buffer
#: overlaps are whole numbers), far above ``NEAR_ZERO * |Q|``, so a record
#: this search does not return has an engine score of exactly 0.
NEAR_ZERO = 1e-9
#: Queries whose answers query-1m compares between the in-memory build and
#: the mmap-opened snapshot.
MMAP_CHECK_QUERIES = 16
SKETCH_ORACLE_RECORDS = 200
#: Tolerance the engine applies to ``threshold * |Q|`` (see core.index).
HIT_TOLERANCE = 1.0 - 1e-12


#: Entry points a workload's traced rounds leave unwrapped.  serve-mixed's
#: engine calls sweep each 100k-row shard in about 25 row blocks; a span per
#: block cost about 8% of its throughput over 28 traced/untraced round
#: pairs, and none of its per-layer metrics needs them.  Without them the
#: cost was within noise (-0.3%).
UNTRACED = {
    "serve-mixed": frozenset(
        {
            "ColumnarSketchStore.signature_overlap_block",
            "ColumnarSketchStore.match_counts_block",
        }
    ),
}


# ------------------------------------------------------------------- inputs
def sparse_corpus(rng: np.random.Generator, num_records: int, universe: int) -> list:
    """Power-law records that share few values (the BENCH_sharded recipe).

    Sizes are ``min(zipf(2.2) + 4, 64)`` draws and elements
    ``floor(universe * u**2.5)``, so small ids are hot but almost every
    record is unique.
    """
    sizes = np.minimum(rng.zipf(2.2, size=num_records) + 4, 64).astype(np.int64)
    elements = np.floor(universe * rng.random(int(sizes.sum())) ** 2.5).astype(np.int64)
    return np.split(elements, np.cumsum(sizes)[:-1])


def overlap_corpus(rng: np.random.Generator, num_records: int) -> list:
    """ENRON-shaped records that share many values.

    Record sizes follow a discrete power law with exponent 3.1 on
    [70, 2000] and elements a Zipf law with exponent 1.16 over 60,000
    values, the ENRON proxy profile of ``repro.datasets.proxies``.  Each
    size is a number of draws; repeated draws within a record collapse,
    so distinct sizes come out smaller.
    """
    support = np.arange(70, 2001)
    weights = support.astype(np.float64) ** -3.1
    sizes = rng.choice(support, size=num_records, p=weights / weights.sum())
    cdf = np.cumsum(np.arange(1, OVERLAP_UNIVERSE + 1, dtype=np.float64) ** -1.16)
    draws = np.searchsorted(cdf / cdf[-1], rng.random(int(sizes.sum())), side="right")
    owners = np.repeat(np.arange(num_records), sizes)
    order = np.lexsort((draws, owners))
    draws, owners = draws[order], owners[order]
    keep = np.ones(draws.size, dtype=bool)
    keep[1:] = (draws[1:] != draws[:-1]) | (owners[1:] != owners[:-1])
    lengths = np.bincount(owners[keep], minlength=num_records)
    return np.split(draws[keep].astype(np.int64), np.cumsum(lengths)[:-1])


def sample_queries(rng: np.random.Generator, records: list, count: int) -> list:
    """Distinct records, stratified by size, used as containment queries.

    One random record from each of ``count`` equal strata of the records
    ordered by size, so every seed queries the same spread of sizes (with
    heavy-tailed sizes a plain random draw makes the work per round vary
    with the seed).  The strata are ordered by a golden-ratio sequence,
    so every prefix of the list (the top-k, oracle and F1 subsets) spans
    the sizes too.
    """
    sizes = np.fromiter((len(r) for r in records), dtype=np.int64, count=len(records))
    by_size = np.lexsort((rng.random(len(records)), sizes))
    strata = ((np.arange(count) + rng.random(count)) * (len(records) / count)).astype(np.int64)
    chosen = by_size[strata]
    spread = np.argsort(np.argsort((np.arange(count) * 0.6180339887498949) % 1.0))
    return [records[i] for i in chosen[spread]]


def exact_answers(records: list, queries: list, threshold: float) -> list[set[int]]:
    """Exact ``C(Q, X) >= threshold`` answers from a numpy inverted index.

    Independent of the program: posting lists are one value-major sort
    of every (value, record) occurrence, and each query counts its
    overlaps with one gather and one ``bincount``.
    """
    owners = np.repeat(np.arange(len(records)), [len(r) for r in records])
    values = np.concatenate(records)
    order = np.lexsort((owners, values))
    values, owners = values[order], owners[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (owners[1:] != owners[:-1])
    values, owners = values[first], owners[first]
    answers = []
    for query in queries:
        distinct = np.unique(query)
        starts = np.searchsorted(values, distinct, side="left")
        stops = np.searchsorted(values, distinct, side="right")
        lengths = stops - starts
        gather = np.arange(int(lengths.sum())) + np.repeat(
            starts - np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths
        )
        overlap = np.bincount(owners[gather], minlength=len(records))
        answers.append(
            set(np.nonzero(overlap >= threshold * distinct.size * HIT_TOLERANCE)[0].tolist())
        )
    return answers


# --------------------------------------------------------------------- runs
@dataclasses.dataclass(frozen=True)
class Round:
    """One timed round, scaled to a host of nominal speed (see
    :meth:`Run.scale`): operations/s and operation latencies (seconds).

    ``raw_throughput`` and ``latency_scale`` (scaled latency over measured
    latency) keep what was measured, so a run file shows what the scaling
    did.
    """

    traced: bool
    throughput: float
    latencies: list[float]
    raw_throughput: float
    latency_scale: float


def _round_metrics(rounds: list[tuple[float, list[float]]]) -> dict[str, float]:
    """``ops_per_s``, ``op_p50_ms``, ``op_tail_ms`` and the tail's
    ``percentile`` over rounds given as (throughput, latencies); see
    :meth:`Run.end_to_end`."""
    per_round = [summarize(latencies) for _, latencies in rounds]
    if min(s.n for s in per_round) > 1:
        p50 = statistics.median(s.median for s in per_round)
        tail = statistics.median(s.tail for s in per_round)
        percentile = min(s.tail_percentile or 100 for s in per_round)
    else:
        pooled = summarize([s.median for s in per_round])
        p50, tail, percentile = pooled.median, pooled.tail, pooled.tail_percentile or 100
    return {
        "ops_per_s": statistics.median(throughput for throughput, _ in rounds),
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail * 1e3,
        "percentile": percentile,
    }


class Run:
    """Samples, counters and check outcomes of one workload run.

    ``speed`` returns the host's speed now, from a reference sample
    (``bench.reference.Reference.speed``).
    """

    def __init__(
        self,
        seed: int,
        seconds: float,
        tracer: Tracer | None,
        scratch: Path,
        speed: Callable[[], float],
    ) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.traced = tracer is not None
        self.tracer = tracer if tracer is not None else NullTracer()
        self.scratch = scratch
        self._speed = speed
        #: The last host-speed sample and when it ended.
        self._sample = (1.0, -math.inf)
        self.speeds: list[float] = []
        self.setup_s: list[float] = []
        #: True during the untimed warm-up round, whose samples are dropped.
        self.warming = False
        self.round_samples: list[Round] = []
        self.attempted = 0
        self.failed = 0
        #: Check name -> ``None`` when it passed, else what went wrong.
        self.checks: dict[str, str | None] = {}
        self.info: dict[str, float] = {}
        #: Per traced round, what serving clients saw (see trace.layer_metrics).
        self.trace_requests: list[dict] = []
        #: Per traced build round: BuildProfile stage seconds and wall time.
        self.trace_profiles: list[dict[str, float]] = []
        self.trace_walls: list[float] = []

    def corpus_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 0])

    def query_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1])

    def speed(self) -> float:
        """The host's speed now, 1 when nominal and below 1 when slow.

        A sample younger than :data:`FRESH_SAMPLE_S` is reused.
        """
        speed, taken = self._sample
        if time.perf_counter() - taken >= FRESH_SAMPLE_S:
            speed = self._speed()
            self._sample = (speed, time.perf_counter())
            self.speeds.append(speed)
        return speed

    def scale(self, before: float) -> float:
        """The factor that scales the time since the sample ``before`` to a
        host of nominal speed: the geometric mean of that speed and the
        speed now, so the host's state on both sides of the timing counts.
        """
        return math.sqrt(before * self.speed())

    def setup(self, step: Callable[[], object]):
        """Run ``step`` :data:`SETUP_REPS` times, timing each; return its last result."""
        result = None
        for _ in range(SETUP_REPS):
            result = None  # release the previous set-up before the next one
            before = self.speed()
            start = time.perf_counter()
            result = step()
            wall = time.perf_counter() - start
            self.setup_s.append(wall * self.scale(before))
        return result

    def _round_flags(self, warm_up: bool):
        if warm_up:
            # One untimed round first: the first pass over fresh arrays and
            # mapped columns pays page faults that later rounds do not.
            self.warming = True
            yield False
            self.warming = False
        start = previous = time.perf_counter()
        for position in itertools.count():
            now = time.perf_counter()
            # Stop at the round boundary nearest to ``seconds``.
            if position >= MIN_ROUNDS and now - start + (now - previous) / 2 >= self.seconds:
                return
            previous = now
            yield self.traced and position % 2 == 0

    def rounds(self, body: Callable[[bool], None], warm_up: bool = True) -> None:
        for traced in self._round_flags(warm_up):
            with self.tracer.traced_round(traced):
                body(traced)

    async def async_rounds(self, body) -> None:
        for traced in self._round_flags(warm_up=True):
            with self.tracer.traced_round(traced):
                await body(traced)

    def add_round(
        self,
        traced: bool,
        operations: int,
        measured_s: float,
        scaled_s: float,
        latencies: list[float],
        latency_scale: float,
    ) -> None:
        """Record the round that is running: ``operations`` done in
        ``measured_s`` seconds (``scaled_s`` scaled), and scaled latencies (s)."""
        if not self.warming:
            self.round_samples.append(
                Round(
                    traced,
                    operations / scaled_s,
                    latencies,
                    operations / measured_s,
                    latency_scale,
                )
            )

    def timed(self, fn, *args) -> tuple[object, float, float]:
        """Call and time one operation between two samples of the host's speed.

        Returns its result (``None`` when it raised), its wall time in
        seconds as measured, and the factor that scales that time.
        """
        before = self.speed()
        start = time.perf_counter()
        result = self.attempt(fn, *args)
        wall = time.perf_counter() - start
        return result, wall, self.scale(before)

    def attempt(self, fn, *args):
        """Call one timed operation; a raised error counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the run continues and reports it
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, name: str, problem: str | None) -> None:
        self.checks[name] = problem

    def round_summaries(self) -> list[dict]:
        """Per round, scaled: throughput and its latency summary."""
        return [
            {
                "traced": r.traced,
                "ops_per_s": r.throughput,
                "raw_ops_per_s": r.raw_throughput,
                "latency_scale": r.latency_scale,
                **dataclasses.asdict(summarize(r.latencies)),
            }
            for r in self.round_samples
        ]

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics, from the untraced rounds only.

        Each round yields a throughput, a median latency and a tail
        latency; the run reports the median of each over its rounds, so
        a few seconds of interference slow a minority of rounds without
        moving the result.  Where rounds hold a single operation
        (build-1m) the latencies are pooled instead, and the tail is the
        slowest operation.  A tail percentile of 100 stands for a maximum.

        The same figures from the times as measured, before scaling, go
        to ``info`` as ``raw_ops_per_s``, ``raw_op_p50_ms`` and
        ``raw_op_tail_ms``.
        """
        rounds = [r for r in self.round_samples if not r.traced] or self.round_samples
        if not rounds:  # every timed operation failed; the checks say so
            names = ("setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms", "op_tail_ms")
            return dict.fromkeys(names, float("nan"))
        scaled = _round_metrics([(r.throughput, r.latencies) for r in rounds])
        raw = _round_metrics(
            [(r.raw_throughput, [x / r.latency_scale for x in r.latencies]) for r in rounds]
        )
        self.info["rounds"] = len(rounds)
        self.info["op_samples"] = sum(len(r.latencies) for r in rounds)
        self.info["op_tail_percentile"] = scaled.pop("percentile")
        self.info["host_speed"] = statistics.median(self.speeds)
        del raw["percentile"]
        self.info.update({f"raw_{name}": value for name, value in raw.items()})
        return {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **scaled,
        }

    def trace_overhead(self) -> float:
        """Throughput lost to tracing: the median over every pair of
        neighbouring rounds, one traced and one not, of untraced over
        traced, minus one.

        Pairing neighbours keeps the host's slow drifts out of the ratio,
        and scaling by host speed its faster ones; taking pairs in both
        orders cancels a drift's direction.
        """
        ratios = [
            b.throughput / a.throughput if a.traced else a.throughput / b.throughput
            for a, b in zip(self.round_samples, self.round_samples[1:])
            if a.traced != b.traced
        ]
        return statistics.median(ratios) - 1.0 if ratios else float("nan")


# ------------------------------------------------------------------- checks
def _first_problem(problems: list[str]) -> str | None:
    if not problems:
        return None
    more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
    return problems[0] + more


def check_sketches(index, records: list, rng: np.random.Generator) -> str | None:
    """Bulk-built sketches equal the paper's per-record Algorithm 1 sketches."""
    problems = []
    for record_id in rng.choice(len(records), size=SKETCH_ORACLE_RECORDS, replace=False):
        expected = index.query_sketch(records[record_id])
        got = index.sketch(int(record_id))
        if (
            expected.buffer.mask != got.buffer.mask
            or expected.record_size != got.record_size
            or expected.residual.record_size != got.residual.record_size
            or not np.array_equal(expected.residual.values, got.residual.values)
        ):
            problems.append(f"record {record_id}: bulk sketch differs from per-record sketch")
    return _first_problem(problems)


def check_oracle(index, queries: list, hits: list, tops: list, rng) -> str | None:
    """Engine scores equal the paper-literal per-record estimate, bit for bit.

    For the first :data:`ORACLE_QUERIES` queries, the paper-literal score
    is ``query_sketch(q).intersection_size_estimate(sketch(id)) / |Q|``.
    Every ``search_many`` and ``top_k_many`` hit must carry exactly that
    score, and so must :data:`ORACLE_NON_HITS` sampled non-hits, whose
    engine score is read from a ``search`` at :data:`NEAR_ZERO` (0 when it
    does not return them).  Half the non-hits of a query are near misses,
    records with a positive score below the threshold, where they exist;
    the rest are drawn from all records.
    """
    problems = []
    per_query = ORACLE_NON_HITS // ORACLE_QUERIES
    for position in range(ORACLE_QUERIES):
        query_sketch = index.query_sketch(queries[position])
        size = query_sketch.record_size

        def estimate(record_id: int) -> float:
            return query_sketch.intersection_size_estimate(index.sketch(record_id))

        hit_ids = {hit.record_id for hit in hits[position]}
        for hit in list(hits[position]) + list(tops[position]):
            literal = estimate(hit.record_id)
            if literal / size != hit.score:
                problems.append(
                    f"query {position} record {hit.record_id}: engine score {hit.score!r}, "
                    f"per-record estimate {literal / size!r}"
                )
            elif hit.record_id in hit_ids and literal < THRESHOLD * size * HIT_TOLERANCE:
                problems.append(f"query {position} record {hit.record_id}: hit below threshold")
        scored = {r.record_id: r.score for r in index.search(queries[position], NEAR_ZERO)}
        near_misses = sorted(set(scored) - hit_ids)
        sample = [int(r) for r in rng.permutation(near_misses)[: per_query // 2]]
        drawn = rng.choice(
            index.num_records, size=min(index.num_records, 4 * per_query), replace=False
        )
        taken = hit_ids | set(sample)
        sample += [int(r) for r in drawn if int(r) not in taken][: per_query - len(sample)]
        for record_id in sample:
            literal, engine = estimate(record_id) / size, scored.get(record_id, 0.0)
            if literal != engine:
                problems.append(
                    f"query {position} non-hit {record_id}: engine score {engine!r}, "
                    f"per-record estimate {literal!r}"
                )
    return _first_problem(problems)


def f1_score(answers: list, truth: list[set[int]]) -> float:
    """Micro-averaged F1 of result lists against exact answer sets."""
    returned = sum(len(hits) for hits in answers)
    relevant = sum(len(exact) for exact in truth)
    found = sum(
        len({hit.record_id for hit in hits} & exact) for hits, exact in zip(answers, truth)
    )
    if not found:
        return 0.0
    precision, recall = found / returned, found / relevant
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------- workloads
def _gbkmv_config() -> GBKMVConfig:
    return GBKMVConfig(space_fraction=SPACE_FRACTION)


def build_1m(run: Run) -> None:
    """Records to a durable directory snapshot, again and again."""
    records = sparse_corpus(run.corpus_rng(), SPARSE_RECORDS, SPARSE_UNIVERSE)
    warm_path = run.scratch / "warm-up"
    snapshot = run.scratch / "snapshot"

    def warm_up():
        create_index("gbkmv", records[:WARMUP_RECORDS], _gbkmv_config()).save(
            warm_path, layout="dir"
        )

    run.setup(warm_up)

    def build_and_save():
        index = create_index("gbkmv", records, _gbkmv_config())
        index.save(snapshot, layout="dir")
        return index

    state = {}

    def one_build(traced: bool) -> None:
        state.pop("index", None)  # free the previous build before the next
        index, wall, scale = run.timed(build_and_save)
        if index is None:
            return
        state["index"] = index
        run.add_round(traced, len(records), wall, wall * scale, [wall * scale], scale)
        if traced:
            run.trace_profiles.append(index.last_build_profile.stage_seconds())
            run.trace_walls.append(wall)

    run.rounds(one_build, warm_up=False)  # set-up already was a warm-up build
    index = state.get("index")
    if index is None:
        return
    run.check("build-sketch-oracle", check_sketches(index, records, run.query_rng()))
    queries = sample_queries(run.query_rng(), records, ORACLE_QUERIES)
    reopened = open_index(snapshot, mmap=True)
    run.check(
        "snapshot-round-trip",
        None
        if reopened.search_many(queries, THRESHOLD) == index.search_many(queries, THRESHOLD)
        else "answers from the reopened snapshot differ from the built index",
    )


def _query_rounds(run: Run, index, queries: list, singles: int) -> tuple[list, list]:
    """Fused rounds plus single searches on the leading ``singles`` queries.

    Returns the first round's answers.
    """
    top_queries = queries[:TOP_K_QUERIES]
    first: dict[str, list] = {}
    mismatches = []

    def one_round(traced: bool) -> None:
        hits, many_s, many_scale = run.timed(index.search_many, queries, THRESHOLD)
        tops, top_s, top_scale = run.timed(index.top_k_many, top_queries, TOP_K)
        first.setdefault("hits", hits)
        first.setdefault("tops", tops)
        latencies, scale = [], 1.0
        if not run.warming:
            before = run.speed()
            for position in range(singles):
                single_start = time.perf_counter()
                result = run.attempt(index.search, queries[position], THRESHOLD)
                latencies.append(time.perf_counter() - single_start)
                if hits is not None and result is not None and result != hits[position]:
                    mismatches.append(position)
            scale = run.scale(before)
        run.add_round(
            traced,
            len(queries) + len(top_queries),
            many_s + top_s,
            many_s * many_scale + top_s * top_scale,
            [x * scale for x in latencies],
            scale,
        )

    run.rounds(one_round)
    run.check(
        "single-equals-batch",
        f"search differs from search_many on queries {sorted(set(mismatches))[:5]}"
        if mismatches
        else None,
    )
    return first.get("hits"), first.get("tops")


def query_1m(run: Run) -> None:
    """Fused and single queries against a memory-mapped 1M-record snapshot."""
    records = sparse_corpus(run.corpus_rng(), SPARSE_RECORDS, SPARSE_UNIVERSE)
    queries = sample_queries(run.query_rng(), records, BATCH_QUERIES)
    built = create_index("gbkmv", records, _gbkmv_config())
    probe = queries[:MMAP_CHECK_QUERIES]
    expected = (built.search_many(probe, THRESHOLD), built.top_k_many(probe, TOP_K))
    path = run.scratch / "snapshot"

    def save_and_open():
        # The previous set-up's index is released; its mapped files may go.
        shutil.rmtree(path, ignore_errors=True)
        built.save(path, layout="dir")
        with run.tracer.span(OPEN_MMAP):
            index = open_index(path, mmap=True)
        index.search_many(queries[:1], THRESHOLD)  # builds the lazy join index
        return index

    index = run.setup(save_and_open)
    del built
    hits, tops = _query_rounds(run, index, queries, SINGLES_1M)
    if hits is None or tops is None:
        return
    run.check(
        "mmap-equals-memory",
        None
        if (hits[:MMAP_CHECK_QUERIES], tops[:MMAP_CHECK_QUERIES]) == expected
        else "answers from the mmap-opened snapshot differ from the in-memory build",
    )
    run.check("engine-oracle", check_oracle(index, queries, hits, tops, run.query_rng()))


def query_overlap(run: Run) -> None:
    """Fused and single queries where records share many values."""
    records = overlap_corpus(run.corpus_rng(), OVERLAP_RECORDS)
    queries = sample_queries(run.query_rng(), records, BATCH_QUERIES)

    def build():
        index = create_index("gbkmv", records, _gbkmv_config())
        index.search_many(queries[:1], THRESHOLD)  # builds the lazy join index
        return index

    index = run.setup(build)
    hits, tops = _query_rounds(run, index, queries, SINGLES_OVERLAP)
    if hits is None or tops is None:
        return
    f1 = f1_score(hits[:F1_QUERIES], exact_answers(records, queries[:F1_QUERIES], THRESHOLD))
    run.info["f1"] = f1
    run.check("f1-floor", None if f1 >= F1_FLOOR else f"f1 {f1:.4f} is below {F1_FLOOR}")
    run.check("engine-oracle", check_oracle(index, queries, hits, tops, run.query_rng()))


def serve_mixed(run: Run) -> None:
    """A closed loop of reads and writes through the serving front."""
    corpus = sparse_corpus(run.corpus_rng(), SERVE_RECORDS + SERVE_INSERT_POOL, SERVE_UNIVERSE)
    records, pool = corpus[:SERVE_RECORDS], corpus[SERVE_RECORDS:]
    queries = sample_queries(run.query_rng(), records, BATCH_QUERIES)
    asyncio.run(_serve(run, records, pool, queries))


async def _serve(run: Run, records: list, pool: list, queries: list) -> None:
    config = ShardedConfig(
        num_shards=SERVE_SHARDS,
        inner_backend="gbkmv",
        inner_config=_gbkmv_config(),
        max_workers=SERVE_SHARDS,
    )
    service = None
    for _ in range(SETUP_REPS):
        if service is not None:
            await service.close()
        before = run.speed()
        start = time.perf_counter()
        index = create_index("sharded", records, config)
        service = SimilarityService(index).start()
        await service.search(queries[0], THRESHOLD)
        wall = time.perf_counter() - start
        run.setup_s.append(wall * run.scale(before))
    try:
        await _serve_timed(run, service, index, pool, queries)
    finally:
        await service.close()


async def _serve_timed(run: Run, service, index, pool: list, queries: list) -> None:
    burst = queries[:SERVE_CLIENTS]
    direct = (index.search_many(burst, THRESHOLD), index.top_k_many(burst, TOP_K))
    served = (
        list(await asyncio.gather(*(service.search(q, THRESHOLD) for q in burst))),
        list(await asyncio.gather(*(service.top_k(q, TOP_K) for q in burst))),
    )
    run.check(
        "served-equals-direct",
        None if served == direct else "served answers differ from direct index calls",
    )

    initial = index.num_records
    rngs = [np.random.default_rng([run.seed, 2, c]) for c in range(SERVE_CLIENTS)]
    owned: list[list[int]] = [[] for _ in range(SERVE_CLIENTS)]
    next_insert = list(range(SERVE_CLIENTS))
    totals = {"inserts": 0, "deletes": 0}

    async def client(cid: int, deadline: float, seen: dict) -> None:
        rng = rngs[cid]
        while time.perf_counter() < deadline:
            if rng.random() < WRITE_FRACTION:
                if owned[cid] and rng.random() < DELETE_SHARE_OF_WRITES:
                    kind = "delete"
                    target = owned[cid].pop(int(rng.integers(len(owned[cid]))))
                    call = service.delete(target)
                else:
                    kind = "insert"
                    call = service.insert(pool[next_insert[cid] % len(pool)])
                    next_insert[cid] += SERVE_CLIENTS
            else:
                query = queries[int(rng.integers(len(queries)))]
                if rng.random() < TOP_K_SHARE_OF_READS:
                    kind, call = "read", service.top_k(query, TOP_K)
                else:
                    kind, call = "read", service.search(query, THRESHOLD)
            run.attempted += 1
            start = time.perf_counter()
            try:
                result = await call
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                run.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            latency = time.perf_counter() - start
            if kind == "read":
                seen["reads"].append(latency)
                continue
            seen["writes"].append(latency)
            if kind == "insert":
                owned[cid].append(result)
                seen["inserts"] += 1
            else:
                seen["deletes"] += 1

    async def one_round(traced: bool) -> None:
        seen = {"reads": [], "writes": [], "inserts": 0, "deletes": 0}
        before = run.speed()
        start = time.perf_counter()
        deadline = start + SERVE_ROUND_S
        await asyncio.gather(*(client(c, deadline, seen) for c in range(SERVE_CLIENTS)))
        await service.drain()
        wall = time.perf_counter() - start
        scale = run.scale(before)
        completed = len(seen["reads"]) + len(seen["writes"])
        reads = [r * scale for r in seen["reads"]]
        run.add_round(traced, completed, wall, wall * scale, reads, scale)
        totals["inserts"] += seen["inserts"]
        totals["deletes"] += seen["deletes"]
        if traced:
            run.trace_requests.append(seen)

    await run.async_rounds(one_round)
    expected = initial + totals["inserts"] - totals["deletes"]
    run.check(
        "live-record-count",
        None
        if index.num_records == expected
        else f"{index.num_records} live records, expected {expected}",
    )


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "build-1m": build_1m,
    "query-1m": query_1m,
    "query-overlap": query_overlap,
    "serve-mixed": serve_mixed,
}
