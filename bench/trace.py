"""Layer-boundary tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps the entry points the program calls into — module
attributes of ``repro.core.index`` plus methods of the store, the hasher,
the index, the sharded backend and the write buffer (:data:`TARGETS`) —
for the length of one traced round, and restores the originals after.
An entry point that no longer exists is skipped and listed, so deleting
code never requires a benchmark edit.

Each wrapped call becomes a :class:`Span`.  Its parent is the span open
on the same thread; a span that starts a thread's stack (a shard call on
an executor thread, an engine call on the serving lane) is attached to
the innermost span of another thread whose interval contains it.  A
span's self time is its duration minus the part of that interval its
children cover, so parallel children are not subtracted twice.

Spans stay in memory; :meth:`Tracer.dump` writes them out once the run
is over.  :func:`layer_metrics` turns the spans of the traced rounds into
the per-layer metrics named in ``BENCHMARK.json``: each is computed per
round and reported as the median over traced rounds, except the
latency percentiles, which pool every traced round.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

ROUND = "bench.round"
OPEN_MMAP = "api.open_index_mmap"


def _size(result) -> int:
    return int(result.size)


def _first_size(result) -> int:
    return int(result[0].size)


def _length(result) -> int:
    return len(result)


def _hit_count(result) -> int:
    return sum(len(hits) for hits in result)


@dataclass(frozen=True)
class Target:
    """One entry point: ``attr`` (``"func"`` or ``"Class.method"``) of ``module``.

    ``count`` maps the call's return value to the work it did (rows
    scored, pairs estimated, hits returned), recorded on the span.
    """

    module: str
    attr: str
    name: str
    count: Callable[[object], int] | None = None


TARGETS: tuple[Target, ...] = (
    # Functions core.index calls through its own module namespace.
    Target("repro.core.index", "flatten_records", "core.bulk.flatten_records"),
    Target("repro.core.index", "choose_buffer_size", "core.cost_model.choose_buffer_size"),
    Target(
        "repro.core.index",
        "residual_threshold_from_hashes",
        "core.cost_model.residual_threshold_from_hashes",
    ),
    Target("repro.core.index", "select_vocabulary", "core.bulk.select_vocabulary"),
    Target("repro.core.index", "bulk_sketch", "core.bulk.bulk_sketch"),
    Target(
        "repro.core.index",
        "residual_intersection_estimates",
        "core.batched.residual_intersection_estimates",
        _size,
    ),
    Target("repro.core.index", "_assemble_workload_results", "core.index.assemble_results"),
    # The index itself.
    Target("repro.core.index", "GBKMVIndex.build", "core.index.build"),
    Target("repro.core.index", "GBKMVIndex.save", "core.index.save"),
    Target("repro.core.index", "GBKMVIndex.search", "core.index.search", _length),
    Target("repro.core.index", "GBKMVIndex.search_many", "core.index.search_many", _hit_count),
    Target("repro.core.index", "GBKMVIndex.top_k", "core.index.top_k"),
    Target("repro.core.index", "GBKMVIndex.top_k_many", "core.index.top_k_many"),
    Target("repro.core.index", "GBKMVIndex.insert_many", "core.index.insert_many", _length),
    # Store kernels.
    Target("repro.core.store", "ColumnarSketchStore.append_bulk", "core.store.append_bulk"),
    Target("repro.core.store", "ColumnarSketchStore.match_workload", "core.store.match_workload"),
    Target(
        "repro.core.store",
        "ColumnarSketchStore.match_counts_block",
        "core.store.match_counts_block",
        _first_size,
    ),
    Target(
        "repro.core.store",
        "ColumnarSketchStore.signature_overlap_block",
        "core.store.signature_overlap_block",
        _size,
    ),
    Target(
        "repro.core.store",
        "ColumnarSketchStore.intersection_counts_join",
        "core.store.intersection_counts_join",
    ),
    Target(
        "repro.core.store", "ColumnarSketchStore.signature_overlap", "core.store.signature_overlap"
    ),
    Target(
        "repro.core.store",
        "ColumnarSketchStore.compact_tombstones",
        "core.store.compact_tombstones",
    ),
    # Hashing.
    Target("repro.hashing.hash_functions", "UnitHash.hash_many", "hashing.hash_many"),
    Target(
        "repro.hashing.hash_functions", "UnitHash.hash_fingerprints", "hashing.hash_fingerprints"
    ),
    # Sharded fan-out.
    Target("repro.sharding.backend", "ShardedIndex.search", "sharding.search"),
    Target("repro.sharding.backend", "ShardedIndex.search_many", "sharding.search_many"),
    Target("repro.sharding.backend", "ShardedIndex.top_k", "sharding.top_k"),
    Target("repro.sharding.backend", "ShardedIndex.top_k_many", "sharding.top_k_many"),
    Target("repro.sharding.backend", "ShardedIndex.insert_many", "sharding.insert_many", _length),
    Target("repro.sharding.backend", "ShardedIndex.delete", "sharding.delete"),
    # Serving write buffer.
    Target("repro.serving.write_buffer", "WriteCoalescer.flush", "serving.flush", int),
)

#: Index operations a span's metrics are grouped under (``op`` prefix).
QUERY_OPS = {
    "core.index.search_many": "search_many",
    "core.index.top_k_many": "top_k_many",
    "core.index.search": "search",
    "core.index.top_k": "top_k",
}
FANOUTS = frozenset(
    {
        "sharding.search",
        "sharding.search_many",
        "sharding.top_k",
        "sharding.top_k_many",
        "sharding.insert_many",
    }
)
ENGINE_QUERY_CALLS = frozenset(
    {
        "sharding.search_many",
        "sharding.top_k_many",
        "core.index.search_many",
        "core.index.top_k_many",
    }
)
#: BuildProfile stage -> the span that times the same call.  The profile's
#: ``cost_model`` stage is left out: it also times converting the frequency
#: column before ``choose_buffer_size``, which no entry point wraps (5-6 ms
#: of about 50 ms at 1M records, more than the tolerance on a slow host).
PROFILE_STAGES = {
    "flatten": "core.bulk.flatten_records",
    "vocabulary": "core.bulk.select_vocabulary",
    "sketch": "core.bulk.bulk_sketch",
    "append": "core.store.append_bulk",
}


class Span(NamedTuple):
    # A tuple, because recording one is on the traced program's hot path.
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers for traced rounds and keeps every span in memory."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self._targets = tuple(targets)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object, bool]] = []
        self.spans: list[Span] = []
        self.thread_names: dict[int, str] = {}
        #: ``"module:attr"`` of every target that could not be resolved.
        self.skipped: list[str] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self.thread_names[threading.get_ident()] = threading.current_thread().name
            return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, threading.get_ident(), start, end, parent))

    def _wrap(self, fn, name: str, count):
        local, ids, clock, ident = self._local, self._ids, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # Counted after the clock stopped, so counting is not charged.
                work = None if count is None or result is None else count(result)
                self.spans.append(Span(span_id, name, ident(), start, end, parent, work))

        return traced

    # ------------------------------------------------------------ patching
    def _resolve(self, target: Target):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return None
        return owner, attr, raw

    def install(self) -> None:
        """Wrap every resolvable target (idempotent)."""
        if self._patched:
            return
        for target in self._targets:
            resolved = self._resolve(target)
            if resolved is None:
                label = f"{target.module}:{target.attr}"
                if label not in self.skipped:
                    self.skipped.append(label)
                continue
            owner, attr, raw = resolved
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target.name, target.count))
            elif callable(raw):
                wrapped = self._wrap(raw, target.name, target.count)
            else:
                continue
            self._patched.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._patched:
            owner, attr, raw, own = self._patched.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def traced_round(self, traced: bool = True):
        """One timed round; wrappers are installed only when ``traced``."""
        if not traced:
            yield
            return
        self.install()
        try:
            with self.span(ROUND):
                yield
        finally:
            self.uninstall()

    def dump(self, path: Path, **extra) -> None:
        """Write every span (and ``extra`` fields) as JSON."""
        origin = min((span.start for span in self.spans), default=0.0)
        payload = {
            **extra,
            "skipped": self.skipped,
            "columns": ["id", "name", "thread", "start_s", "end_s", "parent", "count"],
            "spans": [
                [
                    s.id,
                    s.name,
                    self.thread_names.get(s.thread, str(s.thread)),
                    round(s.start - origin, 7),
                    round(s.end - origin, 7),
                    s.parent,
                    s.count,
                ]
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def traced_round(self, traced: bool = True):
        return nullcontext()


# ------------------------------------------------------------------ analysis
def resolve_parents(spans: Iterable[Span]) -> dict[int, int | None]:
    """Parent of every span, attaching thread roots across threads.

    A span with no parent on its own thread is given the innermost span
    (shortest duration) of another thread whose interval contains it.
    Spans of one thread nest by construction, so the candidates on a
    thread are the ancestors of the last span there that started no
    later than the root did.  A thread whose candidates descend from a
    root of the same name is skipped: that is a sibling call of the same
    fan-out running concurrently, not its caller.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    per_thread: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        per_thread[s.thread].append(s)
    starts: dict[int, list[float]] = {}
    for thread, members in per_thread.items():
        members.sort(key=lambda s: (s.start, -s.end))
        starts[thread] = [s.start for s in members]

    def outer(s: Span) -> tuple[float, int]:
        # Strict order for identical intervals, so attachment has no cycles.
        return (s.duration, -s.id)

    parents = {s.id: s.parent for s in spans}
    for root in spans:
        if root.parent is not None:
            continue
        best: Span | None = None
        for thread, members in per_thread.items():
            if thread == root.thread:
                continue
            position = bisect.bisect_right(starts[thread], root.start) - 1
            if position < 0:
                continue
            chain = [members[position]]  # innermost first, up to the thread root
            while chain[-1].parent is not None:
                chain.append(by_id[chain[-1].parent])
            if chain[-1].name == root.name:
                continue
            for candidate in chain:
                if candidate.end >= root.end:
                    if outer(candidate) > outer(root) and (
                        best is None or outer(candidate) < outer(best)
                    ):
                        best = candidate
                    break
        if best is not None:
            parents[root.id] = best.id
    return parents


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Tree:
    """Spans with resolved parents, children, self times and op groups."""

    spans: dict[int, Span]
    parents: dict[int, int | None]
    children: dict[int, list[int]] = field(default_factory=lambda: defaultdict(list))
    self_time: dict[int, float] = field(default_factory=dict)
    op: dict[int, str] = field(default_factory=dict)
    root: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, spans: Iterable[Span]) -> "Tree":
        spans = list(spans)
        tree = cls({s.id: s for s in spans}, resolve_parents(spans))
        for span_id, parent in tree.parents.items():
            if parent is not None:
                tree.children[parent].append(span_id)
        for s in spans:
            kids = [tree.spans[c] for c in tree.children.get(s.id, ())]
            tree.self_time[s.id] = s.duration - covered_length(
                ((k.start, k.end) for k in kids), s.start, s.end
            )
        for s in sorted(spans, key=lambda s: s.start):
            tree._label(s.id)
        return tree

    def _label(self, span_id: int) -> None:
        # Walk up to the first labelled ancestor, then label the path down.
        path = []
        current = span_id
        while current is not None and current not in self.op:
            path.append(current)
            current = self.parents.get(current)
        op = self.op.get(current, "") if current is not None else ""
        root = self.root.get(current) if current is not None else None
        for node in reversed(path):
            name = self.spans[node].name
            op = QUERY_OPS.get(name, op)
            root = node if root is None else root
            self.op[node], self.root[node] = op, root

    def rounds(self) -> list[Span]:
        return sorted(
            (s for s in self.spans.values() if s.name == ROUND and self.parents[s.id] is None),
            key=lambda s: s.start,
        )

    def members(self, round_span: Span) -> list[Span]:
        return [
            s
            for s in self.spans.values()
            if self.root[s.id] == round_span.id and s is not round_span
        ]


# Per-round self time of one span name within one op group.
SELF_TIME_METRICS: dict[str, tuple[str, str]] = {
    "core.bulk.flatten_records_s": ("", "core.bulk.flatten_records"),
    "core.cost_model.choose_buffer_size_s": ("", "core.cost_model.choose_buffer_size"),
    "core.cost_model.residual_threshold_from_hashes_s": (
        "",
        "core.cost_model.residual_threshold_from_hashes",
    ),
    "core.bulk.select_vocabulary_s": ("", "core.bulk.select_vocabulary"),
    "hashing.hash_fingerprints_s": ("", "hashing.hash_fingerprints"),
    "core.bulk.bulk_sketch_s": ("", "core.bulk.bulk_sketch"),
    "core.store.append_bulk_s": ("", "core.store.append_bulk"),
    "core.index.build_self_s": ("", "core.index.build"),
    "core.index.save_s": ("", "core.index.save"),
    "search_many.core.index.search_many_self_s": ("search_many", "core.index.search_many"),
    "search_many.core.index.assemble_results_s": ("search_many", "core.index.assemble_results"),
    "top_k_many.core.index.top_k_many_self_s": ("top_k_many", "core.index.top_k_many"),
    "search.core.index.search_self_s": ("search", "core.index.search"),
    "search.core.store.intersection_counts_join_s": (
        "search",
        "core.store.intersection_counts_join",
    ),
    "search.core.store.signature_overlap_s": ("search", "core.store.signature_overlap"),
}
for _op in ("search_many", "top_k_many"):
    for _name in (
        "hashing.hash_many",
        "hashing.hash_fingerprints",
        "core.store.match_workload",
        "core.store.match_counts_block",
        "core.store.signature_overlap_block",
        "core.batched.residual_intersection_estimates",
    ):
        SELF_TIME_METRICS[f"{_op}.{_name}_s"] = (_op, _name)


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q)) if len(seconds) else 0.0


def _mean_ms(seconds: Sequence[float]) -> float:
    return float(np.mean(seconds) * 1e3) if len(seconds) else 0.0


def _round_metrics(tree: Tree, round_span: Span, requests: dict | None) -> tuple[dict, dict]:
    """Per-round metrics, plus the raw samples the pooled metrics need."""
    members = tree.members(round_span)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    calls_by_name: Counter = Counter()
    for s in members:
        key = (tree.op[s.id], s.name)
        self_s[key] += tree.self_time[s.id]
        calls[key] += 1
        counts[key] += s.count or 0
        calls_by_name[s.name] += 1

    values = {metric: self_s[key] for metric, key in SELF_TIME_METRICS.items()}
    overlap = ("search_many", "core.store.signature_overlap_block")
    estimates = ("search_many", "core.batched.residual_intersection_estimates")
    values["core.index.num_blocks"] = _ratio(
        calls[overlap], calls[("search_many", "core.index.search_many")]
    )
    values["core.index.estimator_pair_fraction"] = _ratio(counts[estimates], counts[overlap])
    values["core.index.hits_per_estimator_pair"] = _ratio(
        counts[("search_many", "core.index.search_many")], counts[estimates]
    )
    values["core.index.insert_many_s"] = sum(
        s.duration for s in members if s.name == "core.index.insert_many"
    )
    values["core.store.compact_tombstones_calls"] = calls_by_name["core.store.compact_tombstones"]

    # Fan-out: self time is what the outer call adds beyond its shard calls.
    fanout_self, straggler, busy, capacity = [], [], 0.0, 0.0
    for s in members:
        if s.name not in FANOUTS:
            continue
        fanout_self.append(tree.self_time[s.id])
        shard_calls = [tree.spans[c].duration for c in tree.children.get(s.id, ())]
        if len(shard_calls) >= 2:
            straggler.append(max(shard_calls) / (sum(shard_calls) / len(shard_calls)))
        busy += sum(shard_calls)
        capacity += s.duration * len(shard_calls)
    values["sharding.fanout_self_ms_mean"] = _mean_ms(fanout_self)
    values["sharding.straggler_ratio"] = float(np.mean(straggler)) if straggler else 0.0
    values["sharding.shard_busy_fraction"] = _ratio(busy, capacity)

    pooled = {"engine_calls": [], "flushes": [], "reads": [], "writes": []}
    if requests is not None:
        # The serving lane's calls are the round's children on other threads.
        lane = [
            tree.spans[c]
            for c in tree.children.get(round_span.id, ())
            if tree.spans[c].thread != round_span.thread
        ]
        engine = [s.duration for s in lane if s.name in ENGINE_QUERY_CALLS]
        flushes = [s.duration for s in members if s.name == "serving.flush"]
        values["serving.requests_per_engine_call"] = _ratio(len(requests["reads"]), len(engine))
        values["serving.engine_busy_fraction"] = _ratio(
            covered_length(((s.start, s.end) for s in lane), round_span.start, round_span.end),
            round_span.duration,
        )
        values["serving.flush_calls"] = len(flushes)
        values["serving.inserts_per_flush"] = _ratio(requests["inserts"], len(flushes))
        pooled = {
            "engine_calls": engine,
            "flushes": flushes,
            "reads": requests["reads"],
            "writes": requests["writes"],
        }
    return values, pooled


def layer_metrics(
    tracer: Tracer, requests: Sequence[dict] | None = None
) -> dict[str, float]:
    """Every per-layer metric from the traced rounds (0.0 where a layer was idle).

    ``requests`` carries, per traced round and in round order, what the
    serving clients saw: ``reads`` and ``writes`` latency lists in
    seconds and the ``inserts`` count.  Without it the serving metrics
    are 0.0.
    """
    tree = Tree.build(tracer.spans)
    per_round, pooled = [], defaultdict(list)
    for position, round_span in enumerate(tree.rounds()):
        round_requests = requests[position] if requests is not None else None
        values, samples = _round_metrics(tree, round_span, round_requests)
        per_round.append(values)
        for key, sample in samples.items():
            pooled[key].extend(sample)
    metrics = {
        name: statistics.median(r[name] for r in per_round) if per_round else 0.0
        for name in (per_round[0] if per_round else {})
    }
    opens = [s.duration for s in tree.spans.values() if s.name == OPEN_MMAP]
    metrics["api.open_index_mmap_s"] = statistics.median(opens) if opens else 0.0
    metrics.setdefault("serving.requests_per_engine_call", 0.0)
    metrics.setdefault("serving.engine_busy_fraction", 0.0)
    metrics.setdefault("serving.flush_calls", 0.0)
    metrics.setdefault("serving.inserts_per_flush", 0.0)
    metrics["serving.engine_call_p50_ms"] = _percentile_ms(pooled["engine_calls"], 50)
    metrics["serving.engine_call_p99_ms"] = _percentile_ms(pooled["engine_calls"], 99)
    metrics["serving.wait_ms_mean"] = (
        _mean_ms(pooled["reads"]) - _mean_ms(pooled["engine_calls"]) if pooled["reads"] else 0.0
    )
    metrics["serving.flush_p99_ms"] = _percentile_ms(pooled["flushes"], 99)
    metrics["serving.write_ack_p99_ms"] = _percentile_ms(pooled["writes"], 99)
    return metrics


def round_stage_checks(
    tracer: Tracer, profiles: Sequence[dict[str, float]], walls: Sequence[float]
) -> list[str]:
    """Problems with the traced build rounds (empty when consistent).

    Per traced round: each ``BuildProfile`` stage of
    :data:`PROFILE_STAGES` must agree with the span timing the same call
    within 10% or 5 ms, and the self times of every span in the round
    must sum to within 5% of the round's measured build+save wall time
    ``walls[i]``.
    """
    tree = Tree.build(tracer.spans)
    rounds = tree.rounds()
    if not len(rounds) == len(profiles) == len(walls):
        return [f"{len(rounds)} traced rounds but {len(profiles)} build profiles"]
    problems = []
    for position, round_span in enumerate(rounds):
        members = tree.members(round_span)
        inclusive: Counter = Counter()
        for s in members:
            inclusive[s.name] += s.duration
        for stage, seconds in profiles[position].items():
            name = PROFILE_STAGES.get(stage)
            if name is None:
                continue
            if abs(inclusive[name] - seconds) > max(0.10 * seconds, 5e-3):
                problems.append(
                    f"round {position}: profile stage {stage}={seconds:.4f}s but "
                    f"span {name}={inclusive[name]:.4f}s"
                )
        total_self = sum(tree.self_time[s.id] for s in members)
        if abs(total_self - walls[position]) > 0.05 * walls[position]:
            problems.append(
                f"round {position}: span self times sum to {total_self:.4f}s, "
                f"build+save took {walls[position]:.4f}s"
            )
    return problems
