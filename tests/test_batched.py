"""The baseline query engines against the scalar sketch estimators.

Each sketch family answers through one engine: plain KMV through
:meth:`KMVSearchIndex.search_many` (the fused kernels of
:class:`~repro.core.batched.KMVBatchEstimator`), G-KMV through the GB-KMV
engine of the zero-buffer :class:`GKMVSearchIndex`.  Their scores must
equal the scalar ``intersection_size_estimate`` of
:class:`~repro.core.kmv.KMVSketch` / :class:`~repro.core.gkmv.GKMVSketch`
divided by ``|Q|`` — as floating-point bit patterns — record by record,
after deletes, updates and compaction, at every threshold and row block.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro._errors import EstimationError
from repro.baselines import GKMVSearchIndex, KMVSearchIndex
from repro.core import GBKMVIndex, KMVBatchEstimator
from repro.core.gkmv import GKMVSketch
from repro.core.kmv import KMVSketch

THRESHOLDS = (0.0, 0.2, 0.5, 1.0)
ROW_BLOCK_SIZES = (1, 7, None)


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def _random_records(rng, count, max_size=40, universe=500):
    return [
        set(rng.integers(0, universe, size=rng.integers(1, max_size)).tolist())
        for _ in range(count)
    ]


def _pairs(hits):
    return [(hit.record_id, hit.score) for hit in hits]


def _oracle_search(live, query, threshold, estimate):
    """``(id, estimate / |Q|)`` of every live record reaching ``threshold``.

    ``live`` maps record ids to their current content; ``estimate`` is
    the scalar ``|Q ∩ X|`` estimator.  Decreasing score, ties by id.
    """
    size = len(query)
    floor = threshold * size * (1.0 - 1e-12)
    hits = []
    for record_id, record in live.items():
        value = estimate(query, record)
        if value >= floor:
            hits.append((record_id, value / size))
    hits.sort(key=lambda pair: (-pair[1], pair[0]))
    return hits


def _records_and_queries(rng, hasher):
    """Random records plus tiny ones whose every hash is below 0.2.

    The tiny records and the tiny query stay exact under any threshold
    above 0.2 and any ``k`` of at least 3, so exact pairs with a nonzero
    overlap occur; the large queries reach the estimator formula.
    """
    tiny = [element for element in range(1000, 2000) if hasher(element) < 0.2][:3]
    records = _random_records(rng, 60) + [{tiny[0]}, {tiny[0], tiny[1]}]
    queries = sorted(records, key=len)[-2:] + [
        records[3] | records[4] | records[5],  # a union of three records
        {min(records[5])},  # one element: k < 2 against every KMV row
        set(tiny),
        {9991, 9992},  # no record holds these
    ]
    return records, queries


def _maintain(index, live, rng, extra):
    """Deletes (enough to compact), updates and inserts, mirrored in ``live``."""
    ids = sorted(live)
    for record_id in rng.choice(ids[1:], size=len(ids) // 3, replace=False).tolist():
        index.delete(record_id)
        del live[record_id]
    for record_id, record in zip(sorted(live)[:3], extra[:3]):
        assert index.update(record_id, record) == record_id
        live[record_id] = record
    for record_id, record in zip(index.insert_many(extra[3:]), extra[3:]):
        live[record_id] = record


def _assert_engine_matches_oracle(index, live, queries, estimate):
    for threshold in THRESHOLDS:
        expected = [_oracle_search(live, query, threshold, estimate) for query in queries]
        for block in ROW_BLOCK_SIZES:
            got = index.search_many(queries, threshold, row_block_size=block)
            assert [_pairs(hits) for hits in got] == expected
        assert [_pairs(index.search(query, threshold)) for query in queries] == expected


class TestKMVEngineMatchesScalarOracle:
    """``KMVSearchIndex.search_many`` equals ``KMVSketch`` per record."""

    def test_engine_matches_oracle_after_maintenance(self, rng, hasher):
        records, queries = _records_and_queries(rng, hasher)
        index = KMVSearchIndex.build(records, space_fraction=0.3, hasher=hasher)
        k = index.k_per_record
        assert k >= 3
        branches = Counter()

        def estimate(query, record):
            query_sketch = KMVSketch.from_record(query, k=k, hasher=hasher)
            record_sketch = KMVSketch.from_record(record, k=k, hasher=hasher)
            exact = query_sketch.is_exact and record_sketch.is_exact
            try:
                value = query_sketch.intersection_size_estimate(record_sketch)
            except EstimationError:
                # The scalar API refuses k < 2; the engine reports the
                # exact count of shared sketch values.
                branches["k < 2"] += 1
                return float(np.intersect1d(query_sketch.values, record_sketch.values).size)
            branches["zero" if not value else "exact" if exact else "formula"] += 1
            return value

        live = dict(enumerate(records))
        _assert_engine_matches_oracle(index, live, queries, estimate)

        _maintain(index, live, rng, _random_records(rng, 8))
        # Deleting a third of the rows crossed the compaction ratio, so
        # rows were dropped physically.
        assert len(index._value_rows) < len(records)
        assert index.num_records == len(live)
        _assert_engine_matches_oracle(index, live, queries, estimate)
        assert min(branches[name] for name in ("k < 2", "exact", "formula")) > 0


class TestKMVBatchEstimator:
    """The fused kernels, driven directly: workload blocks of record rows."""

    K = 8

    def _build(self, hasher, records):
        rows = []
        sketches = []
        sizes = []
        for record in records:
            sketch = KMVSketch.from_record(record, k=self.K, hasher=hasher)
            rows.append(np.asarray(sketch.values))
            sizes.append(sketch.record_size)
            sketches.append(sketch)
        return KMVBatchEstimator.from_value_rows(rows, sizes, self.K), sketches

    def _block(self, estimator, query_sketches, row_lo=0, row_hi=None):
        values = [np.asarray(sketch.values) for sketch in query_sketches]
        counts = np.array([row.size for row in values], dtype=np.int64)
        matrix = np.full((len(values), max(int(counts.max()), 1)), np.inf)
        for position, row in enumerate(values):
            matrix[position, : row.size] = row
        exact = np.array([sketch.is_exact for sketch in query_sketches])
        matches = estimator.match_workload(values)
        return estimator.intersection_workload_block(
            matrix, counts, exact, matches, row_lo, row_hi
        )

    def test_intersection_matches_scalar_estimator(self, rng, hasher):
        records = _random_records(rng, 60)
        estimator, sketches = self._build(hasher, records)
        query_sketches = [
            KMVSketch.from_record(query, k=self.K, hasher=hasher)
            for query in (records[0], records[11], {777, 778, 779})
        ]
        block = self._block(estimator, query_sketches)
        for query_sketch, row in zip(query_sketches, block):
            for record_id, sketch in enumerate(sketches):
                try:
                    expected = query_sketch.intersection_size_estimate(sketch)
                except EstimationError:
                    continue  # scalar API refuses k < 2; the batch reports counts
                assert row[record_id] == expected

    def test_row_blocks_match_the_whole_block(self, rng, hasher):
        records = _random_records(rng, 25)
        estimator, _sketches = self._build(hasher, records)
        query_sketches = [
            KMVSketch.from_record(records[position], k=self.K, hasher=hasher)
            for position in (2, 9)
        ]
        whole = self._block(estimator, query_sketches)
        for record_id in range(estimator.num_records):
            one = self._block(estimator, query_sketches, record_id, record_id + 1)
            assert np.array_equal(one[:, 0], whole[:, record_id])

    def test_exact_pairs_report_exact_overlap(self, hasher):
        # Records smaller than k: sketches are exact, so the estimate is
        # the exact hash-set overlap.
        records = [{1, 2, 3}, {2, 3, 4}, {10, 11}]
        estimator, _sketches = self._build(hasher, records)
        query_sketch = KMVSketch.from_record({2, 3, 10}, k=self.K, hasher=hasher)
        assert self._block(estimator, [query_sketch]).tolist() == [[2.0, 2.0, 1.0]]


class TestGKMVBatchEstimator:
    """G-KMV scores of a whole store at once, from the zero-buffer engine.

    At threshold 0 :meth:`GKMVSearchIndex.search_many` returns every
    record, so each row of its answer is the batch of containment
    estimates of one query against the store.
    """

    def _build(self, hasher, records):
        index = GKMVSearchIndex.build(records, space_fraction=0.3, hasher=hasher)
        assert index.buffer_size == 0
        assert index.threshold < 1.0  # the estimator formula is reached
        sketches = [
            GKMVSketch.from_record(record, threshold=index.threshold, hasher=hasher)
            for record in records
        ]
        return index, sketches

    def _batch(self, index, queries):
        """One ``{record_id: score}`` dict per query, covering every record."""
        batches = [dict(_pairs(hits)) for hits in index.search_many(queries, 0.0)]
        for batch in batches:
            assert sorted(batch) == list(range(index.num_records))
        return batches

    def test_intersection_bitwise_identical_to_sketches(self, rng, hasher):
        records = _random_records(rng, 60)
        index, sketches = self._build(hasher, records)
        queries = [records[0], records[7], {9991, 9992}]
        for query, batch in zip(queries, self._batch(index, queries)):
            query_sketch = GKMVSketch.from_record(
                query, threshold=index.threshold, hasher=hasher
            )
            for record_id, sketch in enumerate(sketches):
                expected = query_sketch.intersection_size_estimate(sketch)
                assert batch[record_id] == expected / len(query)

    def test_containment_divides_by_query_size(self, rng, hasher):
        records = _random_records(rng, 20)
        index, sketches = self._build(hasher, records)
        query = records[0]
        query_sketch = GKMVSketch.from_record(
            query, threshold=index.threshold, hasher=hasher
        )
        (batch,) = self._batch(index, [query])
        for record_id, sketch in enumerate(sketches):
            containment = query_sketch.containment_estimate(sketch, len(query))
            intersection = query_sketch.intersection_size_estimate(sketch)
            assert batch[record_id] == containment
            assert containment == intersection / len(query)


class TestGKMVEngineMatchesScalarOracle:
    """The zero-buffer GB-KMV engine equals ``GKMVSketch`` per record."""

    def test_engine_matches_oracle_after_maintenance(self, rng, hasher):
        records, queries = _records_and_queries(rng, hasher)
        index = GKMVSearchIndex.build(records, space_fraction=0.3, hasher=hasher)
        assert isinstance(index, GBKMVIndex)
        assert index.buffer_size == 0
        tau = index.threshold
        assert 0.2 < tau < 1.0

        branches = Counter()

        def estimate(query, record):
            query_sketch = GKMVSketch.from_record(query, threshold=tau, hasher=hasher)
            record_sketch = GKMVSketch.from_record(record, threshold=tau, hasher=hasher)
            exact = query_sketch.is_exact and record_sketch.is_exact
            value = query_sketch.intersection_size_estimate(record_sketch)
            branches["zero" if not value else "exact" if exact else "formula"] += 1
            return value

        live = dict(enumerate(records))
        _assert_engine_matches_oracle(index, live, queries, estimate)

        _maintain(index, live, rng, _random_records(rng, 8))
        index.store.compact_tombstones()
        assert index.store.num_rows == index.num_records == len(live)
        _assert_engine_matches_oracle(index, live, queries, estimate)
        assert min(branches[name] for name in ("exact", "formula")) > 0
