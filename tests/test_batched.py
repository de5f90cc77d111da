"""The baseline sketch families on the shared engine, against the scalar estimators.

Every sketch family answers through one engine
(:meth:`~repro.core.index.SketchStoreIndex.search_many` and
:meth:`~repro.core.index.SketchStoreIndex.top_k_many`): plain KMV scores
its value-sharing pairs with Equation 10
(:func:`~repro.core.batched.kmv_intersection_estimates`), G-KMV — the
zero-buffer :class:`GKMVSearchIndex` — with Equation 25.  Their scores
must equal the scalar ``intersection_size_estimate`` of
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
from repro.core import ColumnarSketchStore, GBKMVIndex, batched, kmv_intersection_estimates
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
    # Top-k is the threshold-0 ranking truncated at k: decreasing score,
    # ties (zero scores included) by increasing id.
    ranking = [_oracle_search(live, query, 0.0, estimate) for query in queries]
    for k in (1, 5, len(live)):
        expected = [hits[:k] for hits in ranking]
        for block in ROW_BLOCK_SIZES:
            got = index.top_k_many(queries, k, row_block_size=block)
            assert [_pairs(hits) for hits in got] == expected
        assert [_pairs(index.top_k(query, k)) for query in queries] == expected


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
        assert index.num_records == len(live)
        _assert_engine_matches_oracle(index, live, queries, estimate)
        # Deleting a third of the rows crossed the compaction ratio, so the
        # first search after the maintenance dropped the dead rows physically.
        assert index.store.num_rows == len(live) < len(records)
        assert min(branches[name] for name in ("k < 2", "exact", "formula")) > 0


class TestKMVBatchEstimator:
    """Equation 10 over a workload's value-sharing pairs, driven directly.

    Record rows come from scalar :class:`KMVSketch` objects, stored as the
    KMV baseline stores them (zero-width signatures, ``|X|`` as both
    record sizes); the store's join match yields the pairs.
    """

    K = 8

    def _build(self, hasher, records):
        store = ColumnarSketchStore(signature_bits=0)
        sketches = []
        for record in records:
            sketch = KMVSketch.from_record(record, k=self.K, hasher=hasher)
            store.append(
                values=np.asarray(sketch.values),
                mask=0,
                residual_record_size=sketch.record_size,
                record_size=sketch.record_size,
            )
            sketches.append(sketch)
        return store, sketches

    def _block(self, store, query_sketches, row_lo=0, row_hi=None):
        """``(queries, rows)`` estimates of a row range; unshared pairs are 0."""
        if row_hi is None:
            row_hi = store.num_rows
        values = [np.asarray(sketch.values) for sketch in query_sketches]
        lengths = np.array([row.size for row in values], dtype=np.int64)
        query_idx, rows, counts = store.match_workload(
            np.concatenate(values), np.concatenate([[0], np.cumsum(lengths)])
        )
        mine = (rows >= row_lo) & (rows < row_hi)
        query_idx, rows, counts = query_idx[mine], rows[mine], counts[mine]
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        exact = np.array([sketch.is_exact for sketch in query_sketches])
        offsets = store.offsets
        estimates = kmv_intersection_estimates(
            counts,
            store.values,
            offsets[rows],
            offsets[rows + 1] - offsets[rows],
            store.row_exact[rows],
            np.concatenate(values),
            starts[query_idx],
            lengths[query_idx],
            exact[query_idx],
        )
        block = np.zeros((len(values), row_hi - row_lo))
        block[query_idx, rows - row_lo] = estimates
        return block

    def test_intersection_matches_scalar_estimator(self, rng, hasher):
        records = _random_records(rng, 60)
        store, sketches = self._build(hasher, records)
        query_sketches = [
            KMVSketch.from_record(query, k=self.K, hasher=hasher)
            for query in (records[0], records[11], {777, 778, 779})
        ]
        block = self._block(store, query_sketches)
        for query_sketch, row in zip(query_sketches, block):
            for record_id, sketch in enumerate(sketches):
                try:
                    expected = query_sketch.intersection_size_estimate(sketch)
                except EstimationError:
                    continue  # scalar API refuses k < 2; the batch reports counts
                assert row[record_id] == expected

    def test_row_blocks_match_the_whole_block(self, rng, hasher, monkeypatch):
        records = _random_records(rng, 25)
        store, _sketches = self._build(hasher, records)
        query_sketches = [
            KMVSketch.from_record(records[position], k=self.K, hasher=hasher)
            for position in (2, 9)
        ]
        whole = self._block(store, query_sketches)
        assert np.count_nonzero(whole) > 2
        for record_id in range(store.num_rows):
            one = self._block(store, query_sketches, record_id, record_id + 1)
            assert np.array_equal(one[:, 0], whole[:, record_id])
        # The formula pairs are scored in chunks; one pair per chunk too.
        monkeypatch.setattr(batched, "KMV_CHUNK_CELLS", 1)
        assert np.array_equal(self._block(store, query_sketches), whole)

    def test_short_sketches_against_long_ones(self, rng, hasher, monkeypatch):
        # Short sketches (of small records or queries) meet long ones, so
        # formula pairs pad past a short sketch's end; chunks of one, two
        # or three pairs score every pair the same.
        records = [
            set(rng.integers(0, 300, size=rng.integers(2, 12)).tolist()) for _ in range(120)
        ]
        store, sketches = self._build(hasher, records)
        unions = rng.integers(0, len(records), size=(6, 3)).tolist()
        queries = [records[a] | records[b] | records[c] for a, b, c in unions] + records[:6]
        query_sketches = [KMVSketch.from_record(query, k=self.K, hasher=hasher) for query in queries]
        expected = np.zeros((len(queries), len(records)))
        short = Counter()
        for position, query_sketch in enumerate(query_sketches):
            for record_id, sketch in enumerate(sketches):
                shared = np.intersect1d(query_sketch.values, sketch.values).size
                try:
                    expected[position, record_id] = query_sketch.intersection_size_estimate(sketch)
                except EstimationError:
                    expected[position, record_id] = shared
                    continue
                if shared and not (query_sketch.is_exact and sketch.is_exact):
                    short["record"] += sketch.size < self.K
                    short["query"] += query_sketch.size < self.K
        assert short["record"] > 0 and short["query"] > 0
        for cells in (None, 1, 2 * 2 * self.K, 3 * 2 * self.K):
            if cells is not None:
                monkeypatch.setattr(batched, "KMV_CHUNK_CELLS", cells)
            assert np.array_equal(self._block(store, query_sketches), expected), cells

    def test_exact_pairs_report_exact_overlap(self, hasher):
        # Records smaller than k: sketches are exact, so the estimate is
        # the exact hash-set overlap.
        records = [{1, 2, 3}, {2, 3, 4}, {10, 11}]
        store, _sketches = self._build(hasher, records)
        query_sketch = KMVSketch.from_record({2, 3, 10}, k=self.K, hasher=hasher)
        assert self._block(store, [query_sketch]).tolist() == [[2.0, 2.0, 1.0]]


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
