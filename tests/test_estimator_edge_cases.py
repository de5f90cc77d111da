"""Estimator edge cases: exact sketches, empty records, mismatched hashers.

These cases sit on the boundaries of the estimators' branch structure —
the exact short-circuits, the degenerate ``k < 2`` paths, and the
compatibility checks — and are easy to regress when the estimator layer
changes, so they get their own focused suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._errors import SketchCompatibilityError
from repro.baselines import GKMVSearchIndex
from repro.core import ColumnarSketchStore, GBKMVIndex, kmv_intersection_estimates
from repro.core.buffer import FrequentElementVocabulary
from repro.core.gbkmv import GBKMVSketch
from repro.core.gkmv import GKMVSketch
from repro.core.kmv import KMVSketch
from repro.hashing import UnitHash


class TestExactSketches:
    """Records smaller than the sketch capacity are represented exactly."""

    def test_kmv_small_record_is_exact(self, hasher):
        sketch = KMVSketch.from_record(["a", "b", "c"], k=16, hasher=hasher)
        assert sketch.is_exact
        assert sketch.distinct_value_estimate() == 3.0

    def test_kmv_exact_pair_intersection_is_exact_count(self, hasher):
        a = KMVSketch.from_record(["a", "b", "c"], k=16, hasher=hasher)
        b = KMVSketch.from_record(["b", "c", "d"], k=16, hasher=hasher)
        assert a.intersection_size_estimate(b) == 2.0
        assert a.union_size_estimate(b) == 4.0

    def test_gkmv_full_threshold_is_exact(self, hasher):
        a = GKMVSketch.from_record(["a", "b", "c"], threshold=1.0, hasher=hasher)
        b = GKMVSketch.from_record(["c", "d"], threshold=1.0, hasher=hasher)
        assert a.is_exact and b.is_exact
        assert a.intersection_size_estimate(b) == 1.0
        assert a.union_size_estimate(b) == 4.0

    def test_batched_exact_pairs_match_scalar(self, hasher):
        # At the full budget every G-KMV sketch is exact: the engine's
        # score is the exact overlap over |Q|, as the scalar estimator's.
        records = [{"a", "b"}, {"b", "c", "d"}, {"e"}]
        index = GKMVSearchIndex.build(records, space_fraction=1.0, hasher=hasher)
        query = {"b", "d", "e"}
        query_sketch = GKMVSketch.from_record(query, index.threshold, hasher)
        assert query_sketch.is_exact
        expected = [
            query_sketch.intersection_size_estimate(
                GKMVSketch.from_record(record, index.threshold, hasher)
            )
            for record in records
        ]
        assert expected == [1.0, 2.0, 1.0]
        hits = index.search_many([query], 0.0)[0]
        assert sorted(hits) == [(0, 1.0 / 3), (1, 2.0 / 3), (2, 1.0 / 3)]


class TestEmptyRecords:
    """Empty records and empty residuals must not crash the estimators."""

    def test_kmv_empty_record_sketch(self, hasher):
        sketch = KMVSketch.from_record([], k=4, hasher=hasher)
        assert sketch.size == 0
        assert sketch.is_exact
        assert sketch.distinct_value_estimate() == 0.0

    def test_gkmv_empty_record_sketch(self, hasher):
        sketch = GKMVSketch.from_record([], threshold=0.5, hasher=hasher)
        other = GKMVSketch.from_record(["a", "b"], threshold=0.5, hasher=hasher)
        assert sketch.is_exact
        assert sketch.distinct_value_estimate() == 0.0
        assert sketch.intersection_size_estimate(other) >= 0.0

    def test_gbkmv_record_fully_inside_buffer(self, hasher):
        # Every element is frequent: the residual sketch is empty but exact.
        vocabulary = FrequentElementVocabulary(["a", "b", "c"])
        sketch = GBKMVSketch.from_record(
            ["a", "b"], vocabulary=vocabulary, threshold=0.5, hasher=hasher
        )
        other = GBKMVSketch.from_record(
            ["b", "c"], vocabulary=vocabulary, threshold=0.5, hasher=hasher
        )
        assert sketch.residual.size == 0
        assert sketch.intersection_size_estimate(other) == 1.0
        assert sketch.union_size_estimate(other) == 3.0

    def test_batched_empty_query_values(self, hasher):
        # A query none of whose hashes falls below the global threshold
        # keeps no sketch value: every record scores 0, as the scalar
        # estimator says.
        records = [[f"r{row}-{column}" for column in range(12)] for row in range(20)]
        index = GKMVSearchIndex.build(records, space_fraction=0.2, hasher=hasher)
        query = [
            element
            for element in (f"fresh-{position}" for position in range(200))
            if hasher(element) > index.threshold
        ][:5]
        assert len(query) == 5
        query_sketch = GKMVSketch.from_record(query, index.threshold, hasher)
        assert query_sketch.size == 0 and not query_sketch.is_exact
        for record in records:
            record_sketch = GKMVSketch.from_record(record, index.threshold, hasher)
            assert query_sketch.intersection_size_estimate(record_sketch) == 0.0
        hits = index.search_many([query], 0.0)[0]
        assert hits == [(record_id, 0.0) for record_id in range(len(records))]

    def test_kmv_batch_empty_rows(self, hasher):
        # An empty row shares no value with any query, so it never reaches
        # the Equation-10 pair estimator and scores 0.
        store = ColumnarSketchStore(signature_bits=0)
        store.append(
            values=np.empty(0, dtype=np.float64),
            mask=0,
            residual_record_size=0,
            record_size=0,
        )
        query = KMVSketch.from_record(["x", "y"], k=4, hasher=hasher)
        values = np.asarray(query.values)
        query_idx, rows, counts = store.match_workload(values, [0, values.size])
        assert query_idx.size == rows.size == counts.size == 0
        empty = np.empty(0, dtype=np.int64)
        estimates = kmv_intersection_estimates(
            counts,
            store.values,
            empty,
            empty,
            np.empty(0, dtype=bool),
            values,
            empty,
            empty,
            np.empty(0, dtype=bool),
        )
        assert estimates.dtype == np.float64 and estimates.size == 0


class TestMismatchedHashers:
    """Sketches built under different hash functions must refuse to combine."""

    def test_kmv_mismatch(self):
        a = KMVSketch.from_record(["a", "b"], k=4, hasher=UnitHash(seed=1))
        b = KMVSketch.from_record(["a", "b"], k=4, hasher=UnitHash(seed=2))
        with pytest.raises(SketchCompatibilityError):
            a.intersection_size_estimate(b)
        with pytest.raises(SketchCompatibilityError):
            a.union_size_estimate(b)
        with pytest.raises(SketchCompatibilityError):
            a.merge(b)

    def test_gkmv_mismatched_hasher(self):
        a = GKMVSketch.from_record(["a"], threshold=0.9, hasher=UnitHash(seed=1))
        b = GKMVSketch.from_record(["a"], threshold=0.9, hasher=UnitHash(seed=2))
        with pytest.raises(SketchCompatibilityError):
            a.intersection_size_estimate(b)

    def test_gkmv_mismatched_threshold(self, hasher):
        a = GKMVSketch.from_record(["a"], threshold=0.9, hasher=hasher)
        b = GKMVSketch.from_record(["a"], threshold=0.4, hasher=hasher)
        with pytest.raises(SketchCompatibilityError):
            a.intersection_size_estimate(b)

    def test_gbkmv_mismatched_vocabulary(self, hasher):
        vocab_a = FrequentElementVocabulary(["a", "b"])
        vocab_b = FrequentElementVocabulary(["b", "a"])
        a = GBKMVSketch.from_record(["a", "x"], vocabulary=vocab_a, threshold=0.9, hasher=hasher)
        b = GBKMVSketch.from_record(["a", "x"], vocabulary=vocab_b, threshold=0.9, hasher=hasher)
        with pytest.raises(SketchCompatibilityError):
            a.intersection_size_estimate(b)

    def test_index_sketches_share_one_hasher(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=1)
        foreign = GBKMVSketch.from_record(
            tiny_records[0],
            vocabulary=index.vocabulary,
            threshold=index.threshold,
            hasher=UnitHash(seed=12345),
        )
        with pytest.raises(SketchCompatibilityError):
            foreign.intersection_size_estimate(index.sketch(0))
