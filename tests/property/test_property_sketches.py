"""Property-based tests (hypothesis) for the KMV / G-KMV / GB-KMV sketches.

These exercise structural invariants that must hold for *every* input:
sketch contents are always the smallest hash values, estimators respect
obvious bounds, exactness short-circuits are consistent with the true set
sizes, and compatibility rules are symmetric.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._errors import EstimationError
from repro.core import FrequentElementVocabulary, GBKMVSketch, GKMVSketch, KMVSketch
from repro.hashing import UnitHash

HASHER = UnitHash(seed=99)

records = st.sets(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=300)
ks = st.integers(min_value=1, max_value=64)
thresholds = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


class TestKMVProperties:
    @given(record=records, k=ks)
    @settings(max_examples=60, deadline=None)
    def test_sketch_holds_k_smallest_values(self, record, k):
        sketch = KMVSketch.from_record(record, k=k, hasher=HASHER)
        all_hashes = np.sort(HASHER.hash_many(sorted(record)))
        expected = all_hashes[: min(k, len(record))]
        np.testing.assert_allclose(sketch.values, expected)

    @given(record=records, k=ks)
    @settings(max_examples=60, deadline=None)
    def test_exactness_flag_matches_record_size(self, record, k):
        sketch = KMVSketch.from_record(record, k=k, hasher=HASHER)
        assert sketch.is_exact == (len(record) <= k)

    @given(left=records, right=records, k=ks)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_commutative(self, left, right, k):
        a = KMVSketch.from_record(left, k=k, hasher=HASHER)
        b = KMVSketch.from_record(right, k=k, hasher=HASHER)
        np.testing.assert_allclose(a.merge(b).values, b.merge(a).values)

    @given(left=records, right=records)
    # One value against a full sketch: k = min(1, 32) < 2, and only one
    # side is exact.
    @example(left={0}, right=set(range(1, 34)))
    @settings(max_examples=60, deadline=None)
    def test_intersection_estimate_non_negative_and_symmetric(self, left, right):
        a = KMVSketch.from_record(left, k=32, hasher=HASHER)
        b = KMVSketch.from_record(right, k=32, hasher=HASHER)
        if min(a.size, b.size) < 2 and not (a.is_exact and b.is_exact):
            # Too few shared slots to estimate: both orders refuse.
            with pytest.raises(EstimationError):
                a.intersection_size_estimate(b)
            with pytest.raises(EstimationError):
                b.intersection_size_estimate(a)
            return
        estimate = a.intersection_size_estimate(b)
        assert estimate >= 0.0
        assert estimate == b.intersection_size_estimate(a)

    @given(record=records)
    @settings(max_examples=60, deadline=None)
    def test_self_intersection_of_exact_sketch_is_cardinality(self, record):
        sketch = KMVSketch.from_record(record, k=1_000, hasher=HASHER)
        assert sketch.intersection_size_estimate(sketch) == len(record)
        assert sketch.union_size_estimate(sketch) == len(record)


class TestGKMVProperties:
    @given(record=records, threshold=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_all_values_below_threshold(self, record, threshold):
        sketch = GKMVSketch.from_record(record, threshold=threshold, hasher=HASHER)
        assert np.all(sketch.values <= threshold)

    @given(record=records, threshold=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_sketch_is_prefix_of_sorted_hashes(self, record, threshold):
        """Theorem 2's premise: the retained values are the smallest hashes."""
        sketch = GKMVSketch.from_record(record, threshold=threshold, hasher=HASHER)
        all_hashes = np.sort(HASHER.hash_many(sorted(record)))
        np.testing.assert_allclose(sketch.values, all_hashes[: sketch.size])

    @given(record=records, low=thresholds, high=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, record, low, high):
        if low > high:
            low, high = high, low
        small = GKMVSketch.from_record(record, threshold=low, hasher=HASHER)
        large = GKMVSketch.from_record(record, threshold=high, hasher=HASHER)
        assert small.size <= large.size

    @given(left=records, right=records, threshold=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_union_k_at_least_each_sketch(self, left, right, threshold):
        a = GKMVSketch.from_record(left, threshold=threshold, hasher=HASHER)
        b = GKMVSketch.from_record(right, threshold=threshold, hasher=HASHER)
        union_k = np.union1d(a.values, b.values).size
        assert union_k >= max(a.size, b.size)

    @given(left=records, right=records)
    @settings(max_examples=60, deadline=None)
    def test_full_threshold_estimates_are_exact(self, left, right):
        a = GKMVSketch.from_record(left, threshold=1.0, hasher=HASHER)
        b = GKMVSketch.from_record(right, threshold=1.0, hasher=HASHER)
        assert a.intersection_size_estimate(b) == len(left & right)
        assert a.union_size_estimate(b) == len(left | right)


class TestGBKMVProperties:
    @given(
        left=records,
        right=records,
        threshold=thresholds,
        vocab_size=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_non_negative_and_symmetric(self, left, right, threshold, vocab_size):
        vocabulary = FrequentElementVocabulary(list(range(vocab_size)))
        a = GBKMVSketch.from_record(left, vocabulary, threshold=threshold, hasher=HASHER)
        b = GBKMVSketch.from_record(right, vocabulary, threshold=threshold, hasher=HASHER)
        estimate = a.intersection_size_estimate(b)
        assert estimate >= 0.0
        assert estimate == b.intersection_size_estimate(a)

    @given(left=records, right=records, vocab_size=st.integers(min_value=0, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_buffer_part_never_overcounts(self, left, right, vocab_size):
        """The exact buffer overlap is a lower bound on the true overlap."""
        vocabulary = FrequentElementVocabulary(list(range(vocab_size)))
        a = GBKMVSketch.from_record(left, vocabulary, threshold=0.5, hasher=HASHER)
        b = GBKMVSketch.from_record(right, vocabulary, threshold=0.5, hasher=HASHER)
        assert a.buffer.intersection_count(b.buffer) <= len(left & right)

    @given(left=records, right=records, vocab_size=st.integers(min_value=0, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_full_threshold_is_exact_regardless_of_buffer(self, left, right, vocab_size):
        vocabulary = FrequentElementVocabulary(list(range(vocab_size)))
        a = GBKMVSketch.from_record(left, vocabulary, threshold=1.0, hasher=HASHER)
        b = GBKMVSketch.from_record(right, vocabulary, threshold=1.0, hasher=HASHER)
        assert a.intersection_size_estimate(b) == len(left & right)
        assert a.containment_estimate(b) == len(left & right) / len(left)

    @given(record=records, vocab_size=st.integers(min_value=0, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_record_size(self, record, vocab_size):
        vocabulary = FrequentElementVocabulary(list(range(vocab_size)))
        sketch = GBKMVSketch.from_record(record, vocabulary, threshold=0.3, hasher=HASHER)
        assert sketch.buffer.count + sketch.residual.record_size == len(record)
