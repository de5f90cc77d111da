"""Unit tests for the frequent-element buffer (repro.core.buffer)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro._errors import ConfigurationError, SketchCompatibilityError
from repro.core import FrequentElementBuffer, FrequentElementVocabulary
from repro.core.buffer import BITS_PER_SIGNATURE_UNIT


class TestVocabulary:
    def test_from_frequencies_picks_top_r(self):
        frequencies = {"a": 10, "b": 5, "c": 20, "d": 1}
        vocabulary = FrequentElementVocabulary.from_frequencies(frequencies, size=2)
        assert vocabulary.elements == ("c", "a")
        assert vocabulary.size == 2

    def test_from_frequencies_tie_break_is_deterministic(self):
        frequencies = {"b": 5, "a": 5, "c": 5}
        first = FrequentElementVocabulary.from_frequencies(frequencies, size=2)
        second = FrequentElementVocabulary.from_frequencies(dict(reversed(list(frequencies.items()))), size=2)
        assert first.elements == second.elements

    def test_from_records_counts_distinct_presence(self):
        records = [["a", "a", "b"], ["b"], ["b", "c"]]
        vocabulary = FrequentElementVocabulary.from_records(records, size=1)
        assert vocabulary.elements == ("b",)

    def test_size_zero_gives_empty_vocabulary(self):
        vocabulary = FrequentElementVocabulary.from_frequencies(Counter(a=3), size=0)
        assert vocabulary.size == 0
        assert "a" not in vocabulary

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            FrequentElementVocabulary.from_frequencies({}, size=-1)

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            FrequentElementVocabulary(["a", "a"])

    def test_position_and_contains(self):
        vocabulary = FrequentElementVocabulary(["x", "y", "z"])
        assert vocabulary.position("y") == 1
        assert "z" in vocabulary
        assert "w" not in vocabulary
        with pytest.raises(KeyError):
            vocabulary.position("w")

    def test_iteration_and_len(self):
        vocabulary = FrequentElementVocabulary(["x", "y"])
        assert list(vocabulary) == ["x", "y"]
        assert len(vocabulary) == 2

    def test_equality_and_hash(self):
        a = FrequentElementVocabulary(["x", "y"])
        b = FrequentElementVocabulary(["x", "y"])
        c = FrequentElementVocabulary(["y", "x"])
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_buffer_cost_is_r_over_32(self):
        vocabulary = FrequentElementVocabulary(list("abcdefgh"))
        assert vocabulary.buffer_cost_in_values() == 8 / BITS_PER_SIGNATURE_UNIT


class TestBuffer:
    def test_buffer_for_sets_bits_of_present_elements(self):
        vocabulary = FrequentElementVocabulary(["a", "b", "c"])
        buffer = vocabulary.buffer_for(["a", "c", "zzz"])
        assert buffer.count == 2
        assert "a" in buffer
        assert "b" not in buffer
        assert "zzz" not in buffer
        assert sorted(buffer.elements()) == ["a", "c"]

    def test_split_record_returns_residual(self):
        vocabulary = FrequentElementVocabulary(["a", "b"])
        buffer, residual = vocabulary.split_record(["a", "x", "y", "b"])
        assert buffer.count == 2
        assert sorted(residual) == ["x", "y"]

    def test_split_record_with_empty_vocabulary(self):
        vocabulary = FrequentElementVocabulary([])
        buffer, residual = vocabulary.split_record(["a", "b"])
        assert buffer.count == 0
        assert sorted(residual) == ["a", "b"]

    def test_intersection_union_difference_counts(self):
        vocabulary = FrequentElementVocabulary(["a", "b", "c", "d"])
        left = vocabulary.buffer_for(["a", "b", "c"])
        right = vocabulary.buffer_for(["b", "c", "d"])
        assert left.intersection_count(right) == 2
        assert left.union_count(right) == 4

    def test_intersection_with_itself_is_count(self):
        vocabulary = FrequentElementVocabulary(["a", "b", "c"])
        buffer = vocabulary.buffer_for(["a", "b"])
        assert buffer.intersection_count(buffer) == 2

    def test_incompatible_vocabularies_rejected(self):
        left = FrequentElementVocabulary(["a", "b"]).buffer_for(["a"])
        right = FrequentElementVocabulary(["b", "a"]).buffer_for(["a"])
        with pytest.raises(SketchCompatibilityError):
            left.intersection_count(right)

    def test_mask_validation(self):
        vocabulary = FrequentElementVocabulary(["a", "b"])
        with pytest.raises(ConfigurationError):
            FrequentElementBuffer(vocabulary, mask=-1)
        with pytest.raises(ConfigurationError):
            FrequentElementBuffer(vocabulary, mask=0b100)  # third bit, width 2

    def test_equality(self):
        vocabulary = FrequentElementVocabulary(["a", "b"])
        assert vocabulary.buffer_for(["a"]) == vocabulary.buffer_for(["a", "zzz"])
        assert vocabulary.buffer_for(["a"]) != vocabulary.buffer_for(["b"])

    def test_len_and_repr(self):
        vocabulary = FrequentElementVocabulary(["a", "b"])
        buffer = vocabulary.buffer_for(["a", "b"])
        assert len(buffer) == 2
        assert "FrequentElementBuffer" in repr(buffer)
