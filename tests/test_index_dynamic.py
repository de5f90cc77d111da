"""Tests for dynamic insertion and threshold refitting of GBKMVIndex."""

from __future__ import annotations

import pytest

from repro._errors import ConfigurationError
from repro.core import GBKMVIndex


class TestInsert:
    def test_insert_returns_new_record_id(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        new_id = index.insert(["e1", "e2", "e3"])
        assert new_id == 4
        assert index.num_records == 5

    def test_inserted_record_is_searchable(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        index.insert(["e1", "e2", "e3", "e5", "e7", "e9"])
        hits = index.search(["e1", "e2", "e3", "e5", "e7", "e9"], threshold=0.99)
        assert 4 in {hit.record_id for hit in hits}

    def test_insert_empty_record_rejected(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.insert([])

    def test_insert_updates_space_accounting(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=0)
        before = index.space_in_values()
        index.insert(["x1", "x2", "x3"])
        assert index.space_in_values() >= before

    def test_insert_search_insert_search(self, tiny_records):
        """Regression: inserting after a search must invalidate the finalized
        query-time caches so the next search sees the new record."""
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        first_id = index.insert(["z1", "z2", "z3", "z4"])
        first_hits = {hit.record_id for hit in index.search(["z1", "z2", "z3", "z4"], 0.9)}
        assert first_id in first_hits
        # A second insert lands after the store finalized for the first search.
        second_id = index.insert(["w1", "w2", "w3", "w4"])
        second_hits = {hit.record_id for hit in index.search(["w1", "w2", "w3", "w4"], 0.9)}
        assert second_id in second_hits
        # The earlier record is still scored correctly too.
        again = {hit.record_id for hit in index.search(["z1", "z2", "z3", "z4"], 0.9)}
        assert first_id in again
        assert index.num_records == len(tiny_records) + 2

    def test_insert_after_search_visible_to_search_many(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        index.search(tiny_records[0], 0.5)
        new_id = index.insert(["y1", "y2", "y3", "y4", "y5"])
        batched = index.search_many([["y1", "y2", "y3", "y4", "y5"]], 0.9)
        assert new_id in {hit.record_id for hit in batched[0]}


class TestDelete:
    def test_deleted_record_vanishes_from_all_search_paths(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        index.delete(1)
        query = tiny_records[1]
        assert 1 not in {hit.record_id for hit in index.search(query, 0.0)}
        assert 1 not in {
            hit.record_id for hit in index.search_many([query], 0.0)[0]
        }
        assert 1 not in {hit.record_id for hit in index.top_k(query, k=10)}
        assert index.num_records == len(tiny_records) - 1

    def test_delete_unknown_or_double_raises(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.delete(99)
        index.delete(2)
        with pytest.raises(ConfigurationError):
            index.delete(2)

    def test_insert_after_delete_gets_fresh_id(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        index.delete(0)
        new_id = index.insert(["n1", "n2", "n3"])
        assert new_id == len(tiny_records)  # ids are never reused
        assert index.num_records == len(tiny_records)

    def test_surviving_scores_unchanged_by_delete(self, tiny_records, example_query):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        before = {
            hit.record_id: hit.score for hit in index.search(example_query, 0.0)
        }
        index.delete(3)
        after = {hit.record_id: hit.score for hit in index.search(example_query, 0.0)}
        del before[3]
        assert after == before

    def test_heavy_deletes_trigger_compaction_and_keep_ids(self, zipf_records):
        records = zipf_records[:80]
        index = GBKMVIndex.build(records, space_fraction=0.5, buffer_size=0)
        survivors = [record_id for record_id in range(80) if record_id % 3 == 0]
        for record_id in range(80):
            if record_id % 3 != 0:
                index.delete(record_id)
        hits = index.search(records[0], threshold=0.0)
        assert index.store.num_dead == 0  # the search compacted
        assert sorted(hit.record_id for hit in hits) == survivors
        # Scores under the surviving ids still match the per-sketch estimator.
        query_sketch = index.query_sketch(records[0])
        q = len(set(records[0]))
        by_id = {hit.record_id: hit.score for hit in hits}
        for record_id in survivors[:5]:
            expected = query_sketch.intersection_size_estimate(index.sketch(record_id)) / q
            assert by_id[record_id] == pytest.approx(expected, abs=1e-12)


class TestUpdate:
    def test_update_replaces_content_under_same_id(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=2)
        returned = index.update(2, ["u1", "u2", "u3", "u4"])
        assert returned == 2
        assert index.num_records == len(tiny_records)
        assert 2 in {hit.record_id for hit in index.search(["u1", "u2", "u3", "u4"], 0.9)}
        # The old content no longer matches under the updated id.
        old_hits = {hit.record_id: hit.score for hit in index.search(tiny_records[2], 0.0)}
        assert old_hits[2] < 1.0

    def test_update_to_empty_rejected(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.update(0, [])

    def test_update_unknown_id_rejected(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0)
        with pytest.raises(ConfigurationError):
            index.update(50, ["a", "b"])

    def test_top_k_tie_order_matches_search_after_update(self):
        """Regression: top_k must break score ties by record id (like
        search), not by physical row, which an update reorders."""
        records = [["a", "b", "c"], ["a", "b", "c"], ["x", "y", "z"]]
        index = GBKMVIndex.build(records, space_fraction=1.0, buffer_size=0)
        index.update(0, ["a", "b", "c"])  # id 0 moves to the last physical row
        top = [(hit.record_id, hit.score) for hit in index.top_k(["a", "b", "c"], 2)]
        ranked = [(hit.record_id, hit.score) for hit in index.search(["a", "b", "c"], 0.5)]
        assert top == ranked == [(0, 1.0), (1, 1.0)]


class TestMixedStreamMatchesFreshIndex:
    def test_interleaved_insert_search_equals_from_scratch(self, zipf_records):
        base = zipf_records[:120]
        extra = zipf_records[120:160]
        built = GBKMVIndex.build(base, space_fraction=0.2, buffer_size=4)
        index = GBKMVIndex.from_parameters(
            base,
            vocabulary=built.vocabulary,
            threshold=built.threshold,
            hasher=built.hasher,
            budget=built.budget,
        )
        index.store.finalize()
        for record in extra:
            index.insert(record)
            index.search(record, 0.5)  # force an incremental merge each step
        fresh = GBKMVIndex.from_parameters(
            list(base) + list(extra),
            vocabulary=built.vocabulary,
            threshold=built.threshold,
            hasher=built.hasher,
            budget=built.budget,
        )
        queries = [zipf_records[i] for i in (0, 60, 125, 155)]
        incremental_results = index.search_many(queries, 0.3)
        fresh_results = fresh.search_many(queries, 0.3)
        assert [
            [(hit.record_id, hit.score) for hit in hits]
            for hits in incremental_results
        ] == [
            [(hit.record_id, hit.score) for hit in hits] for hits in fresh_results
        ]

    def test_refit_then_insert_then_search_matches_fresh_index(self, zipf_records):
        """Satellite regression: truncate_values (via refit_threshold)
        followed by insert and search must equal a from-scratch build at
        the refitted threshold."""
        base = zipf_records[:150]
        extra = zipf_records[150:220]
        index = GBKMVIndex.build(base, space_fraction=0.1, buffer_size=0)
        for record in extra:
            index.insert(record)
        index.refit_threshold()  # truncates the stored values
        late = zipf_records[220:240]
        for record in late:
            index.insert(record)
        fresh = GBKMVIndex.from_parameters(
            list(base) + list(extra) + list(late),
            vocabulary=index.vocabulary,
            threshold=index.threshold,
            hasher=index.hasher,
            budget=index.budget,
        )
        queries = [zipf_records[i] for i in (10, 160, 225)]
        assert [
            [(hit.record_id, hit.score) for hit in hits]
            for hits in index.search_many(queries, 0.4)
        ] == [
            [(hit.record_id, hit.score) for hit in hits]
            for hits in fresh.search_many(queries, 0.4)
        ]


class TestRefitThreshold:
    def test_refit_shrinks_when_over_budget(self, zipf_records):
        base = zipf_records[:150]
        extra = zipf_records[150:300]
        index = GBKMVIndex.build(base, space_fraction=0.1, buffer_size=0)
        original_threshold = index.threshold
        for record in extra:
            index.insert(record)
        assert index.space_in_values() > index.budget  # over budget before refit
        new_threshold = index.refit_threshold()
        assert new_threshold <= original_threshold
        assert index.space_in_values() <= index.budget * 1.05

    def test_refit_is_noop_when_under_budget(self, tiny_records):
        index = GBKMVIndex.build(tiny_records, space_fraction=1.0, buffer_size=0)
        threshold = index.threshold
        assert index.refit_threshold() == threshold

    def test_search_still_correct_after_refit(self, zipf_records):
        base = zipf_records[:150]
        extra = zipf_records[150:200]
        index = GBKMVIndex.build(base, space_fraction=0.2, buffer_size=0)
        for record in extra:
            index.insert(record)
        index.refit_threshold()
        # The vectorised search must stay consistent with per-sketch estimates.
        query = zipf_records[160]
        hits = {hit.record_id: hit.score for hit in index.search(query, threshold=0.0)}
        query_sketch = index.query_sketch(query)
        q = len(set(query))
        for record_id in (0, 50, 150, 199):
            expected = query_sketch.intersection_size_estimate(index.sketch(record_id)) / q
            assert hits[record_id] == pytest.approx(expected, abs=1e-9)
