"""WriteCoalescer semantics: ordering, visibility, and failure recovery.

The write buffer's contract is that buffering is *invisible* modulo
timing: replaying the buffered operations in order must leave the index
exactly where per-operation application would have, with runs of
consecutive inserts collapsed into ``insert_many`` calls.  These tests
pin the interesting interleavings — delete of a still-buffered insert,
an update enqueued while a flush is running, a failing operation in the
middle of a flush — and the eager-id single-writer validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CapabilityError, ConfigurationError, create_index
from repro.core.index import GBKMVIndex
from repro.datasets import generate_zipf_dataset
from repro.serving import WriteCoalescer


@pytest.fixture()
def records() -> list[list[int]]:
    return generate_zipf_dataset(
        num_records=40,
        universe_size=400,
        element_exponent=1.1,
        size_exponent=3.0,
        min_record_size=8,
        max_record_size=30,
        seed=17,
    )


@pytest.fixture()
def index(records) -> GBKMVIndex:
    return GBKMVIndex.build(records, space_fraction=1.0)


class RecordingSearcher(GBKMVIndex):
    """A GB-KMV index that records every write call the buffer makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[tuple] = []

    @classmethod
    def over(cls, records):
        """The ``index`` fixture's build, recording."""
        return cls.build(records, space_fraction=1.0)

    def insert_many(self, batch):
        self.calls.append(("insert_many", len(batch)))
        return super().insert_many(batch)

    def delete(self, record_id):
        self.calls.append(("delete", record_id))
        super().delete(record_id)

    def update(self, record_id, record):
        self.calls.append(("update", record_id))
        return super().update(record_id, record)


class TestOrderingAndCoalescing:
    def test_insert_assigns_final_ids_before_flush(self, index, records):
        buffer = WriteCoalescer(index)
        base = len(records)
        ids = [buffer.insert(records[i]) for i in range(3)]
        assert ids == [base, base + 1, base + 2]
        assert buffer.pending == 3
        assert index.num_records == len(records)  # nothing flushed yet
        assert buffer.flush() == 3
        assert buffer.pending == 0
        assert index.num_records == len(records) + 3

    def test_consecutive_inserts_collapse_into_one_bulk_call(self, records):
        searcher = RecordingSearcher.over(records)
        buffer = WriteCoalescer(searcher)
        for i in range(4):
            buffer.insert(records[i])
        buffer.delete(0)
        for i in range(2):
            buffer.insert(records[i])
        assert buffer.flush() == 7
        assert searcher.calls == [
            ("insert_many", 4),
            ("delete", 0),
            ("insert_many", 2),
        ]
        stats = buffer.stats()
        assert stats.inserts == 6
        assert stats.deletes == 1
        assert stats.insert_batches == 2
        assert stats.flushed_operations == 7
        assert stats.pending == 0

    def test_delete_of_buffered_insert_is_never_visible(self, index, records):
        buffer = WriteCoalescer(index)
        doomed = buffer.insert(records[0])
        kept = buffer.insert(records[1])
        buffer.delete(doomed)
        buffer.flush()
        # Threshold 0 keeps every live record, so visibility is
        # estimate-independent.
        hits = {hit.record_id for hit in index.search(records[0], 0.0)}
        assert doomed not in hits
        assert kept in hits

    def test_update_of_buffered_insert_applies_in_order(self, index, records):
        buffer = WriteCoalescer(index)
        record_id = buffer.insert(records[0])
        assert buffer.update(record_id, records[1]) == record_id
        buffer.flush()
        # The flushed record carries the updated contents: searching with
        # the replacement record scores it as a full containment.
        scores = {hit.record_id: hit.score for hit in index.search(records[1], 0.99)}
        assert scores.get(record_id) == pytest.approx(1.0)

    def test_ops_enqueued_during_flush_go_to_the_next_flush(self, records):
        class EnqueueDuringFlush(RecordingSearcher):
            def insert_many(self, batch):
                assigned = super().insert_many(batch)
                # A writer sneaking in mid-flush (e.g. the event loop
                # enqueueing while the worker lane applies): the running
                # flush must not pick this up.
                buffer.update(assigned[0], records[5])
                return assigned

        searcher = EnqueueDuringFlush.over(records)
        buffer = WriteCoalescer(searcher)
        buffer.insert(records[0])
        assert buffer.flush() == 1
        assert buffer.pending == 1  # the mid-flush update is still queued
        assert buffer.flush() == 1
        assert buffer.pending == 0
        assert searcher.calls[-1] == ("update", len(records))


class TestFailureRecovery:
    def test_failing_op_is_discarded_and_remainder_requeued(self, records):
        class FlakyDelete(RecordingSearcher):
            def delete(self, record_id):
                raise RuntimeError("shard offline")

        index = searcher = FlakyDelete.over(records)
        buffer = WriteCoalescer(searcher)
        buffer.insert(records[0])
        buffer.delete(0)
        buffer.insert(records[1])
        with pytest.raises(RuntimeError, match="shard offline"):
            buffer.flush()
        # The insert before the failure landed; the failing delete is
        # consumed (never retried); the insert after it is re-queued.
        assert index.num_records == len(records) + 1
        assert buffer.pending == 1
        assert buffer.flush() == 1
        assert index.num_records == len(records) + 2
        assert buffer.stats().flushed_operations == 2

    def test_concurrent_writer_is_detected_at_flush(self, index, records):
        buffer = WriteCoalescer(index)
        buffer.insert(records[0])
        # A second writer violates the eager id assignment; the flush's
        # id validation must catch the drift rather than mis-map ids.
        index.insert(list(records[1]))
        with pytest.raises(ConfigurationError, match="only writer"):
            buffer.flush()

    def test_unknown_ids_are_rejected_at_enqueue(self, index, records):
        buffer = WriteCoalescer(index)
        with pytest.raises(ConfigurationError, match="unknown record id"):
            buffer.delete(len(records) + 5)
        with pytest.raises(ConfigurationError, match="unknown record id"):
            buffer.update(-1, records[0])

    def test_empty_records_are_rejected_at_enqueue(self, index):
        buffer = WriteCoalescer(index)
        with pytest.raises(ConfigurationError, match="empty record"):
            buffer.insert([])
        # So is any record ingest would reject: it must not take an id.
        with pytest.raises(TypeError, match="unhashable"):
            buffer.insert([[1, 2], [3]])
        with pytest.raises(ConfigurationError, match="unsupported element type"):
            buffer.insert([1.5, 2.5])
        with pytest.raises(ConfigurationError, match="unsupported element type"):
            buffer.insert(np.array([1.5, 2.5]))
        with pytest.raises(ConfigurationError, match="unsupported element type"):
            buffer.update(0, [None, 1])
        assert buffer.pending == 0
        assert buffer.next_record_id == index.next_record_id


class TestConstruction:
    def test_static_index_is_rejected(self, records):
        static = create_index("brute-force", records)
        with pytest.raises(ConfigurationError, match="not dynamic"):
            WriteCoalescer(static)

    def test_dynamic_index_without_next_record_id_is_rejected(self, records):
        class UnknownNextId(GBKMVIndex):
            next_record_id = None  # the interface's "unknown"

        index = UnknownNextId.build(records, space_fraction=1.0)
        assert index.capabilities.dynamic
        with pytest.raises(ConfigurationError, match="next_record_id"):
            WriteCoalescer(index)

    def test_object_without_dynamic_surface_is_rejected(self):
        with pytest.raises(ConfigurationError, match="insert_many"):
            WriteCoalescer(object())

    def test_capability_error_is_a_configuration_error_peer(self, records):
        # The service raises CapabilityError for writes on static
        # backends; the buffer itself refuses to wrap them earlier.
        static = create_index("frequent-set", records)
        assert not static.capabilities.dynamic
        with pytest.raises((ConfigurationError, CapabilityError)):
            WriteCoalescer(static)
