"""A failed write leaves the index exactly as it was before the write.

Faults are injected into the store's growth primitives: the n-th call of
``append_rows`` (one per column and derived cache an append grows) or of
``_merge_sorted_runs`` (the join-index merge) raises ``MemoryError``, for
every n that a 10-record ``insert_many`` reaches.  Afterwards the index
must report the same ``num_records`` and ``next_record_id`` and answer
``search_many`` and ``top_k_many`` exactly as a twin that never saw the
write, and the next ``insert_many`` must succeed and land where the
twin's does.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.store as store_module
from repro.api import GBKMVConfig, KMVConfig, create_index

#: The store primitives a fault is injected into.
FAULT_TARGETS = ("append_rows", "_merge_sorted_runs")

CONFIGS = {
    "gbkmv": GBKMVConfig(space_fraction=0.5, buffer_size=12),
    "kmv": KMVConfig(space_fraction=0.5),
}


def _records(seed, count):
    """Power-law records over a small universe, so rows share values."""
    rng = np.random.default_rng(seed)
    return [
        np.unique(np.floor(400 * rng.random(int(rng.integers(3, 20))) ** 2).astype(np.int64))
        for _ in range(count)
    ]


RECORDS = _records(0, 300)
BATCH = _records(1, 10)
QUERIES = [RECORDS[i] for i in (0, 7, 150, 299)] + [BATCH[0], np.arange(5, 40)]


def _prepared(backend, staged):
    """An index with warm query caches and, when ``staged``, a staged insert.

    The warm caches make an append grow the per-row caches and merge the
    join index too; a staged single insert makes the batch absorb the
    tail first, through the same growth primitives.
    """
    index = create_index(backend, RECORDS, CONFIGS[backend])
    index.search_many(QUERIES, 0.0)
    if staged:
        index.insert(_records(2, 1)[0])
    return index


def _answers(index):
    return (
        index.num_records,
        index.next_record_id,
        index.search_many(QUERIES, 0.0),
        index.search_many(QUERIES, 0.4),
        index.top_k_many(QUERIES, 7),
    )


def _counting(monkeypatch, name, fail_at=None):
    """Wrap store primitive ``name``: count its calls, raise on call ``fail_at``."""
    real = getattr(store_module, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(name)
        if len(calls) == fail_at:
            raise MemoryError(f"injected: call {fail_at} of {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(store_module, name, wrapped)
    return calls


@pytest.mark.parametrize("staged", [False, True], ids=["batch", "staged-tail"])
@pytest.mark.parametrize("backend", sorted(CONFIGS))
@pytest.mark.parametrize("target", FAULT_TARGETS)
def test_failed_insert_many_leaves_the_index_unchanged(backend, staged, target, monkeypatch):
    index = _prepared(backend, staged)
    with monkeypatch.context() as patch:
        calls = _counting(patch, target)
        index.insert_many(BATCH)
    assert calls, f"a 10-record insert_many never calls {target}"
    twin = _prepared(backend, staged)
    expected = _answers(twin)
    ids = twin.insert_many(BATCH)
    after = _answers(twin)
    for fail_at in range(1, len(calls) + 1):
        index = _prepared(backend, staged)
        with monkeypatch.context() as patch:
            _counting(patch, target, fail_at=fail_at)
            with pytest.raises(MemoryError, match="injected"):
                index.insert_many(BATCH)
        assert _answers(index) == expected, f"call {fail_at} of {target}"
        assert index.insert_many(BATCH) == ids
        assert _answers(index) == after, f"call {fail_at} of {target}"
