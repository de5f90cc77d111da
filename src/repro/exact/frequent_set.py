"""Inverted-index exact containment search (FrequentSet-style ScanCount).

The exact baseline the paper calls *FrequentSet* (Agrawal, Arasu,
Kaushik; SIGMOD 2010) answers error-tolerant set containment lookups with
inverted lists over tokens.  The essential query-time behaviour is
ScanCount: probe the posting list of every query element, count per
record how many query elements it contains, and return records whose
count reaches ``⌈t* · |Q|⌉``.  Because every query token's posting list is
scanned, the cost grows with record frequency and query size — exactly
the behaviour Figure 19(b) contrasts with GB-KMV's size-independent
query time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.core.index import SearchResult
from repro.exact.base import ExactSearcher


class FrequentSetSearcher(ExactSearcher):
    """Exact containment search with per-element inverted lists."""

    backend_id = "frequent-set"

    def __init__(self, records: Sequence[Iterable[object]]) -> None:
        materialized = [frozenset(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot index an empty dataset")
        if any(len(record) == 0 for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")
        self._record_sizes = np.array([len(r) for r in materialized], dtype=np.int64)
        postings: dict[object, list[int]] = defaultdict(list)
        for record_id, record in enumerate(materialized):
            for element in record:
                postings[element].append(record_id)
        self._postings: dict[object, np.ndarray] = {
            element: np.asarray(ids, dtype=np.int64) for element, ids in postings.items()
        }

    @property
    def num_records(self) -> int:
        """Number of indexed records."""
        return int(self._record_sizes.size)

    @property
    def num_distinct_elements(self) -> int:
        """Number of distinct elements across the dataset."""
        return len(self._postings)

    def overlap_counts(self, query: Iterable[object]) -> np.ndarray:
        """Exact ``|Q ∩ X|`` for every record, via posting-list counting."""
        counts = np.zeros(self.num_records, dtype=np.int64)
        for element in set(query):
            postings = self._postings.get(element)
            if postings is not None:
                np.add.at(counts, postings, 1)
        return counts

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Return every record with exact containment similarity ``>= threshold``."""
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        query_set = set(query)
        if not query_set:
            raise ConfigurationError("query must contain at least one element")
        q = len(query_set) if query_size is None else int(query_size)
        counts = self.overlap_counts(query_set)
        theta = threshold * q
        hit_ids = (
            np.nonzero(counts >= theta * (1.0 - 1e-12))[0]
            if theta > 0
            else np.arange(self.num_records)
        )
        results = [
            SearchResult(record_id=int(record_id), score=float(counts[record_id] / q))
            for record_id in hit_ids
        ]
        results.sort(key=lambda result: (-result.score, result.record_id))
        return results
