"""Brute-force exact containment similarity search.

Scans every record and computes the exact containment similarity.  It is
the reference oracle: every other searcher — exact or approximate — is
measured against the result sets it produces.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.core.index import SearchResult
from repro.exact.base import ExactSearcher
from repro.exact.similarity import containment_similarity


class BruteForceSearcher(ExactSearcher):
    """Exact containment search by exhaustive scan."""

    backend_id = "brute-force"

    def __init__(self, records: Sequence[Iterable[object]]) -> None:
        self._records = [
            record if isinstance(record, frozenset) else frozenset(record)
            for record in records
        ]
        if not self._records:
            raise EmptyDatasetError("cannot search an empty dataset")
        if any(len(record) == 0 for record in self._records):
            raise ConfigurationError("records must be non-empty sets of elements")

    @property
    def num_records(self) -> int:
        """Number of records in the dataset."""
        return len(self._records)

    def record(self, record_id: int) -> frozenset:
        """The record stored under ``record_id``."""
        return self._records[record_id]

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Return every record with exact containment similarity ``>= threshold``."""
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        query_set = frozenset(query)
        if not query_set:
            raise ConfigurationError("query must contain at least one element")
        results = []
        for record_id, record in enumerate(self._records):
            similarity = containment_similarity(query_set, record)
            if similarity >= threshold:
                results.append(SearchResult(record_id=record_id, score=similarity))
        results.sort(key=lambda result: (-result.score, result.record_id))
        return results
