"""PPjoin*-style exact containment search with prefix filtering.

PPjoin* (Xiao et al., TODS 2011) is an exact set similarity join built on
the prefix-filter principle: order all tokens by a global canonical order
(least frequent first) and observe that two sets with overlap at least
``θ`` must share a token within each other's ``(size − θ + 1)``-prefix.

Adapted to containment *search* with threshold ``t*`` on the query, the
required overlap is ``θ = ⌈t* · |Q|⌉`` and depends only on the query, so
candidate generation probes the inverted index with the ``|Q| − θ + 1``
least-frequent query tokens only (instead of all of them, as the
ScanCount / FrequentSet searcher does).  Each candidate is then verified
by an exact overlap count with early termination — the positional /
suffix filtering spirit of PPjoin*.

This gives the exact comparison point used in Figure 19(b).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Sequence

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.core.index import SearchResult
from repro.exact.base import ExactSearcher


class PPJoinSearcher(ExactSearcher):
    """Exact containment search with prefix-filter candidate generation."""

    backend_id = "ppjoin"

    def __init__(self, records: Sequence[Iterable[object]]) -> None:
        materialized = [frozenset(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot index an empty dataset")
        if any(len(record) == 0 for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")
        frequencies: Counter = Counter()
        for record in materialized:
            frequencies.update(record)
        # Global canonical order: least frequent first, ties broken by repr
        # so the order is deterministic.
        self._token_rank: dict[object, int] = {
            token: rank
            for rank, (token, _count) in enumerate(
                sorted(frequencies.items(), key=lambda item: (item[1], repr(item[0])))
            )
        }
        # Records stored as token-rank lists sorted by the canonical order;
        # membership sets kept alongside for fast verification.
        self._records: list[frozenset] = materialized
        self._sorted_tokens: list[list[int]] = [
            sorted(self._token_rank[token] for token in record) for record in materialized
        ]
        postings: dict[int, list[int]] = defaultdict(list)
        for record_id, ranks in enumerate(self._sorted_tokens):
            for rank in ranks:
                postings[rank].append(record_id)
        self._postings = dict(postings)

    @property
    def num_records(self) -> int:
        """Number of indexed records."""
        return len(self._records)

    def _query_prefix(self, query_ranks: list[int], required_overlap: int) -> list[int]:
        """The ``|Q| − θ + 1`` least-frequent query tokens (prefix filter)."""
        prefix_length = max(len(query_ranks) - required_overlap + 1, 1)
        return query_ranks[:prefix_length]

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

        # Tokens never seen in the dataset cannot contribute to any overlap,
        # but they still count towards |Q| in the similarity denominator.
        known = [token for token in query_set if token in self._token_rank]
        query_ranks = sorted(self._token_rank[token] for token in known)

        # ceil(t* · q) with a guard against float noise (0.3 · 10 = 3.0000…4).
        required_overlap = (
            max(int(-(-(threshold * q * (1.0 - 1e-12)) // 1)), 1) if threshold > 0 else 0
        )
        if required_overlap > len(known):
            return []  # even a full match of known tokens cannot reach θ

        if required_overlap == 0:
            candidate_ids = set(range(self.num_records))
        else:
            prefix = self._query_prefix(query_ranks, required_overlap)
            candidate_ids = set()
            for rank in prefix:
                postings = self._postings.get(rank)
                if postings:
                    candidate_ids.update(postings)

        query_rank_set = set(query_ranks)
        results: list[SearchResult] = []
        for record_id in candidate_ids:
            overlap = self._verified_overlap(
                record_id, query_rank_set, required_overlap
            )
            if overlap is None:
                continue
            score = overlap / q
            if score >= threshold:
                results.append(SearchResult(record_id=record_id, score=score))
        results.sort(key=lambda result: (-result.score, result.record_id))
        return results

    def _verified_overlap(
        self, record_id: int, query_rank_set: set[int], required_overlap: int
    ) -> int | None:
        """Exact overlap with early termination (suffix-filter spirit).

        Returns ``None`` as soon as the remaining tokens cannot reach the
        required overlap, avoiding full verification of hopeless candidates.
        """
        ranks = self._sorted_tokens[record_id]
        overlap = 0
        remaining = len(ranks)
        for rank in ranks:
            if overlap + remaining < required_overlap:
                return None
            if rank in query_rank_set:
                overlap += 1
            remaining -= 1
        if overlap < required_overlap:
            return None
        return overlap
