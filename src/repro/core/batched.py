"""Whole-workload sketch estimators: Eqs. 9–10 and 25 over many pairs at once.

The per-sketch estimator methods (:class:`~repro.core.kmv.KMVSketch`,
:class:`~repro.core.gkmv.GKMVSketch`, :class:`~repro.core.gbkmv.GBKMVSketch`)
score one ``(query, record)`` pair per call.  This module evaluates the
*same* formulas for many pairs at once, with vectorised array passes
instead of per-pair Python calls, for the two query engines:

* :func:`residual_intersection_estimates` is Equation 25 over the
  value-sharing pairs that :meth:`~repro.core.index.GBKMVIndex.search_many`
  scores (GB-KMV, and G-KMV as GB-KMV with an empty buffer);
* :class:`KMVBatchEstimator` holds the plain-KMV baseline's per-record
  values and answers Equation 10 for a whole workload: one join-index
  pass for every query (:meth:`KMVBatchEstimator.match_workload`), then
  blocks of record rows (:meth:`KMVBatchEstimator.intersection_workload_block`).

Bitwise fidelity is a hard requirement, not an aspiration: every function
reproduces the corresponding scalar estimator's branch structure (exact
short-circuits, degenerate ``k < 2`` cases) and evaluates the arithmetic
in the same order, so the batched scores are equal — as floating-point
bit patterns — to what a per-record loop over sketch objects produces.
The test suite asserts this identity.

Conventions
-----------
* Query hash values are sorted ascending and distinct.
* ``*_exact`` flags say whether a sketch retains *every* hash value of
  its record, enabling the exact short-circuit of the scalar estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.sorting import stable_argsort
from repro.core.store import match_join_index


def residual_intersection_estimates(
    common_counts: np.ndarray,
    row_sizes: np.ndarray,
    row_max: np.ndarray,
    row_exact: np.ndarray,
    query_num_values,
    query_max,
    query_exact,
) -> np.ndarray:
    """G-KMV intersection estimates (Equation 25) for many pairs at once.

    Every argument broadcasts; the GB-KMV engine passes one entry per
    (query, record) pair it scores.

    Parameters
    ----------
    common_counts:
        ``K∩ = |L_Q ∩ L_X|`` per pair (int), from the store's join match.
    row_sizes, row_max, row_exact:
        The records' stored-value counts, largest stored values, and
        exactness flags (the store's derived columns).
    query_num_values, query_max, query_exact:
        The query sketch's value count, largest value (``0.0`` when
        empty) and exactness flag.
    """
    sizes = np.asarray(row_sizes, dtype=np.float64)
    k_cap = np.asarray(common_counts, dtype=np.float64)
    # k of Equation 24: |L_Q ∪ L_X| = |L_Q| + |L_X| − K∩; U(k) is the
    # largest hash value in the union because all values are <= τ.
    k_union = query_num_values + sizes - k_cap
    u_k = np.maximum(row_max, query_max)

    both_exact = row_exact & query_exact
    estimable = (~both_exact) & (k_union >= 2) & (u_k > 0.0)
    # Branchless evaluation: compute the formula everywhere (divisions by
    # zero are discarded by the selects below), then pick per element.
    # Elementwise, the selected values are bit-identical to what masked
    # assignment would produce, and no gather/scatter passes are needed.
    with np.errstate(divide="ignore", invalid="ignore"):
        formula = (k_cap / k_union) * ((k_union - 1.0) / u_k)
    return np.where(both_exact, k_cap, np.where(estimable, formula, 0.0))


@dataclass(frozen=True)
class KMVWorkloadMatches:
    """All (query, stored sketch value) matches of a KMV workload, row-sorted.

    Produced by :meth:`KMVBatchEstimator.match_workload`; the matched
    values are carried along because Equation 10 needs them for the
    ``U(k)`` cut-off, and ``rows`` is sorted ascending so
    :meth:`KMVBatchEstimator.intersection_workload_block` can slice any
    row range with one ``searchsorted`` pair.
    """

    #: Number of queries ``B`` in the workload.
    num_queries: int
    #: Record row of each matched occurrence, sorted ascending.
    rows: np.ndarray
    #: Query id of each matched occurrence, parallel to ``rows``.
    query_ids: np.ndarray
    #: Matched sketch value of each occurrence, parallel to ``rows``.
    values: np.ndarray


class KMVBatchEstimator:
    """Batched plain-KMV estimators over a dense padded value matrix."""

    def __init__(
        self,
        record_matrix: np.ndarray,
        row_counts: np.ndarray,
        record_sizes: np.ndarray,
    ) -> None:
        self._matrix = np.asarray(record_matrix, dtype=np.float64)
        self._row_counts = np.asarray(row_counts, dtype=np.int64)
        self._record_sizes = np.asarray(record_sizes, dtype=np.int64)
        # Value→record join index over the finite matrix entries, built
        # lazily for the fused multi-query path.
        self._join_values: np.ndarray | None = None
        self._join_rows: np.ndarray | None = None

    @classmethod
    def from_value_rows(
        cls, rows: Sequence[np.ndarray], record_sizes: Sequence[int], k: int
    ) -> "KMVBatchEstimator":
        """Pack per-record sorted value arrays into the padded matrix."""
        num_records = len(rows)
        matrix = np.full((num_records, max(int(k), 1)), np.inf, dtype=np.float64)
        counts = np.zeros(num_records, dtype=np.int64)
        for row_id, values in enumerate(rows):
            counts[row_id] = values.size
            matrix[row_id, : values.size] = values
        return cls(matrix, counts, np.asarray(record_sizes, dtype=np.int64))

    @property
    def num_records(self) -> int:
        """Number of candidate rows."""
        return int(self._matrix.shape[0])

    # ------------------------------------------------- fused workload kernels
    def _join_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Every finite sketch value, sorted, with its record row alongside."""
        if self._join_values is None or self._join_rows is None:
            finite = np.isfinite(self._matrix)
            values = self._matrix[finite]
            rows = np.repeat(
                np.arange(self._matrix.shape[0], dtype=np.int64),
                finite.sum(axis=1),
            )
            order = stable_argsort(values)
            self._join_values = values[order]
            self._join_rows = rows[order]
        return self._join_values, self._join_rows

    def match_workload(
        self, queries_values: Sequence[np.ndarray]
    ) -> KMVWorkloadMatches:
        """Resolve every query's values against all sketches in one fused pass.

        One concatenated ``searchsorted`` run over the join index — no
        per-query Python iteration — returning the (query, row, value)
        matches sorted by row, stably, so
        :meth:`intersection_workload_block` can slice any row range.
        Shares :func:`~repro.core.store.match_join_index` with the
        columnar store's workload kernel.
        """
        join_values, join_rows = self._join_index()
        query_ids, positions = match_join_index(join_values, queries_values)
        rows = join_rows[positions]
        order = stable_argsort(rows)
        return KMVWorkloadMatches(
            len(queries_values),
            rows[order],
            query_ids[order],
            join_values[positions[order]],
        )

    def intersection_workload_block(
        self,
        query_matrix: np.ndarray,
        query_counts: np.ndarray,
        query_exact: np.ndarray,
        matches: KMVWorkloadMatches,
        row_lo: int = 0,
        row_hi: int | None = None,
    ) -> np.ndarray:
        """Equation 10 for every (query, record) pair in a block of rows.

        Estimates equal the scalar
        :meth:`~repro.core.kmv.KMVSketch.intersection_size_estimate` per
        pair, bit for bit.  The common counts come from the precomputed
        match run (one flat ``bincount``) and the union sort covers the
        whole block's formula pairs at once.  Pairs with no shared value
        estimate to exactly ``0.0`` down both branches, so they skip the
        union sort entirely.  Where the scalar estimator refuses a pair
        (``k < 2``), the common count stands in.

        Parameters
        ----------
        query_matrix:
            Dense ``(B, q_max)`` matrix of per-query sketch values, each
            row sorted ascending and padded with ``+inf``.
        query_counts:
            Number of real (non-padding) values per query.
        query_exact:
            Whether each query sketch retains every hash value of its
            query.
        matches:
            Output of :meth:`match_workload` for the same workload.
        row_lo, row_hi:
            The block of record rows to score (defaults to all rows).
        """
        if row_hi is None:
            row_hi = int(self._matrix.shape[0])
        block = row_hi - row_lo
        num_queries = matches.num_queries
        lo = int(np.searchsorted(matches.rows, row_lo, side="left"))
        hi = int(np.searchsorted(matches.rows, row_hi, side="left"))
        common = np.zeros((num_queries, block), dtype=np.int64)
        if hi > lo:
            flat = matches.query_ids[lo:hi] * block + (matches.rows[lo:hi] - row_lo)
            common = (
                np.bincount(flat, minlength=num_queries * block)
                .reshape(num_queries, block)
                .astype(np.int64, copy=False)
            )
        row_counts = self._row_counts[row_lo:row_hi]
        record_sizes = self._record_sizes[row_lo:row_hi]
        query_counts = np.asarray(query_counts, dtype=np.int64)
        k = np.minimum(row_counts[np.newaxis, :], query_counts[:, np.newaxis])
        record_exact = row_counts >= record_sizes
        use_common = (
            np.asarray(query_exact, dtype=bool)[:, np.newaxis]
            & record_exact[np.newaxis, :]
        ) | (k < 2)
        estimates = np.zeros((num_queries, block), dtype=np.float64)
        estimates[use_common] = common[use_common]

        needs_formula = ~use_common & (common > 0)
        if np.any(needs_formula):
            pair_queries, pair_cols = np.nonzero(needs_formula)
            num_pairs = pair_queries.size
            combined = np.concatenate(
                [
                    self._matrix[row_lo:row_hi][pair_cols],
                    np.asarray(query_matrix, dtype=np.float64)[pair_queries],
                ],
                axis=1,
            )
            merged = np.sort(combined, axis=1)
            distinct = np.ones(merged.shape, dtype=bool)
            distinct[:, 1:] = merged[:, 1:] != merged[:, :-1]
            distinct &= np.isfinite(merged)
            ranks = np.cumsum(distinct, axis=1)
            k_pairs = k[pair_queries, pair_cols]
            column = (ranks < k_pairs[:, np.newaxis]).sum(axis=1)
            u_k = merged[np.arange(num_pairs), column]
            # K∩ = shared values at or below U(k), counted straight off the
            # match run: scatter each pair to its position, then bincount
            # the occurrences that survive the cut-off.
            pair_position = np.full((num_queries, block), -1, dtype=np.int64)
            pair_position[pair_queries, pair_cols] = np.arange(
                num_pairs, dtype=np.int64
            )
            positions = pair_position[
                matches.query_ids[lo:hi], matches.rows[lo:hi] - row_lo
            ]
            in_formula = positions >= 0
            positions = positions[in_formula]
            within = matches.values[lo:hi][in_formula] <= u_k[positions]
            k_cap = np.bincount(positions[within], minlength=num_pairs).astype(
                np.float64
            )
            k_f = k_pairs.astype(np.float64)
            estimates[pair_queries, pair_cols] = (k_cap / k_f) * ((k_f - 1.0) / u_k)
        return estimates
