"""Batched sketch estimators: whole-candidate-set versions of Eqs. 9–10 and 24–26.

The per-sketch estimator methods (:class:`~repro.core.kmv.KMVSketch`,
:class:`~repro.core.gkmv.GKMVSketch`, :class:`~repro.core.gbkmv.GBKMVSketch`)
score one ``(query, record)`` pair per call.  The functions here evaluate
the *same* formulas for one query against every record of a columnar
store at once, using vectorised merges instead of per-pair Python calls.
They are the estimator layer the batched query engine
(:meth:`~repro.core.index.GBKMVIndex.search_many` and the baselines in
:mod:`repro.baselines.kmv_search`) is built on.  For whole workloads,
:class:`KMVBatchEstimator` additionally offers a *fused* multi-query
Equation-10 path (:meth:`KMVBatchEstimator.match_workload` +
:meth:`KMVBatchEstimator.intersection_workload_block`) mirroring the
columnar store's fused kernels: one join-index pass for every query at
once, blocked over record rows.

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
* Union estimates that the scalar API would refuse (fewer than two
  retained values and not exact) are reported as ``nan``.
* Rows of the segmented store are *physical* rows; tombstoned rows (in
  the sealed base or the mutable tail) are skipped — ``0.0``
  intersection, ``nan`` union — via the optional ``alive_rows`` mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro._errors import ConfigurationError
from repro.core.sorting import stable_argsort
from repro.core.store import ColumnarSketchStore, match_join_index


@runtime_checkable
class BatchEstimator(Protocol):
    """Estimators that score one query against every stored record at once."""

    def intersection_many(
        self, query_values: np.ndarray, query_record_size: int
    ) -> np.ndarray:  # pragma: no cover - protocol
        """Estimated ``|Q ∩ X|`` for every record."""
        ...

    def containment_many(
        self, query_values: np.ndarray, query_record_size: int, query_size: int
    ) -> np.ndarray:  # pragma: no cover - protocol
        """Estimated ``C(Q, X)`` for every record."""
        ...


def residual_intersection_estimates(
    intersection_counts: np.ndarray,
    row_sizes: np.ndarray,
    row_max: np.ndarray,
    row_exact: np.ndarray,
    query_num_values,
    query_max,
    query_exact,
    alive_rows: np.ndarray | None = None,
) -> np.ndarray:
    """G-KMV intersection estimates (Equation 25) for whole candidate sets.

    Accepts either one query (scalar query parameters, 1-D counts) or a
    workload (``(B, n)`` counts with ``(B, 1)`` query parameter columns);
    everything broadcasts.

    Parameters
    ----------
    intersection_counts:
        ``K∩ = |L_Q ∩ L_X|`` per record (int), from a store kernel.
    row_sizes, row_max, row_exact:
        Per-record stored-value counts, largest stored values, and
        exactness flags (the store's derived columns).
    query_num_values, query_max, query_exact:
        The query sketch's value count, largest value (``0.0`` when
        empty) and exactness flag.
    alive_rows:
        Optional liveness mask over rows (the segmented store's
        tombstone complement); tombstoned rows report ``0.0``.  ``None``
        skips the masking pass entirely, keeping the static path
        bit-identical to the scalar estimators.
    """
    sizes = np.asarray(row_sizes, dtype=np.float64)
    k_cap = np.asarray(intersection_counts, dtype=np.float64)
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
    estimates = np.where(both_exact, k_cap, np.where(estimable, formula, 0.0))
    if alive_rows is not None:
        estimates = np.where(alive_rows, estimates, 0.0)
    return estimates


def residual_union_estimates(
    intersection_counts: np.ndarray,
    row_sizes: np.ndarray,
    row_max: np.ndarray,
    row_exact: np.ndarray,
    query_num_values,
    query_max,
    query_exact,
    alive_rows: np.ndarray | None = None,
) -> np.ndarray:
    """G-KMV union-size estimates (Equation 24) for whole candidate sets.

    Exact pairs report the exact union of their hash sets; estimable
    pairs report ``(k − 1) / U(k)``; degenerate pairs (union of fewer
    than two observed values, not exact) report ``nan`` — the batch
    analogue of the scalar API's :class:`~repro._errors.EstimationError`.
    Tombstoned rows (``alive_rows`` false) also report ``nan``: a union
    with a deleted record is as unanswerable as a degenerate one.
    """
    sizes = np.asarray(row_sizes, dtype=np.float64)
    k_cap = np.asarray(intersection_counts, dtype=np.float64)
    k_union = query_num_values + sizes - k_cap
    u_k = np.maximum(row_max, query_max)

    both_exact = row_exact & query_exact
    estimable = (~both_exact) & (k_union >= 2) & (u_k > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        formula = (k_union - 1.0) / u_k
    estimates = np.where(both_exact, k_union, np.where(estimable, formula, np.nan))
    if alive_rows is not None:
        estimates = np.where(alive_rows, estimates, np.nan)
    return estimates


def kmv_intersection_estimates(
    query_values: np.ndarray,
    query_exact: bool,
    record_matrix: np.ndarray,
    row_counts: np.ndarray,
    record_sizes: np.ndarray,
) -> np.ndarray:
    """Plain-KMV intersection estimates (Equation 10) for whole candidate sets.

    Parameters
    ----------
    query_values:
        The query sketch's values, sorted ascending and distinct.
    query_exact:
        Whether the query sketch retains every hash value of the query.
    record_matrix:
        Dense ``(n, k)`` matrix of per-record sketch values, each row
        sorted ascending and padded with ``+inf``.
    row_counts:
        Number of real (non-padding) values per row.
    record_sizes:
        Distinct-element count of each sketched record.

    The per-pair ``k`` is ``min(|L_Q|, |L_X|)`` and ``U(k)`` is the k-th
    smallest *distinct* value of ``L_Q ∪ L_X``, found by sorting the
    row-wise concatenation of the two value sets — one ``np.sort`` call
    for the whole candidate set.
    """
    matrix = np.asarray(record_matrix, dtype=np.float64)
    num_records = matrix.shape[0]
    query_values = np.asarray(query_values, dtype=np.float64)
    query_count = int(query_values.size)
    estimates = np.zeros(num_records, dtype=np.float64)
    if num_records == 0 or query_count == 0:
        return estimates

    positions = np.searchsorted(query_values, matrix)
    member = np.zeros(matrix.shape, dtype=bool)
    in_range = positions < query_count
    member[in_range] = query_values[positions[in_range]] == matrix[in_range]
    common = member.sum(axis=1, dtype=np.int64)

    k = np.minimum(row_counts, query_count).astype(np.int64)
    record_exact = row_counts >= record_sizes
    use_common = (query_exact & record_exact) | (k < 2)
    estimates[use_common] = common[use_common]

    needs_formula = ~use_common
    if np.any(needs_formula):
        rows = np.nonzero(needs_formula)[0]
        combined = np.concatenate(
            [matrix[rows], np.broadcast_to(query_values, (rows.size, query_count))],
            axis=1,
        )
        merged = np.sort(combined, axis=1)
        distinct = np.ones(merged.shape, dtype=bool)
        distinct[:, 1:] = merged[:, 1:] != merged[:, :-1]
        distinct &= np.isfinite(merged)
        ranks = np.cumsum(distinct, axis=1)
        k_rows = k[rows]
        # First column whose distinct-rank reaches k = the k-th smallest
        # distinct union value U(k).
        column = (ranks < k_rows[:, np.newaxis]).sum(axis=1)
        u_k = merged[np.arange(rows.size), column]
        k_cap = (member[rows] & (matrix[rows] <= u_k[:, np.newaxis])).sum(
            axis=1, dtype=np.int64
        )
        k_f = k_rows.astype(np.float64)
        estimates[rows] = (k_cap / k_f) * ((k_f - 1.0) / u_k)
    return estimates


def containment_from_intersections(
    intersections: np.ndarray, query_size: int
) -> np.ndarray:
    """Turn intersection estimates into containment estimates ``D̂∩ / |Q|``."""
    if query_size <= 0:
        raise ConfigurationError("query_size must be positive")
    return np.asarray(intersections, dtype=np.float64) / float(query_size)


class GKMVBatchEstimator:
    """Batched G-KMV estimators over a columnar store of residual sketches.

    The store's rows are the candidate sketches; each call scores one
    query (given by its kept hash values and its residual record size)
    against every *physical* row at once.  Tombstoned rows in either
    segment of the store are skipped (``0.0`` intersection, ``nan``
    union); map rows to record ids with the store's
    :meth:`~repro.core.store.ColumnarSketchStore.result_view`.
    """

    def __init__(self, store: ColumnarSketchStore) -> None:
        self._store = store

    @property
    def store(self) -> ColumnarSketchStore:
        """The underlying columnar store."""
        return self._store

    def _query_parts(self, query_values: np.ndarray, query_record_size: int):
        query_values = np.asarray(query_values, dtype=np.float64)
        query_max = float(query_values[-1]) if query_values.size else 0.0
        query_exact = bool(query_values.size >= query_record_size)
        return query_values, query_max, query_exact

    def _alive(self) -> np.ndarray | None:
        _row_ids, alive = self._store.result_view()
        return alive

    def intersection_many(
        self, query_values: np.ndarray, query_record_size: int
    ) -> np.ndarray:
        """Equation 25 against every stored row (``0.0`` for tombstones)."""
        store = self._store
        query_values, query_max, query_exact = self._query_parts(
            query_values, query_record_size
        )
        counts = store.intersection_counts(query_values)
        return residual_intersection_estimates(
            counts,
            store.row_sizes,
            store.row_max,
            store.row_exact,
            query_values.size,
            query_max,
            query_exact,
            alive_rows=self._alive(),
        )

    def union_many(
        self, query_values: np.ndarray, query_record_size: int
    ) -> np.ndarray:
        """Equation 24 against every stored row (``nan`` where degenerate or dead)."""
        store = self._store
        query_values, query_max, query_exact = self._query_parts(
            query_values, query_record_size
        )
        counts = store.intersection_counts(query_values)
        return residual_union_estimates(
            counts,
            store.row_sizes,
            store.row_max,
            store.row_exact,
            query_values.size,
            query_max,
            query_exact,
            alive_rows=self._alive(),
        )

    def containment_many(
        self, query_values: np.ndarray, query_record_size: int, query_size: int
    ) -> np.ndarray:
        """Equation 26 against every stored record."""
        return containment_from_intersections(
            self.intersection_many(query_values, query_record_size), query_size
        )


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

    @property
    def record_sizes(self) -> np.ndarray:
        """Distinct-element count of each sketched record."""
        return self._record_sizes

    def intersection_one(
        self, query_values: np.ndarray, query_exact: bool, record_id: int
    ) -> float:
        """Equation 10 against a single record (single-row slice of the batch)."""
        estimates = kmv_intersection_estimates(
            np.asarray(query_values, dtype=np.float64),
            bool(query_exact),
            self._matrix[record_id : record_id + 1],
            self._row_counts[record_id : record_id + 1],
            self._record_sizes[record_id : record_id + 1],
        )
        return float(estimates[0])

    def intersection_many(
        self, query_values: np.ndarray, query_record_size: int
    ) -> np.ndarray:
        """Equation 10 against every stored record."""
        query_values = np.asarray(query_values, dtype=np.float64)
        query_exact = bool(query_values.size >= query_record_size)
        return kmv_intersection_estimates(
            query_values,
            query_exact,
            self._matrix,
            self._row_counts,
            self._record_sizes,
        )

    def containment_many(
        self, query_values: np.ndarray, query_record_size: int, query_size: int
    ) -> np.ndarray:
        """Containment from Equation 10 against every stored record."""
        return containment_from_intersections(
            self.intersection_many(query_values, query_record_size), query_size
        )

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

        The fused multi-query counterpart of
        :func:`kmv_intersection_estimates`: estimates are bit-identical
        per pair, but the common counts come from the precomputed match
        run (one flat ``bincount``) and the union sort covers the whole
        block's formula pairs at once.  Pairs with no shared value
        estimate to exactly ``0.0`` down both branches, so they skip the
        union sort entirely.

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
