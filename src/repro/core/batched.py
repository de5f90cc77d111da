"""Whole-workload sketch estimators: Eqs. 10 and 25 over many pairs at once.

The per-sketch estimator methods (:class:`~repro.core.kmv.KMVSketch`,
:class:`~repro.core.gkmv.GKMVSketch`, :class:`~repro.core.gbkmv.GBKMVSketch`)
score one ``(query, record)`` pair per call.  This module evaluates the
*same* formulas for many pairs at once, with vectorised array passes
instead of per-pair Python calls.  One engine
(:meth:`~repro.core.index.SketchStoreIndex.search_many`) serves every
sketch family: it finds the (query, record) pairs that share a stored
value through the store's join index and hands them to the family's
estimator here.

* :func:`residual_intersection_estimates` is Equation 25, for GB-KMV
  (and G-KMV as GB-KMV with an empty buffer);
* :func:`kmv_intersection_estimates` is Equation 10, for the plain-KMV
  baseline, whose rows hold each record's ``k`` smallest hash values.

Bitwise fidelity is a hard requirement, not an aspiration: every function
reproduces the corresponding scalar estimator's branch structure (exact
short-circuits, degenerate ``k < 2`` cases) and evaluates the arithmetic
in the same order, so the batched scores are equal — as floating-point
bit patterns — to what a per-record loop over sketch objects produces.
The test suite asserts this identity.

Conventions
-----------
* Sketch values are sorted ascending and distinct.
* ``*_exact`` flags say whether a sketch retains *every* hash value of
  its record, enabling the exact short-circuit of the scalar estimators.
"""

from __future__ import annotations

import numpy as np

#: (pair, padded union slot) cells one Equation-10 chunk holds at most:
#: the sorted unions are scored a chunk of pairs at a time, so their
#: intermediates stay bounded however many pairs a workload has.
KMV_CHUNK_CELLS = 1 << 20


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


def _gather_columns(
    out: np.ndarray, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> None:
    """Fill ``out[j]`` with value ``j`` of every CSR slice, ``+inf`` past its end.

    Slice ``i`` is ``values[starts[i] : starts[i] + lengths[i]]``; one
    ``take`` per column reads the ``j``-th value of every slice at once.
    """
    index = starts.copy()
    for column in out:
        np.take(values, index, out=column, mode="clip")
        index += 1
    if lengths.min() < len(out):
        out[np.arange(len(out))[:, np.newaxis] >= lengths] = np.inf


def kmv_intersection_estimates(
    common_counts: np.ndarray,
    row_values: np.ndarray,
    row_starts: np.ndarray,
    row_lengths: np.ndarray,
    row_exact: np.ndarray,
    query_values: np.ndarray,
    query_starts: np.ndarray,
    query_lengths: np.ndarray,
    query_exact: np.ndarray,
) -> np.ndarray:
    """Plain-KMV intersection estimates (Equation 10) for many pairs at once.

    ``common_counts`` is ``|L_Q ∩ L_X|`` per pair, from the store's join
    match.  Each pair's record sketch is the CSR slice
    ``row_values[row_starts : row_starts + row_lengths]`` and its query
    sketch the same slice of ``query_values``; the ``*_exact`` flags say
    whether each sketch is exact.  Every argument but the two value
    columns holds one entry per pair.  Estimates equal
    :meth:`~repro.core.kmv.KMVSketch.intersection_size_estimate` bit for
    bit; where that estimator refuses a pair (``k < 2``), the count of
    shared sketch values stands in.
    """
    estimates = np.asarray(common_counts).astype(np.float64)
    k = np.minimum(row_lengths, query_lengths)
    # Both sketches exact, or k < 2: the shared-value count is the answer.
    formula = np.nonzero(~(row_exact & query_exact) & (k >= 2))[0]
    if not formula.size:
        return estimates
    row_width = int(row_lengths[formula].max())
    width = row_width + int(query_lengths[formula].max())
    rank_type = np.min_scalar_type(width)
    step = max(KMV_CHUNK_CELLS // width, 1)
    for lo in range(0, formula.size, step):
        pairs = formula[lo : lo + step]
        # One column per pair, so every pass below runs along whole rows.
        union = np.empty((width, pairs.size))
        _gather_columns(union[:row_width], row_values, row_starts[pairs], row_lengths[pairs])
        _gather_columns(
            union[row_width:], query_values, query_starts[pairs], query_lengths[pairs]
        )
        union.sort(axis=0)
        # U(k) is the k-th distinct value of the union; a value both
        # sketches hold appears twice in a row, so K∩ counts the repeats
        # at or below U(k) (padding is above every U(k)).
        repeat = union[1:] == union[:-1]
        pair_k = k[pairs]
        ranks = np.cumsum(~repeat, axis=0, dtype=rank_type)
        column = np.count_nonzero(ranks < (pair_k - 1).astype(rank_type), axis=0) + 1
        u_k = union[column, np.arange(pairs.size)]
        k_cap = np.count_nonzero(repeat & (union[1:] <= u_k), axis=0).astype(np.float64)
        k_f = pair_k.astype(np.float64)
        estimates[pairs] = (k_cap / k_f) * ((k_f - 1.0) / u_k)
    return estimates
