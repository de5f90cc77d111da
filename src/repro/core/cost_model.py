"""Cost model for choosing the GB-KMV buffer size (Section IV-C6).

The buffer trades space between two uses: exact bits for the ``r`` most
frequent elements versus hash values for the residual G-KMV sketch.  The
paper derives the average variance of the GB-KMV containment estimator as
a function ``f(r, α1, α2, b)`` of the buffer size, the element-frequency
and record-size power-law exponents, and the space budget, and picks the
``r`` minimising it numerically (trying ``r = 0, 8, 16, 24, …``).

This module implements the same optimisation *data-dependently*: instead
of plugging power-law exponents into closed-form integrals, it evaluates
the quantities those integrals approximate directly from the observed
element frequencies and record sizes, under the paper's occurrence model
``Pr[e_i ∈ X_j] = min(f_i · x_j / N, 1)`` (the clamp keeps the model sane
for very hot elements, which the asymptotic analysis ignores).  For a
record pair ``(X_j, X_l)`` and a buffer of the ``r`` hottest elements:

* expected residual intersection   ``D∩(r) = Σ_{i>r} p_ij · p_il``
* expected residual union          ``D∪(r) = Σ_{i>r} p_ij + p_il − p_ij p_il``
* expected G-KMV sketch size       ``k(r)  = τ(r) · D∪(r)`` with
  ``τ(r) = (b − m·r/32) / Σ_{i>r} f_i``
* per-pair variance                Equation 11 on ``(D∩, D∪, k)``, divided
  by the query size squared.

The model average over record pairs is minimised over a grid of ``r``
values, exactly as in the paper's numerical procedure.  The module also
provides the exact computation of the global hash threshold ``τ`` for a
residual space budget (Algorithm 1, line 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.core.buffer import BITS_PER_SIGNATURE_UNIT
from repro.core.sorting import stable_argsort
from repro.hashing import UnitHash

#: Variance reported for infeasible configurations (buffer alone exceeds budget).
INFEASIBLE_VARIANCE = float("inf")

#: Minimum sketch size for which the Equation-11 variance is defined.
_MIN_K = 3.0


@dataclass(frozen=True)
class BufferSizing:
    """Outcome of the buffer-size optimisation.

    Attributes
    ----------
    buffer_size:
        The chosen ``r`` (number of frequent elements kept exactly).
    estimated_variance:
        The model's average containment-estimator variance at that ``r``.
    curve:
        The full ``(r, variance)`` grid evaluated, useful for plots such as
        Figure 5 of the paper.
    """

    buffer_size: int
    estimated_variance: float
    curve: tuple[tuple[int, float], ...] = field(default_factory=tuple)


def _validate_inputs(
    record_sizes: Sequence[int] | np.ndarray,
    frequencies: Sequence[int] | np.ndarray,
    budget: float,
) -> tuple[np.ndarray, np.ndarray]:
    sizes = np.asarray(record_sizes, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64)
    if sizes.size == 0:
        raise EmptyDatasetError("record_sizes must not be empty")
    if freqs.size == 0:
        raise EmptyDatasetError("frequencies must not be empty")
    if np.any(sizes <= 0):
        raise ConfigurationError("record sizes must be positive")
    if np.any(freqs <= 0):
        raise ConfigurationError("element frequencies must be positive")
    if budget <= 0:
        raise ConfigurationError("space budget must be positive")
    # The model assumes frequencies sorted in decreasing order; sort defensively.
    freqs = np.sort(freqs)[::-1]
    return sizes, freqs


def _sample_pairs(
    sizes: np.ndarray, pair_sample: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically sample record-size pairs for the model average."""
    rng = np.random.default_rng(seed)
    m = sizes.size
    n_pairs = max(min(int(pair_sample), m * m), 1)
    left = sizes[rng.integers(0, m, size=n_pairs)]
    right = sizes[rng.integers(0, m, size=n_pairs)]
    return left, right


def _pair_variance_grid(
    freqs: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    budget: float,
    num_records: int,
    candidates: np.ndarray,
) -> np.ndarray:
    """Average model variance at every candidate ``r``.

    Returns an array aligned with ``candidates``; infeasible candidates
    (buffer alone over budget, or residual sketch too small for the
    variance formula on some pair) are ``inf``.

    The grid only ever reads prefix sums at candidate positions (all at
    most the largest candidate ``r``) plus whole-universe totals, so the
    work splits into a *head* region — the first ``max(candidates)``
    frequencies, where occurrence probabilities are materialised per
    distinct record size and prefix-summed exactly — and a *tail* that
    collapses to closed form: the clamp ``min(f·x/N, 1)`` is the
    identity beyond each size's clamp boundary ``c(x) = |{f ≥ N/x}|``
    (frequencies are sorted descending), so every tail total is a
    weighted suffix sum of ``f`` and ``f²``.  Cost is
    ``O(F + pairs · max(candidates))`` instead of the original
    ``O(pairs · F)`` Python pair loop.

    The regrouped float arithmetic is not bit-identical to the old
    sequential cumsums: grid variances carry low-order-bit differences,
    and a pair sitting exactly on the ``k ≈ _MIN_K`` branch boundary can
    flip sides of it.  That is accepted — the grid is a data-dependent
    *heuristic* for choosing ``r``, both construction paths share
    whatever it picks, and the identity guarantees of the bulk pipeline
    are unaffected.
    """
    total_elements = float(freqs.sum())
    num_freqs = int(freqs.size)
    # Suffix frequency mass left for the residual sketch at each candidate r.
    prefix_freq = np.concatenate([[0.0], np.cumsum(freqs)])
    prefix_freq_sq = np.concatenate([[0.0], np.cumsum(np.square(freqs))])
    residual_mass = total_elements - prefix_freq[candidates]

    buffer_cost = num_records * candidates / BITS_PER_SIGNATURE_UNIT
    residual_budget = budget - buffer_cost
    tau = np.where(
        residual_mass > 0,
        np.minimum(1.0, residual_budget / np.maximum(residual_mass, 1e-300)),
        1.0,
    )

    infeasible = residual_budget <= 0
    covered = residual_mass <= 0  # buffer holds every element: exact answer
    num_pairs = int(left.size)
    head = min(int(candidates.max()) if candidates.size else 0, num_freqs)

    # The model depends on a pair only through its two record sizes, and
    # sizes repeat heavily: tabulate per *distinct* size.
    unique_sizes, size_inverse = np.unique(
        np.concatenate([left, right]), return_inverse=True
    )
    left_index = size_inverse[:num_pairs]
    right_index = size_inverse[num_pairs:]
    # Clamp boundary per distinct size: elements with f >= N/x have
    # occurrence probability exactly 1.  Frequencies are descending, so
    # the boundary is one searchsorted against the ascending reversal.
    ascending = freqs[::-1]
    clamp_bound = num_freqs - np.searchsorted(
        ascending, total_elements / unique_sizes, side="left"
    )
    scale = unique_sizes / total_elements
    # Σ_j min(f_j·x/N, 1): the clamped ones count 1 each, the rest are a
    # suffix sum of f scaled by x/N.
    size_totals = clamp_bound + scale * (
        total_elements - prefix_freq[clamp_bound]
    )

    # Head region, exact: per-distinct-size probabilities over the first
    # ``head`` (hottest) frequencies, then per-pair prefix sums.
    head_probabilities = np.minimum(
        unique_sizes[:, np.newaxis] * freqs[np.newaxis, :head] / total_elements, 1.0
    )
    p_left = head_probabilities[left_index]
    p_right = head_probabilities[right_index]
    intersect = p_left * p_right
    union = p_left + p_right - intersect
    zero_column = np.zeros((num_pairs, 1), dtype=np.float64)
    prefix_intersect = np.concatenate(
        [zero_column, np.cumsum(intersect, axis=1)], axis=1
    )
    prefix_union = np.concatenate([zero_column, np.cumsum(union, axis=1)], axis=1)

    # Whole-universe intersection total in closed form.  With clamp
    # boundaries c_lo <= c_hi for the pair: below c_lo both sides clamp
    # (product 1), between them only the smaller-boundary side varies
    # (a suffix-sum of f scaled by its size), beyond c_hi the product is
    # f²·x_l·x_r/N² (a suffix sum of f²).
    bound_left = clamp_bound[left_index]
    bound_right = clamp_bound[right_index]
    bound_lo = np.minimum(bound_left, bound_right)
    bound_hi = np.maximum(bound_left, bound_right)
    scale_unclamped = np.where(
        bound_left < bound_right, scale[left_index], scale[right_index]
    )
    total_intersect = (
        bound_lo
        + scale_unclamped * (prefix_freq[bound_hi] - prefix_freq[bound_lo])
        + scale[left_index]
        * scale[right_index]
        * (prefix_freq_sq[num_freqs] - prefix_freq_sq[bound_hi])
    )
    total_union = (
        size_totals[left_index] + size_totals[right_index] - total_intersect
    )
    d_cap = total_intersect[:, np.newaxis] - prefix_intersect[:, candidates]
    d_cup = total_union[:, np.newaxis] - prefix_union[:, candidates]
    k = tau[np.newaxis, :] * d_cup

    variance = np.zeros((num_pairs, candidates.size), dtype=np.float64)
    usable = ~covered[np.newaxis, :] & (k >= _MIN_K)
    if np.any(usable):
        ku = k[usable]
        dc = d_cap[usable]
        du = d_cup[usable]
        numer = dc * (ku * du - ku * ku - du + ku + dc)
        variance[usable] = np.maximum(numer / (ku * (ku - 2.0)), 0.0)
    # When the residual sketch is too small for the Equation-11 formula
    # (k < 3), the estimator effectively misses the residual overlap; the
    # squared error of that miss, D∩², stands in as the variance so that
    # starving the G-KMV part of budget is penalised in proportion to the
    # overlap mass it would be blind to.
    starved = ~covered[np.newaxis, :] & (k < _MIN_K)
    if np.any(starved):
        variance[starved] = np.square(d_cap[starved])
    variance /= np.square(left)[:, np.newaxis]

    averaged = variance.sum(axis=0) / max(num_pairs, 1)
    averaged[infeasible] = INFEASIBLE_VARIANCE
    return averaged


def average_variance(
    record_sizes: Sequence[int] | np.ndarray,
    frequencies: Sequence[int] | np.ndarray,
    budget: float,
    buffer_size: int,
    pair_sample: int = 256,
    seed: int = 0,
) -> float:
    """Model-average variance of the GB-KMV containment estimator.

    Parameters
    ----------
    record_sizes:
        Distinct-element counts of the dataset's records (``x_1..x_m``).
    frequencies:
        Element frequencies (number of records containing each element);
        order does not matter, the model sorts them descending.
    budget:
        Total space budget ``b`` in signature-value units.
    buffer_size:
        Candidate buffer size ``r``.
    pair_sample:
        Number of record pairs sampled to average the per-pair variance;
        the full quadratic sum of the paper is replaced by a deterministic
        Monte-Carlo average which is indistinguishable at the scales used.
    seed:
        Seed for the pair sampling (results are deterministic).

    Returns
    -------
    float
        The estimated average variance, or ``inf`` when the configuration
        is infeasible (buffer alone exceeds the space budget, or the
        residual sketches become too small to estimate from).
    """
    sizes, freqs = _validate_inputs(record_sizes, frequencies, budget)
    if buffer_size < 0:
        raise ConfigurationError("buffer_size must be non-negative")
    r = min(int(buffer_size), int(freqs.size))
    left, right = _sample_pairs(sizes, pair_sample, seed)
    grid = _pair_variance_grid(
        freqs, left, right, budget, sizes.size, np.array([r], dtype=np.int64)
    )
    return float(grid[0])


def choose_buffer_size(
    record_sizes: Sequence[int] | np.ndarray,
    frequencies: Sequence[int] | np.ndarray,
    budget: float,
    step: int = 8,
    max_buffer_size: int | None = None,
    max_buffer_cost_fraction: float = 0.5,
    pair_sample: int = 256,
    seed: int = 0,
) -> BufferSizing:
    """Pick the buffer size minimising the model variance (Section IV-C6).

    The candidate grid is ``r = 0, step, 2·step, …`` up to
    ``max_buffer_size`` (default: bounded by the number of distinct
    elements and by the largest ``r`` whose buffer bits consume at most
    ``max_buffer_cost_fraction`` of the budget).  Because ``r = 0`` is
    always on the grid, the chosen configuration is never worse than plain
    G-KMV under the model, which is the paper's feasibility constraint
    ``V_Δ < 0``.

    ``max_buffer_cost_fraction`` keeps the residual G-KMV sketch from
    being starved: the pairwise-variance model is threshold-agnostic, and
    an index whose buffer eats the whole budget cannot recognise overlap
    among infrequent elements at all (which hurts badly at high search
    thresholds).  Reserving at least half the budget for hash values is
    the engineering guard-rail this reproduction applies on top of the
    paper's model.
    """
    sizes, freqs = _validate_inputs(record_sizes, frequencies, budget)
    if step < 1:
        raise ConfigurationError("step must be >= 1")
    if not 0.0 < max_buffer_cost_fraction <= 1.0:
        raise ConfigurationError("max_buffer_cost_fraction must be in (0, 1]")
    m = sizes.size
    # Largest r whose buffer cost stays within the allowed share of the
    # budget (and always leaves room for at least one hash value).
    allowed_buffer_budget = min(budget * max_buffer_cost_fraction, budget - 1)
    feasibility_cap = int(allowed_buffer_budget * BITS_PER_SIGNATURE_UNIT / m) if m else 0
    cap = int(freqs.size)
    if max_buffer_size is not None:
        cap = min(cap, int(max_buffer_size))
    cap = max(0, min(cap, max(feasibility_cap, 0)))

    candidate_list = list(range(0, cap + 1, step))
    if cap not in candidate_list:
        candidate_list.append(cap)
    candidates = np.array(candidate_list, dtype=np.int64)

    left, right = _sample_pairs(sizes, pair_sample, seed)
    variances = _pair_variance_grid(freqs, left, right, budget, m, candidates)

    best_index = int(np.argmin(variances))
    curve = tuple(
        (int(r), float(variance)) for r, variance in zip(candidates, variances)
    )
    return BufferSizing(
        buffer_size=int(candidates[best_index]),
        estimated_variance=float(variances[best_index]),
        curve=curve,
    )


def residual_threshold(
    residual_frequencies: Mapping[object, int],
    residual_budget: float,
    hasher: UnitHash,
) -> float:
    """Exact global threshold ``τ`` for a residual space budget.

    The number of stored hash values under threshold ``τ`` is the total
    frequency of the residual elements whose hash value is at most ``τ``
    (each occurrence of such an element stores one value).  We therefore
    sort the residual elements by hash value and pick the largest prefix
    whose cumulative frequency fits in the budget; ``τ`` is the hash value
    of the last element in that prefix.

    Parameters
    ----------
    residual_frequencies:
        Frequency (number of containing records) of each element *not* in
        the frequent vocabulary.
    residual_budget:
        Space, in signature values, available for the G-KMV part.
    hasher:
        The dataset's hash function.

    Returns
    -------
    float
        The threshold ``τ`` in ``(0, 1]``.  Returns ``1.0`` when the whole
        residual fits within the budget, and a value just below the
        smallest hash value (storing nothing) when even a single element's
        occurrences would overflow the budget.
    """
    if residual_budget < 0:
        raise ConfigurationError("residual budget must be non-negative")
    elements = list(residual_frequencies.keys())
    if not elements:
        return 1.0
    counts = np.array([residual_frequencies[e] for e in elements], dtype=np.float64)
    if np.any(counts <= 0):
        raise ConfigurationError("element frequencies must be positive")
    hashes = hasher.hash_many(elements)
    return residual_threshold_from_hashes(hashes, counts, residual_budget)


def residual_threshold_from_hashes(
    hashes: np.ndarray,
    counts: np.ndarray,
    residual_budget: float,
) -> float:
    """:func:`residual_threshold` on pre-computed per-element hash values.

    The bulk construction pipeline already holds every unique residual
    element's hash value and frequency as arrays; this entry point skips
    the mapping materialisation and re-hashing.  Semantics (and the
    returned ``τ``) are identical to :func:`residual_threshold`.
    """
    if residual_budget < 0:
        raise ConfigurationError("residual budget must be non-negative")
    hashes = np.asarray(hashes, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if hashes.size == 0:
        return 1.0
    if np.any(counts <= 0):
        raise ConfigurationError("element frequencies must be positive")
    order = stable_argsort(hashes)
    sorted_hashes = hashes[order]
    cumulative = np.cumsum(counts[order])
    within = cumulative <= residual_budget
    if not np.any(within):
        # Not even the first element fits: place τ just below its hash value.
        return float(max(sorted_hashes[0] * 0.5, np.finfo(np.float64).tiny))
    last = int(np.nonzero(within)[0][-1])
    if last == sorted_hashes.size - 1:
        return 1.0
    # τ halfway between the last included and the first excluded hash value
    # keeps the inclusion test (h <= τ) unambiguous under float round-off.
    return float((sorted_hashes[last] + sorted_hashes[last + 1]) / 2.0)
