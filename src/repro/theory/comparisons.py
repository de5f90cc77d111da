"""Executable versions of the paper's comparative theorems.

These functions do not prove anything; they evaluate both sides of each
claim for concrete inputs so that tests and ablation benchmarks can check
the claimed direction on the data regimes the paper assumes.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro._errors import ConfigurationError
from repro.core.estimators import intersection_variance
from repro.theory.variance import average_k_gkmv, average_k_kmv, frequency_second_moment


def optimal_equal_allocation_total_k(
    budget: int, query_k: int, allocations: Sequence[int]
) -> tuple[float, float]:
    """Theorem 1: compare a signature allocation against equal allocation.

    Returns ``(total_k_allocation, total_k_equal)`` where the total is
    ``Σ min(k_q, k_i)`` — the quantity Theorem 1 maximises.  Equal
    allocation uses ``k_i = ⌊b / m⌋`` and the query gets the same size.
    """
    if budget < 1:
        raise ConfigurationError("budget must be >= 1")
    allocations = list(allocations)
    if not allocations or any(k <= 0 for k in allocations):
        raise ConfigurationError("allocations must be positive")
    if sum(allocations) > budget:
        raise ConfigurationError("allocations exceed the budget")
    total_given = float(sum(min(query_k, k) for k in allocations))
    equal_k = budget // len(allocations)
    total_equal = float(sum(min(equal_k, equal_k) for _ in allocations))
    return total_given, total_equal


def theorem3_alpha_bound(budget: float, num_records: int) -> float:
    """The α1 bound of Theorem 3: ``(1 + m/b) + sqrt((1 + m/b) m/b)``.

    For the common setting ``m/b <= 1`` this evaluates to at most ≈ 3.41,
    the "3.4" the paper quotes.
    """
    if budget <= 0 or num_records < 1:
        raise ConfigurationError("budget must be positive and num_records >= 1")
    ratio = num_records / budget
    return (1.0 + ratio) + math.sqrt((1.0 + ratio) * ratio)


def gkmv_beats_kmv(
    budget: float, num_records: int, frequencies: Sequence[int]
) -> tuple[float, float]:
    """Theorem 3: compare average sketch sizes ``k̄_GKMV`` vs ``k̄_KMV``.

    Larger ``k`` means lower estimator variance (Lemma 2), so G-KMV is
    better whenever the first component exceeds the second.
    """
    fn2 = frequency_second_moment(frequencies)
    return (
        average_k_gkmv(budget, num_records, fn2),
        average_k_kmv(budget, num_records),
    )


def split_universe_variance_penalty(
    intersection_sizes: tuple[float, float],
    union_sizes: tuple[float, float],
    sketch_sizes: tuple[int, int],
) -> tuple[float, float]:
    """Theorem 4: variance of a split-universe estimator vs the joint one.

    Given the per-group intersection / union sizes and per-group sketch
    sizes of a two-way split of the element universe, returns
    ``(variance_split, variance_joint)`` where the joint estimator uses
    the combined sketch size ``k = k1 + k2`` on the combined sizes.
    Theorem 4 says the first is at least the second.
    """
    d_cap_1, d_cap_2 = intersection_sizes
    d_cup_1, d_cup_2 = union_sizes
    k_1, k_2 = sketch_sizes
    if min(k_1, k_2) < 3:
        raise ConfigurationError("sketch sizes must be >= 3 for the variance formula")
    variance_split = intersection_variance(d_cap_1, d_cup_1, k_1) + intersection_variance(
        d_cap_2, d_cup_2, k_2
    )
    variance_joint = intersection_variance(
        d_cap_1 + d_cap_2, d_cup_1 + d_cup_2, k_1 + k_2
    )
    return float(variance_split), float(variance_joint)
