"""One summary of repeated measurements, shared by every workload.

A timing is reported as its median plus the highest whole percentile
that still has at least :data:`MIN_BEYOND` samples above it, together
with the sample count, so a tail figure is never read off two or three
outliers.  With fewer than ``MIN_BEYOND + 1`` samples no percentile
qualifies and the tail is the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Highest tail percentile ever reported (p99 once there are 1,000 samples).
MAX_TAIL_PERCENTILE = 99


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ``MIN_BEYOND`` of ``n`` samples above it.

    ``None`` when ``n`` is too small for any percentile to qualify.  With
    linear interpolation the ``p``-th percentile of ``n`` samples sits at
    rank ``p/100 * (n - 1)``, which leaves ``MIN_BEYOND`` samples above it
    while the rank is below ``n - MIN_BEYOND``.
    """
    if n <= MIN_BEYOND:
        return None
    # Integer ceiling of 100 * (n - MIN_BEYOND) / (n - 1), minus one.
    return min(MAX_TAIL_PERCENTILE, -(-100 * (n - MIN_BEYOND) // (n - 1)) - 1)


@dataclass(frozen=True)
class Summary:
    """Median, quartiles, extremes and the supported tail of one sample."""

    n: int
    median: float
    q1: float
    q3: float
    min: float
    max: float
    #: Percentile the tail was taken at, or ``None`` when ``tail`` is the max.
    tail_percentile: int | None
    tail: float


def summarize(samples: Sequence[float]) -> Summary:
    """Summarise a non-empty sample (quartiles by linear interpolation)."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarise an empty sample")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    percentile = tail_percentile(int(values.size))
    tail = values.max() if percentile is None else np.percentile(values, percentile)
    return Summary(
        n=int(values.size),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        min=float(values.min()),
        max=float(values.max()),
        tail_percentile=percentile,
        tail=float(tail),
    )
