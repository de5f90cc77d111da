"""Core sketches: KMV, G-KMV and the paper's contribution GB-KMV.

The central objects are:

``KMVSketch``
    The classic k-minimum-values synopsis of Beyer et al. with the union /
    intersection estimators the paper builds on (Section II-C).
``GKMVSketch``
    A KMV sketch defined by a *global* hash-value threshold instead of a
    per-record ``k`` (Section IV-A(2)).
``FrequentElementBuffer`` and ``GBKMVSketch``
    The augmented sketch: an exact bitmap over the globally most frequent
    elements plus a G-KMV sketch over the residual elements
    (Section IV-A(3)).
``GBKMVIndex``
    Algorithm 1 (construction) and Algorithm 2 (containment similarity
    search) over a whole dataset, including the cost-model-driven choice
    of buffer size.
``ColumnarSketchStore``
    Flat columnar storage of every record's sketch state (CSR residual
    values, packed signature bitmaps, parallel size arrays) plus the
    vectorised kernels the batched query engine is built on.
``residual_intersection_estimates`` / ``KMVBatchEstimator``
    Whole-workload versions of the G-KMV and plain-KMV intersection
    estimators behind the two query engines, bitwise identical to the
    per-sketch methods.
"""

from repro.core.kmv import KMVSketch
from repro.core.gkmv import GKMVSketch
from repro.core.buffer import FrequentElementBuffer, FrequentElementVocabulary
from repro.core.gbkmv import GBKMVSketch
from repro.core.estimators import (
    IntersectionEstimate,
    estimate_containment,
    estimate_intersection,
    intersection_variance,
)
from repro.core.bulk import (
    BulkSketches,
    FingerprintCollisionError,
    FlatRecords,
    bulk_kmv_value_rows,
    bulk_sketch,
    flatten_records,
    select_vocabulary,
    slice_flat_records,
    vocabulary_lookup,
)
from repro.core.profiling import BuildProfile, BuildStage
from repro.core.cost_model import (
    BufferSizing,
    average_variance,
    choose_buffer_size,
    residual_threshold,
    residual_threshold_from_hashes,
)
from repro.core.store import ColumnarSketchStore
from repro.core.batched import KMVBatchEstimator, residual_intersection_estimates
from repro.core.index import (
    DEFAULT_ROW_BLOCK_SIZE,
    GBKMVIndex,
    IndexStatistics,
    SearchResult,
    WorkloadExecutionStats,
)

__all__ = [
    "ColumnarSketchStore",
    "KMVBatchEstimator",
    "residual_intersection_estimates",
    "IndexStatistics",
    "KMVSketch",
    "GKMVSketch",
    "FrequentElementBuffer",
    "FrequentElementVocabulary",
    "GBKMVSketch",
    "IntersectionEstimate",
    "estimate_containment",
    "estimate_intersection",
    "intersection_variance",
    "BufferSizing",
    "BuildProfile",
    "BuildStage",
    "BulkSketches",
    "FingerprintCollisionError",
    "FlatRecords",
    "average_variance",
    "bulk_kmv_value_rows",
    "bulk_sketch",
    "choose_buffer_size",
    "flatten_records",
    "residual_threshold",
    "select_vocabulary",
    "slice_flat_records",
    "residual_threshold_from_hashes",
    "vocabulary_lookup",
    "GBKMVIndex",
    "SearchResult",
    "DEFAULT_ROW_BLOCK_SIZE",
    "WorkloadExecutionStats",
]
