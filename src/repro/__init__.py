"""GB-KMV: an augmented KMV sketch for approximate containment similarity search.

A from-scratch reproduction of Yang, Zhang, Zhang & Huang (ICDE 2019).
The package is organised as:

``repro.api``
    The public entry point: the :class:`~repro.api.SimilarityIndex`
    protocol with per-backend :class:`~repro.api.Capabilities`, typed
    build configs, the string-keyed backend registry
    (:func:`~repro.api.create_index`) and self-describing snapshot
    opening (:func:`~repro.api.open_index`).
``repro.core``
    The paper's contribution: KMV, G-KMV and GB-KMV sketches, the buffer
    cost model and the :class:`~repro.core.GBKMVIndex` search index.
``repro.minhash``
    MinHash signatures and banded LSH — the substrate the MinHash
    baselines are built on.
``repro.baselines``
    LSH Ensemble (the state-of-the-art baseline), plain KMV / G-KMV
    search and asymmetric minwise hashing.
``repro.exact``
    Exact containment search (brute force, inverted index, PPjoin*-style)
    used for ground truth and the exact-method comparison.
``repro.datasets``
    Synthetic power-law dataset generators, proxies for the paper's seven
    corpora and query workload generation.
``repro.evaluation``
    Precision / recall / F_α metrics, the experiment harness, reporting.
``repro.theory``
    The paper's analytical formulas (estimator variances, theorem
    comparisons) as executable functions.

Quickstart
----------
>>> from repro.api import create_index
>>> records = [["a", "b", "c", "d"], ["a", "b"], ["c", "d", "e"]]
>>> index = create_index("gbkmv", records)
>>> [hit.record_id for hit in index.search(["a", "b", "c"], threshold=0.6)]
[0]

The historical entry points (``repro.GBKMVIndex`` and friends) remain
available and are the same objects the registry serves.
"""

from repro._errors import (
    ConfigurationError,
    DatasetFormatError,
    EmptyDatasetError,
    EstimationError,
    ReproError,
    SketchCompatibilityError,
)
from repro.core import (
    GBKMVIndex,
    GBKMVSketch,
    GKMVSketch,
    KMVSketch,
    SearchResult,
)
from repro.baselines import (
    AsymmetricMinHashIndex,
    GKMVSearchIndex,
    KMVSearchIndex,
    LSHEnsembleIndex,
)
from repro.exact import (
    BruteForceSearcher,
    FrequentSetSearcher,
    PPJoinSearcher,
    containment_similarity,
    jaccard_similarity,
)
from repro import api

__version__ = "1.0.0"

__all__ = [
    "api",
    "ReproError",
    "ConfigurationError",
    "EmptyDatasetError",
    "EstimationError",
    "SketchCompatibilityError",
    "DatasetFormatError",
    "KMVSketch",
    "GKMVSketch",
    "GBKMVSketch",
    "GBKMVIndex",
    "SearchResult",
    "LSHEnsembleIndex",
    "KMVSearchIndex",
    "GKMVSearchIndex",
    "AsymmetricMinHashIndex",
    "BruteForceSearcher",
    "FrequentSetSearcher",
    "PPJoinSearcher",
    "containment_similarity",
    "jaccard_similarity",
    "__version__",
]
