"""Exact containment similarity search algorithms.

Used both as comparison points (Figure 19(b) compares GB-KMV against the
exact methods PPjoin* and FrequentSet) and as the ground-truth oracle for
every accuracy experiment.

``containment_similarity`` / ``jaccard_similarity``
    The exact set similarity functions of Definitions 1–2.

Each searcher below is a registered :class:`~repro.api.SimilarityIndex`
through the shared base :class:`~repro.exact.base.ExactSearcher`.

``BruteForceSearcher``
    Reference implementation that scans every record.
``FrequentSetSearcher``
    Inverted-index (ScanCount) searcher in the spirit of the FrequentSet
    baseline of Agrawal et al. — probes the posting list of *every* query
    element and counts overlaps.
``PPJoinSearcher``
    Prefix-filter searcher in the spirit of PPjoin*: probes only the
    query's prefix under a global infrequent-first token order and
    verifies the surviving candidates.
"""

from repro.exact.similarity import containment_similarity, jaccard_similarity, overlap_size
from repro.exact.brute_force import BruteForceSearcher
from repro.exact.frequent_set import FrequentSetSearcher
from repro.exact.ppjoin import PPJoinSearcher

__all__ = [
    "containment_similarity",
    "jaccard_similarity",
    "overlap_size",
    "BruteForceSearcher",
    "FrequentSetSearcher",
    "PPJoinSearcher",
]
