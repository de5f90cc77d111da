"""Built-in backend registrations.

Every search method of the library — GB-KMV, the KMV/G-KMV, LSH
Ensemble and asymmetric-MinHash baselines, the exact searchers and the
sharded fan-out — is its own :class:`~repro.api.interface.SimilarityIndex`
subclass; this module registers each under its ``backend_id``.

Imported lazily by :mod:`repro.api.registry` on first registry use, so
the :mod:`repro.api` package itself stays importable from inside the
core modules it describes.
"""

from __future__ import annotations

from repro.api.registry import register_backend
from repro.baselines.asymmetric_minhash import AsymmetricMinHashIndex
from repro.baselines.kmv_search import GKMVSearchIndex, KMVSearchIndex
from repro.baselines.lsh_ensemble import LSHEnsembleIndex
from repro.core.index import GBKMVIndex
from repro.exact.brute_force import BruteForceSearcher
from repro.exact.frequent_set import FrequentSetSearcher
from repro.exact.ppjoin import PPJoinSearcher
from repro.sharding.backend import ShardedIndex

for _backend in (
    GBKMVIndex,
    KMVSearchIndex,
    GKMVSearchIndex,
    LSHEnsembleIndex,
    AsymmetricMinHashIndex,
    BruteForceSearcher,
    FrequentSetSearcher,
    PPJoinSearcher,
    ShardedIndex,
):
    register_backend(_backend)
