"""The public entry point of the library: one protocol, many backends.

Every search method in the reproduction — the paper's GB-KMV index, the
KMV/G-KMV baselines, LSH Ensemble, asymmetric MinHash and the exact
searchers — is served through one capability-aware interface::

    from repro.api import GBKMVConfig, available_backends, create_index, open_index

    index = create_index("gbkmv", records, GBKMVConfig(space_fraction=0.10))
    hits = index.search(query, threshold=0.5)
    workload_hits = index.search_many(queries, threshold=0.5)

    if index.capabilities.dynamic:
        index.insert_many(new_records)
    if index.capabilities.persistent:
        index.save("index.npz")
        restored = open_index("index.npz")   # backend id read from the snapshot

    available_backends()
    # ('asymmetric-minhash', 'brute-force', 'frequent-set', 'gbkmv',
    #  'gkmv', 'kmv', 'lsh-ensemble', 'ppjoin', 'sharded')

The pieces:

:class:`SimilarityIndex` / :class:`Capabilities`
    The abstract index protocol and the per-backend capability
    descriptor (dynamic? batched? persistent? exact? scored?).
:class:`IndexConfig` and its subclasses
    Typed build configurations replacing the historical keyword
    constructors.
:func:`create_index` / :func:`available_backends` / :func:`register_backend`
    The string-keyed backend registry; third-party backends register a
    ``SimilarityIndex`` subclass and become first-class citizens.
:func:`open_index`
    Restores any saved index from its self-describing snapshot.

The historical entry points (``repro.GBKMVIndex.build(...)`` and
friends) keep working — every search class *is* its registered
backend — but new code should come in through this module.  A curated
set of dataset and evaluation helpers is re-exported so typical
programs need no other import.
"""

from repro._errors import (
    CapabilityError,
    ConfigurationError,
    SnapshotFormatError,
    UnknownBackendError,
)
from repro.api.config import (
    AsymmetricMinHashConfig,
    ExactSearchConfig,
    GBKMVConfig,
    GKMVConfig,
    IndexConfig,
    KMVConfig,
    LSHEnsembleConfig,
    ServingConfig,
    ShardedConfig,
)
from repro.api.interface import BackendStatistics, Capabilities, SimilarityIndex
from repro.api.registry import (
    available_backends,
    create_index,
    get_backend,
    open_index,
    register_backend,
)
from repro.api.results import SearchResult

#: Names resolved lazily (PEP 562) from the dataset / evaluation / exact
#: layers, so importing :mod:`repro.api` from inside those layers stays
#: cycle-free.
_LAZY_EXPORTS = {
    "containment_similarity": "repro.exact",
    "jaccard_similarity": "repro.exact",
    "evaluate_search_method": "repro.evaluation",
    "exact_result_sets": "repro.evaluation",
    "generate_zipf_dataset": "repro.datasets",
    "load_proxy": "repro.datasets",
    "sample_queries": "repro.datasets",
    "SimilarityService": "repro.serving",
    "run_closed_loop": "repro.serving",
    "run_load": "repro.serving",
}

__all__ = [
    # protocol
    "SimilarityIndex",
    "Capabilities",
    "BackendStatistics",
    "SearchResult",
    # configs
    "IndexConfig",
    "GBKMVConfig",
    "KMVConfig",
    "GKMVConfig",
    "LSHEnsembleConfig",
    "AsymmetricMinHashConfig",
    "ExactSearchConfig",
    "ShardedConfig",
    "ServingConfig",
    # registry
    "create_index",
    "open_index",
    "available_backends",
    "get_backend",
    "register_backend",
    # errors
    "CapabilityError",
    "ConfigurationError",
    "SnapshotFormatError",
    "UnknownBackendError",
    # convenience re-exports
    "containment_similarity",
    "jaccard_similarity",
    "evaluate_search_method",
    "exact_result_sets",
    "generate_zipf_dataset",
    "load_proxy",
    "sample_queries",
    # serving layer (lazy: repro.serving)
    "SimilarityService",
    "run_closed_loop",
    "run_load",
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
