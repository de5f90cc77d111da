"""LSH Ensemble (LSH-E) — the state-of-the-art baseline of the paper.

LSH Ensemble (Zhu, Nargesian, Pu, Miller; VLDB 2016) answers containment
similarity search by

1. converting the containment threshold ``t*`` into a Jaccard threshold
   via Equation 13, using the *upper bound* ``u`` of record sizes in each
   partition as a stand-in for the unknown record size ``x``;
2. partitioning the dataset by record size into equal-depth partitions
   (the optimal partitioning under a power-law size distribution); and
3. indexing each partition's MinHash signatures in LSH structures whose
   ``(b, r)`` parameters are tuned per query to minimise expected false
   positives and false negatives at the transformed threshold.

The candidates retrieved from every partition are unioned and returned —
LSH-E does not verify candidates, which is why it favours recall at the
expense of precision (Section III-B).  An optional verification mode that
filters candidates with the signature-based containment estimator of
Equation 15 is provided for the ablation benchmarks.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api.config import LSHEnsembleConfig
from repro.api.interface import Capabilities, SimilarityIndex
from repro.baselines._signature_snapshot import (
    load_signature_snapshot,
    save_signature_snapshot,
)
from repro.core.index import SearchResult
from repro.core.sorting import stable_argsort
from repro.hashing import HashFamily
from repro.minhash.lsh import MinHashLSH, optimal_lsh_params
from repro.minhash.signature import MinHashSignature

#: Version tag written into LSH Ensemble snapshots.
LSHE_SNAPSHOT_VERSION = 1


def containment_to_jaccard(containment: float, record_size: float, query_size: float) -> float:
    """Equation 12/13: the Jaccard threshold equivalent to a containment threshold."""
    if query_size <= 0:
        raise ConfigurationError("query_size must be positive")
    denominator = record_size / query_size + 1.0 - containment
    if denominator <= 0:
        return 1.0
    return float(min(max(containment / denominator, 0.0), 1.0))


def jaccard_to_containment(jaccard: float, record_size: float, query_size: float) -> float:
    """Equation 12 inverted: containment from Jaccard (Equation 14 without the hat)."""
    if query_size <= 0:
        raise ConfigurationError("query_size must be positive")
    return float(
        min((record_size / query_size + 1.0) * jaccard / (1.0 + jaccard), 1.0)
    )


@dataclass(frozen=True)
class _Partition:
    """One equal-depth size partition with its LSH tables."""

    record_ids: tuple[int, ...]
    upper_bound: int
    lower_bound: int
    tables: dict[int, MinHashLSH]  # rows_per_band -> table over the partition


class LSHEnsembleIndex(SimilarityIndex):
    """LSH Ensemble index for approximate containment similarity search.

    Parameters are the defaults used in the paper's evaluation: 256 hash
    functions per signature and 32 equal-depth partitions.

    Static and persistent.  The class-level ``scored`` capability is
    false because the original LSH-E returns unscored candidate sets; an
    ensemble built with ``verify=True`` filters candidates through the
    Equation-15 estimator, scores its hits and reports ``scored=True``
    (the verification mode survives save/load).
    """

    backend_id = "lsh-ensemble"
    config_type = LSHEnsembleConfig
    capabilities = Capabilities(
        dynamic=False, batched=False, persistent=True, exact=False, scored=False
    )

    def __init__(
        self,
        num_perm: int = 256,
        num_partitions: int = 32,
        seed: int = 0,
        false_positive_weight: float = 0.5,
        false_negative_weight: float = 0.5,
        verify: bool = False,
    ) -> None:
        if num_perm < 2:
            raise ConfigurationError("num_perm must be >= 2")
        if num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        self._num_perm = int(num_perm)
        self._num_partitions = int(num_partitions)
        self._family = HashFamily(size=self._num_perm, seed=seed)
        self._fp_weight = float(false_positive_weight)
        self._fn_weight = float(false_negative_weight)
        #: Default verification mode of :meth:`search` (persisted by save).
        self._verify_default = bool(verify)
        if self._verify_default:
            # Shadows the class-level descriptor: verified ensembles score
            # their hits, so top-k is supported on them.
            self.capabilities = dataclasses.replace(self.capabilities, scored=True)
        self._signatures: list[MinHashSignature] = []
        self._record_sizes: list[int] = []
        self._partitions: list[_Partition] = []
        self._construction_seconds = 0.0
        # Rows-per-band values for which banded tables are materialised;
        # powers of two give a dense enough grid of (b, r) trade-offs.
        self._allowed_rows = [
            rows for rows in (1, 2, 4, 8, 16, 32, 64, 128) if rows <= self._num_perm
        ]
        # (threshold rounded) -> (bands, rows) memo to avoid re-optimising.
        self._param_cache: dict[tuple[int, int], tuple[int, int]] = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        num_perm: int = 256,
        num_partitions: int = 32,
        seed: int = 0,
        false_positive_weight: float = 0.5,
        false_negative_weight: float = 0.5,
        verify: bool = False,
    ) -> "LSHEnsembleIndex":
        """Build the ensemble over a dataset of records."""
        index = cls(
            num_perm=num_perm,
            num_partitions=num_partitions,
            seed=seed,
            false_positive_weight=false_positive_weight,
            false_negative_weight=false_negative_weight,
            verify=verify,
        )
        index._index_records(records)
        return index

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: LSHEnsembleConfig | None = None,
    ) -> "LSHEnsembleIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(records, **dataclasses.asdict(config))

    def _index_records(self, records: Sequence[Iterable[object]]) -> None:
        start = time.perf_counter()
        materialized = [set(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot build an LSH Ensemble over an empty dataset")
        if any(len(record) == 0 for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")

        self._signatures = [
            MinHashSignature.from_record(record, self._family) for record in materialized
        ]
        self._record_sizes = [len(record) for record in materialized]
        self._build_partitions()
        self._construction_seconds = time.perf_counter() - start

    def _build_partitions(self) -> None:
        """(Re)build the equal-depth partitions and their banded tables.

        Deterministic in the signatures and record sizes alone, which is
        what lets :meth:`load` restore an index from its persisted
        signature matrix without the original records.
        """
        order = stable_argsort(np.asarray(self._record_sizes))
        partitions_of_ids = np.array_split(order, self._num_partitions)
        partitions: list[_Partition] = []
        for chunk in partitions_of_ids:
            if chunk.size == 0:
                continue
            record_ids = tuple(int(record_id) for record_id in chunk)
            sizes = [self._record_sizes[record_id] for record_id in record_ids]
            tables: dict[int, MinHashLSH] = {}
            for rows in self._allowed_rows:
                bands = self._num_perm // rows
                table = MinHashLSH(num_bands=bands, rows_per_band=rows)
                for record_id in record_ids:
                    table.insert(record_id, self._signatures[record_id])
                tables[rows] = table
            partitions.append(
                _Partition(
                    record_ids=record_ids,
                    upper_bound=max(sizes),
                    lower_bound=min(sizes),
                    tables=tables,
                )
            )
        self._partitions = partitions

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Snapshot the ensemble to one self-describing npz file.

        The signature matrix, record sizes and build parameters
        (including the default verification mode) are everything
        :meth:`load` needs: the partitions and banded tables are a
        deterministic function of the signatures and sizes, so they are
        rebuilt rather than serialised.
        """
        save_signature_snapshot(
            path,
            backend_id=self.backend_id,
            meta_key="lshe_meta",
            version=LSHE_SNAPSHOT_VERSION,
            meta={
                "num_perm": self._num_perm,
                "num_partitions": self._num_partitions,
                "seed": self._family.seed,
                "false_positive_weight": self._fp_weight,
                "false_negative_weight": self._fn_weight,
                "verify": self._verify_default,
                "construction_seconds": self._construction_seconds,
            },
            signatures=self._signatures,
            num_perm=self._num_perm,
            record_sizes=self._record_sizes,
        )

    @classmethod
    def load(cls, path) -> "LSHEnsembleIndex":
        """Restore an ensemble saved with :meth:`save`.

        The restored index answers :meth:`search` identically: the hash
        family is rebuilt from its seed, the persisted signatures are
        re-partitioned and re-inserted, the default verification mode is
        restored, and the per-query parameter optimisation is untouched.

        Raises
        ------
        SnapshotFormatError
            If the file is not an LSH Ensemble snapshot or was written
            by an unsupported format version.
        """
        meta, signatures, record_sizes = load_signature_snapshot(
            path,
            meta_key="lshe_meta",
            version=LSHE_SNAPSHOT_VERSION,
            kind="an LSH Ensemble",
        )
        index = cls(
            num_perm=int(meta["num_perm"]),
            num_partitions=int(meta["num_partitions"]),
            seed=int(meta["seed"]),
            false_positive_weight=float(meta["false_positive_weight"]),
            false_negative_weight=float(meta["false_negative_weight"]),
            verify=bool(meta.get("verify", False)),
        )
        index._record_sizes = [int(size) for size in record_sizes]
        index._signatures = [
            MinHashSignature(
                values=signatures[row],
                record_size=index._record_sizes[row],
                family=index._family,
            )
            for row in range(signatures.shape[0])
        ]
        index._build_partitions()
        index._construction_seconds = float(meta["construction_seconds"])
        return index

    # ------------------------------------------------------------ introspection
    @property
    def num_perm(self) -> int:
        """Signature length (number of hash functions)."""
        return self._num_perm

    @property
    def num_partitions(self) -> int:
        """Number of equal-depth partitions actually created."""
        return len(self._partitions)

    @property
    def num_records(self) -> int:
        """Number of indexed records."""
        return len(self._signatures)

    @property
    def construction_seconds(self) -> float:
        """Wall-clock time spent building signatures and tables."""
        return self._construction_seconds

    @property
    def verify_default(self) -> bool:
        """Whether :meth:`search` verifies candidates by default."""
        return self._verify_default

    def space_in_values(self) -> float:
        """Space used by the signatures, in signature-value units."""
        return float(self._num_perm * self.num_records)

    def space_fraction(self) -> float:
        """Signature space as a fraction of the dataset size."""
        total_elements = sum(self._record_sizes)
        if total_elements == 0:
            return 0.0
        return self.space_in_values() / total_elements

    def partition_bounds(self) -> list[tuple[int, int]]:
        """(lower, upper) record-size bounds of each partition."""
        return [(p.lower_bound, p.upper_bound) for p in self._partitions]

    # ----------------------------------------------------------------- search
    def _params_for(self, jaccard_threshold: float) -> tuple[int, int]:
        """Optimal (bands, rows) for a Jaccard threshold, memoised.

        The threshold is rounded to two decimals before optimisation: the
        S-curve areas vary slowly, and the coarse key keeps the memo cache
        small and hot across the hundreds of (query, partition) pairs of a
        benchmark run.
        """
        snapped_threshold = round(min(max(jaccard_threshold, 0.0), 1.0), 2)
        key = (int(round(snapped_threshold * 100)), 0)
        cached = self._param_cache.get(key)
        if cached is not None:
            return cached
        bands, rows = optimal_lsh_params(
            snapped_threshold,
            self._num_perm,
            false_positive_weight=self._fp_weight,
            false_negative_weight=self._fn_weight,
            rows_candidates=self._allowed_rows,
        )
        params = (min(max(bands, 1), self._num_perm // rows), rows)
        self._param_cache[key] = params
        return params

    def query_signature(self, query: Iterable[object]) -> MinHashSignature:
        """MinHash signature of a query under the index's hash family."""
        return MinHashSignature.from_record(query, self._family)

    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
        verify: bool | None = None,
    ) -> list[SearchResult]:
        """Containment similarity search (Section III-A).

        Parameters
        ----------
        query:
            The query record ``Q``.
        threshold:
            Containment similarity threshold ``t*``.
        query_size:
            Exact query size; defaults to the number of distinct elements.
        verify:
            When True, candidates are additionally filtered by the
            signature-based containment estimator (Equation 15).  The
            original LSH-E returns raw candidates (``verify=False``).
            ``None`` (default) uses the index's build-time
            :attr:`verify_default`.

        Returns
        -------
        list[SearchResult]
            Candidate records.  Scores are the Equation-15 estimates when
            ``verify`` is on and 1.0 placeholders otherwise (LSH-E does
            not score raw candidates).
        """
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if verify is None:
            verify = self._verify_default
        query_elements = set(query)
        if not query_elements:
            raise ConfigurationError("query must contain at least one element")
        q = len(query_elements) if query_size is None else int(query_size)
        signature = self.query_signature(query_elements)

        candidates: set[int] = set()
        for partition in self._partitions:
            jaccard_threshold = containment_to_jaccard(
                threshold, record_size=partition.upper_bound, query_size=q
            )
            bands, rows = self._params_for(jaccard_threshold)
            table = partition.tables[rows]
            candidates.update(table.query(signature, max_bands=bands))

        results: list[SearchResult] = []
        for record_id in candidates:
            if verify:
                estimate = signature.containment_estimate(
                    self._signatures[record_id], query_size=q
                )
                if estimate < threshold:
                    continue
                score = estimate
            else:
                score = 1.0
            results.append(SearchResult(record_id=record_id, score=score))
        results.sort(key=lambda result: (-result.score, result.record_id))
        return results
