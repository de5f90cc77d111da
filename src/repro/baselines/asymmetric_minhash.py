"""Asymmetric minwise hashing (Shrivastava & Li, WWW 2015).

The earlier padding-based approach to containment search the paper
discusses in Related Work: every record is padded with record-specific
dummy elements up to the size of the largest record, after which the
Jaccard similarity between the (unpadded) query and a padded record is a
monotone function of the true intersection size:

    J(Q, X_pad) = |Q ∩ X| / (x_max + |Q| − |Q ∩ X|)

so a containment threshold ``t*`` on ``|Q ∩ X| / |Q|`` translates into a
Jaccard threshold on the transformed sets and standard MinHash LSH
applies.  The known weakness — recall collapses when record sizes are
very skewed because padding drowns the signal — is what both LSH Ensemble
and GB-KMV improve on, and the ablation benchmark exercises exactly that.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.api.config import AsymmetricMinHashConfig
from repro.api.interface import Capabilities, SimilarityIndex
from repro.baselines._signature_snapshot import (
    load_signature_snapshot,
    save_signature_snapshot,
)
from repro.core.index import SearchResult
from repro.hashing import HashFamily
from repro.minhash.lsh import MinHashLSH, optimal_lsh_params
from repro.minhash.signature import MinHashSignature

#: Version tag written into asymmetric-MinHash snapshots.
AMH_SNAPSHOT_VERSION = 1


def padded_jaccard_threshold(
    containment_threshold: float, query_size: int, max_record_size: int
) -> float:
    """Jaccard threshold on padded sets equivalent to a containment threshold."""
    if query_size <= 0:
        raise ConfigurationError("query_size must be positive")
    overlap = containment_threshold * query_size
    denominator = max_record_size + query_size - overlap
    if denominator <= 0:
        return 1.0
    return float(min(max(overlap / denominator, 0.0), 1.0))


class AsymmetricMinHashIndex(SimilarityIndex):
    """Asymmetric minwise hashing index for containment similarity search.

    Static and persistent; unscored (LSH candidate sets with placeholder
    scores).
    """

    backend_id = "asymmetric-minhash"
    config_type = AsymmetricMinHashConfig
    capabilities = Capabilities(
        dynamic=False, batched=False, persistent=True, exact=False, scored=False
    )

    def __init__(
        self,
        num_perm: int = 256,
        seed: int = 0,
        false_positive_weight: float = 0.5,
        false_negative_weight: float = 0.5,
    ) -> None:
        if num_perm < 2:
            raise ConfigurationError("num_perm must be >= 2")
        self._num_perm = int(num_perm)
        self._family = HashFamily(size=self._num_perm, seed=seed)
        self._fp_weight = float(false_positive_weight)
        self._fn_weight = float(false_negative_weight)
        self._signatures: list[MinHashSignature] = []
        self._record_sizes: list[int] = []
        self._max_record_size = 0
        self._allowed_rows = [
            rows for rows in (1, 2, 4, 8, 16, 32, 64, 128) if rows <= self._num_perm
        ]
        self._tables: dict[int, MinHashLSH] = {}
        self._param_cache: dict[int, tuple[int, int]] = {}

    @classmethod
    def build(
        cls,
        records: Sequence[Iterable[object]],
        num_perm: int = 256,
        seed: int = 0,
    ) -> "AsymmetricMinHashIndex":
        """Pad records to the maximum size and index their MinHash signatures."""
        index = cls(num_perm=num_perm, seed=seed)
        index._index_records(records)
        return index

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: AsymmetricMinHashConfig | None = None,
    ) -> "AsymmetricMinHashIndex":
        """:mod:`repro.api` entry point: :meth:`build` under a typed config."""
        config = cls.resolve_config(config)
        return cls.build(records, **dataclasses.asdict(config))

    def _pad(self, record: set, record_id: int) -> set:
        """Pad a record with record-specific dummy elements up to the max size."""
        padded = set(record)
        needed = self._max_record_size - len(record)
        for i in range(needed):
            padded.add(f"__pad__{record_id}__{i}")
        return padded

    def _index_records(self, records: Sequence[Iterable[object]]) -> None:
        materialized = [set(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot index an empty dataset")
        if any(len(record) == 0 for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")
        self._record_sizes = [len(record) for record in materialized]
        self._max_record_size = max(self._record_sizes)
        self._signatures = [
            MinHashSignature.from_record(self._pad(record, record_id), self._family)
            for record_id, record in enumerate(materialized)
        ]
        self._build_tables()

    def _build_tables(self) -> None:
        """(Re)build the banded tables from the padded signatures alone."""
        self._tables = {}
        for rows in self._allowed_rows:
            bands = self._num_perm // rows
            table = MinHashLSH(num_bands=bands, rows_per_band=rows)
            for record_id, signature in enumerate(self._signatures):
                table.insert(record_id, signature)
            self._tables[rows] = table

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Snapshot the index to one self-describing npz file.

        The padded-record signatures already encode the asymmetric
        padding, so the snapshot holds only the signature matrix, the
        record sizes, the padded-to maximum and the build parameters;
        :meth:`load` rebuilds the banded tables deterministically.
        """
        save_signature_snapshot(
            path,
            backend_id=self.backend_id,
            meta_key="amh_meta",
            version=AMH_SNAPSHOT_VERSION,
            meta={
                "num_perm": self._num_perm,
                "seed": self._family.seed,
                "false_positive_weight": self._fp_weight,
                "false_negative_weight": self._fn_weight,
                "max_record_size": self._max_record_size,
            },
            signatures=self._signatures,
            num_perm=self._num_perm,
            record_sizes=self._record_sizes,
        )

    @classmethod
    def load(cls, path) -> "AsymmetricMinHashIndex":
        """Restore an index saved with :meth:`save` (identical candidates).

        Raises
        ------
        SnapshotFormatError
            If the file is not an asymmetric-MinHash snapshot or was
            written by an unsupported format version.
        """
        meta, signatures, record_sizes = load_signature_snapshot(
            path,
            meta_key="amh_meta",
            version=AMH_SNAPSHOT_VERSION,
            kind="an asymmetric-MinHash",
        )
        index = cls(
            num_perm=int(meta["num_perm"]),
            seed=int(meta["seed"]),
            false_positive_weight=float(meta["false_positive_weight"]),
            false_negative_weight=float(meta["false_negative_weight"]),
        )
        index._record_sizes = [int(size) for size in record_sizes]
        index._max_record_size = int(meta["max_record_size"])
        index._signatures = [
            MinHashSignature(
                values=signatures[row],
                record_size=max(index._max_record_size, 1),
                family=index._family,
            )
            for row in range(signatures.shape[0])
        ]
        index._build_tables()
        return index

    # ------------------------------------------------------------ introspection
    @property
    def num_records(self) -> int:
        """Number of indexed records."""
        return len(self._signatures)

    @property
    def max_record_size(self) -> int:
        """Size every record was padded up to."""
        return self._max_record_size

    def space_in_values(self) -> float:
        """Space used by the signatures, in signature-value units."""
        return float(self._num_perm * self.num_records)

    def space_fraction(self) -> float:
        """Signature space as a fraction of the dataset size."""
        total = sum(self._record_sizes)
        return self.space_in_values() / total if total else 0.0

    # ----------------------------------------------------------------- search
    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Containment similarity search via padded-Jaccard MinHash LSH."""
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        query_elements = set(query)
        if not query_elements:
            raise ConfigurationError("query must contain at least one element")
        q = len(query_elements) if query_size is None else int(query_size)
        signature = MinHashSignature.from_record(query_elements, self._family)

        jaccard_threshold = round(
            padded_jaccard_threshold(threshold, q, self._max_record_size), 2
        )
        key = int(round(jaccard_threshold * 100))
        params = self._param_cache.get(key)
        if params is None:
            bands, rows = optimal_lsh_params(
                jaccard_threshold,
                self._num_perm,
                false_positive_weight=self._fp_weight,
                false_negative_weight=self._fn_weight,
                rows_candidates=self._allowed_rows,
            )
            params = (min(max(bands, 1), self._num_perm // rows), rows)
            self._param_cache[key] = params
        bands, rows = params
        candidates = self._tables[rows].query(signature, max_bands=bands)
        results = [
            SearchResult(record_id=int(record_id), score=1.0)
            for record_id in candidates
        ]
        results.sort(key=lambda result: result.record_id)
        return results
