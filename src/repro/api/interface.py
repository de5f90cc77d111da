"""The unified similarity-search index protocol.

:class:`SimilarityIndex` is the one abstract interface every search
backend in the library subclasses — the GB-KMV index, the KMV/G-KMV,
LSH Ensemble and asymmetric-MinHash baselines, the exact searchers and
the sharded fan-out, each registered by :mod:`repro.api.backends`.  The
full surface is available on every backend: where no specialised kernel
exists the base class supplies generic fallbacks (``search_many`` and
``insert_many`` loop over their singular forms, ``top_k`` ranks a
threshold-0 search), and where an operation is genuinely unsupported it
raises :class:`~repro._errors.CapabilityError` instead of an
``AttributeError``.

What a backend *really* supports is declared, not discovered: the
class-level :class:`Capabilities` descriptor says whether the backend is
dynamic (insert/delete/update), natively batched, persistent
(save/load), exact, and whether its scores are meaningful (top-k).
Harness code branches on capabilities instead of per-backend
special-casing or ``hasattr`` probing.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

from repro._errors import CapabilityError, ConfigurationError
from repro.api.config import IndexConfig
from repro.api.results import SearchResult


def positive_k(k: object) -> int:
    """``k`` of a top-k call as a positive ``int``.

    Any integer type is accepted (``operator.index``); a float such as
    ``2.5``, or a ``k`` below 1, raises
    :class:`~repro._errors.ConfigurationError`.
    """
    try:
        value = operator.index(k)
    except TypeError:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}") from None
    if value < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return value


@dataclass(frozen=True)
class Capabilities:
    """What a :class:`SimilarityIndex` backend actually supports.

    Attributes
    ----------
    dynamic:
        ``insert`` / ``insert_many`` / ``delete`` / ``update`` work under
        stable record ids.
    batched:
        ``search_many`` runs a native fused multi-query engine.  Every
        backend *answers* ``search_many`` (the base class loops
        ``search`` otherwise); this flag says whether doing so is faster
        than the loop.
    persistent:
        ``save`` / ``load`` round-trip the index through a
        self-describing snapshot that :func:`repro.api.open_index`
        restores.
    exact:
        Results are exact containment similarities, not estimates.
    scored:
        Hit scores are meaningful estimates (ordering and ``top_k`` /
        ``top_k_many`` are supported).  False for candidate-set methods
        like raw LSH Ensemble whose scores are placeholders.
    """

    dynamic: bool = False
    batched: bool = False
    persistent: bool = False
    exact: bool = False
    scored: bool = True


@dataclass(frozen=True)
class BackendStatistics:
    """Generic summary a backend reports when it has no richer one.

    Backends with native statistics (the GB-KMV index's
    :class:`~repro.core.index.IndexStatistics`) override
    :meth:`SimilarityIndex.statistics` and return theirs; every
    statistics object exposes at least ``num_records``.
    """

    backend: str
    num_records: int
    space_in_values: float
    space_fraction: float


class SimilarityIndex(ABC):
    """Abstract base class of every containment-similarity search backend.

    Concrete backends define three class attributes —
    :attr:`backend_id` (the registry key), :attr:`config_type` (the
    :class:`~repro.api.config.IndexConfig` subclass their
    :meth:`from_records` consumes) and :attr:`capabilities` — and
    implement :meth:`from_records`, :meth:`search` and
    :attr:`num_records`.  Everything else has a capability-aware default.
    """

    #: Registry key of the backend (e.g. ``"gbkmv"``).
    backend_id: ClassVar[str] = ""
    #: The :class:`IndexConfig` subclass :meth:`from_records` accepts.
    config_type: ClassVar[type[IndexConfig]] = IndexConfig
    #: Declared capabilities; defaults to a static, unscored minimum.
    capabilities: ClassVar[Capabilities] = Capabilities()

    # ------------------------------------------------------------------ build
    @classmethod
    def resolve_config(cls, config: IndexConfig | None) -> IndexConfig:
        """Default or validate a build config against :attr:`config_type`."""
        if config is None:
            return cls.config_type()
        if not isinstance(config, cls.config_type):
            raise ConfigurationError(
                f"backend {cls.backend_id!r} expects a "
                f"{cls.config_type.__name__}, got {type(config).__name__}"
            )
        return config

    @classmethod
    @abstractmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: IndexConfig | None = None,
    ) -> "SimilarityIndex":
        """Build the index over a dataset under a typed config.

        ``config=None`` builds under the backend's defaults; a config of
        the wrong type raises
        :class:`~repro._errors.ConfigurationError`.
        """

    # ---------------------------------------------------------------- search
    @abstractmethod
    def search(
        self,
        query: Iterable[object],
        threshold: float,
        query_size: int | None = None,
    ) -> list[SearchResult]:
        """Return records with (estimated) containment ``>= threshold``."""

    def search_many(
        self,
        queries: Sequence[Iterable[object]],
        threshold: float,
        query_sizes: Sequence[int] | None = None,
    ) -> list[list[SearchResult]]:
        """Answer a whole workload; identical to looping :meth:`search`.

        Backends with a fused engine (``capabilities.batched``) override
        this; the default is the per-query loop, so the uniform surface
        is complete on every backend.
        """
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        return [
            self.search(
                query,
                threshold,
                query_size=None if query_sizes is None else int(query_sizes[i]),
            )
            for i, query in enumerate(queries)
        ]

    def top_k(
        self, query: Iterable[object], k: int, query_size: int | None = None
    ) -> list[SearchResult]:
        """The ``k`` best-scoring records for one query.

        The default ranks a threshold-0 search and truncates; it may
        return fewer than ``k`` hits when the backend's threshold-0
        search does not enumerate every record.  Unscored backends raise
        :class:`~repro._errors.CapabilityError`.
        """
        if not self.capabilities.scored:
            raise self._unsupported("top_k", "does not produce meaningful scores")
        k = positive_k(k)
        hits = self.search(query, 0.0, query_size=query_size)
        # search() only promises threshold filtering, not ordering — rank
        # here so the truncation keeps the k best of any backend.
        hits.sort(key=lambda hit: (-hit.score, hit.record_id))
        return hits[:k]

    def top_k_many(
        self,
        queries: Sequence[Iterable[object]],
        k: int,
        query_sizes: Sequence[int] | None = None,
    ) -> list[list[SearchResult]]:
        """Workload variant of :meth:`top_k` (default: per-query loop)."""
        if not self.capabilities.scored:
            raise self._unsupported("top_k_many", "does not produce meaningful scores")
        k = positive_k(k)
        if query_sizes is not None and len(query_sizes) != len(queries):
            raise ConfigurationError("query_sizes must be parallel to queries")
        return [
            self.top_k(
                query,
                k,
                query_size=None if query_sizes is None else int(query_sizes[i]),
            )
            for i, query in enumerate(queries)
        ]

    # --------------------------------------------------------------- updates
    def insert(self, record: Iterable[object]) -> int:
        """Insert a record, returning its stable record id."""
        raise self._unsupported("insert", "is not dynamic")

    def insert_many(self, records: Sequence[Iterable[object]]) -> list[int]:
        """Insert a batch of records, returning their ids in batch order.

        Dynamic backends without a bulk-ingest kernel inherit this loop;
        static backends raise :class:`~repro._errors.CapabilityError`.
        """
        if not self.capabilities.dynamic:
            raise self._unsupported("insert_many", "is not dynamic")
        return [self.insert(record) for record in records]

    def delete(self, record_id: int) -> None:
        """Remove a record; later searches must not return it."""
        raise self._unsupported("delete", "is not dynamic")

    def update(self, record_id: int, record: Iterable[object]) -> int:
        """Replace a record's content in place, keeping its record id."""
        raise self._unsupported("update", "is not dynamic")

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Snapshot the index to a self-describing npz file."""
        raise self._unsupported("save", "is not persistent")

    @classmethod
    def load(cls, path) -> "SimilarityIndex":
        """Restore an index saved with :meth:`save`."""
        raise CapabilityError(
            f"backend {cls.backend_id or cls.__name__!r} is not persistent; "
            "load is unsupported"
        )

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release resources the index holds beyond plain memory.

        The default is a no-op: most backends are pure in-memory array
        structures with nothing to shut down.  Backends owning executors
        or open files (the sharded backend's fan-out pool) override this
        to release them deterministically instead of at GC time.
        ``close`` is idempotent, and a closed index remains usable for
        in-memory operations — it only gives up its auxiliary resources
        (a later call may lazily recreate them).
        """

    def __enter__(self) -> "SimilarityIndex":
        """Every index is a context manager; exit calls :meth:`close`."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------ introspection
    @property
    def next_record_id(self) -> int | None:
        """The id the next :meth:`insert` will assign, or ``None`` if unknown.

        Every dynamic backend in the library assigns record ids
        sequentially and never reuses them (the invariant the sharded
        router and the dynamic-stream harness already rely on), so the
        next id is a well-defined part of the index state.  Exposing it
        lets single-writer layers — the serving write buffer — assign
        ids to records *before* the coalesced flush reaches the index.
        The default is ``None`` (unknown); backends without sequential
        assignment must leave it that way.
        """
        return None

    @property
    @abstractmethod
    def num_records(self) -> int:
        """Number of live records indexed."""

    def __len__(self) -> int:
        return self.num_records

    def space_in_values(self) -> float:
        """Sketch space used, in signature-value units (0 when untracked)."""
        return 0.0

    def space_fraction(self) -> float:
        """Space used as a fraction of the dataset size (0 when untracked)."""
        return 0.0

    def statistics(self) -> object:
        """Summary of the built index.

        The default is a generic :class:`BackendStatistics`; backends
        with richer native statistics return those instead.  Every
        return value exposes at least ``num_records``.
        """
        return BackendStatistics(
            backend=self.backend_id,
            num_records=self.num_records,
            space_in_values=self.space_in_values(),
            space_fraction=self.space_fraction(),
        )

    # ------------------------------------------------------------------ misc
    def _unsupported(self, operation: str, why: str) -> CapabilityError:
        """A uniform :class:`CapabilityError` for a declared-unsupported op."""
        return CapabilityError(
            f"backend {self.backend_id or type(self).__name__!r} {why}; "
            f"{operation} is unsupported (see its capabilities: "
            f"{self.capabilities})"
        )
