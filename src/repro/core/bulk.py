"""Whole-dataset vectorised sketch construction (the bulk build pipeline).

Algorithm 1 used to run record-at-a-time through Python: one ``set`` per
record, a ``Counter`` loop for element frequencies, one ``hash_many`` +
``np.unique`` call per record, and one store append per row.  At ~20k
records/s that made construction three orders of magnitude slower than
the fused query engine it feeds.

This module replaces the per-record inner loops with whole-dataset array
passes:

* :func:`flatten_records` flattens the dataset into one CSR pair (record
  offsets + flat element column), fingerprints every element with a
  single :func:`~repro.hashing.fingerprint_many` pass, and derives the
  distinct-element universe — fingerprints, first-occurrence
  representatives, per-occurrence inverse and frequencies.  On the
  integer fast path a stable argsort of the fingerprint column yields
  *both* the per-record dedup and the unique universe, and one sort of
  packed (record, unique rank) keys lays the survivors out in CSR order
  (:func:`_flatten_integer`); the generic path keeps ``np.unique`` over
  the fingerprint column.  The per-unique ``counts`` column is exactly
  the ``Counter`` the old build looped for (each record's elements are
  distinct, so occurrences equal containing records).
* :func:`slice_flat_records` carves a per-record subset out of an
  already-flattened dataset — CSR gathers only, no re-hashing and no
  second frequency pass — which is how the sharded planner hands every
  shard its records after flattening the dataset exactly once.
* :func:`bulk_sketch` turns a flattened dataset into the flat sketch
  columns a :class:`~repro.core.store.ColumnarSketchStore` ingests in one
  :meth:`~repro.core.store.ColumnarSketchStore.append_bulk` call: the
  vocabulary buffer/residual split is one ``searchsorted`` membership
  lookup over fingerprints, signature bitmaps are packed for all records
  at once (segment-OR via ``bitwise_or.reduceat``), every unique
  fingerprint is hashed exactly once, and each record's kept residual
  hashes are selected with one global (record, value) sort +
  segment-boundary reduction — no per-record ``np.unique``.

Every whole-column stable sort of construction — here, in the
cost model's threshold and in the store's join index — runs through
:func:`~repro.core.sorting.stable_argsort` or its multi-key form
:func:`~repro.core.sorting.stable_lexsort`, which pack keys and
positions into uint64 and let numpy's vectorised value sort order
them; ``np.argsort(kind="stable")`` on 64-bit keys is a comparison sort
many times slower.

The pipeline is *bitwise identical* to the per-record path (same sets,
same hashes, same dedup, same packing) under the paper's standing
assumption that fingerprints are collision-free.  Where a collision
between *distinct* elements (e.g. ``"a"`` and ``b"a"``, which share an
FNV fold by construction) would break that identity:

* a collision *inside an existing vocabulary* is detected up front —
  :func:`vocabulary_lookup` raises :class:`FingerprintCollisionError`,
  and the pinned-parameter ingest paths (``from_parameters``,
  ``insert_many``) fall back to the exact per-record split;
* a collision *between dataset elements* during ``build`` merges the
  pair's frequency counts before the vocabulary is chosen, which can
  select a different vocabulary than the ``Counter`` path would.
  Detecting that case would require comparing elements across every
  occurrence of a hot fingerprint — the Python-level pass this module
  exists to remove — so it is documented as out of contract instead;
  ``method="per-record"`` remains available for data that mixes
  equal-content ``str`` and ``bytes`` elements.

Records that mix ``True`` with ``1`` (or ``False`` with ``0``) are out of
contract for the same reason: Python counts them as one element, but the
bulk path keeps the integer while the per-record path may keep the
``bool``, and the two ``repr`` differently in the vocabulary's tie-break.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ConfigurationError, EmptyDatasetError
from repro.core.buffer import FrequentElementVocabulary
from repro.core.profiling import BuildProfile
from repro.core.sorting import stable_argsort, stable_lexsort
from repro.core.store import BITS_PER_WORD
from repro.hashing import UnitHash, fingerprint_many


def resolve_space_budget(
    total_elements: int, space_fraction: float, space_budget: float | None
) -> float:
    """The absolute space budget ``b`` from either specification.

    Shared construction policy of every builder (GB-KMV and the KMV /
    G-KMV baselines): an explicit ``space_budget`` wins, otherwise the
    budget is ``space_fraction`` of the dataset's total distinct-element
    volume — the measure the paper's evaluation uses throughout.
    """
    if space_budget is None:
        if not 0.0 < space_fraction <= 1.0:
            raise ConfigurationError("space_fraction must be in (0, 1]")
        return space_fraction * total_elements
    if space_budget <= 0:
        raise ConfigurationError("space_budget must be positive")
    return float(space_budget)


class FingerprintCollisionError(ConfigurationError):
    """Two distinct vocabulary elements share a 64-bit fingerprint.

    The bulk pipeline resolves vocabulary membership by fingerprint; a
    collision *within the vocabulary* would make that lookup ambiguous,
    so it is detected and reported instead of silently mis-splitting.
    Callers fall back to the per-record ``split_record`` path.
    """


@dataclass(frozen=True)
class FlatRecords:
    """A dataset flattened to CSR form with a parallel fingerprint column.

    ``elements[offsets[i]:offsets[i + 1]]`` are record ``i``'s *distinct*
    elements (Python ``set`` semantics, exactly what the per-record path
    materialises); ``fingerprints`` is parallel to ``elements``.  The
    unique-universe view (``unique_fingerprints`` sorted ascending,
    ``first_occurrence`` indices into ``elements``, per-occurrence
    ``inverse``, per-unique ``counts``) equals ``np.unique`` over the
    fingerprint column.

    ``elements`` is a Python list on the generic path and an integer
    ndarray on the dtype-aware fast path; use :meth:`element_at` /
    :meth:`record_elements` / :meth:`representatives` to get native
    Python elements either way (the within-record element *order* may
    differ between the two paths — the fast path sorts by value — but
    every downstream consumer reduces over records, so the resulting
    sketches are identical).
    """

    offsets: np.ndarray
    elements: list | np.ndarray
    fingerprints: np.ndarray
    unique_fingerprints: np.ndarray
    first_occurrence: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    @property
    def num_records(self) -> int:
        """Number of records in the flattened dataset."""
        return self.offsets.size - 1

    @property
    def record_sizes(self) -> np.ndarray:
        """Distinct-element count of every record."""
        return np.diff(self.offsets)

    @property
    def total_elements(self) -> int:
        """Total distinct-per-record element occurrences."""
        return int(self.offsets[-1])

    def record_elements(self, position: int) -> list:
        """The distinct elements of one record (a slice of the flat column)."""
        start, stop = self.offsets[position], self.offsets[position + 1]
        piece = self.elements[start:stop]
        return piece.tolist() if isinstance(piece, np.ndarray) else piece

    def element_at(self, index: int) -> object:
        """One flat-column element as a native Python object.

        The fast integer path stores ``elements`` as an ndarray of numpy
        scalars; the vocabulary :func:`select_vocabulary` builds from
        these holds the plain Python ints the generic path would.
        """
        element = self.elements[index]
        return element.item() if isinstance(element, np.generic) else element

    def representatives(self) -> list:
        """One representative element per unique fingerprint.

        The first occurrence in flat order; with collision-free
        fingerprints this is *the* element, so frequency tables built on
        ``zip(representatives(), counts)`` match the per-record
        ``Counter`` exactly.
        """
        if isinstance(self.elements, np.ndarray):
            return self.elements[self.first_occurrence].tolist()
        return [self.elements[index] for index in self.first_occurrence.tolist()]


def _integer_occurrences(
    records: Sequence[Iterable[object]],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Raw occurrence column + per-record lengths for integer datasets.

    The precondition of the dtype-aware dedup fast path: every record
    must be losslessly representable as one flat bool/int ndarray.  The
    concatenated dtype decides it, mirroring
    :func:`~repro.hashing.fingerprint_many` — mixed types, strings, ints
    outside 64 bits, unsized or multi-dimensional records, and mixed
    signed/unsigned 64-bit arrays (which promote to float64, not
    losslessly) all return ``None``, sending the caller to the generic
    per-record ``set()`` path.
    """
    num_records = len(records)
    try:
        lengths = np.fromiter(map(len, records), dtype=np.int64, count=num_records)
        if all(isinstance(record, np.ndarray) for record in records):
            flat = np.concatenate(records) if num_records > 1 else records[0]
        else:
            probe = next(
                (
                    record[0]
                    for record in records
                    if isinstance(record, (list, tuple)) and len(record)
                ),
                None,
            )
            if not isinstance(probe, (bool, int, np.integer)):
                return None
            flat = np.asarray(list(chain.from_iterable(records)))
    except (TypeError, ValueError, OverflowError):
        return None
    if flat.ndim != 1 or flat.dtype.kind not in "bui":
        return None
    return np.ascontiguousarray(flat), lengths


def _first_occurrences(inverse: np.ndarray, num_unique: int) -> np.ndarray:
    """First flat-column position of each unique fingerprint.

    A reverse scatter over the inverse column: later writes win, so
    writing positions in descending order leaves each unique its
    smallest occurrence index (``np.unique(return_index=True)`` would
    force a stable merge argsort to get the same answer).
    """
    first = np.empty(num_unique, dtype=np.int64)
    positions = np.arange(inverse.size - 1, -1, -1, dtype=np.int64)
    first[inverse[positions]] = positions
    return first


def _flatten_integer(
    flat_values: np.ndarray, raw_lengths: np.ndarray, num_records: int
) -> FlatRecords:
    """The integer fast path: two packed-key sorts, no Python ``set``.

    Integer elements fingerprint as their two's-complement uint64 bit
    pattern — exactly element_fingerprint's ``& MAX_UINT64`` — and the
    universe is ordered in that domain (signed order would disagree for
    negative values).

    1. A stable argsort of the raw fingerprint column
       (:func:`~repro.core.sorting.stable_argsort`) orders occurrences by
       (fingerprint, record), because record ids are non-decreasing in
       flat order.  Segment boundaries on the fingerprint delimit the
       unique universe (ascending, with ``bincount`` frequencies);
       boundaries on either key delimit the per-record distinct
       survivors.
    2. Each survivor is a distinct (record, unique rank) pair.  Sorting
       the pairs packed into one uint64 lays them out in CSR order, each
       record's elements by ascending fingerprint, and the low bits are
       the ``inverse`` column.  The fingerprints are a gather from the
       universe, and the elements are their casts back to the column's
       dtype (the uint64 cast is injective on one integer dtype).

    Bitwise identical universe, counts and inverse to the ``np.unique``
    pipeline.
    """
    if not raw_lengths.all():
        raise ConfigurationError("records must be non-empty sets of elements")
    record_of = np.repeat(np.arange(num_records, dtype=np.int64), raw_lengths)
    flat_fingerprints = flat_values.astype(np.uint64)
    order = stable_argsort(flat_fingerprints)
    sorted_records = record_of[order]
    sorted_fingerprints = flat_fingerprints[order]
    new_value = np.empty(sorted_fingerprints.size, dtype=bool)
    new_value[0] = True
    new_value[1:] = sorted_fingerprints[1:] != sorted_fingerprints[:-1]
    keep = np.empty(sorted_fingerprints.size, dtype=bool)
    keep[0] = True
    keep[1:] = new_value[1:] | (sorted_records[1:] != sorted_records[:-1])
    unique = sorted_fingerprints[new_value]
    kept_records = sorted_records[keep]
    group_of = np.cumsum(new_value[keep], dtype=np.int64) - 1
    counts = np.bincount(group_of)
    rank_bits = (unique.size - 1).bit_length()
    if (num_records - 1).bit_length() + rank_bits > 64:
        raise ConfigurationError(
            "too many records and distinct elements to pack into 64-bit keys"
        )
    csr_keys = kept_records.view(np.uint64) << rank_bits
    csr_keys |= group_of.view(np.uint64)
    csr_keys.sort()
    csr_keys &= np.uint64((1 << rank_bits) - 1)
    inverse = csr_keys.view(np.int64)
    sizes = np.bincount(kept_records, minlength=num_records)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
    )
    fingerprints = unique[inverse]
    return FlatRecords(
        offsets=offsets,
        elements=fingerprints.astype(flat_values.dtype),
        fingerprints=fingerprints,
        unique_fingerprints=unique,
        first_occurrence=_first_occurrences(inverse, unique.size),
        inverse=inverse,
        counts=counts,
    )


def flatten_records(
    records: Sequence[Iterable[object]], profile: BuildProfile | None = None
) -> FlatRecords:
    """Flatten a dataset into CSR form and fingerprint it in one pass.

    Per-record deduplication uses Python ``set`` semantics (the same
    dedup the per-record path applies).  Integer datasets take a
    dtype-aware fast path: the raw occurrences become one flat array, a
    stable argsort of its fingerprints produces the per-record dedup
    *and* the unique universe, and a packed-key sort restores CSR order
    (:func:`_flatten_integer`) — no Python ``set`` per record and no
    second sort inside ``np.unique``.  Every other element
    type keeps the per-record loop plus ``np.unique``; both paths
    produce the same distinct-element multiset and the same universe, so
    downstream sketches are identical.

    ``profile`` records the pass as one ``"flatten"`` stage.

    Raises
    ------
    EmptyDatasetError
        If ``records`` is empty.
    ConfigurationError
        If any record is empty.
    """
    num_records = len(records)
    if num_records == 0:
        raise EmptyDatasetError("cannot build an index over an empty dataset")
    start = time.perf_counter()
    occurrences = _integer_occurrences(records)
    if occurrences is not None:
        flat_values, raw_lengths = occurrences
        result = _flatten_integer(flat_values, raw_lengths, num_records)
    else:
        flat: list = []
        sizes = np.empty(num_records, dtype=np.int64)
        for position, record in enumerate(records):
            distinct = set(record)
            if not distinct:
                raise ConfigurationError(
                    "records must be non-empty sets of elements"
                )
            sizes[position] = len(distinct)
            flat.extend(distinct)
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
        )
        fingerprints = fingerprint_many(flat)
        unique, inverse, counts = np.unique(
            fingerprints, return_inverse=True, return_counts=True
        )
        inverse = np.ascontiguousarray(inverse, dtype=np.int64)
        result = FlatRecords(
            offsets=offsets,
            elements=flat,
            fingerprints=fingerprints,
            unique_fingerprints=unique,
            first_occurrence=_first_occurrences(inverse, unique.size),
            inverse=inverse,
            counts=counts.astype(np.int64, copy=False),
        )
    if profile is not None:
        profile.record(
            "flatten",
            time.perf_counter() - start,
            rows=num_records,
            nbytes=result.fingerprints.nbytes
            + result.inverse.nbytes
            + result.unique_fingerprints.nbytes,
        )
    return result


def slice_flat_records(flat: FlatRecords, positions: np.ndarray) -> FlatRecords:
    """A per-record subset of a flattened dataset, without re-flattening.

    ``positions`` selects records of ``flat`` (in the order given); the
    result is a :class:`FlatRecords` over exactly those records whose
    per-occurrence columns (``elements``, ``fingerprints``, ``inverse``)
    are CSR gathers of the parent's — no re-hashing, no second frequency
    pass.  The unique-universe columns are **shared with the parent**:
    ``unique_fingerprints`` / ``counts`` stay the *global* universe and
    ``inverse`` keeps indexing it, which is precisely what the
    pinned-parameter sketch kernels (:func:`bulk_sketch`,
    :func:`bulk_kmv_value_rows` with their ``unique_hashes`` argument)
    consume — a sharded build hashes the universe once and every shard
    gathers from it.

    Because the universe is the parent's, ``first_occurrence`` also
    still indexes the *parent's* flat column: do not call
    :meth:`FlatRecords.representatives` or :func:`select_vocabulary` on
    a slice — parameters are planned on the full dataset before slicing.
    """
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    lengths = flat.record_sizes[positions]
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)]
    )
    starts = np.asarray(flat.offsets)[positions]
    gather = np.arange(int(offsets[-1]), dtype=np.int64) + np.repeat(
        starts - offsets[:-1], lengths
    )
    if isinstance(flat.elements, np.ndarray):
        elements = flat.elements[gather]
    else:
        elements = [flat.elements[index] for index in gather.tolist()]
    return FlatRecords(
        offsets=offsets,
        elements=elements,
        fingerprints=flat.fingerprints[gather],
        unique_fingerprints=flat.unique_fingerprints,
        first_occurrence=flat.first_occurrence,
        inverse=flat.inverse[gather],
        counts=flat.counts,
    )


def select_vocabulary(
    flat: FlatRecords, size: int, profile: BuildProfile | None = None
) -> FrequentElementVocabulary:
    """Top-``size`` frequent-element vocabulary straight from the flat counts.

    Exactly what ``FrequentElementVocabulary.from_frequencies`` selects
    from the per-record ``Counter`` — a count cutoff from one numpy
    partition over :attr:`FlatRecords.counts` narrows the universe to
    the handful of elements that can place, and the actual ranking (and
    its ``(-count, repr)`` tie-break) is delegated to
    ``from_frequencies`` over that subset, so the two build paths share
    one selection authority.

    ``profile`` records the pass as one ``"vocabulary"`` stage.
    """
    if size < 0:
        raise ConfigurationError("vocabulary size must be non-negative")
    start = time.perf_counter()
    counts = flat.counts
    num_unique = int(counts.size)
    if size == 0:
        vocabulary = FrequentElementVocabulary([])
    else:
        if size < num_unique:
            cutoff = np.partition(counts, num_unique - size)[num_unique - size]
            qualifying = np.nonzero(counts >= cutoff)[0]
        else:
            qualifying = np.arange(num_unique)
        frequencies = {
            flat.element_at(int(flat.first_occurrence[position])): int(
                counts[position]
            )
            for position in qualifying.tolist()
        }
        vocabulary = FrequentElementVocabulary.from_frequencies(frequencies, size)
    if profile is not None:
        profile.record(
            "vocabulary", time.perf_counter() - start, rows=num_unique
        )
    return vocabulary


@dataclass(frozen=True)
class VocabularyLookup:
    """The vocabulary's fingerprints, sorted, with parallel bit positions."""

    sorted_fingerprints: np.ndarray
    bit_positions: np.ndarray

    @property
    def size(self) -> int:
        return int(self.sorted_fingerprints.size)

    def member_mask(self, fingerprints: np.ndarray) -> np.ndarray:
        """Boolean vocabulary membership of each fingerprint (one searchsorted)."""
        if self.size == 0 or fingerprints.size == 0:
            return np.zeros(fingerprints.size, dtype=bool)
        slots = np.searchsorted(self.sorted_fingerprints, fingerprints)
        slots = np.minimum(slots, self.size - 1)
        return self.sorted_fingerprints[slots] == fingerprints

    def positions_of(self, fingerprints: np.ndarray) -> np.ndarray:
        """Bit positions of fingerprints known to be vocabulary members."""
        slots = np.searchsorted(self.sorted_fingerprints, fingerprints)
        return self.bit_positions[slots]


def vocabulary_lookup(vocabulary: FrequentElementVocabulary) -> VocabularyLookup:
    """Build the fingerprint-indexed view of a vocabulary.

    Raises
    ------
    FingerprintCollisionError
        If two distinct vocabulary elements share a fingerprint (lookup
        by fingerprint would be ambiguous).
    """
    fingerprints = fingerprint_many(list(vocabulary.elements))
    order = stable_argsort(fingerprints)
    sorted_fingerprints = fingerprints[order]
    if sorted_fingerprints.size > 1 and np.any(
        sorted_fingerprints[1:] == sorted_fingerprints[:-1]
    ):
        raise FingerprintCollisionError(
            "two distinct vocabulary elements share a 64-bit fingerprint; "
            "bulk vocabulary lookup is ambiguous"
        )
    return VocabularyLookup(
        sorted_fingerprints=sorted_fingerprints,
        bit_positions=order.astype(np.int64, copy=False),
    )


@dataclass(frozen=True)
class BulkSketches:
    """Flat sketch columns for a batch of records, ready for bulk append.

    Exactly the per-row state ``GBKMVIndex._sketch_parts`` produces, as
    arrays: ``values[value_offsets[i]:value_offsets[i + 1]]`` are record
    ``i``'s kept residual hashes (sorted ascending, distinct),
    ``signatures`` is the packed ``(n, num_words)`` uint64 bitmap matrix,
    and the two size columns mirror the store's.
    """

    values: np.ndarray
    value_offsets: np.ndarray
    signatures: np.ndarray
    residual_record_sizes: np.ndarray
    record_sizes: np.ndarray

    @property
    def num_records(self) -> int:
        return int(self.record_sizes.size)

    @property
    def value_lengths(self) -> np.ndarray:
        """Kept residual values per record."""
        return np.diff(self.value_offsets)


def pack_signatures_bulk(
    record_index: np.ndarray,
    bit_positions: np.ndarray,
    num_records: int,
    num_words: int,
) -> np.ndarray:
    """Pack all records' signature bitmaps at once.

    ``(record_index[i], bit_positions[i])`` lists every set bit.  Bits
    are grouped by their destination word with one argsort and OR-reduced
    per segment (``bitwise_or.reduceat``), then scattered into the
    ``(num_records, num_words)`` matrix — bit-identical to packing each
    record's Python-integer mask through ``mask_to_words``.
    """
    signatures = np.zeros((num_records, num_words), dtype=np.uint64)
    if record_index.size == 0 or num_words == 0:
        return signatures
    word_keys = record_index * num_words + (bit_positions // BITS_PER_WORD)
    bits = np.uint64(1) << (bit_positions % BITS_PER_WORD).astype(np.uint64)
    order = stable_argsort(word_keys)
    word_keys = word_keys[order]
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.nonzero(word_keys[1:] != word_keys[:-1])[0] + 1]
    )
    signatures.reshape(-1)[word_keys[starts]] = np.bitwise_or.reduceat(
        bits[order], starts
    )
    return signatures


def _sorted_distinct_per_record(
    records: np.ndarray, values: np.ndarray, num_records: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-record sorted distinct values from flat (record, value) pairs.

    One stable lexsort orders the pairs by record then value; a
    segment-boundary reduction drops equal values within a record (hash
    collisions) — exactly what a per-record ``np.unique`` produces, as a
    single pass.  The one home of this selection for both the GB-KMV
    residual pipeline and the plain-KMV builder, so their dedup
    semantics cannot drift apart.  Returns ``(values, lengths,
    offsets)``: the surviving values in (record, value) order, the
    per-record survivor counts, and their CSR offsets.
    """
    order = stable_lexsort((values, records))
    records = records[order]
    values = values[order]
    if values.size:
        first_of_group = np.empty(values.size, dtype=bool)
        first_of_group[0] = True
        first_of_group[1:] = (records[1:] != records[:-1]) | (
            values[1:] != values[:-1]
        )
        records = records[first_of_group]
        values = values[first_of_group]
    lengths = np.bincount(records, minlength=num_records)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)]
    )
    return values, lengths, offsets


def bulk_sketch(
    flat: FlatRecords,
    lookup: VocabularyLookup,
    threshold: float,
    hasher: UnitHash,
    num_words: int,
    unique_hashes: np.ndarray | None = None,
    profile: BuildProfile | None = None,
) -> BulkSketches:
    """Sketch a flattened dataset under pinned parameters, all at once.

    One membership lookup splits every occurrence into buffer vs
    residual, every *unique* fingerprint is hashed exactly once (the
    per-record path re-hashes each occurrence), and the per-record
    sorted-distinct-kept selection is a single (record, value) sort of
    the kept occurrences with a segment-boundary dedup — the result is bitwise
    identical to running ``_sketch_parts`` record by record.

    ``unique_hashes`` lets a caller that already hashed
    ``flat.unique_fingerprints`` (the build path hashes the residual
    universe for the threshold computation) hand the full array in and
    skip the redundant hashing pass.  ``profile`` records the pass as
    one ``"sketch"`` stage (per-shard recordings sum to dataset size).
    """
    start = time.perf_counter()
    num_records = flat.num_records
    record_of = np.repeat(
        np.arange(num_records, dtype=np.int64), flat.record_sizes
    )
    in_vocab = lookup.member_mask(flat.fingerprints)

    signatures = pack_signatures_bulk(
        record_of[in_vocab],
        lookup.positions_of(flat.fingerprints[in_vocab]),
        num_records,
        num_words,
    )

    residual_mask = ~in_vocab
    residual_records = record_of[residual_mask]
    residual_record_sizes = np.bincount(residual_records, minlength=num_records)

    # Hash each unique fingerprint once; occurrences gather by inverse.
    if unique_hashes is None:
        unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)
    occurrence_hashes = unique_hashes[flat.inverse[residual_mask]]
    kept = occurrence_hashes <= threshold
    kept_values, _value_lengths, value_offsets = _sorted_distinct_per_record(
        residual_records[kept], occurrence_hashes[kept], num_records
    )
    sketches = BulkSketches(
        values=kept_values,
        value_offsets=value_offsets,
        signatures=signatures,
        residual_record_sizes=residual_record_sizes.astype(np.int64, copy=False),
        record_sizes=flat.record_sizes.astype(np.int64, copy=False),
    )
    if profile is not None:
        profile.record(
            "sketch",
            time.perf_counter() - start,
            rows=num_records,
            nbytes=sketches.values.nbytes + sketches.signatures.nbytes,
        )
    return sketches


def bulk_kmv_value_rows(
    flat: FlatRecords,
    hasher: UnitHash,
    k_per_record: int,
    unique_hashes: np.ndarray | None = None,
    profile: BuildProfile | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each record's ``k`` smallest distinct hash values, selected in bulk.

    The plain-KMV counterpart of :func:`bulk_sketch`: hash every unique
    fingerprint once, sort the occurrences by (record, value), dedup
    equal values within a record at segment boundaries, and keep the
    first ``k`` survivors of each record's segment — row ``i`` is
    bitwise identical to ``np.unique(hash_many(record_i))[:k]``.

    Returns the CSR columns ``(values, lengths)`` that
    :meth:`~repro.core.store.ColumnarSketchStore.append_bulk` takes:
    every record's kept values, concatenated in record order, and the
    number kept per record.

    ``unique_hashes`` lets a caller that already hashed
    ``flat.unique_fingerprints`` (the sharded planner hashes the global
    universe once for every shard) hand the array in; ``profile``
    records the pass as one ``"sketch"`` stage.
    """
    if k_per_record < 1:
        raise ConfigurationError("k_per_record must be positive")
    start = time.perf_counter()
    num_records = flat.num_records
    if num_records == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    record_of = np.repeat(
        np.arange(num_records, dtype=np.int64), flat.record_sizes
    )
    if unique_hashes is None:
        unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)
    values, lengths, offsets = _sorted_distinct_per_record(
        record_of, unique_hashes[flat.inverse], num_records
    )
    # Rank of each survivor within its record; keep the k smallest.
    ranks = np.arange(values.size, dtype=np.int64) - np.repeat(
        offsets[:-1], lengths
    )
    values = values[ranks < k_per_record]
    if profile is not None:
        profile.record(
            "sketch",
            time.perf_counter() - start,
            rows=num_records,
            nbytes=values.nbytes,
        )
    return values, np.minimum(lengths, k_per_record)
