"""Whole-dataset vectorised sketch construction (the bulk build pipeline).

Algorithm 1 used to run record-at-a-time through Python: one ``set`` per
record, a ``Counter`` loop for element frequencies, one ``hash_many`` +
``np.unique`` call per record, and one store append per row.  At ~20k
records/s that made construction three orders of magnitude slower than
the fused query engine it feeds.

This module replaces the per-record inner loops with whole-dataset array
passes:

* :func:`flatten_records` flattens the dataset into CSR form over its
  distinct-value universe: record offsets, the sorted unique
  fingerprints (one :func:`~repro.hashing.fingerprint_many` pass),
  each occurrence's index into them (``inverse``) and each value's
  frequency (``counts``).  On the integer fast path one in-place sort
  of packed ``(fingerprint − min) << record_bits | record`` keys yields
  *both* the per-record dedup and the unique universe, and one sort of
  packed (record, unique rank) keys lays the survivors out in CSR order
  (:func:`_flatten_integer`); the generic path keeps ``np.unique`` over
  the fingerprint column.  The per-unique ``counts`` column is exactly
  the ``Counter`` the old build looped for (each record's elements are
  distinct, so occurrences equal containing records).  Per-occurrence
  fingerprints and elements are not stored: nothing in the build reads
  them, and they are one gather of the universe away.
* :func:`slice_flat_records` carves a per-record subset out of an
  already-flattened dataset — a CSR gather of ``inverse``, no
  re-hashing and no second frequency pass — which is how the sharded
  planner hands every shard its records after flattening the dataset
  exactly once.
* :func:`bulk_sketch` turns a flattened dataset into the flat sketch
  columns a :class:`~repro.core.store.ColumnarSketchStore` ingests in one
  :meth:`~repro.core.store.ColumnarSketchStore.append_bulk` call: the
  vocabulary membership and the ``τ`` cut are decided once per distinct
  value and reach the occurrences through ``inverse``, signature bitmaps
  are packed for all records at once (segment-OR via
  ``bitwise_or.reduceat``), every unique fingerprint is hashed exactly
  once, and each record's kept residual hashes are selected with one
  global (record, value) sort + segment-boundary reduction — no
  per-record ``np.unique``.

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
  ``insert_many``) and query workloads fall back to the exact
  per-record split;
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
from dataclasses import dataclass, replace
from itertools import chain, repeat
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
    """A dataset flattened to CSR form over its distinct-value universe.

    Record ``i``'s *distinct* elements (Python ``set`` semantics, exactly
    what the per-record path materialises) are the occurrences
    ``offsets[i]:offsets[i + 1]``.  ``unique_fingerprints`` is the
    dataset's universe, sorted ascending; ``inverse`` holds each
    occurrence's index into it and ``counts`` each value's number of
    containing records — together, ``np.unique`` over the per-occurrence
    fingerprint column.

    Those four columns are all the build reads, so they are all that is
    stored, plus the flat element list on the generic path, where an
    element cannot be recovered from its fingerprint.  On the integer
    path an element's fingerprint is its uint64 bit pattern, and
    ``element_dtype`` casts it back.  The per-occurrence
    :attr:`fingerprints` and :attr:`elements` columns and
    :attr:`first_occurrence` are derived on each access, for inspection
    and tests; use :meth:`record_elements` / :meth:`representatives` to
    get native Python elements either way (the within-record element
    *order* differs between the two paths — the integer path sorts by
    fingerprint — but every downstream consumer reduces over records, so
    the resulting sketches are identical).
    """

    offsets: np.ndarray
    unique_fingerprints: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray
    element_list: list | None = None
    element_dtype: np.dtype | None = None

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

    @property
    def fingerprints(self) -> np.ndarray:
        """Per-occurrence fingerprints: the universe gathered by ``inverse``."""
        return self.unique_fingerprints[self.inverse]

    @property
    def elements(self) -> list | np.ndarray:
        """The flat element column: a list, or an ndarray on the integer path."""
        if self.element_list is not None:
            return self.element_list
        return self.fingerprints.astype(self.element_dtype)

    @property
    def first_occurrence(self) -> np.ndarray:
        """Each unique fingerprint's first flat position (``-1`` if absent)."""
        return self._first_positions(
            np.arange(self.unique_fingerprints.size, dtype=np.int64)
        )

    def record_elements(self, position: int) -> list:
        """The distinct elements of one record, as native Python objects."""
        start, stop = self.offsets[position], self.offsets[position + 1]
        if self.element_list is not None:
            return self.element_list[start:stop]
        fingerprints = self.unique_fingerprints[self.inverse[start:stop]]
        return fingerprints.astype(self.element_dtype).tolist()

    def representatives(self, positions: np.ndarray) -> list:
        """One native element for each listed unique fingerprint.

        On the integer path the element is the fingerprint cast back to
        the element dtype; on the generic path it is the value's first
        occurrence in flat order.  With collision-free fingerprints this
        is *the* element, so frequency tables built on
        ``zip(representatives(positions), counts[positions])`` match the
        per-record ``Counter`` exactly.
        """
        if self.element_list is None:
            return self.unique_fingerprints[positions].astype(self.element_dtype).tolist()
        first = self._first_positions(positions)
        return [self.element_list[index] for index in first.tolist()]

    def _first_positions(self, positions: np.ndarray) -> np.ndarray:
        """First flat position of each listed unique fingerprint (``-1`` if absent).

        A reverse scatter over the listed values' occurrences only: later
        writes win, so writing positions in descending order leaves each
        value its smallest occurrence index.
        """
        slot_of = np.full(self.unique_fingerprints.size, -1, dtype=np.int64)
        slot_of[positions] = np.arange(len(positions), dtype=np.int64)
        slots = slot_of[self.inverse]
        hits = np.flatnonzero(slots >= 0)[::-1]
        first = np.full(len(positions), -1, dtype=np.int64)
        first[slots[hits]] = hits
        return first


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
        if all(map(isinstance, records, repeat(np.ndarray))):
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


def _run_starts(column: np.ndarray) -> np.ndarray:
    """``True`` where a sorted column's value differs from its predecessor.

    The first element of every run of equal values, and position 0.
    """
    starts = np.empty(column.size, dtype=bool)
    starts[:1] = True
    np.not_equal(column[1:], column[:-1], out=starts[1:])
    return starts


def _groups_by_packed_sort(
    fingerprints: np.ndarray, raw_lengths: np.ndarray, record_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (fingerprint, record) pairs from one in-place packed sort.

    Consumes ``fingerprints``: each becomes the key ``(fingerprint − min)
    << record_bits | record``, which the caller has checked fits 64 bits.
    Sorting the keys orders the occurrences by (fingerprint, record), so
    equal adjacent keys are one record's repeats of one value.  Returns
    the surviving pairs' fingerprints and records, in that order, and
    the records of the dropped repeats.
    """
    low = fingerprints.min()
    keys = fingerprints
    keys -= low
    keys <<= record_bits
    keys |= np.repeat(np.arange(raw_lengths.size, dtype=np.uint64), raw_lengths)
    keys.sort()
    record_mask = np.uint64((1 << record_bits) - 1)
    repeats = ~_run_starts(keys)
    dropped = keys[repeats] & record_mask
    if dropped.size:
        keys = keys[~repeats]
    values = keys >> record_bits
    values += low
    keys &= record_mask
    return values, keys, dropped


def _groups_by_argsort(
    fingerprints: np.ndarray, raw_lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_groups_by_packed_sort` for fingerprints too wide to pack.

    A stable argsort of the fingerprint column orders the occurrences
    by (fingerprint, record), because record ids are non-decreasing in
    flat order; the record column is carried along by one gather.
    """
    order = stable_argsort(fingerprints)
    sorted_fingerprints = fingerprints[order]
    sorted_records = np.repeat(
        np.arange(raw_lengths.size, dtype=np.uint64), raw_lengths
    )[order]
    keep = _run_starts(sorted_fingerprints) | _run_starts(sorted_records)
    return sorted_fingerprints[keep], sorted_records[keep], sorted_records[~keep]


def _flatten_integer(
    flat_values: np.ndarray, raw_lengths: np.ndarray, num_records: int
) -> FlatRecords:
    """The integer fast path: packed-key sorts, no Python ``set``.

    Integer elements fingerprint as their two's-complement uint64 bit
    pattern — exactly element_fingerprint's ``& MAX_UINT64`` — and the
    universe is ordered in that domain (signed order would disagree for
    negative values).

    1. Order the occurrences by (fingerprint, record) and drop each
       record's repeats.  When the fingerprints' span plus the record
       bits fit 64 bits, one in-place ``np.sort`` of packed keys does it
       (:func:`_groups_by_packed_sort`); otherwise — mixed signs, or
       values at or above 2^63 next to small ones — a stable argsort
       does (:func:`_groups_by_argsort`).  The input decides.  Value-run
       boundaries delimit the unique universe (ascending) and its
       containing-record counts, and a record's size is its raw length
       minus its dropped repeats.
    2. Each survivor is a distinct (record, unique rank) pair.  Sorting
       the pairs packed into one uint64 lays them out in CSR order, each
       record's elements by ascending fingerprint, and the low bits are
       the ``inverse`` column.

    Bitwise identical universe, counts and inverse to the ``np.unique``
    pipeline.
    """
    if not raw_lengths.all():
        raise ConfigurationError("records must be non-empty sets of elements")
    fingerprints = flat_values.astype(np.uint64)
    record_bits = (num_records - 1).bit_length()
    span = int(fingerprints.max() - fingerprints.min())
    if span.bit_length() + record_bits <= 64:
        values, records, repeats = _groups_by_packed_sort(
            fingerprints, raw_lengths, record_bits
        )
    else:
        values, records, repeats = _groups_by_argsort(fingerprints, raw_lengths)
    new_value = _run_starts(values)
    starts = np.flatnonzero(new_value)
    unique = values[starts]
    rank_bits = (unique.size - 1).bit_length()
    if record_bits + rank_bits > 64:
        raise ConfigurationError(
            "too many records and distinct elements to pack into 64-bit keys"
        )
    # The fingerprint column is spent; its buffer takes the unique ranks.
    ranks = np.cumsum(new_value, dtype=np.int64, out=values.view(np.int64))
    ranks -= 1
    csr_keys = records
    csr_keys <<= rank_bits
    csr_keys |= ranks.view(np.uint64)
    csr_keys.sort()
    csr_keys &= np.uint64((1 << rank_bits) - 1)
    sizes = raw_lengths - np.bincount(repeats.view(np.int64), minlength=num_records)
    return FlatRecords(
        offsets=np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
        ),
        unique_fingerprints=unique,
        inverse=csr_keys.view(np.int64),
        counts=np.diff(starts, append=new_value.size),
        element_dtype=flat_values.dtype,
    )


def flatten_records(
    records: Sequence[Iterable[object]], profile: BuildProfile | None = None
) -> FlatRecords:
    """Flatten a dataset into CSR form and fingerprint it in one pass.

    Per-record deduplication uses Python ``set`` semantics (the same
    dedup the per-record path applies).  Integer datasets take a
    dtype-aware fast path: the raw occurrences become one flat array,
    one sort of packed (fingerprint, record) keys produces the
    per-record dedup *and* the unique universe, and a second packed-key
    sort restores CSR order (:func:`_flatten_integer`) — no Python
    ``set`` per record and no second sort inside ``np.unique``.  Every
    other element type keeps the per-record loop plus ``np.unique``;
    both paths produce the same distinct-element multiset and the same
    universe, so downstream sketches are identical.

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
        unique, inverse, counts = np.unique(
            fingerprint_many(flat), return_inverse=True, return_counts=True
        )
        result = FlatRecords(
            offsets=np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
            ),
            unique_fingerprints=unique,
            inverse=np.ascontiguousarray(inverse, dtype=np.int64),
            counts=counts.astype(np.int64, copy=False),
            element_list=flat,
        )
    if profile is not None:
        profile.record(
            "flatten",
            time.perf_counter() - start,
            rows=num_records,
            nbytes=result.offsets.nbytes
            + result.inverse.nbytes
            + result.unique_fingerprints.nbytes
            + result.counts.nbytes,
        )
    return result


def slice_flat_records(flat: FlatRecords, positions: np.ndarray) -> FlatRecords:
    """A per-record subset of a flattened dataset, without re-flattening.

    ``positions`` selects records of ``flat`` (in the order given); the
    result is a :class:`FlatRecords` over exactly those records whose
    ``inverse`` column (and, on the generic path, element list) is a CSR
    gather of the parent's — no re-hashing, no second frequency pass.
    The unique-universe columns are **shared with the parent**:
    ``unique_fingerprints`` / ``counts`` stay the *global* universe and
    ``inverse`` keeps indexing it, which is precisely what the
    pinned-parameter sketch kernels (:func:`bulk_sketch`,
    :func:`bulk_kmv_value_rows` with their ``unique_hashes`` argument)
    consume — a sharded build hashes the universe once and every shard
    gathers from it.

    Because ``counts`` are the parent's, do not call
    :func:`select_vocabulary` on a slice — parameters are planned on the
    full dataset before slicing.
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
    element_list = flat.element_list
    if element_list is not None:
        element_list = [element_list[index] for index in gather.tolist()]
    return replace(
        flat, offsets=offsets, inverse=flat.inverse[gather], element_list=element_list
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
    one selection authority.  Only those candidates get a representative
    element (:meth:`FlatRecords.representatives`).

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
        frequencies = dict(
            zip(flat.representatives(qualifying), counts[qualifying].tolist())
        )
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
    """Flat sketch columns for a batch of records (or queries), ready for bulk append.

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
    starts = np.flatnonzero(_run_starts(word_keys))
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
    first_of_group = _run_starts(records) | _run_starts(values)
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
    in_vocabulary: np.ndarray | None = None,
    profile: BuildProfile | None = None,
) -> BulkSketches:
    """Sketch a flattened dataset under pinned parameters, all at once.

    Every *distinct* value is decided once — buffer member, residual
    kept under ``threshold``, or residual dropped — with one membership
    lookup and one hash per unique fingerprint (the per-record path
    re-hashes each occurrence), and the decisions reach the occurrences
    through ``inverse``.  Only the buffer and kept occurrences, a small
    share of the dataset, are gathered; a ``searchsorted`` on the CSR
    offsets finds their records.  Residual sizes are record sizes minus
    buffer counts, and the per-record sorted-distinct-kept selection is
    one (record, value) sort of the kept occurrences with a
    segment-boundary dedup — the result is bitwise identical to running
    ``_sketch_parts`` record by record.

    ``unique_hashes`` and ``in_vocabulary`` let a caller that already
    derived them over ``flat.unique_fingerprints`` (the build's plan
    hashes the universe and decides membership for the threshold
    computation) hand them in: each value's hash, and whether it is a
    vocabulary member.  ``profile`` records the pass as one
    ``"sketch"`` stage (per-shard recordings sum to dataset size).
    """
    start = time.perf_counter()
    num_records = flat.num_records
    record_sizes = flat.record_sizes
    if unique_hashes is None:
        unique_hashes = hasher.hash_fingerprints(flat.unique_fingerprints)
    if in_vocabulary is None:
        in_vocabulary = lookup.member_mask(flat.unique_fingerprints)
    kept = ~in_vocabulary
    kept &= unique_hashes <= threshold

    buffer_at = np.flatnonzero(in_vocabulary[flat.inverse])
    buffer_records = np.searchsorted(flat.offsets, buffer_at, side="right") - 1
    signatures = pack_signatures_bulk(
        buffer_records,
        lookup.positions_of(flat.unique_fingerprints[flat.inverse[buffer_at]]),
        num_records,
        num_words,
    )
    residual_record_sizes = record_sizes - np.bincount(
        buffer_records, minlength=num_records
    )

    kept_at = np.flatnonzero(kept[flat.inverse])
    kept_values, _value_lengths, value_offsets = _sorted_distinct_per_record(
        np.searchsorted(flat.offsets, kept_at, side="right") - 1,
        unique_hashes[flat.inverse[kept_at]],
        num_records,
    )
    sketches = BulkSketches(
        values=kept_values,
        value_offsets=value_offsets,
        signatures=signatures,
        residual_record_sizes=residual_record_sizes,
        record_sizes=record_sizes,
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
