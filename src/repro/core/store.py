"""Segmented columnar storage of per-record GB-KMV sketch state.

Historically :class:`~repro.core.index.GBKMVIndex` kept one Python object
per record (``list[np.ndarray]`` of residual hash values, ``list[int]``
of buffer masks and sizes).  Scoring a query then meant walking those
lists record by record, so query time was dominated by interpreter
overhead rather than by the estimator arithmetic the paper analyses.

:class:`ColumnarSketchStore` consolidates the same state into a handful
of flat NumPy arrays, organised LSM-style into two segments:

*base segment*
    The sealed columns — all residual hash values concatenated into a
    single sorted-per-row float64 array with CSR-style row offsets
    (``values[offsets[i]:offsets[i + 1]]`` is physical row ``i``), a
    packed ``uint64`` signature matrix (64 bits per word), parallel
    int64 size columns, a ``row_ids`` column mapping physical rows to
    stable record ids, and a boolean tombstone mask.  The columns grow
    in place: a batch is written into spare capacity behind the rows
    (:func:`append_rows`), and a column is reallocated, with an eighth
    to spare, only when the batch does not fit — so a small flush
    copies the batch, not the store.  Rows stay contiguous, so to every
    kernel and snapshot a column is still one plain array.
*tail segment*
    Single :meth:`append` calls, staged in small Python lists (batches
    from :meth:`append_bulk` skip it).  The tail is absorbed into the
    base lazily, as one ordinary batch append.  Either way the derived
    query-time caches are *extended*, not rebuilt: the per-row maxima
    grow like the columns, and the value→record join index (every
    stored occurrence sorted by value) is maintained with a sorted
    two-run merge — ``O(T + S log S)`` for ``S`` new values over ``T``
    stored ones — instead of the wholesale ``O(T log T)`` re-sort a
    full invalidation would pay.

Mutations beyond ``append`` are first-class: :meth:`delete` tombstones a
record in O(1) (searches skip it immediately), :meth:`replace` swaps a
record's sketch under the same id, and once the tombstoned fraction
crosses ``compact_ratio`` the next :meth:`finalize` physically compacts
the columns, filtering (never re-sorting) the derived caches.  The full
segment state round-trips through :meth:`state_arrays` /
:meth:`from_state`, which every index snapshot writes and reads.

On top of the columns the store offers the *fused whole-workload*
kernels the query engine of every sketch family is built from:
:meth:`match_workload` resolves every query's values against the
value→record join index in one ``searchsorted`` pass and returns the
sparse (query, row, count) triples of the pairs that share a value, and
:meth:`signature_overlap_block` extracts the ``(B, block)`` popcount
overlap matrix of a row range, so an engine can sweep a workload over
the rows in blocks without ever materialising a dense ``(B, num_rows)``
intermediate.  Kernels are indexed by *physical row*; use
:meth:`result_view` (or :attr:`row_ids` / :attr:`alive_rows`) to map
kernel outputs back to record ids when the store has seen deletes.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro._errors import ConfigurationError, SnapshotFormatError
from repro.core.profiling import BuildProfile
from repro.core.sorting import stable_argsort

#: Bits per packed signature word.
BITS_PER_WORD = 64

_WORD_MASK = (1 << BITS_PER_WORD) - 1

#: Tombstoned-row fraction above which :meth:`ColumnarSketchStore.finalize`
#: physically compacts the columns.
DEFAULT_COMPACT_RATIO = 0.25

#: Version tag written into snapshots so future layout changes can refuse
#: (or migrate) old files instead of misreading them.
SNAPSHOT_VERSION = 1

#: How far an explicitly pinned record id may run ahead of the ids handed
#: out so far.  The id→row map is a dense int64 column (one vectorised
#: scatter to rebuild), so wildly sparse ids would silently allocate
#: id-space-sized memory; :meth:`ColumnarSketchStore.append` rejects them
#: past this generous margin instead.
_MAX_ID_GAP = 1 << 20

#: Spare capacity a reallocated column reserves behind its rows, as a
#: shift: one eighth of the new row count.
_SPARE_SHIFT = 3


def append_rows(
    buffer: np.ndarray, size: int, rows: np.ndarray | Sequence, spare: bool = True
) -> np.ndarray:
    """Write ``rows`` behind the first ``size`` rows of ``buffer``.

    The growable-column primitive of the write path.  When the batch fits
    in the spare capacity behind row ``size`` it is written there and
    ``buffer`` itself is returned; otherwise a new buffer holding the
    kept rows and the batch is returned, with an eighth spare capacity
    (exact when ``spare`` is false).  The caller must own ``buffer``:
    anything past row ``size`` is overwritten.
    """
    total = size + len(rows)
    if total > buffer.shape[0]:
        capacity = total + (total >> _SPARE_SHIFT if spare else 0)
        grown = np.empty((capacity, *buffer.shape[1:]), dtype=buffer.dtype)
        grown[:size] = buffer[:size]
        buffer = grown
    buffer[size:total] = rows
    return buffer


def mask_to_words(mask: int, num_words: int) -> np.ndarray:
    """Pack a Python-integer bitmap into little-endian uint64 words."""
    if mask < 0:
        raise ConfigurationError("bitmap mask must be non-negative")
    if mask >> (num_words * BITS_PER_WORD):
        raise ConfigurationError("bitmap mask has bits beyond the signature width")
    words = np.zeros(num_words, dtype=np.uint64)
    for word in range(num_words):
        words[word] = (mask >> (word * BITS_PER_WORD)) & _WORD_MASK
    return words


def words_to_mask(words: np.ndarray) -> int:
    """Inverse of :func:`mask_to_words`."""
    mask = 0
    for word, value in enumerate(np.asarray(words, dtype=np.uint64)):
        mask |= int(value) << (word * BITS_PER_WORD)
    return mask


class ColumnarSketchStore:
    """Segmented columnar arrays holding every record's GB-KMV sketch state.

    Parameters
    ----------
    signature_bits:
        Width ``r`` of the frequent-element bitmap.  ``0`` disables the
        signature columns (G-KMV, and the plain-KMV baseline, whose rows
        hold each record's ``k`` smallest hash values).
    compact_ratio:
        Tombstoned-row fraction that triggers physical compaction on the
        next :meth:`finalize`, in ``(0, 1]``.
    """

    def __init__(
        self, signature_bits: int, compact_ratio: float = DEFAULT_COMPACT_RATIO
    ) -> None:
        if signature_bits < 0:
            raise ConfigurationError("signature_bits must be non-negative")
        if not 0.0 < compact_ratio <= 1.0:
            raise ConfigurationError("compact_ratio must be in (0, 1]")
        self._signature_bits = int(signature_bits)
        self._num_words = -(-self._signature_bits // BITS_PER_WORD) if signature_bits else 0
        self._compact_ratio = float(compact_ratio)

        # Base segment (sealed columns; row-major CSR + parallel arrays).
        self._values = np.empty(0, dtype=np.float64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._signatures = np.zeros((0, self._num_words), dtype=np.uint64)
        self._record_sizes = np.empty(0, dtype=np.int64)
        self._residual_record_sizes = np.empty(0, dtype=np.int64)
        self._row_ids = np.empty(0, dtype=np.int64)
        self._tombstones = np.zeros(0, dtype=bool)
        # The buffers this store allocated itself, by column attribute:
        # each column above (and the row_max/row_exact caches) is either
        # the exact-size prefix of its buffer here, or an array the store
        # must not write into (a snapshot's, an mmap, a compaction's
        # result), which its next append copies.
        self._buffers: dict[str, np.ndarray] = {}

        # Tail segment (staged rows not yet absorbed into the base).
        self._pending_values: list[np.ndarray] = []
        self._pending_masks: list[int] = []
        self._pending_record_sizes: list[int] = []
        self._pending_residual_sizes: list[int] = []
        self._pending_ids: list[int] = []
        self._pending_dead: list[bool] = []

        # Record-id bookkeeping: a dense id→physical-row column (``-1``
        # marks absent/deleted ids).  Ids are assigned sequentially and
        # never reused, so the column stays as dense as the store itself
        # and every rebuild (compaction, snapshot load) is one vectorised
        # scatter instead of an O(n) Python dict comprehension.
        self._id_rows = np.full(0, -1, dtype=np.int64)
        self._next_id = 0
        self._num_dead = 0
        self._dead_values = 0
        self._ids_identity = True  # row_ids[i] == i for every physical row
        self._ids_ascending = True  # row_ids increase with the physical row

        # Derived query-time caches (maintained incrementally where possible).
        self._finalized = False
        self._row_max: np.ndarray | None = None
        self._row_exact: np.ndarray | None = None
        self._sorted_values: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None

    def __getstate__(self) -> dict:
        # A pickle or copy holds each column apart from the buffer behind
        # it, so the copy owns no buffer: its first append or delete
        # copies the column instead of writing into a stale buffer.
        return {**self.__dict__, "_buffers": {}}

    # ------------------------------------------------------------- mutation
    def append(
        self,
        values: np.ndarray,
        mask: int,
        residual_record_size: int,
        record_size: int,
        record_id: int | None = None,
    ) -> int:
        """Stage one record's sketch row in the tail; returns its record id.

        ``values`` must be sorted ascending and distinct (the natural
        output of ``np.unique`` over kept hash values).  ``record_id``
        pins an explicit id (used by :meth:`replace`); by default ids are
        assigned sequentially and never reused.  Ids index a dense
        id→row column, so they must stay reasonably dense: an explicit id
        far beyond the ids handed out so far is rejected rather than
        silently allocating id-space-sized memory.
        """
        if record_id is None:
            record_id = self._next_id
        else:
            record_id = int(record_id)
            if record_id < 0:
                raise ConfigurationError("record ids must be non-negative")
            if record_id > max(self._next_id, self.num_rows) + _MAX_ID_GAP:
                raise ConfigurationError(
                    f"record id {record_id} is too sparse for the dense id map "
                    f"(next sequential id is {self._next_id}; ids may run at "
                    f"most {_MAX_ID_GAP} ahead of it)"
                )
            if self._lookup_row(record_id) is not None:
                raise ConfigurationError(f"record id {record_id} is already live")
        row = self.num_rows
        self._ids_identity = self._ids_identity and record_id == row
        # Every id handed out so far is below next_id (an update reuses one).
        self._ids_ascending = self._ids_ascending and record_id >= self._next_id
        self._pending_values.append(np.asarray(values, dtype=np.float64))
        self._pending_masks.append(int(mask))
        self._pending_residual_sizes.append(int(residual_record_size))
        self._pending_record_sizes.append(int(record_size))
        self._pending_ids.append(record_id)
        self._pending_dead.append(False)
        if record_id >= self._id_rows.size:
            grown = np.full(
                max(2 * self._id_rows.size, record_id + 1, 16), -1, dtype=np.int64
            )
            grown[: self._id_rows.size] = self._id_rows
            self._id_rows = grown
        self._id_rows[record_id] = row
        self._next_id = max(self._next_id, record_id + 1)
        self._finalized = False
        return record_id

    def delete(self, record_id: int) -> None:
        """Tombstone a record in O(1); it disappears from search immediately.

        The row stays in the columns (masked out of results) until the
        tombstoned fraction crosses ``compact_ratio`` and the next
        :meth:`finalize` physically compacts it away.

        Raises
        ------
        ConfigurationError
            If ``record_id`` is unknown or already deleted.
        """
        record_id = int(record_id)
        row = self._lookup_row(record_id)
        if row is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        self._id_rows[record_id] = -1
        base_rows = int(self._record_sizes.size)
        if row < base_rows:
            if "_tombstones" not in self._buffers:
                # Flip flags only in a buffer this store owns, never in
                # the arrays a snapshot handed to from_state.
                self._tombstones = self._tombstones.copy()
                self._buffers["_tombstones"] = self._tombstones
            self._tombstones[row] = True
            self._dead_values += int(self._offsets[row + 1] - self._offsets[row])
        else:
            position = row - base_rows
            self._pending_dead[position] = True
            self._dead_values += int(self._pending_values[position].size)
        self._num_dead += 1
        if self._num_dead >= self._compact_ratio * self.num_rows:
            self._finalized = False  # the next finalize compacts

    def replace(
        self,
        record_id: int,
        values: np.ndarray,
        mask: int,
        residual_record_size: int,
        record_size: int,
    ) -> int:
        """Swap a record's sketch row under the same record id (an update)."""
        self.delete(record_id)
        return self.append(
            values=values,
            mask=mask,
            residual_record_size=residual_record_size,
            record_size=record_size,
            record_id=record_id,
        )

    def append_bulk(
        self,
        values: np.ndarray,
        value_lengths: np.ndarray,
        signatures: np.ndarray,
        residual_record_sizes: np.ndarray,
        record_sizes: np.ndarray,
        profile: BuildProfile | None = None,
    ) -> np.ndarray:
        """Append a whole batch of rows in one staged-batch merge.

        The bulk counterpart of ``N`` :meth:`append` calls followed by a
        tail absorb — one write into each column's spare capacity and
        (when the derived caches exist) one two-run join-index merge for
        the entire batch, instead of ``N`` Python-level stagings.  The
        resulting store state is bitwise identical to the looped path.

        ``values`` is the CSR-flattened residual hash column
        (sorted ascending and distinct within each row), ``value_lengths``
        the per-row value counts, and ``signatures`` the packed
        ``(n, num_words)`` uint64 bitmap matrix.  Record ids are assigned
        sequentially; the batch's ids are returned as an int64 array.
        ``profile`` records the merge as one ``"append"`` stage.
        """
        start = time.perf_counter()
        value_lengths = np.ascontiguousarray(value_lengths, dtype=np.int64)
        num_new = int(value_lengths.size)
        record_sizes = np.ascontiguousarray(record_sizes, dtype=np.int64)
        residual_record_sizes = np.ascontiguousarray(
            residual_record_sizes, dtype=np.int64
        )
        values = np.ascontiguousarray(values, dtype=np.float64)
        signatures = np.ascontiguousarray(signatures, dtype=np.uint64)
        if (
            record_sizes.size != num_new
            or residual_record_sizes.size != num_new
            or signatures.shape != (num_new, self._num_words)
        ):
            raise ConfigurationError("bulk append columns must be parallel")
        if int(value_lengths.sum()) != values.size:
            raise ConfigurationError("value_lengths must sum to the value count")
        if num_new == 0:
            return np.empty(0, dtype=np.int64)
        # Absorb staged single appends first so physical row order matches
        # the order the looped path would have produced.
        self._absorb_tail()
        base_rows = self.num_rows
        ids = np.arange(self._next_id, self._next_id + num_new, dtype=np.int64)
        self._ids_identity = self._ids_identity and self._next_id == base_rows
        if int(ids[-1]) >= self._id_rows.size:
            grown = np.full(
                max(2 * self._id_rows.size, int(ids[-1]) + 1, 16), -1, dtype=np.int64
            )
            grown[: self._id_rows.size] = self._id_rows
            self._id_rows = grown
        self._id_rows[ids] = np.arange(base_rows, base_rows + num_new, dtype=np.int64)
        self._next_id += num_new
        self._extend_base(
            values,
            value_lengths,
            signatures,
            record_sizes,
            residual_record_sizes,
            ids,
            np.zeros(num_new, dtype=bool),
        )
        self._finalized = False
        if profile is not None:
            profile.record(
                "append",
                time.perf_counter() - start,
                rows=num_new,
                nbytes=values.nbytes + signatures.nbytes,
            )
        return ids

    def _absorb_tail(self) -> None:
        """Seal the staged single appends as one batch (see :meth:`_extend_base`)."""
        if not self._pending_values:
            return
        pending_values = self._pending_values
        lengths = np.fromiter(
            (arr.size for arr in pending_values), dtype=np.int64, count=len(pending_values)
        )
        tail_values = (
            np.concatenate(pending_values) if lengths.sum() else np.empty(0, dtype=np.float64)
        )
        if self._num_words:
            extra = np.zeros((len(pending_values), self._num_words), dtype=np.uint64)
            for row, mask in enumerate(self._pending_masks):
                extra[row] = mask_to_words(mask, self._num_words)
        else:
            extra = np.zeros((len(pending_values), 0), dtype=np.uint64)
        record_sizes = np.asarray(self._pending_record_sizes, dtype=np.int64)
        residual_sizes = np.asarray(self._pending_residual_sizes, dtype=np.int64)
        row_ids = np.asarray(self._pending_ids, dtype=np.int64)
        dead = np.asarray(self._pending_dead, dtype=bool)

        self._pending_values = []
        self._pending_masks = []
        self._pending_record_sizes = []
        self._pending_residual_sizes = []
        self._pending_ids = []
        self._pending_dead = []
        self._extend_base(
            tail_values, lengths, extra, record_sizes, residual_sizes, row_ids, dead
        )

    def _extend_base(
        self,
        flat_values: np.ndarray,
        lengths: np.ndarray,
        signature_words: np.ndarray,
        record_sizes: np.ndarray,
        residual_sizes: np.ndarray,
        row_ids: np.ndarray,
        dead: np.ndarray,
    ) -> None:
        """Seal a batch of rows into the base columns, extending derived caches.

        The single home of base-segment growth, shared by the tail absorb
        (one small batch of staged singles) and :meth:`append_bulk` (a
        whole construction batch): every column grows by the batch in
        the spare capacity behind it (:meth:`_append_column`), and — when
        the caches are warm — the per-row maxima/exactness columns grow
        the same way and the value→record join index absorbs the batch
        with one two-run merge.
        """
        base_rows = int(self._record_sizes.size)
        num_new = int(lengths.size)
        # The bulk build's one append into an empty store allocates
        # exactly, so construction peaks no higher than a concatenation.
        spare = base_rows > 0
        new_offsets = self._offsets[-1] + np.cumsum(lengths)
        for name, rows in (
            ("_values", flat_values),
            ("_offsets", new_offsets),
            ("_signatures", signature_words),
            ("_record_sizes", record_sizes),
            ("_residual_record_sizes", residual_sizes),
            ("_row_ids", row_ids),
            ("_tombstones", dead),
        ):
            self._append_column(name, rows, spare)
        if self._row_max is not None:
            tail_max = np.zeros(num_new, dtype=np.float64)
            nonempty = lengths > 0
            last = self._offsets[base_rows + 1 :] - 1
            tail_max[nonempty] = self._values[last[nonempty]]
            self._append_column("_row_max", tail_max, spare)
            self._append_column("_row_exact", lengths >= residual_sizes, spare)
        if self._sorted_values is not None:
            tail_rows = np.repeat(
                np.arange(base_rows, base_rows + num_new, dtype=np.int64),
                lengths,
            )
            order = stable_argsort(flat_values)
            self._sorted_values, self._sorted_rows = _merge_sorted_runs(
                self._sorted_values,
                self._sorted_rows,
                flat_values[order],
                tail_rows[order],
            )

    def _append_column(self, name: str, rows: np.ndarray, spare: bool) -> None:
        """Grow column attribute ``name`` by ``rows`` (see :func:`append_rows`).

        A column the store did not allocate is exactly as long as its
        rows, so a non-empty batch always moves it into a new,
        store-owned buffer before anything is written.
        """
        if not len(rows):
            return
        column = getattr(self, name)
        size = len(column)
        buffer = append_rows(self._buffers.get(name, column), size, rows, spare)
        self._buffers[name] = buffer
        setattr(self, name, buffer[: size + len(rows)])

    def finalize(self) -> None:
        """Absorb the tail, compact if due, and ensure the derived caches exist."""
        if self._finalized:
            return
        if self._num_dead and self._num_dead >= self._compact_ratio * self.num_rows:
            self.compact_tombstones()
        self._absorb_tail()
        if self._row_max is None or self._row_exact is None:
            sizes = np.diff(self._offsets)
            last = self._offsets[1:] - 1
            maxima = np.zeros(self._record_sizes.size, dtype=np.float64)
            nonempty = sizes > 0
            maxima[nonempty] = self._values[last[nonempty]]
            self._row_max = maxima
            self._row_exact = sizes >= self._residual_record_sizes
        if self._sorted_values is None or self._sorted_rows is None:
            # Value → record join index built from scratch: every stored
            # occurrence sorted by value, so a query's values can be
            # matched with one searchsorted each.
            order = stable_argsort(self._values)
            self._sorted_values = self._values[order]
            rows = np.repeat(
                np.arange(self._record_sizes.size, dtype=np.int64),
                np.diff(self._offsets),
            )
            self._sorted_rows = rows[order]
        self._finalized = True

    def compact_tombstones(self) -> None:
        """Physically drop tombstoned rows from the columns.

        Record ids are stable: surviving rows keep their ids through the
        ``row_ids`` column, only their physical positions shift.  Derived
        caches are *filtered* (order-preserving), never re-sorted.
        """
        self._absorb_tail()
        if self._num_dead == 0:
            return
        alive = ~self._tombstones
        row_sizes = np.diff(self._offsets)
        self._values = self._values[np.repeat(alive, row_sizes)]
        kept_sizes = row_sizes[alive]
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(kept_sizes, dtype=np.int64)]
        )
        self._signatures = self._signatures[alive]
        self._record_sizes = self._record_sizes[alive]
        self._residual_record_sizes = self._residual_record_sizes[alive]
        self._row_ids = self._row_ids[alive]
        new_row = np.cumsum(alive, dtype=np.int64) - 1
        if self._sorted_values is not None and self._sorted_rows is not None:
            entry_alive = alive[self._sorted_rows]
            self._sorted_values = self._sorted_values[entry_alive]
            self._sorted_rows = new_row[self._sorted_rows[entry_alive]]
        if self._row_max is not None and self._row_exact is not None:
            self._row_max = self._row_max[alive]
            self._row_exact = self._row_exact[alive]
        self._tombstones = np.zeros(int(alive.sum()), dtype=bool)
        self._buffers.clear()  # every column above was replaced
        self._num_dead = 0
        self._dead_values = 0
        # Vectorised id→row rebuild: every surviving row is live, so one
        # fill plus one scatter replaces the old per-row dict comprehension.
        self._id_rows = np.full(max(self._next_id, 16), -1, dtype=np.int64)
        self._id_rows[self._row_ids] = np.arange(self._row_ids.size, dtype=np.int64)
        self._ids_identity = bool(
            np.array_equal(self._row_ids, np.arange(self._row_ids.size, dtype=np.int64))
        )
        self._ids_ascending = bool(np.all(self._row_ids[1:] > self._row_ids[:-1]))

    def truncate_values(self, threshold: float) -> None:
        """Drop every stored value above ``threshold`` (per-row prefixes survive).

        The join index is value-sorted, so the survivors are exactly its
        prefix up to ``threshold`` — no re-sort is needed; only the
        per-row maxima/exactness columns are rebuilt on the next
        :meth:`finalize`.
        """
        self._absorb_tail()
        keep = self._values <= threshold
        kept_cumulative = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(keep, dtype=np.int64)]
        )
        self._values = self._values[keep]
        self._offsets = kept_cumulative[self._offsets]
        if self._num_dead:
            self._dead_values = int(np.diff(self._offsets)[self._tombstones].sum())
        if self._sorted_values is not None and self._sorted_rows is not None:
            cut = int(np.searchsorted(self._sorted_values, threshold, side="right"))
            self._sorted_values = self._sorted_values[:cut].copy()
            self._sorted_rows = self._sorted_rows[:cut].copy()
        self._row_max = None
        self._row_exact = None
        for name in ("_values", "_offsets", "_row_max", "_row_exact"):
            self._buffers.pop(name, None)
        self._finalized = False

    def threshold_for_value_budget(self, budget: float) -> float:
        """Largest threshold whose kept live-value count fits in ``budget``.

        The incremental-refit primitive: the value→record join index is
        already value-sorted (and absorbed batches merge into it with
        two-run merges, never a full re-sort), so the answer is a prefix
        inspection — no live-value gather and no ``np.unique`` pass over
        the whole column.  A value either fits with *all* of its stored
        occurrences or not at all, exactly the cumulative-count
        semantics of re-deriving τ from scratch.

        Callers should consult :attr:`total_values` (the O(1) running
        tracker of stored live values) first and skip the call entirely
        when the store already fits its budget.
        """
        self.finalize()
        values = self._sorted_values
        if self._num_dead:
            # Below-ratio tombstones survive finalize(): filter their
            # occurrences out of the prefix (a boolean gather, still no
            # sort).
            values = values[~self._tombstones[self._sorted_rows]]
        if values.size == 0:
            return float(np.finfo(np.float64).tiny)
        allowed = int(budget)
        if allowed >= values.size:
            return float(values[-1])
        if allowed == 0:
            return float(np.finfo(np.float64).tiny)
        # values[allowed] is the first occurrence that cannot fit; the
        # answer is the largest distinct value strictly below it.
        bound = values[allowed]
        cut = int(np.searchsorted(values, bound, side="left"))
        if cut == 0:
            return float(np.finfo(np.float64).tiny)
        return float(values[cut - 1])

    # ------------------------------------------------------------ snapshots
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The full segment state as named arrays (tail absorbed first)."""
        self._absorb_tail()
        return {
            "values": self._values,
            "offsets": self._offsets,
            "signatures": self._signatures,
            "record_sizes": self._record_sizes,
            "residual_record_sizes": self._residual_record_sizes,
            "row_ids": self._row_ids,
            "tombstones": self._tombstones,
            "store_meta": np.array(
                [SNAPSHOT_VERSION, self._signature_bits, self._next_id], dtype=np.int64
            ),
        }

    @classmethod
    def from_state(
        cls,
        arrays: Mapping[str, np.ndarray],
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
    ) -> "ColumnarSketchStore":
        """Rebuild a store from :meth:`state_arrays` output.

        Raises
        ------
        SnapshotFormatError
            If the snapshot version is not this build's, or the columns
            do not fit together (see :func:`_state_problem`).
        KeyError
            If a column is missing.
        """
        meta = np.asarray(arrays["store_meta"], dtype=np.int64)
        if meta.shape != (3,) or meta[1] < 0 or meta[2] < 0:
            raise SnapshotFormatError(
                f"corrupt store snapshot: store_meta {meta.tolist()} is not "
                "[version, signature bits >= 0, next id >= 0]"
            )
        version, signature_bits, next_id = (int(x) for x in meta)
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"unsupported store snapshot version {version} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        store = cls(signature_bits=signature_bits, compact_ratio=compact_ratio)
        columns = {}
        for name, dtype in _STATE_DTYPES.items():
            column = np.asarray(arrays[name])
            if not np.can_cast(column.dtype, dtype, casting="same_kind"):
                raise SnapshotFormatError(
                    f"corrupt store snapshot: {name} holds {column.dtype} values, "
                    f"expected {np.dtype(dtype)}"
                )
            columns[name] = column.astype(dtype, copy=False)
        problem = _state_problem(columns, store._num_words, next_id)
        if problem is not None:
            raise SnapshotFormatError(f"corrupt store snapshot: {problem}")
        num_rows = columns["record_sizes"].size
        store._values = columns["values"]
        store._offsets = columns["offsets"]
        store._signatures = columns["signatures"].reshape(num_rows, store._num_words)
        store._record_sizes = columns["record_sizes"]
        store._residual_record_sizes = columns["residual_record_sizes"]
        store._row_ids = columns["row_ids"]
        store._tombstones = columns["tombstones"]
        store._next_id = next_id
        store._num_dead = int(store._tombstones.sum())
        if store._num_dead:
            store._dead_values = int(
                np.diff(store._offsets)[store._tombstones].sum()
            )
        store._id_rows = np.full(max(next_id, 16), -1, dtype=np.int64)
        live = ~store._tombstones
        store._id_rows[store._row_ids[live]] = np.nonzero(live)[0]
        if np.count_nonzero(store._id_rows >= 0) != num_rows - store._num_dead:
            raise SnapshotFormatError(
                "corrupt store snapshot: two live rows share a record id"
            )
        store._ids_identity = bool(
            np.array_equal(
                store._row_ids, np.arange(store._row_ids.size, dtype=np.int64)
            )
        )
        store._ids_ascending = bool(np.all(store._row_ids[1:] > store._row_ids[:-1]))
        return store

    # -------------------------------------------------------- introspection
    @property
    def signature_bits(self) -> int:
        """Bitmap width ``r`` shared by every signature row."""
        return self._signature_bits

    @property
    def num_words(self) -> int:
        """Packed uint64 words per signature row (``ceil(r / 64)``)."""
        return self._num_words

    @property
    def num_rows(self) -> int:
        """Number of physical rows (tombstoned and staged rows included)."""
        return int(self._record_sizes.size) + len(self._pending_values)

    @property
    def num_records(self) -> int:
        """Number of live records (physical rows minus tombstones)."""
        return self.num_rows - self._num_dead

    @property
    def num_dead(self) -> int:
        """Number of tombstoned rows awaiting compaction."""
        return self._num_dead

    @property
    def next_id(self) -> int:
        """The record id the next default-id :meth:`append` will assign."""
        return self._next_id

    def __len__(self) -> int:
        return self.num_records

    def __contains__(self, record_id: object) -> bool:
        try:
            candidate = int(record_id)  # type: ignore[call-overload]
        except (TypeError, ValueError):
            return False
        return candidate == record_id and self._lookup_row(candidate) is not None

    @property
    def total_values(self) -> int:
        """Total stored residual hash values across all *live* rows."""
        staged = sum(arr.size for arr in self._pending_values)
        return int(self._values.size) + int(staged) - self._dead_values

    @property
    def values(self) -> np.ndarray:
        """The concatenated residual values (absorbs staged rows first)."""
        self._absorb_tail()
        return self._values

    @property
    def offsets(self) -> np.ndarray:
        """CSR row offsets into :attr:`values`."""
        self._absorb_tail()
        return self._offsets

    @property
    def signatures(self) -> np.ndarray:
        """Packed uint64 signature matrix of shape ``(num_rows, words)``."""
        self._absorb_tail()
        return self._signatures

    @property
    def record_sizes(self) -> np.ndarray:
        """Distinct-element count of every physical row."""
        self._absorb_tail()
        return self._record_sizes

    @property
    def residual_record_sizes(self) -> np.ndarray:
        """Distinct residual (non-frequent) element count of every physical row."""
        self._absorb_tail()
        return self._residual_record_sizes

    @property
    def row_sizes(self) -> np.ndarray:
        """Number of stored values per physical row."""
        self._absorb_tail()
        return np.diff(self._offsets)

    @property
    def row_ids(self) -> np.ndarray:
        """Record id of every physical row (stable across compaction)."""
        self._absorb_tail()
        return self._row_ids

    @property
    def alive_rows(self) -> np.ndarray:
        """Boolean mask over physical rows: ``True`` where not tombstoned."""
        self._absorb_tail()
        return ~self._tombstones

    def result_view(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(row_ids, alive)`` for mapping kernel outputs to record ids.

        Both are ``None`` while the mapping is trivial (ids equal physical
        rows, nothing tombstoned), which lets the static search path skip
        the extra indexing entirely.
        """
        self._absorb_tail()
        row_ids = None if self._ids_identity else self._row_ids
        alive = None if self._num_dead == 0 else ~self._tombstones
        return row_ids, alive

    @property
    def ids_ascending(self) -> bool:
        """Whether record ids increase with the physical row.

        True until an :meth:`update` moves an id to a new last row;
        compaction and snapshot loads re-derive it from the rows.
        """
        return self._ids_ascending

    def smallest_live_ids(self, count: int) -> np.ndarray:
        """The ``count`` smallest live record ids, ascending (all, when fewer live).

        A prefix scan of the id→row map that doubles its prefix until it
        holds enough live ids, so a store whose small ids are alive reads
        about ``count`` entries.
        """
        id_rows = self._id_rows[: self._next_id]
        stop = count
        while True:
            live = np.flatnonzero(id_rows[:stop] >= 0)
            if live.size >= count or stop >= id_rows.size:
                return live[:count]
            stop *= 2

    def live_record_ids(self) -> np.ndarray:
        """Record ids of every live row, in physical-row order."""
        self._absorb_tail()
        if self._num_dead == 0:
            return self._row_ids.copy()
        return self._row_ids[~self._tombstones]

    def live_record_sizes(self) -> np.ndarray:
        """Distinct-element counts of live rows, in physical-row order."""
        self._absorb_tail()
        if self._num_dead == 0:
            return self._record_sizes
        return self._record_sizes[~self._tombstones]

    @property
    def row_max(self) -> np.ndarray:
        """Largest stored value per physical row (``0.0`` for empty rows)."""
        self.finalize()
        assert self._row_max is not None
        return self._row_max

    @property
    def row_exact(self) -> np.ndarray:
        """Whether each physical row retains every hash value of its residual."""
        self.finalize()
        assert self._row_exact is not None
        return self._row_exact

    def _lookup_row(self, record_id: int) -> int | None:
        """Physical row of a live record id, or ``None`` when absent."""
        if not 0 <= record_id < self._id_rows.size:
            return None
        row = int(self._id_rows[record_id])
        return None if row < 0 else row

    def _row_of(self, record_id: int) -> int:
        row = self._lookup_row(int(record_id))
        if row is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        return row

    def row_values(self, record_id: int) -> np.ndarray:
        """One live record's stored values (a view into the CSR array)."""
        row = self._row_of(record_id)
        base_rows = int(self._record_sizes.size)
        if row < base_rows:
            start, stop = self._offsets[row], self._offsets[row + 1]
            return self._values[start:stop]
        return self._pending_values[row - base_rows]

    def mask_int(self, record_id: int) -> int:
        """One live record's signature bitmap as a Python integer."""
        row = self._row_of(record_id)
        base_rows = int(self._record_sizes.size)
        if row < base_rows:
            return words_to_mask(self._signatures[row])
        return self._pending_masks[row - base_rows]

    def record_size(self, record_id: int) -> int:
        """Distinct-element count of one live record."""
        row = self._row_of(record_id)
        base_rows = int(self._record_sizes.size)
        if row < base_rows:
            return int(self._record_sizes[row])
        return self._pending_record_sizes[row - base_rows]

    def residual_record_size(self, record_id: int) -> int:
        """Distinct residual element count of one live record."""
        row = self._row_of(record_id)
        base_rows = int(self._record_sizes.size)
        if row < base_rows:
            return int(self._residual_record_sizes[row])
        return self._pending_residual_sizes[row - base_rows]

    # ------------------------------------------------- fused workload kernels
    def match_workload(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse intersection counts of a whole workload, in one fused pass.

        ``values`` holds every query's sorted values, query after query —
        query ``i``'s are ``values[offsets[i]:offsets[i + 1]]`` (a CSR
        column) — and the run is resolved against the value→record join
        index with a single pair of ``searchsorted`` calls.  Returns
        ``(query_ids, rows, counts)`` for exactly the (query, physical
        row) pairs that share a stored value, sorted by query then row:
        one ``np.unique`` over packed ``query * num_rows + row`` keys
        groups the occurrences.  Cost is ``O(matches)``; nothing dense is
        touched, which is what lets the engine score only value-sharing
        pairs with the estimator.
        Tombstoned rows are counted like any other.
        """
        self.finalize()
        assert self._sorted_values is not None and self._sorted_rows is not None
        join_values = self._sorted_values
        empty = np.empty(0, dtype=np.int64)
        if join_values.size == 0:
            return empty, empty, empty
        values = np.asarray(values, dtype=np.float64)
        starts = np.searchsorted(join_values, values, side="left")
        stops = np.searchsorted(join_values, values, side="right")
        positions = _gather_ranges(starts, stops)
        if not positions.size:  # no match (common for one query): skip unique
            return empty, empty, empty
        lengths = np.diff(np.asarray(offsets, dtype=np.int64))
        value_queries = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        query_ids = np.repeat(value_queries, stops - starts)
        num_rows = self.num_rows
        pairs, counts = np.unique(
            query_ids * num_rows + self._sorted_rows[positions], return_counts=True
        )
        query_ids, rows = np.divmod(pairs, num_rows)
        return query_ids, rows, counts

    def pack_signature_masks(self, masks: Sequence[int]) -> np.ndarray:
        """Pack a workload's signature bitmaps into one ``(B, num_words)`` matrix."""
        words = np.zeros((len(masks), self._num_words), dtype=np.uint64)
        for row, mask in enumerate(masks):
            if self._num_words:
                words[row] = mask_to_words(mask, self._num_words)
            elif mask:
                raise ConfigurationError(
                    "bitmap mask has bits beyond the signature width"
                )
        return words

    def signature_overlap_block(
        self,
        query_words: np.ndarray,
        row_lo: int = 0,
        row_hi: int | None = None,
        dtype: np.dtype | type = np.int64,
    ) -> np.ndarray:
        """``(B, block)`` signature overlaps for physical rows ``[row_lo, row_hi)``.

        One broadcast AND + ``bitwise_count`` per signature word, summed
        into the ``(B, block)`` result — no ``(B, block, num_words)``
        intermediate and no reduction over a short trailing axis.  The
        result matrix is why callers sweep the rows in blocks.  Overlaps
        are exact integer popcount sums ``|H_Q ∩ H_X|``; every value is at
        most ``64 × num_words``, so accumulating straight into ``float64``
        — what the scoring engine asks for — or into ``uint8`` when that
        bound fits is exact too.
        """
        self.finalize()
        if row_hi is None:
            row_hi = self.num_rows
        num_queries = int(query_words.shape[0])
        if self._num_words == 0:
            return np.zeros((num_queries, row_hi - row_lo), dtype=dtype)
        block = self._signatures[row_lo:row_hi]

        def word_overlap(word: int) -> np.ndarray:
            return np.bitwise_count(
                block[:, word][np.newaxis, :] & query_words[:, word][:, np.newaxis]
            )

        # The first word's uint8 popcount is handed back untouched when
        # the caller asked for uint8 (the engine's integer hit test does).
        overlap = word_overlap(0).astype(dtype, copy=False)
        for word in range(1, self._num_words):
            overlap += word_overlap(word)
        return overlap


#: The restored dtype of each column :meth:`ColumnarSketchStore.state_arrays` writes.
_STATE_DTYPES = {
    "values": np.float64,
    "offsets": np.int64,
    "signatures": np.uint64,
    "record_sizes": np.int64,
    "residual_record_sizes": np.int64,
    "row_ids": np.int64,
    "tombstones": bool,
}


def _state_problem(
    columns: Mapping[str, np.ndarray], num_words: int, next_id: int
) -> str | None:
    """What, if anything, keeps snapshot columns from forming a store.

    Vectorised ``O(rows)`` checks of the invariants every reader of the
    columns relies on: one entry per row in each per-row column, CSR
    ``offsets`` that start at 0, never decrease and end at
    ``len(values)``, ``rows × num_words`` signature words, and record
    ids in ``[0, next_id)``.  (That no two live rows share an id is
    checked on the id map :meth:`ColumnarSketchStore.from_state` builds.)
    Row order says nothing about ids: ``replace`` moves a record's id to
    a new last row, so any permutation of the ids is a reachable state.
    ``None`` when the invariants hold.
    """
    num_rows = columns["record_sizes"].size
    for name in ("record_sizes", "residual_record_sizes", "row_ids", "tombstones"):
        if columns[name].shape != (num_rows,):
            return f"{name} has shape {columns[name].shape}, expected ({num_rows},)"
    values, offsets = columns["values"], columns["offsets"]
    if values.ndim != 1:
        return f"values has shape {values.shape}, expected one dimension"
    if offsets.shape != (num_rows + 1,):
        return f"offsets has shape {offsets.shape}, expected ({num_rows + 1},)"
    if offsets[0] != 0 or offsets[-1] != values.size:
        return (
            f"offsets run from {offsets[0]} to {offsets[-1]}, "
            f"expected 0 to {values.size}"
        )
    if np.any(offsets[1:] < offsets[:-1]):
        return "offsets decrease"
    if columns["signatures"].size != num_rows * num_words:
        return (
            f"signatures hold {columns['signatures'].size} words, expected "
            f"{num_rows} rows of {num_words}"
        )
    row_ids = columns["row_ids"]
    if num_rows and (row_ids.min() < 0 or row_ids.max() >= next_id):
        return f"row_ids fall outside [0, {next_id})"
    return None


def _merge_sorted_runs(
    base_values: np.ndarray,
    base_rows: np.ndarray,
    tail_values: np.ndarray,
    tail_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted (value, row) runs into one, stably, in linear time.

    Equal values keep base entries before tail entries and preserve each
    run's internal order — exactly the order a stable argsort over the
    concatenated columns would produce, so incremental maintenance is
    indistinguishable from a from-scratch rebuild.
    """
    if tail_values.size == 0:
        return base_values, base_rows
    if base_values.size == 0:
        return tail_values, tail_rows
    total = base_values.size + tail_values.size
    destinations = np.searchsorted(base_values, tail_values, side="right")
    destinations += np.arange(tail_values.size, dtype=np.int64)
    merged_values = np.empty(total, dtype=np.float64)
    merged_rows = np.empty(total, dtype=np.int64)
    base_mask = np.ones(total, dtype=bool)
    base_mask[destinations] = False
    merged_values[destinations] = tail_values
    merged_rows[destinations] = tail_rows
    merged_values[base_mask] = base_values
    merged_rows[base_mask] = base_rows
    return merged_values, merged_rows


def _gather_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], stops[i])`` for all i, vectorised.

    ``repeat`` scatters each range's start (rebased so a global ``arange``
    supplies the within-range offsets) — one pass over the output, no
    per-position binary search.
    """
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    range_starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=range_starts[1:])
    return np.repeat(starts - range_starts, lengths) + np.arange(total, dtype=np.int64)
