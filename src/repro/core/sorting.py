"""Stable sorts of numeric key columns by packed-key ``np.sort`` passes.

Two kernels share one packing scheme:

* :func:`stable_argsort` equals ``np.argsort(keys, kind="stable")`` of one
  column.  Every whole-column stable sort of construction goes through it,
  as do the query engine's row orders.
* :func:`stable_lexsort` equals ``np.lexsort(keys)`` of several columns,
  the last one primary.  The query engine orders its hits and its running
  top-k lists with it.

numpy's ``np.argsort(kind="stable")`` is a radix sort only for keys of at
most 16 bits; on 64-bit keys it is timsort, and ``np.lexsort`` runs one
comparison sort per key.  Both are an order of magnitude slower than
numpy's (unstable, vectorised) ``np.sort`` of the same number of uint64
values.  The packed kernel gets the stable permutation out of the value
sort:

1. Map each key column to an order-preserving uint64 image and subtract
   its minimum, so the image spans as few bits as the data needs.
   Stacked with the last key's image highest, the images form one
   composite key of ``sum(spans)`` bits whose order is the lexicographic
   order of the columns.
2. Pack the composite's lowest digit above each element's position,
   ``(digit << index_bits) | position``, where ``index_bits =
   bit_length(n - 1)``.  Packed keys are distinct, so any sort orders them
   the same way, and equal digits fall in position order — which is
   stability.  The low ``index_bits`` of the sorted array are the
   permutation.
3. A digit holds ``64 - index_bits`` bits.  When the composite spans
   more, LSD passes sort the next digit of the already permuted keys, each
   pass stable over the previous one: one pass whenever the span fits, two
   for a full-width 64-bit key below 2^32 elements.

The passes carry a fixed cost that numpy's sorts do not, so the choice is
made by input size: columns shorter than :data:`PACKED_SORT_MIN_SIZE`
sort with ``np.lexsort`` itself.  Either way the permutation is bitwise
equal to numpy's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Columns shorter than this sort with ``np.lexsort``, which on one column
#: is ``np.argsort(kind="stable")``.  The packed passes cost about 50 µs
#: more than numpy's sorts on a handful of elements; on a 2-vCPU x86 host
#: the two cross between 600 and 1,000 elements, for one key and for three.
PACKED_SORT_MIN_SIZE = 1024

_SIGN_BIT = np.uint64(1 << 63)


def _key_column(keys: object) -> np.ndarray:
    """``keys`` as a one-dimensional array of an orderable numeric dtype."""
    column = np.asarray(keys)
    if column.ndim != 1:
        raise ValueError("sort keys must be one-dimensional columns")
    if column.dtype.kind not in "buif":
        raise TypeError(f"cannot order {column.dtype} sort keys")
    return column


def _ordered_image(keys: np.ndarray) -> np.ndarray:
    """An order-preserving uint64 image of ``keys`` (may alias them).

    Unsigned and boolean keys map as they are, signed ones by flipping
    the sign bit.  Floats use the IEEE trick — flip every bit of a
    negative, only the sign bit of a non-negative — after ``+ 0.0`` folds
    ``-0.0`` into ``+0.0`` (numpy ranks them equal) and every NaN becomes
    the one positive quiet NaN, above ``+inf``: numpy sorts NaNs last,
    equal to each other.
    """
    kind = keys.dtype.kind
    if kind in "bu":
        return keys.astype(np.uint64, copy=False)
    if kind == "i":
        return keys.astype(np.int64, copy=False).view(np.uint64) ^ _SIGN_BIT
    with np.errstate(invalid="ignore"):  # a signalling NaN sets the flag
        values = np.add(keys, 0.0, dtype=np.float64)
    values[np.isnan(values)] = np.nan
    bits = values.view(np.uint64)
    bits ^= (values.view(np.int64) >> 63).view(np.uint64) | _SIGN_BIT
    return bits


def packed_lexsort(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort(keys)`` by packed-key passes, at any size.

    ``keys`` are equal-length, one-dimensional numeric columns, the last
    one primary.  The public kernels validate the columns and call this
    from :data:`PACKED_SORT_MIN_SIZE` elements up.
    """
    size = keys[0].size
    if size < 2:
        return np.arange(size, dtype=np.int64)
    # (image, offset of its lowest bit in the composite, span) per column;
    # a constant column cannot reorder anything and is left out.
    fields: list[tuple[np.ndarray, int, int]] = []
    total_bits = 0
    for key in keys:
        image = _ordered_image(key)
        image = image - image.min()
        span = int(image.max()).bit_length()
        if span:
            fields.append((image, total_bits, span))
            total_bits += span
    index_bits = (size - 1).bit_length()
    digit_bits = 64 - index_bits
    index_mask = np.uint64((1 << index_bits) - 1)
    positions = np.arange(size, dtype=np.uint64)
    order: np.ndarray | None = None
    for low in range(0, total_bits, digit_bits):
        packed: np.ndarray | None = None
        for image, offset, span in fields:
            if offset + span <= low or offset >= low + digit_bits:
                continue
            # Left shifts drop the bits that belong to later passes.
            if order is None:
                # The first pass may reuse an image no later pass reads.
                last_use = offset + span <= digit_bits
                part = np.left_shift(
                    image, offset + index_bits, out=image if last_use else None
                )
            else:
                part = image[order]
                if offset < low:
                    part >>= low - offset  # bits earlier passes sorted
                    part <<= index_bits
                else:
                    part <<= offset - low + index_bits
            if packed is None:
                packed = part
            else:
                packed |= part
        packed |= positions
        packed.sort()
        packed &= index_mask
        step = packed.view(np.int64)
        order = step if order is None else order[step]
    return np.arange(size, dtype=np.int64) if order is None else order


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for a bool, integer or float column.

    Returns the int64 permutation that sorts ``keys`` ascending, equal
    keys in position order and NaNs last.

    Raises
    ------
    ValueError
        If ``keys`` is not one-dimensional.
    TypeError
        If ``keys`` is not of a bool, integer or floating dtype.
    """
    return stable_lexsort([keys])


def stable_lexsort(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort(keys)`` for bool, integer or float key columns.

    Returns the int64 permutation that sorts by the last column, ties by
    the one before it and so on, with rows tied on every column in
    position order and NaNs last within each column.

    Raises
    ------
    TypeError
        If ``keys`` holds no column, or a column is not of a bool,
        integer or floating dtype.
    ValueError
        If a column is not one-dimensional, or the columns differ in
        length.
    """
    columns = [_key_column(key) for key in keys]
    if not columns:
        raise TypeError("stable_lexsort needs at least one key column")
    size = columns[0].size
    if any(column.size != size for column in columns):
        raise ValueError("sort key columns must have equal lengths")
    if size < PACKED_SORT_MIN_SIZE:
        return np.lexsort(columns)
    return packed_lexsort(columns)
