"""Stable argsort of one key column by packed-key ``np.sort`` passes.

Every construction sort of the bulk pipeline is a *stable* argsort of one
numeric column (or two, as LSD passes).  numpy's
``np.argsort(kind="stable")`` is a radix sort only for keys of at most 16
bits; on 64-bit keys it is timsort, a comparison sort that is an order of
magnitude slower than numpy's (unstable, vectorised) ``np.sort`` of the
same number of uint64 values.  :func:`stable_argsort` gets the stable
permutation out of the value sort:

1. Map the keys to an order-preserving uint64 image and subtract its
   minimum, so the image spans as few bits as the data needs.
2. Pack each key's digit above its position, ``(digit << index_bits) |
   position``, where ``index_bits = bit_length(n - 1)``.  Packed keys are
   distinct, so any sort orders them the same way, and equal digits fall
   in position order — which is stability.  The low ``index_bits`` of
   the sorted array are the permutation.
3. A digit holds ``64 - index_bits`` bits.  When the image spans more,
   LSD passes sort the next digit of the already permuted image, each
   pass stable over the previous one: one pass whenever the span fits,
   two for full-width 64-bit keys below 2^32 elements.

The result is bitwise equal to ``np.argsort(keys, kind="stable")``.
"""

from __future__ import annotations

import numpy as np

_SIGN_BIT = np.uint64(1 << 63)


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
    if kind == "f":
        with np.errstate(invalid="ignore"):  # a signalling NaN sets the flag
            values = np.add(keys, 0.0, dtype=np.float64)
        values[np.isnan(values)] = np.nan
        bits = values.view(np.uint64)
        bits ^= (values.view(np.int64) >> 63).view(np.uint64) | _SIGN_BIT
        return bits
    raise TypeError(f"stable_argsort cannot order {keys.dtype} keys")


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
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("stable_argsort orders a one-dimensional key column")
    image = _ordered_image(keys)
    size = keys.size
    if size < 2:
        return np.arange(size, dtype=np.int64)
    image = image - image.min()
    span_bits = int(image.max()).bit_length()
    index_bits = (size - 1).bit_length()
    digit_bits = 64 - index_bits
    index_mask = np.uint64((1 << index_bits) - 1)
    positions = np.arange(size, dtype=np.uint64)
    order: np.ndarray | None = None
    while True:
        final = span_bits <= digit_bits
        # The left shift drops everything above the low digit; the final
        # pass reuses the image's memory, which nothing reads afterwards.
        packed = np.left_shift(image, index_bits, out=image if final else None)
        packed |= positions
        packed.sort()
        packed &= index_mask
        step = packed.view(np.int64)
        order = step if order is None else order[step]
        if final:
            return order
        image = image[step]
        image >>= digit_bits
        span_bits -= digit_bits
