"""Exact bitmap buffer over the globally most frequent elements.

GB-KMV augments the G-KMV sketch with a per-record bitmap of size ``r``
that tracks, exactly, which of the ``r`` globally most frequent elements
(``E_H`` in the paper) the record contains.  Intersections over this part
are exact bitwise ANDs; the G-KMV estimator only has to cover the
residual, low-frequency elements (Section IV-A(3)).

Two classes:

``FrequentElementVocabulary``
    The shared mapping from the top-``r`` frequent elements to bit
    positions.  Built once per dataset, shared by every record buffer and
    by query buffers.
``FrequentElementBuffer``
    A single record's bitmap, stored as a Python integer bit mask (fast
    AND + ``bit_count``) plus the element count.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._errors import ConfigurationError, SketchCompatibilityError

#: The paper accounts buffer space as ``r / 32`` "signature units" per
#: record, i.e. one stored hash value is worth 32 buffer bits.
BITS_PER_SIGNATURE_UNIT = 32


class FrequentElementVocabulary:
    """Mapping from the top-``r`` most frequent elements to bit positions.

    Parameters
    ----------
    elements:
        The frequent elements, ordered by decreasing frequency.  Position
        ``i`` of this sequence becomes bit ``i`` of every buffer.
    """

    __slots__ = ("_positions", "_elements")

    def __init__(self, elements: Sequence[object]) -> None:
        self._elements: tuple[object, ...] = tuple(elements)
        self._positions: dict[object, int] = {}
        for position, element in enumerate(self._elements):
            if element in self._positions:
                raise ConfigurationError(
                    f"duplicate frequent element {element!r} in vocabulary"
                )
            self._positions[element] = position

    @classmethod
    def from_frequencies(
        cls, frequencies: Mapping[object, int] | Counter, size: int
    ) -> "FrequentElementVocabulary":
        """Select the ``size`` most frequent elements from a frequency table.

        Ties are broken deterministically by the element representation so
        that vocabulary construction is reproducible.  Only the elements
        that can actually place (count at least the ``size``-th largest,
        found with one numpy partition) enter the Python comparison sort,
        so selection stays cheap even over large element universes —
        while producing exactly the ranking a full sort would.
        """
        if size < 0:
            raise ConfigurationError("vocabulary size must be non-negative")
        items = list(frequencies.items())
        if 0 < size < len(items):
            counts = np.fromiter(
                (count for _element, count in items),
                dtype=np.float64,
                count=len(items),
            )
            # The size-th largest count: anything strictly below it can
            # never rank in the top ``size``; ties at the cutoff stay in
            # and are resolved by the exact comparison sort below.
            cutoff = np.partition(counts, len(items) - size)[len(items) - size]
            items = [item for item in items if item[1] >= cutoff]
        ranked = sorted(items, key=lambda item: (-item[1], repr(item[0])))
        return cls([element for element, _count in ranked[:size]])

    @classmethod
    def from_records(
        cls, records: Iterable[Iterable[object]], size: int
    ) -> "FrequentElementVocabulary":
        """Count element frequencies over a dataset and keep the top ``size``."""
        counts: Counter = Counter()
        for record in records:
            counts.update(set(record))
        return cls.from_frequencies(counts, size)

    # -- introspection -----------------------------------------------------
    @property
    def size(self) -> int:
        """Number of frequent elements (bitmap width ``r``)."""
        return len(self._elements)

    @property
    def elements(self) -> tuple[object, ...]:
        """The frequent elements, ordered by bit position."""
        return self._elements

    def __len__(self) -> int:
        return self.size

    def __contains__(self, element: object) -> bool:
        return element in self._positions

    def __iter__(self) -> Iterator[object]:
        return iter(self._elements)

    def position(self, element: object) -> int:
        """Bit position of a frequent element.

        Raises
        ------
        KeyError
            If the element is not part of the vocabulary.
        """
        return self._positions[element]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequentElementVocabulary):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"FrequentElementVocabulary(size={self.size})"

    # -- space accounting --------------------------------------------------
    def buffer_cost_in_values(self) -> float:
        """Per-record space cost of a buffer, in signature-value units.

        The paper charges ``r / 32`` units per record (one 32-bit word can
        hold 32 bitmap bits, whereas one signature value occupies a word).
        """
        return self.size / BITS_PER_SIGNATURE_UNIT

    # -- buffer construction -----------------------------------------------
    def buffer_for(self, record: Iterable[object]) -> "FrequentElementBuffer":
        """Build the bitmap buffer of a record under this vocabulary."""
        mask = 0
        for element in set(record):
            position = self._positions.get(element)
            if position is not None:
                mask |= 1 << position
        return FrequentElementBuffer(vocabulary=self, mask=mask)

    def split_record(
        self, record: Iterable[object]
    ) -> tuple["FrequentElementBuffer", list[object]]:
        """Split a record into its buffer and its residual (infrequent) elements.

        The residual list is in no particular order; its consumers hash
        and sort it.
        """
        distinct = set(record)
        positions = self._positions
        mask = 0
        # The dict-view intersection walks the smaller of the two sides.
        for element in positions.keys() & distinct:
            mask |= 1 << positions[element]
        residual = list(distinct.difference(positions))
        return FrequentElementBuffer(vocabulary=self, mask=mask), residual


class FrequentElementBuffer:
    """Bitmap over the frequent-element vocabulary for one record."""

    __slots__ = ("_vocabulary", "_mask")

    def __init__(self, vocabulary: FrequentElementVocabulary, mask: int = 0) -> None:
        if mask < 0:
            raise ConfigurationError("bitmap mask must be non-negative")
        if mask >> vocabulary.size:
            raise ConfigurationError(
                "bitmap mask has bits set beyond the vocabulary size"
            )
        self._vocabulary = vocabulary
        self._mask = int(mask)

    # -- introspection -----------------------------------------------------
    @property
    def vocabulary(self) -> FrequentElementVocabulary:
        """The shared vocabulary this buffer is defined over."""
        return self._vocabulary

    @property
    def mask(self) -> int:
        """Raw integer bit mask."""
        return self._mask

    @property
    def count(self) -> int:
        """Number of frequent elements present in the record."""
        return self._mask.bit_count()

    def __len__(self) -> int:
        return self.count

    def __contains__(self, element: object) -> bool:
        try:
            position = self._vocabulary.position(element)
        except KeyError:
            return False
        return bool((self._mask >> position) & 1)

    def elements(self) -> list[object]:
        """The frequent elements present in the record."""
        return [
            element
            for position, element in enumerate(self._vocabulary.elements)
            if (self._mask >> position) & 1
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequentElementBuffer):
            return NotImplemented
        return self._vocabulary == other._vocabulary and self._mask == other._mask

    def __repr__(self) -> str:
        return f"FrequentElementBuffer(count={self.count}, width={self._vocabulary.size})"

    # -- set operations ----------------------------------------------------
    def _check_compatible(self, other: "FrequentElementBuffer") -> None:
        if self._vocabulary is not other._vocabulary and self._vocabulary != other._vocabulary:
            raise SketchCompatibilityError(
                "buffers built over different frequent-element vocabularies"
            )

    def intersection_count(self, other: "FrequentElementBuffer") -> int:
        """Exact ``|H_Q ∩ H_X|`` — number of shared frequent elements."""
        self._check_compatible(other)
        return (self._mask & other._mask).bit_count()

    def union_count(self, other: "FrequentElementBuffer") -> int:
        """Exact number of frequent elements present in either record."""
        self._check_compatible(other)
        return (self._mask | other._mask).bit_count()

    def difference_count(self, other: "FrequentElementBuffer") -> int:
        """Exact number of frequent elements in ``self`` but not ``other``."""
        self._check_compatible(other)
        return (self._mask & ~other._mask).bit_count()
