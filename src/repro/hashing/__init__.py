"""Hashing substrate used by every sketch in the library.

The KMV family of sketches needs a single hash function ``h`` that maps
elements to the unit interval ``[0, 1)`` and behaves like a uniform random
draw per element.  MinHash-based methods additionally need a *family* of
independent such functions.  This subpackage provides both, built on a
splittable 64-bit mixer so that results are deterministic across runs and
platforms (no reliance on Python's randomized ``hash``).

Public API
----------
``UnitHash``
    One hash function ``element -> float in [0, 1)``.
``HashFamily``
    ``k`` independent :class:`UnitHash` functions, with a vectorised
    ``hash_all`` path for whole records.
``mix64`` / ``hash_to_unit``
    Low-level building blocks (stable 64-bit mixing and the 64-bit to
    unit-interval conversion).
"""

from repro.hashing.hash_functions import (
    MAX_UINT64,
    UnitHash,
    check_record,
    element_fingerprint,
    fingerprint_many,
    hash_to_unit,
    materialize_record,
    mix64,
    mix64_many,
)
from repro.hashing.families import HashFamily

__all__ = [
    "MAX_UINT64",
    "UnitHash",
    "HashFamily",
    "check_record",
    "element_fingerprint",
    "fingerprint_many",
    "hash_to_unit",
    "materialize_record",
    "mix64",
    "mix64_many",
]
