"""Deterministic 64-bit hashing of set elements onto the unit interval.

The paper's sketches (KMV, G-KMV, GB-KMV) all assume a collision-free hash
function ``h : E -> [0, 1]`` whose outputs look like i.i.d. uniform draws.
We implement this with a SplitMix64-style finalizer over a 64-bit
fingerprint of the element, seeded so that independent functions can be
derived for MinHash families.

The implementation is deliberately dependency-light: elements may be
``int``, ``str`` or ``bytes``.  Integers are the common case for the
synthetic datasets used in the benchmarks, and get a fast path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Collection, Iterable

import numpy as np

from repro._errors import ConfigurationError

#: Largest value representable in an unsigned 64-bit integer.
MAX_UINT64 = 0xFFFF_FFFF_FFFF_FFFF

_GOLDEN_GAMMA = 0x9E37_79B9_7F4A_7C15
_MIX_1 = 0xBF58_476D_1CE4_E5B9
_MIX_2 = 0x94D0_49BB_1331_11EB

# A 64-bit value is converted to the unit interval by keeping its top 53
# bits (the double mantissa width) and scaling by 2**-53; every result is
# exactly representable and strictly below 1.0.
_INV_2_53 = float(2.0**-53)


def mix64(value: int) -> int:
    """Finalize a 64-bit integer with the SplitMix64 mixing function.

    The mixer is a bijection on 64-bit integers with excellent avalanche
    behaviour, which is what the uniformity of KMV estimators relies on.

    Parameters
    ----------
    value:
        Any Python integer; only its low 64 bits are used.

    Returns
    -------
    int
        A pseudo-random looking value in ``[0, 2**64)``.
    """
    z = (value + _GOLDEN_GAMMA) & MAX_UINT64
    z = ((z ^ (z >> 30)) * _MIX_1) & MAX_UINT64
    z = ((z ^ (z >> 27)) * _MIX_2) & MAX_UINT64
    return (z ^ (z >> 31)) & MAX_UINT64


def mix64_many(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mix64` over an integer array (uint64 result).

    Element-wise identical to the scalar mixer — the same finalizer, no
    seed fold (:class:`UnitHash` folds its seed in first) — so anything
    that routes on ``mix64(value)`` (e.g. the sharded backend's
    record-id partitioner) can route whole id columns in one pass and
    land every id on the same shard the scalar path would.
    """
    z = np.ascontiguousarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + np.uint64(_GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z = z ^ (z >> np.uint64(31))
    return z


#: The element types a record may hold (``bool`` is an ``int``).
_ELEMENT_TYPES = (int, np.integer, str, bytes)

#: ndarray dtype kinds whose elements are the element types above (bool,
#: unsigned, signed, bytes, str).
_ELEMENT_DTYPE_KINDS = "buiSU"


def _unsupported_element(element_type: type) -> ConfigurationError:
    return ConfigurationError(
        f"unsupported element type {element_type.__name__!r}; "
        "elements must be int, str or bytes"
    )


def element_fingerprint(element: object) -> int:
    """Map an element to a stable 64-bit fingerprint.

    Integers map to themselves (mod 2**64); strings and bytes are folded
    with an FNV-1a pass.  The fingerprint is independent of the process
    (unlike built-in ``hash`` for strings) so sketches are reproducible.

    Raises
    ------
    ConfigurationError
        If the element type is not supported.
    """
    if isinstance(element, bool):
        # bool is a subclass of int but treating True/False as 1/0 is fine.
        return int(element)
    if isinstance(element, (int, np.integer)):
        return int(element) & MAX_UINT64
    if isinstance(element, str):
        data = element.encode("utf-8")
    elif isinstance(element, bytes):
        data = element
    else:
        raise _unsupported_element(type(element))
    # FNV-1a over the byte string, 64-bit.
    acc = 0xCBF2_9CE4_8422_2325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x1000_0000_01B3) & MAX_UINT64
    return acc


#: Record containers that can be read more than once as they are.
_REUSABLE_RECORD_TYPES = (list, tuple, set, frozenset, np.ndarray)


def materialize_record(record: Iterable[object]) -> Collection[object]:
    """The record as a re-iterable container (any other iterable becomes a list).

    A record read more than once — checked, then ingested, or fanned out
    to every shard — must not be a one-shot iterator.
    """
    return record if isinstance(record, _REUSABLE_RECORD_TYPES) else list(record)


def check_record(
    record: Collection[object], empty_message: str = "cannot insert an empty record"
) -> None:
    """Raise what ingesting ``record`` would raise, before anything is ingested.

    Ingest deduplicates a record with ``set`` and then fingerprints its
    elements (:func:`element_fingerprint`).  This checks the same contract
    by type alone, hashing only elements of an unsupported type, so a
    writer can validate a whole batch before any of it lands.  A 1-D
    ndarray is judged by its dtype.

    Raises
    ------
    TypeError
        If an element is unhashable (the error ``set`` raises).
    ConfigurationError
        If the record is empty (with ``empty_message``) or holds an
        element of an unsupported type.
    """
    if len(record) == 0:
        raise ConfigurationError(empty_message)
    if isinstance(record, np.ndarray) and record.ndim == 1 and record.dtype.kind != "O":
        if record.dtype.kind not in _ELEMENT_DTYPE_KINDS:
            raise _unsupported_element(record.dtype.type)
        return
    unsupported = None
    for element in record:
        if not isinstance(element, _ELEMENT_TYPES):
            hash(element)  # an unhashable one raises the TypeError set() would
            unsupported = unsupported or type(element)
    if unsupported is not None:
        raise _unsupported_element(unsupported)


def hash_to_unit(value: int) -> float:
    """Convert a 64-bit hash value to a float in ``[0, 1)``."""
    return ((value & MAX_UINT64) >> 11) * _INV_2_53


def fingerprint_many(elements: Iterable[object]) -> np.ndarray:
    """Fingerprint a whole batch of elements in one pass (uint64 array).

    Element-wise identical to :func:`element_fingerprint`.  Integer (and
    boolean) batches are converted with a single C-level ``asarray`` pass
    — no Python-level type scan; the 64-bit wrap of negative values
    matches the scalar ``int(element) & MAX_UINT64``.  Anything numpy
    cannot represent losslessly as an integer array (strings, bytes,
    mixed types, integers beyond 64 bits) falls back to one ``fromiter``
    pass over the scalar fingerprint.
    """
    if not isinstance(elements, list):
        elements = list(elements)
    if not elements:
        return np.empty(0, dtype=np.uint64)
    if isinstance(elements[0], (int, np.integer)):
        try:
            arr = np.asarray(elements)
        except (OverflowError, ValueError, TypeError):
            arr = None
        # Only integer-kind inferences are lossless: a mixed or oversized
        # batch infers float64/object/str and must take the exact path.
        if arr is not None and arr.ndim == 1 and arr.dtype.kind in "bui":
            return arr.astype(np.uint64)
    return np.fromiter(
        (element_fingerprint(element) for element in elements),
        dtype=np.uint64,
        count=len(elements),
    )


@dataclass(frozen=True)
class UnitHash:
    """A single deterministic hash function ``element -> [0, 1)``.

    Two :class:`UnitHash` objects with the same ``seed`` compute the same
    function, which is what makes sketches comparable: all sketches that
    should be merged or intersected must be built with equal hashers.

    Parameters
    ----------
    seed:
        Seed deriving this member of the implicit hash family.
    """

    seed: int = 0
    #: ``mix64(seed)``, folded into every fingerprint; derived once here.
    _seed_mix: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError("seed must be an integer")
        object.__setattr__(self, "seed", int(self.seed) & MAX_UINT64)
        object.__setattr__(self, "_seed_mix", mix64(self.seed))

    # -- scalar paths ------------------------------------------------------
    def hash_int(self, fingerprint: int) -> float:
        """Hash a pre-computed 64-bit fingerprint to ``[0, 1)``."""
        return hash_to_unit(mix64(fingerprint ^ self._seed_mix))

    def __call__(self, element: object) -> float:
        """Hash an arbitrary supported element to ``[0, 1)``."""
        return self.hash_int(element_fingerprint(element))

    # -- vectorised paths --------------------------------------------------
    def hash_many(self, elements: Iterable[object]) -> np.ndarray:
        """Hash an iterable of elements, returning a float64 array.

        Element-wise identical to the scalar ``__call__``: the batch is
        fingerprinted in one :func:`fingerprint_many` pass and mixed with
        one vectorised SplitMix64 pass — no per-element Python hashing
        even for string/bytes/mixed batches.
        """
        return self.hash_fingerprints(fingerprint_many(elements))

    def hash_fingerprints(self, fingerprints: np.ndarray) -> np.ndarray:
        """Hash an array of pre-computed 64-bit fingerprints to ``[0, 1)``.

        The vectorised counterpart of :meth:`hash_int`; bulk pipelines
        that already hold a fingerprint column use this to skip
        re-fingerprinting.
        """
        fingerprints = np.ascontiguousarray(fingerprints, dtype=np.uint64)
        if fingerprints.size == 0:
            return np.empty(0, dtype=np.float64)
        z = mix64_many(fingerprints ^ np.uint64(self._seed_mix))
        return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def pack(self) -> bytes:
        """Serialize the hasher (its seed) to 8 bytes."""
        return struct.pack("<Q", self.seed)

    @classmethod
    def unpack(cls, data: bytes) -> "UnitHash":
        """Inverse of :meth:`pack`."""
        if len(data) != 8:
            raise ConfigurationError("packed UnitHash must be exactly 8 bytes")
        (seed,) = struct.unpack("<Q", data)
        return cls(seed=seed)
