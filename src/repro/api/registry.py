"""String-keyed backend registry and self-describing snapshot opening.

The registry maps backend ids (``"gbkmv"``, ``"lsh-ensemble"``, …) to
their :class:`~repro.api.interface.SimilarityIndex` classes, so new
backends plug in as pure registry entries::

    from repro.api import create_index, available_backends, open_index

    index = create_index("gbkmv", records, GBKMVConfig(space_fraction=0.1))
    index.save("index.npz")
    restored = open_index("index.npz")   # dispatches on the embedded backend id

Snapshots are self-describing: every persistent backend embeds an
``api_meta`` entry (format tag + backend id + format version) in its
npz, and :func:`open_index` routes the file to the right backend's
``load`` without the caller knowing what produced it.  Snapshots from
before the tag existed are recognised by their legacy payload keys.
"""

from __future__ import annotations

import inspect
import json
import zipfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro._errors import ConfigurationError, SnapshotFormatError, UnknownBackendError
from repro.api.config import IndexConfig
from repro.api.interface import SimilarityIndex

#: Format tag embedded in every self-describing snapshot.
SNAPSHOT_FORMAT = "repro.api/index"

#: npz entry name of the self-describing snapshot metadata.
API_META_KEY = "api_meta"

#: File name of the manifest inside a directory snapshot.
SNAPSHOT_MANIFEST = "manifest.json"

_BACKENDS: dict[str, type[SimilarityIndex]] = {}
_builtin_loaded = False

#: Payload keys that identify snapshots written before the ``api_meta``
#: tag existed, mapped to the backend that wrote them.
_LEGACY_PAYLOAD_KEYS = {
    "index_meta": "gbkmv",
    "kmv_meta": "kmv",
}


def _ensure_builtin_backends() -> None:
    """Import (and thereby register) the built-in backends, once.

    Deferred so that :mod:`repro.api` stays importable from inside
    :mod:`repro.core` — the backends import the interface at module
    load, and resolve the registry only at first use.
    """
    global _builtin_loaded
    if not _builtin_loaded:
        _builtin_loaded = True
        from repro.api import backends as _backends  # noqa: F401  (registers)


def register_backend(
    cls: type[SimilarityIndex], backend_id: str | None = None
) -> type[SimilarityIndex]:
    """Register a :class:`SimilarityIndex` class under its backend id.

    Re-registering the same class is a no-op; registering a *different*
    class under a taken id is a :class:`ConfigurationError`.  Returns the
    class, so it is usable as a decorator.
    """
    if not (isinstance(cls, type) and issubclass(cls, SimilarityIndex)):
        raise ConfigurationError(
            f"{cls!r} is not a SimilarityIndex subclass and cannot be registered"
        )
    key = cls.backend_id if backend_id is None else str(backend_id)
    if not key:
        raise ConfigurationError(
            f"{cls.__name__} declares no backend_id and none was given"
        )
    existing = _BACKENDS.get(key)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"backend id {key!r} is already registered to {existing.__name__}"
        )
    _BACKENDS[key] = cls
    return cls


def available_backends() -> tuple[str, ...]:
    """Sorted ids of every registered backend."""
    _ensure_builtin_backends()
    return tuple(sorted(_BACKENDS))


def get_backend(backend_id: str) -> type[SimilarityIndex]:
    """The :class:`SimilarityIndex` class registered under ``backend_id``."""
    _ensure_builtin_backends()
    try:
        return _BACKENDS[str(backend_id)]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {backend_id!r}; available backends: "
            f"{', '.join(available_backends())}"
        ) from None


def create_index(
    backend_id: str,
    records: Sequence[Iterable[object]],
    config: IndexConfig | None = None,
) -> SimilarityIndex:
    """Build a registered backend over a dataset.

    ``config`` must be an instance of the backend's declared
    ``config_type`` (or ``None`` for its defaults); a mismatched config
    is rejected up front.
    """
    return get_backend(backend_id).from_records(records, config=config)


# ------------------------------------------------------------------ snapshots
def snapshot_tag(backend_id: str, version: int) -> np.ndarray:
    """The ``api_meta`` npz entry a persistent backend embeds in its save."""
    return np.array(
        json.dumps(
            {
                "format": SNAPSHOT_FORMAT,
                "backend": str(backend_id),
                "version": int(version),
            }
        )
    )


def read_snapshot_tag(arrays: Mapping[str, np.ndarray]) -> dict | None:
    """Parse the ``api_meta`` tag out of loaded npz arrays (``None`` if absent)."""
    if API_META_KEY not in arrays:
        return None
    try:
        tag = json.loads(str(arrays[API_META_KEY][()]))
    except (json.JSONDecodeError, IndexError) as error:
        raise SnapshotFormatError(f"malformed snapshot metadata: {error}") from error
    if not isinstance(tag, dict) or tag.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"unrecognised snapshot format tag {tag!r} "
            f"(this build reads {SNAPSHOT_FORMAT!r})"
        )
    return tag


def directory_manifest(backend_id: str, version: int, **extra: object) -> dict:
    """The ``manifest.json`` payload of a directory snapshot.

    The directory counterpart of :func:`snapshot_tag`: the same format
    tag, backend id and format version, plus whatever backend-specific
    entries the writer appends (array names, shard layout, …).
    """
    manifest: dict = {
        "format": SNAPSHOT_FORMAT,
        "backend": str(backend_id),
        "version": int(version),
    }
    manifest.update(extra)
    return manifest


def read_directory_manifest(path) -> dict:
    """Parse and validate the ``manifest.json`` of a directory snapshot.

    Raises
    ------
    SnapshotFormatError
        If the manifest is missing, unreadable, malformed, or carries a
        foreign format tag.
    """
    manifest_path = Path(path) / SNAPSHOT_MANIFEST
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        raise SnapshotFormatError(
            f"{str(path)!r} is not a directory index snapshot "
            f"(cannot read its {SNAPSHOT_MANIFEST}: {error})"
        ) from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise SnapshotFormatError(
            f"malformed snapshot manifest in {str(path)!r}: {error}"
        ) from error
    if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"unrecognised snapshot manifest in {str(path)!r} "
            f"(this build reads {SNAPSHOT_FORMAT!r})"
        )
    return manifest


def open_index(path, mmap: bool = False) -> SimilarityIndex:
    """Open any saved index, dispatching on its embedded backend id.

    Reads the snapshot's self-describing metadata — the ``api_meta`` tag
    of an npz snapshot, or the ``manifest.json`` of a directory snapshot
    (falling back to legacy payload sniffing for npz snapshots written
    before the tag existed) — and hands the path to the matching
    backend's ``load``.

    Parameters
    ----------
    path:
        An npz snapshot file or a directory snapshot.
    mmap:
        Memory-map the large columns instead of reading them into RAM.
        Only directory snapshots can be mapped (npz archives store
        compressed members), and only for backends whose ``load``
        accepts an ``mmap`` keyword.

    Raises
    ------
    SnapshotFormatError
        If the path is not a recognisable index snapshot.
    UnknownBackendError
        If the snapshot names a backend this build does not register.
    ConfigurationError
        If ``mmap=True`` and the resolved backend cannot memory-map.
    """
    if Path(path).is_dir():
        manifest = read_directory_manifest(path)
        backend_id = str(manifest.get("backend", ""))
        if not backend_id:
            raise SnapshotFormatError(
                f"snapshot manifest in {str(path)!r} names no backend"
            )
        return _dispatch_load(backend_id, path, mmap)
    try:
        # A .npy (or other non-archive) file np.load accepts comes back as
        # a bare ndarray without `files`/context-manager support — reject
        # it as a format error like any other unrecognisable file.
        with np.load(path, allow_pickle=False) as data:
            files = set(data.files)
            tag = read_snapshot_tag(
                {API_META_KEY: data[API_META_KEY]} if API_META_KEY in files else {}
            )
    except (OSError, TypeError, ValueError, zipfile.BadZipFile) as error:
        raise SnapshotFormatError(
            f"cannot read {path!r} as an index snapshot: {error}"
        ) from error
    if tag is not None:
        backend_id = str(tag.get("backend", ""))
    else:
        backend_id = next(
            (
                backend
                for key, backend in _LEGACY_PAYLOAD_KEYS.items()
                if key in files
            ),
            "",
        )
        if not backend_id:
            raise SnapshotFormatError(
                f"{path!r} is not a repro index snapshot (no {API_META_KEY!r} "
                "tag and no recognisable legacy payload)"
            )
    return _dispatch_load(backend_id, path, mmap)


def _dispatch_load(backend_id: str, path, mmap: bool) -> SimilarityIndex:
    """Route a snapshot path to ``backend.load``, forwarding ``mmap``."""
    backend = get_backend(backend_id)
    if not mmap:
        return backend.load(path)
    if "mmap" not in inspect.signature(backend.load).parameters:
        raise ConfigurationError(
            f"backend {backend_id!r} does not support memory-mapped loading"
        )
    return backend.load(path, mmap=True)
