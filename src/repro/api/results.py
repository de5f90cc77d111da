"""The result type shared by every search backend.

Lives in :mod:`repro.api` because it is part of the public index
protocol: every :class:`~repro.api.SimilarityIndex` backend returns its
hits as :class:`SearchResult` tuples.
:mod:`repro.core.index` re-exports it, so historical imports keep
working.
"""

from __future__ import annotations

from typing import NamedTuple


class SearchResult(NamedTuple):
    """One hit of a containment similarity search.

    A ``NamedTuple`` rather than a dataclass: result lists run to hundreds
    of thousands of hits per workload, and a tuple is the cheapest object
    to build.  Building them is still one of the larger costs of a
    workload call, so the engine builds each hit once, without a Python
    frame per hit.

    Attributes
    ----------
    record_id:
        Position of the record in the indexed dataset.
    score:
        Estimated containment similarity ``Ĉ(Q, X)``.
    """

    record_id: int
    score: float
