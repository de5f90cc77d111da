"""The base every exact searcher shares: static, in-memory and exact."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.api.config import ExactSearchConfig
from repro.api.interface import Capabilities, SimilarityIndex


class ExactSearcher(SimilarityIndex):
    """An exact containment searcher built straight from its records.

    Subclasses take the dataset as their only constructor argument and
    score every hit with its exact containment similarity.
    """

    config_type = ExactSearchConfig
    capabilities = Capabilities(
        dynamic=False, batched=False, persistent=False, exact=True, scored=True
    )

    @classmethod
    def from_records(
        cls,
        records: Sequence[Iterable[object]],
        config: ExactSearchConfig | None = None,
    ) -> "ExactSearcher":
        """:mod:`repro.api` entry point: the constructor (the config has no fields)."""
        cls.resolve_config(config)
        return cls(records)
