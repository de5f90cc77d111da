"""Order-preserving thread-pool fan-out over shards.

A thread pool is the right executor for both search and build: every
per-shard kernel bottoms out in numpy ufuncs and BLAS-free array
reductions that release the GIL, so shards genuinely run in parallel on
multi-core machines, while the shard indexes themselves stay plain
shared-memory objects — no pickling, no copies.

The pool is created lazily and sized ``min(max_workers or cpu_count,
num_shards)``; single-worker configurations (or single-item fan-outs)
run inline so a 1-core machine pays zero pool overhead.  An explicit
``max_workers`` below the shard count is honoured as an
oversubscription guard: a build fanning 16 shards across 4 cores can
pin the pool at 4 workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro._errors import ConfigurationError

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


class ShardExecutor:
    """Fan a callable across shard-parallel work items, preserving order."""

    def __init__(self, num_shards: int, max_workers: int | None = None) -> None:
        if int(num_shards) < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if max_workers is not None and int(max_workers) < 1:
            raise ConfigurationError("max_workers must be at least 1")
        limit = (os.cpu_count() or 1) if max_workers is None else int(max_workers)
        self._workers = max(1, min(limit, int(num_shards)))
        self._pool: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        """Resolved pool width (1 means every fan-out runs inline)."""
        return self._workers

    def map(
        self,
        fn: Callable[[_Item], _Result],
        items: Iterable[_Item] | Sequence[_Item],
    ) -> list[_Result]:
        """Apply ``fn`` to every item, returning results in item order.

        Runs inline when the pool is single-worker or there is at most
        one item; otherwise on the lazily created pool.  Like
        ``Executor.map``, the first exception propagates.
        """
        items = list(items)
        if self._workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-shard"
            )
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Shut the pool down (idempotent; the executor stays usable inline)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
