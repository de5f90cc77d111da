"""How fast the host runs right now, from fixed reference kernels.

The benchmark's machine shares its CPUs with other tenants: the same code
runs 20-40% faster or slower for seconds to minutes at a time, and each of
the two vCPUs drifts on its own.  So every timed operation lies between
two reference samples on the vCPU the benchmark's thread runs on, and its
time is reported scaled to a host of nominal speed (see ``bench/README.md``).
The kernels are fixed code of the benchmark, not the program, so a change
to the program moves the operation and not the reference.

They run in a helper process, ``python3 -m bench.reference``, started once
per run, so nothing the program leaves running in its own process (a busy
thread holding the interpreter lock, a full heap) slows them down.  Each
line the helper reads from stdin asks for one sample; it answers with the
geometric mean, in seconds, of one pass of every kernel, and exits at the
end of its input.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Reference sample of a host of nominal speed, in seconds: about the
#: median sample on the 2-vCPU VM the committed baselines come from.
NOMINAL_S = 0.020


def _kernels() -> list:
    """The reference kernels: what the program's hot paths do, in small.

    Sorting, a streaming popcount and a random gather over arrays larger
    than a tenant's share of the last-level cache, interpreter-bound
    dictionary updates, and many small numpy calls; about 20 ms each.
    """
    import numpy as np

    rng = np.random.default_rng(20190408)
    keys = rng.integers(0, 1 << 62, size=2_000_000)
    words = rng.integers(0, 1 << 63, size=6_000_000, dtype=np.uint64)
    table = rng.random(8_000_000)
    picks = rng.integers(0, table.size, size=1_500_000)
    small = rng.random(64)

    def sort() -> None:
        np.sort(keys)

    def stream() -> None:
        for _ in range(2):
            np.bitwise_count(words).sum()

    def gather() -> None:
        table[picks].sum()

    def interpreter() -> None:
        counts: dict[int, int] = {}
        for i in range(120_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i

    def dispatch() -> None:
        total = small
        for _ in range(12_000):
            total = np.add(total, 1.0)

    return [sort, stream, gather, interpreter, dispatch]


def _serve() -> None:
    import math

    kernels = _kernels()
    for kernel in kernels:  # first touch of every array, untimed
        kernel()
    for _ in sys.stdin:
        logs = []
        for kernel in kernels:
            start = time.perf_counter()
            kernel()
            logs.append(math.log(time.perf_counter() - start))
        print(repr(math.exp(sum(logs) / len(logs))), flush=True)


def _current_cpu() -> int | None:
    """The CPU the calling thread last ran on (Linux), else ``None``."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as stat:
            # Field 39, "processor"; the command name before it may hold spaces.
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Reference:
    """The helper process; use as a context manager so it always ends."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.reference"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def speed(self) -> float:
        """Host speed now: :data:`NOMINAL_S` over one sample taken on the
        caller's CPU (below 1 on a slow host)."""
        cpu = _current_cpu()
        if cpu is not None:
            os.sched_setaffinity(self._process.pid, {cpu})
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with status {self._process.wait()}")
        return NOMINAL_S / float(line)

    def close(self) -> None:
        try:
            self._process.stdin.close()
            self._process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
