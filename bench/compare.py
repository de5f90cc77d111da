"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are each a run file written by ``bench/run.py --out``
or a directory of them.  For every metric of every workload the table
gives both medians, the change, the parent's interquartile spread as a
share of its median, and how many pairs the change won.  Runs are paired
in seed order, so run both sides with the same seeds.

Verdicts for the end-to-end metrics, with the bounds of ``BENCHMARK.json``:

- ``unresolved`` when the parent's spread is wider than the bound, unless
  every change run reads better (``improved``) or worse by more than the
  bound (``regressed``) than every parent run;
- ``regressed`` when the change's median is worse than the parent's by
  more than the bound;
- ``improved`` when the change wins at least 9 of 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile distance; fewer than 10 pairs can only make that
  ``unresolved``;
- ``unchanged`` otherwise.

Per-layer and informational values are listed without a verdict.
Flagged are: any rise in a workload's error rate (failed / attempted
operations), a change run that failed its correctness checks, and any
change in a value that repeats exactly per seed (``f1``) on a seed both
sides ran.  The exit status is 1 when anything regressed or was flagged,
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Informational values that are deterministic per seed: any change is flagged.
EXACT_PER_SEED = ("f1",)


@dataclass(frozen=True)
class Verdict:
    verdict: str
    parent_median: float
    change_median: float
    #: Change relative to the parent's median, positive when better.
    gain: float
    #: Parent's interquartile distance over its median.
    spread: float
    wins: int
    pairs: int


def judge(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> Verdict:
    """Judge one metric; ``parent``/``change`` are values in pairing order."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent_median
    scale = abs(parent_median) or 1.0
    spread = (q3 - q1) / scale
    gain = sign * (change_median - parent_median) / scale
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)

    def result(verdict: str) -> Verdict:
        return Verdict(
            verdict, parent_median, change_median, gain, spread, wins, len(pairs)
        )

    if bound is None:
        return result("-")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound:
        if all_better:
            return result("improved" if len(pairs) >= MIN_PAIRS else "unresolved")
        if all_worse and gain < -bound:
            return result("regressed")
        return result("unresolved")
    if gain < -bound:
        return result("regressed")
    if wins >= WIN_SHARE * len(pairs) and sign * (change_median - parent_median) > q3 - q1:
        return result("improved" if len(pairs) >= MIN_PAIRS else "unresolved")
    return result("unchanged")


def load_runs(path: Path) -> list[dict]:
    """Run files from one file or a directory of ``*.json`` files, in seed order."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return sorted(runs, key=lambda run: run.get("seed", 0))


def collect(runs: list[dict]) -> tuple[dict, dict]:
    """``(values, health)``: metric values per (workload, section, metric),
    and per workload the (error rate, correct) of every run."""
    values: dict = defaultdict(list)
    health: dict = defaultdict(list)
    for run in runs:
        for workload, record in run["workloads"].items():
            for section in ("end_to_end", "per_layer", "info"):
                for metric, value in record.get(section, {}).items():
                    values[(workload, section, metric)].append(float(value))
            attempted = record.get("attempted") or 1
            health[workload].append((record.get("failed", 0) / attempted, record["correct"]))
    return values, health


def per_seed(runs: list[dict], name: str) -> dict[tuple[str, int], float]:
    """The informational value ``name`` of every run, keyed by (workload, seed)."""
    return {
        (workload, run.get("seed", 0)): float(record["info"][name])
        for run in runs
        for workload, record in run["workloads"].items()
        if name in record.get("info", {})
    }


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> tuple[list, list]:
    """Table rows and flags for two sets of runs."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    parent, parent_health = collect(parent_runs)
    change, change_health = collect(change_runs)
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        workload, section, metric = key
        spec_entry = metrics.get(metric) if section == "end_to_end" else layers.get(metric)
        better = spec_entry["better"] if spec_entry else "higher"
        bound = spec_entry.get("bound") if spec_entry and section == "end_to_end" else None
        rows.append((workload, section, metric, judge(parent[key], change[key], better, bound)))
    flags = []
    for workload in sorted(parent_health.keys() & change_health.keys()):
        worst_parent = max(rate for rate, _ in parent_health[workload])
        worst_change = max(rate for rate, _ in change_health[workload])
        if worst_change > worst_parent:
            flags.append(
                f"{workload}: error rate rose from {worst_parent:.4g} to {worst_change:.4g}"
            )
        if not all(correct for _, correct in change_health[workload]):
            flags.append(f"{workload}: a change run failed its correctness checks")
    for name in EXACT_PER_SEED:
        before, after = per_seed(parent_runs, name), per_seed(change_runs, name)
        for workload, seed in sorted(before.keys() & after.keys()):
            if before[workload, seed] != after[workload, seed]:
                flags.append(
                    f"{workload}: {name} on seed {seed} changed from "
                    f"{before[workload, seed]:.6g} to {after[workload, seed]:.6g}"
                )
    return rows, flags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent run file or directory")
    parser.add_argument("change", type=Path, help="change run file or directory")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, flags = compare(load_runs(args.parent), load_runs(args.change), spec)
    header = ("workload", "metric", "parent", "change", "gain", "spread", "won", "verdict")
    print("{:<14} {:<58} {:>12} {:>12} {:>8} {:>7} {:>6}  {}".format(*header))
    for workload, _section, metric, v in rows:
        print(
            f"{workload:<14} {metric:<58} {v.parent_median:>12.6g} {v.change_median:>12.6g} "
            f"{v.gain:>+8.2%} {v.spread:>7.2%} {v.wins:>3}/{v.pairs:<2}  {v.verdict}"
        )
    for flag in flags:
        print(f"FLAG {flag}")
    regressed = any(v.verdict == "regressed" for *_, v in rows)
    return 1 if regressed or flags else 0


if __name__ == "__main__":
    sys.exit(main())
