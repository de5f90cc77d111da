"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]

With ``--workload`` one workload runs in this process: it prints one
``workload metric value unit`` line per metric and, as its last line, a
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying
the end-to-end metrics of ``BENCHMARK.json`` (or, with ``--trace 1``,
its per-layer metrics).  Without ``--workload`` every workload runs in
its own subprocess, so ``peak_rss_mb`` is per workload.  A failed
correctness check is named on stderr and makes the exit status 1.

The program is imported from ``src/`` next to this directory; nothing
needs installing.  Scratch snapshots and trace files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def _parse(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="length of the timed phase (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="trace layer boundaries and report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="also write the results to this JSON run file")
    return parser.parse_args(argv)


def _lines(workload: str, values: dict, units: dict) -> list[str]:
    return [f"{workload} {name} {values[name]:.6g} {units[name]}" for name in units]


def _finite(value) -> float:
    """``value`` as a float, or 0.0 when it is missing or not finite (a failed run)."""
    return float(value) if value is not None and math.isfinite(value) else 0.0


def run_one(args: argparse.Namespace, spec: dict) -> tuple[dict, bool]:
    """Run ``args.workload`` here; print its lines and return its record."""
    from bench.reference import Reference
    from bench.trace import TARGETS, Tracer, layer_metrics, round_stage_checks
    from bench.workloads import UNTRACED, WORKLOADS, Run

    skip = UNTRACED.get(args.workload, frozenset())
    tracer = Tracer([t for t in TARGETS if t.attr not in skip]) if args.trace else None
    scratch = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with Reference() as reference:
            run = Run(args.seed, args.seconds, tracer, scratch, reference.speed)
            WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.check(
        "no-failed-operations",
        f"{run.failed} of {run.attempted} operations raised" if run.failed else None,
    )

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = run.end_to_end()
    lines = _lines(args.workload, end_to_end, e2e_units)
    record: dict = {"end_to_end": end_to_end}
    if tracer is not None:
        per_layer = layer_metrics(tracer, run.trace_requests or None)
        if run.trace_profiles:
            problems = round_stage_checks(tracer, run.trace_profiles, run.trace_walls)
            run.check("trace-profile-agreement", problems[0] if problems else None)
        run.info["trace_overhead"] = run.trace_overhead()
        tracer.dump(
            OUT_DIR / f"trace-{args.workload}.json",
            workload=args.workload,
            seed=args.seed,
            trace_overhead=run.info["trace_overhead"],
        )
        lines += _lines(args.workload, per_layer, layer_units)
        record["per_layer"] = per_layer
        if tracer.skipped:
            print(f"trace skipped missing entry points: {tracer.skipped}", file=sys.stderr)
    run.info["error_rate"] = run.failed / run.attempted if run.attempted else 0.0
    lines += [f"{args.workload} {name} {value:.6g} info" for name, value in run.info.items()]

    reported = record["per_layer"] if tracer is not None else end_to_end
    units = layer_units if tracer is not None else e2e_units
    absent = [name for name in units if not math.isfinite(reported.get(name, math.nan))]
    run.check("metrics-complete", f"no finite value for {absent}" if absent else None)
    failed_checks = {name: problem for name, problem in run.checks.items() if problem}
    for name, problem in failed_checks.items():
        print(f"FAILED check {name}: {problem}", file=sys.stderr)
    result = {
        "correct": not failed_checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": _finite(reported.get(name)), "unit": unit}
            for name, unit in units.items()
        },
    }
    record.update(result, info=run.info, checks=run.checks, rounds=run.round_summaries())
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return record, not failed_checks


def run_all(args: argparse.Namespace, spec: dict) -> tuple[dict, bool]:
    """Run every workload in its own subprocess, one after another."""
    records, ok = {}, True
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        part = OUT_DIR / f"part-{workload}-{os.getpid()}.json"
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(part),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        # Forward the metric lines; the JSON result line is in the run file.
        lines = completed.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            lines.pop()
        print("\n".join(lines), flush=True)
        ok = ok and completed.returncode == 0
        if part.exists():
            records.update(json.loads(part.read_text(encoding="utf-8"))["workloads"])
            part.unlink()
        else:
            ok = False
            print(
                f"FAILED workload {workload}: exit status {completed.returncode}", file=sys.stderr
            )
    return records, ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's source {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # Import ``bench`` as a package from the root (its trace module would
    # shadow the standard library's if this directory led sys.path).
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [p for p in sys.path if p != here]
    if args.workload is None:
        records, ok = run_all(args, spec)
    else:
        record, ok = run_one(args, spec)
        records = {args.workload: record}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace)}
        payload["workloads"] = records
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
