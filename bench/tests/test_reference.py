import os

import pytest

import bench.workloads
from bench.reference import Reference
from bench.workloads import Run


def test_helper_samples_on_the_callers_cpu_and_exits_when_closed():
    with Reference() as reference:
        speeds = [reference.speed() for _ in range(2)]
        process = reference._process
        assert len(os.sched_getaffinity(process.pid)) == 1
    assert all(speed > 0 for speed in speeds)
    assert process.returncode == 0


class Clock:
    """A ``time`` stand-in that moves only when told to."""

    now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def advance(self, seconds: float, result=None):
        self.now += seconds
        return result


def test_each_timing_is_scaled_by_the_speed_on_both_sides_of_it(tmp_path, monkeypatch):
    clock = Clock()
    monkeypatch.setattr(bench.workloads, "time", clock)
    speeds = iter([1.0, 0.25, 1.0, 0.64, 0.36])
    run = Run(0, 0.0, None, tmp_path, speeds.__next__)

    # The sample after one set-up is the one before the next: set-ups of
    # 4, 4 and 2.5 s between samples 1.0|0.25|1.0|0.64 take 2 s each on a
    # host of nominal speed.
    durations = iter([4.0, 4.0, 2.5])
    run.setup(lambda: clock.advance(next(durations)))
    assert run.setup_s == pytest.approx([2.0, 2.0, 2.0])
    result, wall, scale = run.timed(clock.advance, 3.0, "answer")
    assert (result, wall) == ("answer", 3.0)
    assert scale == pytest.approx((0.64 * 0.36) ** 0.5)
    assert run.speeds == [1.0, 0.25, 1.0, 0.64, 0.36]

    # 10 operations in 2 s as measured, 1 s scaled.
    run.add_round(False, 10, 2.0, 1.0, [0.1], 0.5)
    metrics = run.end_to_end()
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert (metrics["ops_per_s"], metrics["op_p50_ms"]) == pytest.approx((10.0, 100.0))
    assert (run.info["raw_ops_per_s"], run.info["raw_op_p50_ms"]) == pytest.approx((5.0, 200.0))
    assert run.info["host_speed"] == pytest.approx(0.64)


def test_trace_overhead_pairs_neighbouring_rounds_in_both_orders(tmp_path):
    run = Run(0, 0.0, None, tmp_path, lambda: 1.0)
    # Traced rounds 10% slower, on a host that speeds up by 2% a round.
    for position in range(7):
        traced = position % 2 == 0
        throughput = 100.0 * 1.02**position / (1.1 if traced else 1.0)
        run.add_round(traced, 1, 1.0 / throughput, 1.0 / throughput, [0.1], 1.0)
    # Traced-then-untraced pairs read 1.1 * 1.02, the others 1.1 / 1.02.
    assert run.trace_overhead() == pytest.approx(1.1 * (1.02 + 1 / 1.02) / 2 - 1.0)
