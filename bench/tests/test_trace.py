import sys
import types

import numpy as np
import pytest

from bench.trace import ROUND, Span, Target, Tracer, Tree, covered_length, layer_metrics

FIXTURE_SOURCE = '''
import threading
import numpy as np

def inner(n):
    return np.arange(n)

def outer(n):
    return inner(n)

def fan(n):
    threads = [threading.Thread(target=inner, args=(n,)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    return n

class Thing:
    def method(self, n):
        return outer(n)

    @classmethod
    def make(cls):
        return cls()
'''


@pytest.fixture
def fixture_module():
    module = types.ModuleType("bench_trace_fixture")
    exec(FIXTURE_SOURCE, module.__dict__)
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def _targets(name):
    return [
        Target(name, "inner", "fx.inner", lambda result: int(result.size)),
        Target(name, "outer", "fx.outer"),
        Target(name, "fan", "fx.fan"),
        Target(name, "Thing.method", "fx.method"),
        Target(name, "Thing.make", "fx.make"),
        Target("bench_no_such_module", "f", "gone.module"),
        Target(name, "missing", "gone.function"),
        Target(name, "Thing.absent", "gone.method"),
    ]


def test_missing_entry_points_are_skipped_and_originals_restored(fixture_module):
    module = fixture_module
    thing = vars(module.Thing)
    originals = (module.inner, module.outer, thing["method"], thing["make"])
    tracer = Tracer(_targets(module.__name__))
    with tracer.traced_round():
        assert module.inner is not originals[0]
        module.Thing.make().method(3)
    assert tracer.skipped == [
        "bench_no_such_module:f",
        "bench_trace_fixture:missing",
        "bench_trace_fixture:Thing.absent",
    ]
    assert (module.inner, module.outer) == originals[:2]
    assert vars(module.Thing)["method"] is originals[2]
    assert vars(module.Thing)["make"] is originals[3]

    tree = Tree.build(tracer.spans)
    by_name = {span.name: span for span in tracer.spans}
    assert set(by_name) == {ROUND, "fx.make", "fx.method", "fx.outer", "fx.inner"}
    assert tree.parents[by_name["fx.make"].id] == by_name[ROUND].id
    assert tree.parents[by_name["fx.inner"].id] == by_name["fx.outer"].id
    assert tree.parents[by_name["fx.outer"].id] == by_name["fx.method"].id
    assert by_name["fx.inner"].count == 3


def test_untraced_round_installs_nothing(fixture_module):
    tracer = Tracer(_targets(fixture_module.__name__))
    original = fixture_module.inner
    with tracer.traced_round(False):
        assert fixture_module.inner is original
        fixture_module.outer(2)
    assert tracer.spans == []


def test_spans_from_other_threads_attach_to_the_enclosing_call(fixture_module):
    tracer = Tracer(_targets(fixture_module.__name__))
    with tracer.traced_round():
        fixture_module.fan(4)
    tree = Tree.build(tracer.spans)
    fan = next(s for s in tracer.spans if s.name == "fx.fan")
    workers = [s for s in tracer.spans if s.name == "fx.inner"]
    assert len(workers) == 2 and all(s.thread != fan.thread for s in workers)
    assert all(tree.parents[s.id] == fan.id for s in workers)
    assert tree.self_time[fan.id] <= fan.duration - max(s.duration for s in workers) + 1e-9


def _span(id_, name, thread, start, end, parent=None, count=None):
    return Span(id_, name, thread, float(start), float(end), parent, count)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "a", 0, 0, 10),
        _span(2, "b", 0, 1, 4, parent=1),
        _span(3, "c", 0, 2, 3, parent=2),
        _span(4, "d", 0, 5, 9, parent=1),
    ]
    tree = Tree.build(spans)
    assert tree.self_time == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})


def test_self_time_counts_overlapping_cross_thread_children_once():
    spans = [
        _span(1, ROUND, 0, -1, 11),
        _span(2, "sharding.search_many", 1, 0, 10),
        _span(3, "core.index.search_many", 2, 1, 6, count=4),
        _span(4, "core.index.search_many", 3, 2, 8, count=6),
        _span(5, "core.store.signature_overlap_block", 2, 3, 4, parent=3, count=100),
    ]
    tree = Tree.build(spans)
    assert tree.parents == {1: None, 2: 1, 3: 2, 4: 2, 5: 3}
    # Children cover [1, 8] of the fan-out's [0, 10].
    assert tree.self_time[2] == pytest.approx(3.0)
    assert tree.self_time[3] == pytest.approx(4.0)
    assert tree.self_time[1] == pytest.approx(2.0)
    assert tree.op[5] == "search_many" and tree.root[5] == 1


def test_a_shard_call_inside_a_sibling_attaches_to_the_fan_out():
    spans = [
        _span(1, "sharding.search_many", 1, 0, 10),
        _span(2, "core.index.search_many", 2, 1, 9),
        _span(3, "core.store.signature_overlap_block", 2, 2, 8, parent=2),
        _span(4, "core.index.search_many", 3, 3, 5),
    ]
    assert Tree.build(spans).parents == {1: None, 2: 1, 3: 2, 4: 1}


def test_fan_out_and_serving_metrics_from_spans():
    tracer = Tracer(())
    tracer.spans = [
        _span(1, ROUND, 0, -1, 11),
        _span(2, "sharding.search_many", 1, 0, 10),
        _span(3, "core.index.search_many", 2, 1, 6, count=4),
        _span(4, "core.index.search_many", 3, 2, 8, count=6),
    ]
    requests = [{"reads": [0.02, 0.03, 0.04], "writes": [0.001], "inserts": 0}]
    metrics = layer_metrics(tracer, requests)
    assert metrics["sharding.fanout_self_ms_mean"] == pytest.approx(3000.0)
    assert metrics["sharding.straggler_ratio"] == pytest.approx(6.0 / 5.5)
    assert metrics["sharding.shard_busy_fraction"] == pytest.approx(11.0 / 20.0)
    assert metrics["serving.requests_per_engine_call"] == pytest.approx(3.0)
    assert metrics["serving.engine_busy_fraction"] == pytest.approx(10.0 / 12.0)
    assert metrics["serving.engine_call_p50_ms"] == pytest.approx(10_000.0)
    assert metrics["serving.wait_ms_mean"] == pytest.approx(30.0 - 10_000.0)
    assert metrics["search_many.core.index.search_many_self_s"] == pytest.approx(11.0)
    assert metrics["core.index.build_self_s"] == 0.0


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8), (9, 20)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 1) == 0.0
    assert np.isclose(covered_length([(-5, 5)], 0, 1), 1.0)
