"""Sharded backend: routing, bitwise identity, persistence, validation."""

import numpy as np
import pytest

from repro._errors import (
    ConfigurationError,
    EmptyDatasetError,
    SnapshotFormatError,
)
from repro.api import (
    Capabilities,
    GBKMVConfig,
    GKMVConfig,
    KMVConfig,
    SearchResult,
    ShardedConfig,
    SimilarityIndex,
    available_backends,
    create_index,
    open_index,
    register_backend,
)
from repro.api import registry
from repro.api.config import IndexConfig
from repro.core.index import GBKMVIndex
from repro.hashing import mix64
from repro.sharding.backend import ShardedIndex
from repro.sharding.executor import ShardExecutor
from repro.sharding.partitioner import routing_tables, shard_of, shards_of

_INNER_CONFIGS = {
    "gbkmv": GBKMVConfig(space_fraction=0.15),
    "gkmv": GKMVConfig(space_fraction=0.15),
    "kmv": KMVConfig(space_fraction=0.15),
}


def _dataset(num_records=400, seed=3):
    rng = np.random.default_rng(seed)
    return [
        list(set(rng.zipf(1.4, size=int(rng.integers(3, 40))).tolist()))
        for _ in range(num_records)
    ]


def _queries(num_queries=12, seed=17):
    rng = np.random.default_rng(seed)
    return [
        list(set(rng.zipf(1.4, size=int(rng.integers(5, 20))).tolist()))
        for _ in range(num_queries)
    ]


def _pairs(results):
    return [(hit.record_id, hit.score) for hit in results]


def assert_identical_workload(expected, actual):
    """Bitwise identity: ids, scores and ordering all equal."""
    assert len(expected) == len(actual)
    for expected_hits, actual_hits in zip(expected, actual):
        assert _pairs(expected_hits) == _pairs(actual_hits)


# ---------------------------------------------------------------- routing
def test_shards_of_matches_scalar_routing():
    ids = np.arange(500, dtype=np.uint64)
    vectorised = shards_of(ids, 7)
    assert vectorised.tolist() == [shard_of(i, 7) for i in range(500)]
    assert vectorised.tolist() == [mix64(i) % 7 for i in range(500)]


def test_routing_tables_are_consistent_and_monotone():
    local_ids, shard_globals = routing_tables(1000, 5)
    seen = set()
    for shard, globals_ in enumerate(shard_globals):
        # Local order is global order within a shard (the merge relies
        # on this for tie-breaking) and local ids are arrival ranks.
        assert np.all(np.diff(globals_) > 0) or globals_.size <= 1
        for local, global_id in enumerate(globals_.tolist()):
            assert shard_of(global_id, 5) == shard
            assert local_ids[global_id] == local
            seen.add(global_id)
    assert seen == set(range(1000))


def test_routing_tables_empty():
    local_ids, shard_globals = routing_tables(0, 3)
    assert local_ids.size == 0
    assert all(globals_.size == 0 for globals_ in shard_globals)


def test_shards_are_reasonably_balanced():
    counts = np.bincount(shards_of(np.arange(100_000, dtype=np.uint64), 8))
    assert counts.min() > 0.8 * counts.max()


# ------------------------------------------------------- bitwise identity
@pytest.mark.parametrize("inner_backend", sorted(_INNER_CONFIGS))
@pytest.mark.parametrize("num_shards", [1, 4])
def test_search_identical_to_unsharded(inner_backend, num_shards):
    records, queries = _dataset(), _queries()
    unsharded = create_index(inner_backend, records, _INNER_CONFIGS[inner_backend])
    sharded = create_index(
        "sharded",
        records,
        ShardedConfig(
            num_shards=num_shards,
            inner_backend=inner_backend,
            inner_config=_INNER_CONFIGS[inner_backend],
        ),
    )
    assert sharded.num_records == unsharded.num_records
    for threshold in (0.0, 0.25, 0.6):
        assert_identical_workload(
            unsharded.search_many(queries, threshold),
            sharded.search_many(queries, threshold),
        )
    assert_identical_workload(
        [unsharded.search(query, 0.3) for query in queries],
        [sharded.search(query, 0.3) for query in queries],
    )
    assert_identical_workload(
        unsharded.top_k_many(queries, 7), sharded.top_k_many(queries, 7)
    )
    assert_identical_workload(
        [unsharded.top_k(query, 7) for query in queries],
        [sharded.top_k(query, 7) for query in queries],
    )


@pytest.mark.parametrize("inner_backend", sorted(_INNER_CONFIGS))
def test_identity_survives_insert_delete_update_compaction(inner_backend):
    records, queries = _dataset(300), _queries()
    config = _INNER_CONFIGS[inner_backend]
    unsharded = create_index(inner_backend, records, config)
    sharded = create_index(
        "sharded",
        records,
        ShardedConfig(num_shards=4, inner_backend=inner_backend, inner_config=config),
    )
    batch = _dataset(80, seed=29)
    assert unsharded.insert(batch[0]) == sharded.insert(batch[0]) == 300
    assert unsharded.insert_many(batch[1:]) == sharded.insert_many(batch[1:])
    # Delete enough records to push the inner stores through compaction.
    for record_id in range(0, 300, 2):
        unsharded.delete(record_id)
        sharded.delete(record_id)
    replacement = _dataset(1, seed=31)[0]
    assert unsharded.update(301, replacement) == sharded.update(301, replacement)
    assert sharded.num_records == unsharded.num_records
    for threshold in (0.0, 0.3):
        assert_identical_workload(
            unsharded.search_many(queries, threshold),
            sharded.search_many(queries, threshold),
        )
    assert_identical_workload(
        unsharded.top_k_many(queries, 9), sharded.top_k_many(queries, 9)
    )


def test_global_ids_are_sequential_and_deterministic():
    records = _dataset(100)
    sharded = create_index("sharded", records, ShardedConfig(num_shards=3))
    assert sharded.insert_many(_dataset(10, seed=5)) == list(range(100, 110))
    assert sharded.insert(_dataset(1, seed=7)[0]) == 110
    again = create_index("sharded", records, ShardedConfig(num_shards=3))
    queries = _queries()
    assert_identical_workload(
        sharded_static := again.search_many(queries, 0.3),
        create_index("sharded", records, ShardedConfig(num_shards=3)).search_many(
            queries, 0.3
        ),
    )
    assert sharded_static is not None


def test_unknown_ids_raise_under_the_global_id():
    sharded = create_index("sharded", _dataset(50), ShardedConfig(num_shards=4))
    for bad in (-1, 50, 10_000):
        with pytest.raises(ConfigurationError, match="unknown or deleted"):
            sharded.delete(bad)
    sharded.delete(7)
    with pytest.raises(ConfigurationError, match="unknown or deleted record id 7"):
        sharded.delete(7)
    # A bad record on a live id is reported as what it is, not as an unknown id.
    with pytest.raises(ConfigurationError, match="unsupported element type"):
        sharded.update(8, [1.5, 2.5])


def test_insert_many_validates_before_mutating_any_shard():
    sharded = create_index("sharded", _dataset(40), ShardedConfig(num_shards=4))
    with pytest.raises(ConfigurationError, match="empty record"):
        sharded.insert_many([[1, 2], []])
    assert sharded.num_records == 40
    # The global id sequence is untouched by the failed batch.
    assert sharded.insert([9, 9, 7]) == 40

    # A record ingest rejects on a higher shard than a good record:
    # ShardExecutor.map collects in shard order, so unless the batch is
    # checked first the good shard has ingested by the time the error
    # surfaces, and its orphan row wedges every later insert.
    sharded = create_index("sharded", _dataset(400), ShardedConfig(num_shards=2))
    assert (shard_of(400, 2), shard_of(401, 2)) == (1, 0)
    good = [5, 6, 7]
    for bad, error in (
        ([[1, 2], [3]], TypeError),
        ([1.5, 2.5], ConfigurationError),
        ([None, 1], ConfigurationError),
        (np.array([1.5, 2.5]), ConfigurationError),
    ):
        with pytest.raises(error):
            sharded.insert_many([bad, good])
    assert [shard.num_records for shard in sharded.shards] == [
        len(globals_) for globals_ in routing_tables(400, 2)[1]
    ]
    assert sharded.insert_many([good, [8, 9]]) == [400, 401]
    assert sharded.insert([10, 11]) == 402
    assert len(sharded.top_k(good, 3)) == 3
    assert 400 in {hit.record_id for hit in sharded.search(good, 0.0)}


def test_routing_tables_grow_in_place():
    sharded = create_index("sharded", _dataset(200), ShardedConfig(num_shards=2))
    sharded.insert_many(_dataset(40, seed=5))  # the tables now have spare room
    before = sharded._globals()
    sharded.insert_many(_dataset(4, seed=6))
    after = sharded._globals()
    for old, new in zip(before, after):
        assert np.shares_memory(old, new)
    assert sum(map(len, after)) == sum(map(len, before)) + 4


def test_routing_tables_track_every_mutation():
    sharded = create_index("sharded", _dataset(120), ShardedConfig(num_shards=3))
    extra = _dataset(80, seed=9)
    sharded.insert(extra[0])
    sharded.insert_many(extra[1:30])
    sharded.delete(5)
    sharded.update(7, extra[30])
    sharded.insert(extra[31])
    sharded.delete(130)
    sharded.insert_many(extra[32:80])
    sharded.update(140, extra[0])
    local_ids, shard_globals = routing_tables(sharded.next_record_id, 3)
    assert sharded.next_record_id == 199
    assert [sharded._route(g)[2] for g in range(199)] == local_ids.tolist()
    for maintained, rebuilt in zip(sharded._globals(), shard_globals):
        assert maintained.dtype == np.int64
        assert maintained.tolist() == rebuilt.tolist()


def test_empty_and_single_record_shards():
    records, queries = _dataset(1), _queries()
    unsharded = create_index("gbkmv", records)
    sharded = create_index("sharded", records, ShardedConfig(num_shards=8))
    assert sharded.num_records == 1
    assert_identical_workload(
        unsharded.search_many(queries, 0.0), sharded.search_many(queries, 0.0)
    )
    assert_identical_workload(
        unsharded.top_k_many(queries, 3), sharded.top_k_many(queries, 3)
    )
    # Inserts land in (previously empty) shards and stay searchable.
    new_id = sharded.insert(records[0])
    assert new_id == 1
    hits = sharded.search(records[0], 0.99)
    assert {hit.record_id for hit in hits} == {0, 1}


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        create_index("sharded", [], ShardedConfig(num_shards=2))


def test_search_accepts_generator_queries():
    records = _dataset(60)
    sharded = create_index("sharded", records, ShardedConfig(num_shards=4))
    unsharded = create_index("gbkmv", records)
    query = records[3]
    assert _pairs(sharded.search(iter(query), 0.5)) == _pairs(
        unsharded.search(query, 0.5)
    )


# ------------------------------------------------------------- persistence
def test_sharded_snapshot_round_trip(tmp_path):
    records, queries = _dataset(200), _queries()
    sharded = create_index("sharded", records, ShardedConfig(num_shards=4))
    sharded.insert_many(_dataset(20, seed=23))
    sharded.delete(5)
    path = tmp_path / "sharded.npz"  # a directory despite the name
    sharded.save(path)
    assert path.is_dir()
    assert (path / "manifest.json").exists()
    restored = open_index(path)
    assert isinstance(restored, ShardedIndex)
    assert restored.num_shards == 4
    assert restored.inner_backend == "gbkmv"
    assert restored.num_records == sharded.num_records
    assert_identical_workload(
        sharded.search_many(queries, 0.3), restored.search_many(queries, 0.3)
    )
    assert_identical_workload(
        sharded.top_k_many(queries, 5), restored.top_k_many(queries, 5)
    )


def test_sharded_snapshot_mmap_round_trip_supports_mutation(tmp_path):
    records, queries = _dataset(150), _queries()
    sharded = create_index("sharded", records, ShardedConfig(num_shards=3))
    path = tmp_path / "snapshot"
    sharded.save(path)
    mapped = open_index(path, mmap=True)
    assert isinstance(mapped, ShardedIndex)
    assert_identical_workload(
        sharded.search_many(queries, 0.3), mapped.search_many(queries, 0.3)
    )
    # Mutations must work on a memory-mapped index: tombstones are
    # loaded eagerly and value/signature mutations materialise copies.
    new_id = mapped.insert([1, 2, 3, 4])
    assert new_id == 150
    mapped.delete(new_id)
    mapped.delete(0)
    sharded.delete(0)
    assert_identical_workload(
        sharded.search_many(queries, 0.3), mapped.search_many(queries, 0.3)
    )


def test_sharded_load_rejects_foreign_directories(tmp_path):
    with pytest.raises(SnapshotFormatError):
        open_index(tmp_path)  # no manifest at all
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(SnapshotFormatError):
        open_index(tmp_path)
    (tmp_path / "manifest.json").write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(SnapshotFormatError):
        open_index(tmp_path)


def test_gbkmv_directory_snapshot_and_mmap(tmp_path):
    records, queries = _dataset(120), _queries()
    index = create_index("gbkmv", records, GBKMVConfig(space_fraction=0.2))
    path = tmp_path / "gbkmv-dir"
    index.save(path, layout="dir")
    assert (path / "manifest.json").exists()
    for mmap in (False, True):
        restored = open_index(path, mmap=mmap)
        assert isinstance(restored, GBKMVIndex)
        assert_identical_workload(
            index.search_many(queries, 0.3), restored.search_many(queries, 0.3)
        )
        restored.delete(0)  # tombstones stay writable under mmap
        assert restored.num_records == index.num_records - 1


def test_gbkmv_npz_snapshot_cannot_mmap(tmp_path):
    index = create_index("gbkmv", _dataset(30))
    path = tmp_path / "flat.npz"
    index.save(path)
    with pytest.raises(ConfigurationError, match="directory snapshot"):
        GBKMVIndex.load(path, mmap=True)
    with pytest.raises(ConfigurationError, match="directory snapshot"):
        open_index(path, mmap=True)


def test_gbkmv_unknown_layout_rejected(tmp_path):
    index = create_index("gbkmv", _dataset(10))
    with pytest.raises(ConfigurationError, match="layout"):
        index.save(tmp_path / "x", layout="tar")


def test_mmap_rejected_for_backends_without_support(tmp_path):
    index = create_index("kmv", _dataset(30), KMVConfig())
    path = tmp_path / "kmv.npz"
    index.save(path)
    with pytest.raises(ConfigurationError, match="memory-mapped"):
        open_index(path, mmap=True)


def test_gkmv_directory_snapshot_dispatches_to_wrapper(tmp_path):
    records, queries = _dataset(100), _queries()
    index = create_index("gkmv", records, GKMVConfig(space_fraction=0.2))
    path = tmp_path / "gkmv-dir"
    index.save(path, layout="dir")
    restored = open_index(path, mmap=True)
    assert type(restored).__name__ == "GKMVSearchIndex"
    assert_identical_workload(
        index.search_many(queries, 0.3), restored.search_many(queries, 0.3)
    )


# -------------------------------------------------------------- validation
def test_config_validation():
    records = _dataset(20)
    with pytest.raises(ConfigurationError, match="num_shards"):
        create_index("sharded", records, ShardedConfig(num_shards=0))
    with pytest.raises(ConfigurationError, match="nest"):
        create_index("sharded", records, ShardedConfig(inner_backend="sharded"))
    with pytest.raises(ConfigurationError, match="not dynamic"):
        create_index("sharded", records, ShardedConfig(inner_backend="brute-force"))
    with pytest.raises(ConfigurationError, match="expects a"):
        create_index("sharded", records, GBKMVConfig())
    with pytest.raises(ConfigurationError, match="expects a"):
        create_index(
            "sharded", records, ShardedConfig(inner_config=KMVConfig())
        )  # gbkmv inner with a kmv config


def test_capabilities_mirror_inner_backend():
    sharded = create_index("sharded", _dataset(30), ShardedConfig(num_shards=2))
    assert sharded.capabilities.dynamic
    assert sharded.capabilities.batched
    assert sharded.capabilities.persistent
    assert not sharded.capabilities.exact
    assert sharded.capabilities.scored


# ------------------------------------------- generic dynamic inner backends
class _ToySetBackend(SimilarityIndex):
    """Minimal dynamic exact backend used to exercise the generic planner."""

    backend_id = "toy-dynamic"
    config_type = IndexConfig
    capabilities = Capabilities(
        dynamic=True, batched=False, persistent=False, exact=True, scored=True
    )

    def __init__(self):
        self._records = []

    @classmethod
    def from_records(cls, records, config=None):
        cls.resolve_config(config)
        materialized = [set(record) for record in records]
        if not materialized:
            raise EmptyDatasetError("cannot build an index over an empty dataset")
        if any(not record for record in materialized):
            raise ConfigurationError("records must be non-empty sets of elements")
        index = cls()
        index._records = materialized
        return index

    def insert(self, record):
        materialized = set(record)
        if not materialized:
            raise ConfigurationError("cannot insert an empty record")
        self._records.append(materialized)
        return len(self._records) - 1

    def delete(self, record_id):
        record_id = int(record_id)
        if not 0 <= record_id < len(self._records) or self._records[record_id] is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        self._records[record_id] = None

    def update(self, record_id, record):
        record_id = int(record_id)
        if not 0 <= record_id < len(self._records) or self._records[record_id] is None:
            raise ConfigurationError(f"unknown or deleted record id {record_id}")
        self._records[record_id] = set(record)
        return record_id

    def search(self, query, threshold, query_size=None):
        query = set(query)
        size = len(query) if query_size is None else int(query_size)
        hits = [
            SearchResult(record_id, len(query & record) / size)
            for record_id, record in enumerate(self._records)
            if record is not None and len(query & record) / size >= threshold
        ]
        hits.sort(key=lambda hit: (-hit.score, hit.record_id))
        return hits

    @property
    def num_records(self):
        return sum(1 for record in self._records if record is not None)


@pytest.fixture
def toy_backend(monkeypatch):
    """Register ``_ToySetBackend`` for one test, then restore the registry.

    The built-in backends load first, so the copied registry holds them
    and the restored one still does.
    """
    available_backends()
    monkeypatch.setattr(registry, "_BACKENDS", dict(registry._BACKENDS))
    register_backend(_ToySetBackend)


@pytest.mark.usefixtures("toy_backend")
def test_generic_dynamic_backend_shards_exactly():
    records, queries = _dataset(120), _queries()
    unsharded = _ToySetBackend.from_records(records)
    sharded = create_index(
        "sharded", records, ShardedConfig(num_shards=4, inner_backend="toy-dynamic")
    )
    # Exact backends have no dataset-global parameters, so even the
    # generic planner path reproduces the unsharded results verbatim.
    assert_identical_workload(
        unsharded.search_many(queries, 0.3), sharded.search_many(queries, 0.3)
    )
    assert sharded.insert(records[0]) == 120
    unsharded.insert(records[0])
    sharded.delete(3)
    unsharded.delete(3)
    assert_identical_workload(
        unsharded.search_many(queries, 0.3), sharded.search_many(queries, 0.3)
    )
    # Not persistent: the instance capabilities say so and save refuses.
    assert not sharded.capabilities.persistent
    with pytest.raises(Exception, match="not persistent"):
        sharded.save("nowhere")


@pytest.mark.usefixtures("toy_backend")
def test_generic_backend_rejects_empty_shards():
    with pytest.raises(ConfigurationError, match="empty"):
        create_index(
            "sharded",
            _dataset(1),
            ShardedConfig(num_shards=8, inner_backend="toy-dynamic"),
        )


# ------------------------------------------------------- parallel build
def _shard_state(shard):
    """A shard's sketch state as comparable arrays, per inner backend."""
    if isinstance(shard, GBKMVIndex):  # gbkmv, and gkmv as its subclass
        return shard.store.state_arrays()
    # KMV baseline: the value rows and record sizes are the state.
    return {
        "rows": shard._value_rows,
        "record_sizes": np.asarray(shard._record_sizes),
    }


def assert_identical_shard_states(expected, actual):
    assert expected.num_shards == actual.num_shards
    for expected_shard, actual_shard in zip(expected.shards, actual.shards):
        expected_state = _shard_state(expected_shard)
        actual_state = _shard_state(actual_shard)
        assert expected_state.keys() == actual_state.keys()
        for name in expected_state:
            expected_value = expected_state[name]
            if isinstance(expected_value, list):
                assert len(expected_value) == len(actual_state[name])
                for left, right in zip(expected_value, actual_state[name]):
                    assert np.array_equal(left, right), name
            else:
                assert np.array_equal(expected_value, actual_state[name]), name


@pytest.mark.parametrize("inner_backend", ["gbkmv", "gkmv", "kmv"])
@pytest.mark.parametrize("num_shards", [1, 3, 8])
def test_parallel_build_identical_to_serial(inner_backend, num_shards):
    records = _dataset()
    queries = _queries()
    serial = create_index(
        "sharded",
        records,
        ShardedConfig(
            num_shards=num_shards,
            inner_backend=inner_backend,
            inner_config=_INNER_CONFIGS[inner_backend],
            build_workers=1,
        ),
    )
    parallel = create_index(
        "sharded",
        records,
        ShardedConfig(
            num_shards=num_shards,
            inner_backend=inner_backend,
            inner_config=_INNER_CONFIGS[inner_backend],
            build_workers=3,
        ),
    )
    try:
        assert_identical_shard_states(serial, parallel)
        assert_identical_workload(
            serial.search_many(queries, 0.5), parallel.search_many(queries, 0.5)
        )
    finally:
        serial.close()
        parallel.close()


@pytest.mark.parametrize("inner_backend", ["gbkmv", "kmv"])
def test_process_pool_build_identical_to_serial(inner_backend):
    records = _dataset(num_records=120)
    queries = _queries()
    serial = create_index(
        "sharded",
        records,
        ShardedConfig(
            num_shards=4,
            inner_backend=inner_backend,
            inner_config=_INNER_CONFIGS[inner_backend],
            build_workers=1,
        ),
    )
    process = create_index(
        "sharded",
        records,
        ShardedConfig(
            num_shards=4,
            inner_backend=inner_backend,
            inner_config=_INNER_CONFIGS[inner_backend],
            build_workers=2,
            build_executor="process",
        ),
    )
    try:
        assert_identical_shard_states(serial, process)
        assert_identical_workload(
            serial.search_many(queries, 0.5), process.search_many(queries, 0.5)
        )
    finally:
        serial.close()
        process.close()


def test_parallel_build_identical_to_unsharded_gbkmv():
    records = _dataset()
    queries = _queries()
    unsharded = GBKMVIndex.from_records(records, config=_INNER_CONFIGS["gbkmv"])
    sharded = create_index(
        "sharded",
        records,
        ShardedConfig(
            num_shards=5,
            inner_backend="gbkmv",
            inner_config=_INNER_CONFIGS["gbkmv"],
            build_workers=3,
        ),
    )
    try:
        assert_identical_workload(
            unsharded.search_many(queries, 0.5),
            sharded.search_many(queries, 0.5),
        )
    finally:
        sharded.close()


def test_build_profile_rows_sum_to_dataset_size():
    records = _dataset()
    index = create_index(
        "sharded",
        records,
        ShardedConfig(num_shards=4, inner_backend="gbkmv", build_workers=3),
    )
    try:
        profile = index.last_build_profile
        assert profile is not None
        seconds = profile.stage_seconds()
        assert {"flatten", "vocabulary", "threshold", "sketch", "append"} <= set(seconds)
        assert all(value >= 0.0 for value in seconds.values())
        rows = profile.stage_rows()
        assert rows["flatten"] == len(records)
        # Planned once over the full dataset: one threshold recording.
        assert [stage.name for stage in profile.stages].count("threshold") == 1
        # Per-shard sketch/append recordings sum back to the dataset.
        assert rows["sketch"] == len(records)
        assert rows["append"] == len(records)
    finally:
        index.close()


def test_invalid_build_executor_rejected():
    with pytest.raises(ConfigurationError, match="executor kind"):
        create_index(
            "sharded",
            _dataset(num_records=20),
            ShardedConfig(num_shards=2, build_executor="fiber"),
        )


# ------------------------------------------------------- executor
def test_executor_runs_inline_on_one_worker():
    executor = ShardExecutor(4, max_workers=1)
    assert executor.workers == 1
    assert executor.map(lambda item: item * 2, [1, 2, 3]) == [2, 4, 6]
    # Inline execution never materialises a pool.
    assert executor._pool is None
    executor.close()


def test_executor_honours_oversubscription_guard():
    executor = ShardExecutor(8, max_workers=3)
    try:
        assert executor.workers == 3
        assert executor.map(lambda item: item + 1, list(range(8))) == list(
            range(1, 9)
        )
    finally:
        executor.close()


def test_executor_caps_workers_at_shard_count():
    executor = ShardExecutor(2, max_workers=16)
    assert executor.workers == 2
    executor.close()


def test_executor_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="executor kind"):
        ShardExecutor(2, kind="fiber")
