"""Unit tests for core data structures: KVSet, Chunk, scheduler, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockPartitioner,
    Chunk,
    ChunkService,
    HashPartitioner,
    KeyValueSet,
    RoundRobinPartitioner,
    WorkerStats,
    combine_by_key_sum,
)
from repro.core.stats import STAGES, JobStats


# ---------------------------------------------------------------------------
# KeyValueSet
# ---------------------------------------------------------------------------

def kv(keys, values, scale=1.0):
    return KeyValueSet(
        keys=np.asarray(keys, dtype=np.uint32),
        values=np.asarray(values),
        scale=scale,
    )


def test_kvset_validation():
    with pytest.raises(ValueError):
        kv([1, 2], [1.0])  # length mismatch
    with pytest.raises(TypeError):
        KeyValueSet(keys=np.array([1.5]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        kv([1], [1.0], scale=0)
    with pytest.raises(ValueError):
        KeyValueSet(keys=np.zeros((2, 2), dtype=np.uint32), values=np.zeros(2))


def test_kvset_byte_accounting():
    s = kv([1, 2, 3], np.ones(3, dtype=np.float64), scale=4.0)
    assert s.pair_bytes == 4 + 8
    assert s.nbytes_actual == 3 * 12
    assert s.nbytes_logical == 3 * 12 * 4
    assert s.logical_pairs == 12


def test_kvset_value_width_2d():
    s = kv([1, 2], np.ones((2, 5), dtype=np.float32))
    assert s.value_width == 5
    assert s.pair_bytes == 4 + 20


def test_kvset_concat_preserves_scale():
    a = kv([1], [1.0], scale=2.0)
    b = kv([2], [2.0], scale=2.0)
    c = KeyValueSet.concat([a, b])
    assert len(c) == 2 and c.scale == 2.0


def test_kvset_concat_rejects_mixed_scales():
    with pytest.raises(ValueError):
        KeyValueSet.concat([kv([1], [1.0], scale=1.0), kv([2], [2.0], scale=2.0)])


def test_kvset_concat_ignores_empty_scale_mismatch():
    full = kv([1], [1.0], scale=2.0)
    empty = KeyValueSet.empty(scale=1.0)
    merged = KeyValueSet.concat([full, empty])
    assert len(merged) == 1 and merged.scale == 2.0


def test_kvset_split_by_preserves_order_and_pairs():
    s = kv([5, 6, 7, 8, 9], [50, 60, 70, 80, 90])
    parts = s.split_by(np.array([1, 0, 1, 0, 1]), 2)
    np.testing.assert_array_equal(parts[0].keys, [6, 8])
    np.testing.assert_array_equal(parts[1].keys, [5, 7, 9])
    np.testing.assert_array_equal(parts[1].values, [50, 70, 90])


def test_kvset_split_by_validates():
    s = kv([1, 2], [1, 2])
    with pytest.raises(ValueError):
        s.split_by(np.array([0]), 2)
    with pytest.raises(ValueError):
        s.split_by(np.array([0, 5]), 2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=0, max_size=60),
    st.integers(1, 7),
)
def test_property_split_by_partitions_everything(keys, n_parts):
    s = kv(keys, list(range(len(keys))))
    ids = np.asarray([k % n_parts for k in keys], dtype=np.int64)
    parts = s.split_by(ids, n_parts)
    assert sum(len(p) for p in parts) == len(s)
    rebuilt = sorted(
        v for p in parts for v in np.atleast_1d(p.values).tolist()
    )
    assert rebuilt == sorted(range(len(keys)))


@settings(max_examples=150, deadline=None)
@given(
    n_parts=st.sampled_from([1, 2, 3, 256, 257]),
    n=st.integers(0, 300),
    id_dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.int32, np.int64, np.uint64]),
    two_d=st.booleans(),
    data=st.data(),
)
def test_property_split_by_matches_boolean_mask_oracle(n_parts, n, id_dtype, two_d, data):
    """Part ``p`` is exactly the pairs whose id is ``p``, in their
    original order — whatever the id dtype, however many parts stay
    empty (257 parts of at most 300 pairs: most of them)."""
    hi = min(n_parts - 1, np.iinfo(id_dtype).max)
    ids = np.asarray(
        data.draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)), dtype=id_dtype
    )
    values = np.arange(n, dtype=np.float64)
    if two_d:
        values = np.column_stack([values, values * 0.5, -values])
    s = KeyValueSet(keys=np.arange(n, dtype=np.uint32) * 7, values=values, scale=2.0)
    parts = s.split_by(ids, n_parts)
    assert len(parts) == n_parts
    for p, part in enumerate(parts):
        mask = ids == p
        assert part.scale == s.scale
        assert part.keys.dtype == s.keys.dtype and part.values.dtype == values.dtype
        assert part.values.shape[1:] == values.shape[1:]
        np.testing.assert_array_equal(part.keys, s.keys[mask])
        np.testing.assert_array_equal(part.values, values[mask])


@pytest.mark.parametrize("id_dtype", [np.int8, np.uint8, np.int64, np.uint64])
def test_kvset_split_by_rejects_out_of_range_ids_of_any_dtype(id_dtype):
    s = kv([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError, match="out of range"):
        s.split_by(np.array([0, 1, 2], dtype=id_dtype), 2)
    if np.dtype(id_dtype).kind == "i":
        with pytest.raises(ValueError, match="out of range"):
            s.split_by(np.array([0, -1, 1], dtype=id_dtype), 2)
    with pytest.raises(TypeError):
        s.split_by(np.array([0.0, 1.0, 1.0]), 2)


def test_combine_by_key_sum_scalar():
    s = kv([3, 1, 3, 1, 2], [1, 10, 2, 20, 5])
    c = combine_by_key_sum(s)
    np.testing.assert_array_equal(c.keys, [1, 2, 3])
    np.testing.assert_array_equal(c.values, [30, 5, 3])


def test_combine_by_key_sum_2d():
    s = kv([1, 0, 1], np.array([[1.0, 2.0], [5.0, 5.0], [3.0, 4.0]]))
    c = combine_by_key_sum(s)
    np.testing.assert_array_equal(c.keys, [0, 1])
    np.testing.assert_array_equal(c.values, [[5.0, 5.0], [4.0, 6.0]])


def test_combine_by_key_sum_empty_passthrough():
    e = KeyValueSet.empty()
    assert len(combine_by_key_sum(e)) == 0


# ---------------------------------------------------------------------------
# Chunk
# ---------------------------------------------------------------------------

def test_chunk_scale_and_wire_bytes():
    c = Chunk(index=0, data=np.zeros(10), logical_items=40, logical_bytes=160)
    assert c.scale == 4.0
    assert c.wire_bytes == 160
    assert c.actual_items == 10


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def make_chunks(n):
    return [
        Chunk(index=i, data=np.zeros(1), logical_items=1, logical_bytes=8)
        for i in range(n)
    ]


def test_scheduler_round_robin_assignment():
    s = ChunkService(make_chunks(7), 3)
    assert [len(q) for q in s._queues] == [3, 2, 2]


def test_scheduler_local_first():
    s = ChunkService(make_chunks(4), 2)
    a = s.request(0)
    assert a.victim == 0 and not a.stolen_by(0)
    assert a.chunk.index == 0


def test_scheduler_steals_from_longest_queue():
    s = ChunkService(make_chunks(6), 3, initial_distribution="single")
    a = s.request(1)
    assert a is not None and a.victim == 0 and a.stolen_by(1)
    # Steal takes from the tail.
    assert a.chunk.index == 5
    assert s.steals == 1


def test_scheduler_no_steal_below_threshold():
    s = ChunkService(make_chunks(1), 2, initial_distribution="single")
    assert s.request(1) is None  # victim has only 1 chunk


def test_scheduler_stealing_disabled():
    s = ChunkService(
        make_chunks(6), 2, initial_distribution="single", enable_stealing=False
    )
    assert s.request(1) is None


def test_scheduler_drains_completely():
    s = ChunkService(make_chunks(10), 4)
    served = 0
    while any(s.request(w) for w in range(4)):
        served += 1
    assert s.remaining == 0


def test_scheduler_validation():
    with pytest.raises(ValueError):
        ChunkService(make_chunks(1), 0)
    s = ChunkService(make_chunks(1), 1)
    with pytest.raises(ValueError):
        s.request(5)


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------

def test_round_robin_partitioner():
    p = RoundRobinPartitioner()
    s = kv([0, 1, 2, 3, 4], np.zeros(5))
    np.testing.assert_array_equal(p.partition(s, 3), [0, 1, 2, 0, 1])


def test_round_robin_partitioner_takes_the_modulus_in_the_key_dtype():
    """No 8-byte temporaries per 4-byte key; the ids are the same
    numbers, and a part count the key dtype cannot hold still works."""
    p = RoundRobinPartitioner()
    keys = np.array([0, 1, 2, 255, 254], dtype=np.uint8)
    s = KeyValueSet(keys=keys, values=np.zeros(5))
    ids = p.partition(s, 3)
    assert ids.dtype == np.uint8
    np.testing.assert_array_equal(ids, keys.astype(np.int64) % 3)
    np.testing.assert_array_equal(p.partition(s, 300), keys)  # 300 > uint8 max
    assert [len(part) for part in s.split_by(p.partition(s, 3), 3)] == [2, 1, 2]


def test_block_partitioner_ranges():
    p = BlockPartitioner(key_space=100)
    s = kv([0, 49, 50, 99], np.zeros(4))
    np.testing.assert_array_equal(p.partition(s, 2), [0, 0, 1, 1])


def test_block_partitioner_clamps_top():
    p = BlockPartitioner(key_space=10)
    s = kv([9, 15], np.zeros(2))  # 15 is out of declared space
    ids = p.partition(s, 4)
    assert ids.max() <= 3


def test_hash_partitioner_in_range_and_spread():
    p = HashPartitioner()
    s = kv(np.arange(1000), np.zeros(1000))
    ids = p.partition(s, 8)
    assert ids.min() >= 0 and ids.max() < 8
    counts = np.bincount(ids, minlength=8)
    assert counts.min() > 60  # roughly uniform


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=100), st.integers(1, 16))
def test_property_partitioners_cover_all_pairs(keys, n_parts):
    s = kv(keys, np.zeros(len(keys)))
    for p in (RoundRobinPartitioner(), HashPartitioner(), BlockPartitioner(2**31)):
        ids = p.partition(s, n_parts)
        assert len(ids) == len(keys)
        assert ids.min() >= 0 and ids.max() < n_parts


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_worker_stats_rejects_bad_input():
    w = WorkerStats(rank=0)
    with pytest.raises(ValueError):
        w.add("unknown-stage", 1.0)
    with pytest.raises(ValueError):
        w.add("map", -1.0)


def test_worker_stats_fractions():
    w = WorkerStats(rank=0)
    w.add("map", 3.0)
    w.add("sort", 1.0)
    assert w.total == 4.0
    assert w.fraction("map") == pytest.approx(0.75)
    assert w.fraction("reduce") == 0.0


def test_job_stats_aggregation():
    w0, w1 = WorkerStats(rank=0), WorkerStats(rank=1)
    w0.add("map", 2.0)
    w1.add("map", 2.0)
    w1.add("bin", 4.0)
    js = JobStats(job_name="j", n_gpus=2, elapsed=5.0, workers=[w0, w1])
    assert js.stage_totals["map"] == 4.0
    assert js.stage_fractions["bin"] == pytest.approx(0.5)
    assert set(js.stage_fractions) == set(STAGES)
