"""Unit tests for the combine substages and sorters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonSorter,
    KeyValueSet,
    RadixSorter,
    SumAccumulator,
    SumCombiner,
    SumPartialReducer,
)
from repro.hw.kernel import kernel_duration
from repro.hw.specs import GT200
from repro.util.rng import generator


def kv(keys, values, scale=1.0):
    return KeyValueSet(
        keys=np.asarray(keys, dtype=np.uint32), values=np.asarray(values), scale=scale
    )


# ---------------------------------------------------------------------------
# SumPartialReducer / SumCombiner
# ---------------------------------------------------------------------------

def test_partial_reducer_merges_like_keys():
    pr = SumPartialReducer()
    out = pr.partial_reduce(kv([2, 1, 2, 1, 2], [1, 1, 1, 1, 1]))
    np.testing.assert_array_equal(out.keys, [1, 2])
    np.testing.assert_array_equal(out.values, [2, 3])


def test_partial_reducer_preserves_scale():
    pr = SumPartialReducer()
    out = pr.partial_reduce(kv([1, 1], [1, 1], scale=8.0))
    assert out.scale == 8.0


def test_partial_reducer_cost_nonzero():
    launches = SumPartialReducer().partial_reduce_cost(1 << 20, 1 << 10, 8)
    assert len(launches) >= 2  # sort passes + segmented reduce
    assert sum(kernel_duration(GT200, l) for l in launches) > 0


def test_combiner_equivalent_to_partial_reducer_functionally():
    data = kv([5, 3, 5, 3, 5, 9], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    a = SumCombiner().combine(data)
    b = SumPartialReducer().partial_reduce(data)
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.values, b.values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-50, 50)), min_size=1, max_size=200))
def test_property_combine_conserves_sums(pairs):
    keys = [k for k, _ in pairs]
    values = [v for _, v in pairs]
    out = SumCombiner().combine(kv(keys, np.asarray(values, dtype=np.int64)))
    # Total conserved; one output per distinct key; keys ascending.
    assert int(out.values.sum()) == sum(values)
    assert len(out) == len(set(keys))
    assert np.all(np.diff(out.keys.astype(np.int64)) > 0)


# ---------------------------------------------------------------------------
# SumAccumulator
# ---------------------------------------------------------------------------

def test_accumulator_validation():
    with pytest.raises(ValueError):
        SumAccumulator(0)


def test_accumulator_initial_state_is_exact_scale():
    acc = SumAccumulator(10)
    state = acc.initial_state(fresh_scale=16.0)
    assert state.scale == 1.0
    assert len(state) == 10
    np.testing.assert_array_equal(state.values, np.zeros(10))


def test_accumulator_accumulate_adds_in_place():
    acc = SumAccumulator(4, value_dtype=np.int64)
    state = acc.initial_state(1.0)
    acc.accumulate(state, kv([1, 3, 1], np.array([5, 7, 2], dtype=np.int64)))
    np.testing.assert_array_equal(state.values, [0, 7, 0, 7])


def test_accumulator_rejects_out_of_universe_keys():
    acc = SumAccumulator(4)
    state = acc.initial_state(1.0)
    with pytest.raises(ValueError):
        acc.accumulate(state, kv([7], [1.0]))


def test_accumulator_empty_fresh_noop():
    acc = SumAccumulator(4)
    state = acc.initial_state(1.0)
    out = acc.accumulate(state, KeyValueSet.empty())
    assert out is state


def test_accumulator_vector_values():
    acc = SumAccumulator(3, value_width=2)
    state = acc.initial_state(1.0)
    fresh = KeyValueSet(
        keys=np.array([0, 2], dtype=np.uint32),
        values=np.array([[1.0, 2.0], [3.0, 4.0]]),
    )
    acc.accumulate(state, fresh)
    np.testing.assert_array_equal(state.values[0], [1.0, 2.0])
    np.testing.assert_array_equal(state.values[2], [3.0, 4.0])


def test_accumulator_atomic_vs_pool_costs():
    atomic = SumAccumulator(1000, use_atomics=True)
    pools = SumAccumulator(1000, use_atomics=False)
    t_atomic = sum(
        kernel_duration(GT200, l) for l in atomic.accumulate_cost(1 << 20, 1000, 8)
    )
    t_pools = sum(
        kernel_duration(GT200, l) for l in pools.accumulate_cost(1 << 20, 1000, 8)
    )
    assert t_atomic > 0 and t_pools > 0
    # The atomic-free path pays an extra pool-fold kernel.
    assert len(pools.accumulate_cost(1 << 20, 1000, 8)) == 2


def test_accumulator_small_universe_conflicts_cost_more():
    few = SumAccumulator(4, use_atomics=True)
    many = SumAccumulator(1 << 16, use_atomics=True)
    t_few = sum(kernel_duration(GT200, l) for l in few.accumulate_cost(1 << 20, 4, 8))
    t_many = sum(
        kernel_duration(GT200, l) for l in many.accumulate_cost(1 << 20, 1 << 16, 8)
    )
    assert t_few > t_many


def test_accumulator_state_bytes():
    assert SumAccumulator(100).state_bytes(pair_bytes=12) == 1200


# ---------------------------------------------------------------------------
# Sorters
# ---------------------------------------------------------------------------

def test_radix_sorter_sorts_kvset():
    s = RadixSorter()
    out = s.sort(kv([3, 1, 2], [30, 10, 20]))
    np.testing.assert_array_equal(out.keys, [1, 2, 3])
    np.testing.assert_array_equal(out.values, [10, 20, 30])


def test_radix_sorter_pinned_bits_cheaper():
    wide = RadixSorter()  # 32-bit default pricing
    narrow = RadixSorter(key_bits=16)
    t_wide = sum(kernel_duration(GT200, l) for l in wide.sort_cost(1 << 20, 32, 8))
    t_narrow = sum(kernel_duration(GT200, l) for l in narrow.sort_cost(1 << 20, 32, 8))
    assert t_narrow == pytest.approx(t_wide / 2, rel=0.01)


def test_radix_sorter_validation():
    with pytest.raises(ValueError):
        RadixSorter(key_bits=0)
    with pytest.raises(ValueError):
        RadixSorter(key_bits=65)


def test_comparison_sorter_matches_radix():
    keys = generator(0).integers(0, 1000, 500).astype(np.uint32)
    values = np.arange(500)
    a = RadixSorter().sort(kv(keys, values))
    b = ComparisonSorter().sort(kv(keys, values))
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.values, b.values)  # both stable


def test_comparison_sorter_cost_nlogn():
    s = ComparisonSorter()
    t_small = sum(kernel_duration(GT200, l) for l in s.sort_cost(1 << 16, 32, 8))
    t_big = sum(kernel_duration(GT200, l) for l in s.sort_cost(1 << 20, 32, 8))
    # 16x data with log factor 20/16 => ~20x work; launch overheads on
    # the small case pull the observed ratio down a little.
    assert t_big > 10 * t_small
