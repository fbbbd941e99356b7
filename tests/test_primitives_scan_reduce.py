"""Tests for scan and reduce primitives (functional + cost)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hw import GT200, kernel_duration
from repro.primitives import (
    exclusive_scan,
    inclusive_scan,
    reduce_array,
    reduce_cost,
    scan_cost,
    segmented_reduce,
    segmented_reduce_cost,
    segmented_scan,
)


# -- scan -------------------------------------------------------------------

def test_exclusive_scan_basic():
    np.testing.assert_array_equal(
        exclusive_scan(np.array([3, 1, 7, 0, 4])), [0, 3, 4, 11, 11]
    )


def test_inclusive_scan_basic():
    np.testing.assert_array_equal(
        inclusive_scan(np.array([3, 1, 7, 0, 4])), [3, 4, 11, 11, 15]
    )


def test_scan_empty():
    assert len(exclusive_scan(np.array([], dtype=np.int64))) == 0
    assert len(inclusive_scan(np.array([], dtype=np.int64))) == 0


def test_scan_rejects_2d():
    with pytest.raises(ValueError):
        exclusive_scan(np.zeros((2, 2)))


@settings(max_examples=100, deadline=None)
@given(arrays(np.int64, st.integers(0, 200), elements=st.integers(-1000, 1000)))
def test_property_scan_shift_relation(values):
    """inclusive[i] == exclusive[i] + values[i], and both match cumsum."""
    inc = inclusive_scan(values)
    exc = exclusive_scan(values)
    np.testing.assert_array_equal(inc, np.cumsum(values))
    np.testing.assert_array_equal(inc, exc + values)


def test_segmented_scan_restarts_at_heads():
    values = np.array([1, 2, 3, 4, 5, 6])
    heads = np.array([True, False, True, False, False, True])
    np.testing.assert_array_equal(segmented_scan(values, heads), [1, 3, 3, 7, 12, 6])


def test_segmented_scan_single_segment_is_inclusive_scan():
    values = np.arange(10)
    heads = np.zeros(10, dtype=bool)
    heads[0] = True
    np.testing.assert_array_equal(segmented_scan(values, heads), np.cumsum(values))


def test_segmented_scan_requires_leading_head():
    with pytest.raises(ValueError):
        segmented_scan(np.array([1, 2]), np.array([False, True]))


def test_segmented_scan_length_mismatch():
    with pytest.raises(ValueError):
        segmented_scan(np.array([1, 2]), np.array([True]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=9), min_size=1, max_size=12)
)
def test_property_segmented_scan_matches_per_segment_cumsum(segments):
    values = np.array([v for seg in segments for v in seg], dtype=np.int64)
    heads = np.zeros(len(values), dtype=bool)
    pos = 0
    for seg in segments:
        heads[pos] = True
        pos += len(seg)
    expected = np.concatenate([np.cumsum(seg) for seg in segments])
    np.testing.assert_array_equal(segmented_scan(values, heads), expected)


def test_scan_cost_linear_in_n():
    t1 = kernel_duration(GT200, scan_cost(1 << 20))
    t2 = kernel_duration(GT200, scan_cost(1 << 21))
    assert t2 / t1 == pytest.approx(2.0, rel=0.05)


# -- reduce -------------------------------------------------------------------

def test_reduce_ops():
    v = np.array([4, 2, 9, 1])
    assert reduce_array(v, "sum") == 16
    assert reduce_array(v, "min") == 1
    assert reduce_array(v, "max") == 9
    assert reduce_array(v, "prod") == 72


def test_reduce_unknown_op():
    with pytest.raises(ValueError):
        reduce_array(np.array([1]), "median")


def test_reduce_empty_rejected():
    with pytest.raises(ValueError):
        reduce_array(np.array([]))


def test_segmented_reduce_sum():
    values = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    offsets = np.array([0, 2, 2, 4])  # segments [1,2], [], [3,4], [5]
    np.testing.assert_array_equal(
        segmented_reduce(values, offsets), [3, 0, 7, 5]
    )


def test_segmented_reduce_max():
    values = np.array([1, 9, 3, 4])
    offsets = np.array([0, 2])
    np.testing.assert_array_equal(segmented_reduce(values, offsets, "max"), [9, 4])


def test_segmented_reduce_validates_offsets():
    with pytest.raises(ValueError):
        segmented_reduce(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError):
        segmented_reduce(np.array([1, 2]), np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        segmented_reduce(np.array([1, 2]), np.array([0, 5]))


def test_segmented_reduce_empty_segment_non_sum_rejected():
    with pytest.raises(ValueError):
        segmented_reduce(np.array([1, 2]), np.array([0, 0]), "max")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-100, 100), min_size=0, max_size=8), min_size=1, max_size=15)
)
def test_property_segmented_reduce_matches_python_sums(segments):
    values = np.array([v for seg in segments for v in seg], dtype=np.int64)
    offsets = np.zeros(len(segments), dtype=np.int64)
    pos = 0
    for i, seg in enumerate(segments):
        offsets[i] = pos
        pos += len(seg)
    expected = [sum(seg) for seg in segments]
    np.testing.assert_array_equal(segmented_reduce(values, offsets), expected)


_PY_OPS = {
    "sum": lambda seg: sum(seg),
    "min": min,
    "max": max,
    "prod": lambda seg: int(np.prod(np.asarray(seg, dtype=np.int64))),
}


@settings(max_examples=150, deadline=None)
@given(
    segments=st.lists(
        st.lists(st.integers(-9, 9), min_size=0, max_size=8), min_size=1, max_size=15
    ),
    op=st.sampled_from(sorted(_PY_OPS)),
    as_float=st.booleans(),
)
def test_property_segmented_reduce_matches_python_loop(segments, op, as_float):
    """Every op against a per-segment Python loop, with and without
    empty segments: empties sum to 0 and are refused by the other ops
    (they have no identity here).  Floats hold small integers, so the
    oracle is exact whatever order the sums run in."""
    dtype = np.float64 if as_float else np.int64
    values = np.array([v for seg in segments for v in seg], dtype=dtype)
    offsets = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    if op != "sum" and any(len(seg) == 0 for seg in segments):
        with pytest.raises(ValueError, match="zero-length"):
            segmented_reduce(values, offsets, op)
        return
    got = segmented_reduce(values, offsets, op)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, [_PY_OPS[op](seg) for seg in segments])


def test_reduce_cost_cheaper_than_scan():
    n = 1 << 22
    assert kernel_duration(GT200, reduce_cost(n)) < kernel_duration(
        GT200, scan_cost(n)
    )


def test_segmented_reduce_cost_accounts_outputs():
    few = segmented_reduce_cost(1 << 20, 10)
    many = segmented_reduce_cost(1 << 20, 1 << 19)
    assert kernel_duration(GT200, many) > kernel_duration(GT200, few)
