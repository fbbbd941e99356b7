"""Tests for the scan cost and the segmented reduce (functional + cost)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import GT200, kernel_duration
from repro.primitives import scan_cost, segmented_reduce, segmented_reduce_cost


# -- scan -------------------------------------------------------------------

def test_scan_cost_linear_in_n():
    t1 = kernel_duration(GT200, scan_cost(1 << 20))
    t2 = kernel_duration(GT200, scan_cost(1 << 21))
    assert t2 / t1 == pytest.approx(2.0, rel=0.05)


# -- reduce -------------------------------------------------------------------

def test_reduce_ops():
    """One segment spanning the column is a full reduction."""
    v = np.array([4, 2, 9, 1])
    whole = np.array([0])
    assert segmented_reduce(v, whole, "sum")[0] == 16
    assert segmented_reduce(v, whole, "min")[0] == 1
    assert segmented_reduce(v, whole, "max")[0] == 9
    assert segmented_reduce(v, whole, "prod")[0] == 72


def test_reduce_unknown_op():
    with pytest.raises(ValueError):
        segmented_reduce(np.array([1]), np.array([0]), "median")


def test_reduce_empty_rejected():
    """An empty column has no identity under min/max/prod."""
    for op in ("min", "max", "prod"):
        with pytest.raises(ValueError, match="zero-length"):
            segmented_reduce(np.array([], dtype=np.int64), np.array([0]), op)


def test_segmented_reduce_rejects_2d():
    with pytest.raises(ValueError):
        segmented_reduce(np.zeros((2, 2)), np.array([0]))


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
    assert kernel_duration(GT200, segmented_reduce_cost(n, 1)) < kernel_duration(
        GT200, scan_cost(n)
    )


def test_segmented_reduce_cost_accounts_outputs():
    few = segmented_reduce_cost(1 << 20, 10)
    many = segmented_reduce_cost(1 << 20, 1 << 19)
    assert kernel_duration(GT200, many) > kernel_duration(GT200, few)
