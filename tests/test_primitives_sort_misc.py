"""Tests for the radix sort, the compaction cost, and unique segments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hw import GT200, kernel_duration
from repro.primitives import (
    compact_cost,
    radix_sort_cost,
    radix_sort_pairs,
    significant_bits,
    unique_segments,
    unique_segments_cost,
)


# -- radix sort ---------------------------------------------------------------

def test_radix_sort_basic():
    keys = np.array([170, 45, 75, 90, 2, 802, 24, 66], dtype=np.uint32)
    sk, sv = radix_sort_pairs(keys, None)
    np.testing.assert_array_equal(sk, np.sort(keys))
    assert sv is None


def test_radix_sort_empty():
    sk, _ = radix_sort_pairs(np.array([], dtype=np.uint32), None)
    assert len(sk) == 0


def test_radix_sort_pairs_carries_values():
    keys = np.array([3, 1, 2], dtype=np.uint32)
    vals = np.array([30, 10, 20])
    sk, sv = radix_sort_pairs(keys, vals)
    np.testing.assert_array_equal(sk, [1, 2, 3])
    np.testing.assert_array_equal(sv, [10, 20, 30])


def test_radix_sort_pairs_2d_values():
    keys = np.array([2, 0, 1], dtype=np.uint32)
    vals = np.arange(6, dtype=np.float64).reshape(3, 2)
    sk, sv = radix_sort_pairs(keys, vals)
    np.testing.assert_array_equal(sk, [0, 1, 2])
    np.testing.assert_array_equal(sv, [[2, 3], [4, 5], [0, 1]])


def test_radix_sort_is_stable():
    keys = np.array([1, 0, 1, 0, 1], dtype=np.uint32)
    vals = np.array([0, 1, 2, 3, 4])
    _, sv = radix_sort_pairs(keys, vals)
    np.testing.assert_array_equal(sv, [1, 3, 0, 2, 4])  # original order kept


def test_radix_sort_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        radix_sort_pairs(np.array([1.5, 2.5]), None)
    with pytest.raises(ValueError):
        radix_sort_pairs(np.array([-1, 2], dtype=np.int64), None)


def test_radix_sort_pinned_key_bits_narrower_than_keys_raises():
    """Pinning ``key_bits`` is a checked promise: sorting only the low
    digit used to return [1, 260, 5, 300] here."""
    keys = np.array([300, 5, 260, 1], dtype=np.uint32)
    with pytest.raises(ValueError, match="need 9 bits"):
        radix_sort_pairs(keys, np.arange(4), key_bits=8)
    sk, _ = radix_sort_pairs(keys, np.arange(4), key_bits=9)
    np.testing.assert_array_equal(sk, [1, 5, 260, 300])


def test_radix_sort_pinned_key_bits_still_rejects_negatives():
    """The negative-key check used to be skipped whenever ``key_bits``
    was pinned ([3, -1, 2] came back as [2, 3, -1])."""
    with pytest.raises(ValueError, match="non-negative"):
        radix_sort_pairs(np.array([3, -1, 2]), np.arange(3), key_bits=8)


def test_radix_sort_value_length_mismatch():
    with pytest.raises(ValueError):
        radix_sort_pairs(np.array([1, 2], dtype=np.uint32), np.array([1]))


def test_significant_bits():
    assert significant_bits(np.array([0], dtype=np.uint32)) == 1
    assert significant_bits(np.array([255], dtype=np.uint32)) == 8
    assert significant_bits(np.array([256], dtype=np.uint32)) == 9
    assert significant_bits(np.array([], dtype=np.uint32)) == 0


@settings(max_examples=100, deadline=None)
@given(arrays(np.uint32, st.integers(0, 500), elements=st.integers(0, 2**32 - 1)))
def test_property_radix_sort_matches_npsort(keys):
    sk, _ = radix_sort_pairs(keys, None)
    np.testing.assert_array_equal(sk, np.sort(keys))


@settings(max_examples=50, deadline=None)
@given(arrays(np.uint32, st.integers(1, 300), elements=st.integers(0, 10)))
def test_property_radix_sort_pairs_is_permutation(keys):
    vals = np.arange(len(keys))
    sk, sv = radix_sort_pairs(keys, vals)
    # Sorted, same multiset of keys, and values form a permutation.
    assert np.all(np.diff(sk.astype(np.int64)) >= 0)
    np.testing.assert_array_equal(np.sort(sk), np.sort(keys))
    np.testing.assert_array_equal(np.sort(sv), vals)
    np.testing.assert_array_equal(keys[sv], sk)


def _assert_stable_sort(keys, values, key_bits):
    order = np.argsort(keys, kind="stable")
    sk, sv = radix_sort_pairs(keys, values, key_bits=key_bits)
    assert sk.dtype == keys.dtype and sv.dtype == values.dtype
    np.testing.assert_array_equal(sk, keys[order])
    np.testing.assert_array_equal(sv, values[order])


#: (key dtype, widest value bits): u8 ... u64 and the non-negative
#: half of i32 / i64
_KEY_DTYPES = [
    (np.uint8, 8), (np.uint16, 16), (np.uint32, 32), (np.uint64, 64),
    (np.int32, 31), (np.int64, 63),
]
#: 0, 1, 2 and 2^k +- 1
_SORT_SIZES = [0, 1, 2] + [2**k + d for k in (2, 5, 8, 11) for d in (-1, 1)]


@st.composite
def _sort_cases(draw):
    dtype, dtype_bits = draw(st.sampled_from(_KEY_DTYPES))
    n = draw(st.sampled_from(_SORT_SIZES))
    # The key width picks the host regime: <= 16 bits is the single
    # counting pass, wider keys pack with their index into one uint64,
    # and widths past 64 - ceil(log2 n) take the 16-bit digit loop.
    bits = draw(st.integers(1, dtype_bits))
    top = (1 << bits) - 1
    # A few repeated keys in every case, or stability goes untested at
    # the widths where random keys never collide.
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    keys = draw(arrays(dtype, n, elements=st.sampled_from(pool + [top])))
    key_bits = draw(st.sampled_from([None, "exact", 64]))
    if key_bits == "exact":
        key_bits = significant_bits(keys)
    values = np.arange(n, dtype=np.int64)
    if draw(st.booleans()):
        values = np.column_stack([values, -values]).astype(np.float64)
    return keys, values, key_bits


@settings(max_examples=300, deadline=None)
@given(_sort_cases())
def test_property_radix_sort_pairs_is_the_stable_argsort(case):
    _assert_stable_sort(*case)


@pytest.mark.parametrize(
    "dtype, bits, n",
    [
        (np.uint32, 5, 1000),        # one counting pass, uint8 digits
        (np.uint32, 13, 1000),       # ... uint16 digits
        (np.uint16, 16, 1000),       # ... at its upper edge
        (np.uint32, 17, 1000),       # packed word, lower edge
        (np.uint32, 22, 70_000),     # packed word (SIO's shape)
        (np.int64, 51, 2**12 + 1),   # packed word: 51 + 13 index bits = 64
        (np.int64, 52, 2**12 + 1),   # one bit more: 16-bit digit loop
        (np.uint64, 64, 5000),       # digit loop over all four digits
    ],
)
def test_radix_sort_pairs_stable_on_both_sides_of_each_regime_edge(dtype, bits, n):
    rng = np.random.default_rng(bits)
    # Draw from n // 4 distinct keys so every key repeats.
    pool = rng.integers(0, 1 << bits, size=max(n // 4, 1), dtype=np.uint64)
    pool[0] = (1 << bits) - 1
    keys = pool[rng.integers(0, len(pool), size=n)].astype(dtype)
    keys[0] = pool[0]
    values = rng.standard_normal((n, 2))
    _assert_stable_sort(keys, values, None)
    _assert_stable_sort(keys, values, bits)


# -- what the sort costs is not what runs on the host ----------------------------

@pytest.mark.parametrize("key_bits", [1, 5, 8, 9, 13, 16, 17, 22, 32, 33, 64])
def test_radix_sort_cost_prices_8_bit_digit_passes(key_bits):
    """The GPU's sort is priced as CUDPP runs it, whatever pass
    structure the host path picks for the same ``key_bits``."""
    assert len(radix_sort_cost(1 << 20, key_bits=key_bits)) == -(-key_bits // 8)


def test_radix_sort_cost_scales_with_key_bits():
    short = radix_sort_cost(1 << 20, key_bits=8)
    full = radix_sort_cost(1 << 20, key_bits=32)
    assert len(short) == 1 and len(full) == 4
    t_short = sum(kernel_duration(GT200, k) for k in short)
    t_full = sum(kernel_duration(GT200, k) for k in full)
    assert t_full == pytest.approx(4 * t_short)


def test_radix_sort_cost_throughput_plausible():
    # ~1 G pairs/s for 32-bit keys on GT200-class hardware.
    n = 1 << 24
    t = sum(kernel_duration(GT200, k) for k in radix_sort_cost(n, key_bits=32))
    rate = n / t
    assert 2e8 < rate < 4e9


# -- compact -------------------------------------------------------------------

def test_compact_cost_validates_fraction():
    with pytest.raises(ValueError):
        compact_cost(100, keep_fraction=1.5)


# -- unique segments -------------------------------------------------------------

def test_unique_segments_basic():
    keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.uint32)
    runs = unique_segments(keys)
    np.testing.assert_array_equal(runs.unique_keys, [2, 5, 7])
    np.testing.assert_array_equal(runs.offsets, [0, 2, 3])
    np.testing.assert_array_equal(runs.counts, [2, 1, 3])
    assert runs.n_keys == 3


def test_unique_segments_empty():
    runs = unique_segments(np.array([], dtype=np.uint32))
    assert runs.n_keys == 0


def test_unique_segments_rejects_unsorted():
    with pytest.raises(ValueError):
        unique_segments(np.array([3, 1], dtype=np.uint32))


@settings(max_examples=80, deadline=None)
@given(arrays(np.uint32, st.integers(1, 400), elements=st.integers(0, 20)))
def test_property_unique_segments_reconstructs(keys):
    s = np.sort(keys)
    runs = unique_segments(s)
    # Counts sum to n; repeating unique keys by counts rebuilds the array.
    assert runs.counts.sum() == len(s)
    np.testing.assert_array_equal(np.repeat(runs.unique_keys, runs.counts), s)
    # Offsets are the exclusive scan of counts.
    np.testing.assert_array_equal(
        runs.offsets, np.cumsum(runs.counts) - runs.counts
    )


def test_unique_segments_cost_returns_three_launches():
    launches = unique_segments_cost(1 << 20, 1 << 10)
    assert len(launches) == 3
