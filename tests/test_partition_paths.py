"""The partition and run-finding fast paths against plain references.

* ``KeyValueSet.split_by`` has two paths — one ``np.compress`` per part
  up to ``SPLIT_COMPRESS_MAX_PARTS``, a counting sort above — and both
  must give what a stable ``argsort`` gather gives, for any id dtype,
  value layout and part count, and refuse an id outside the range.
* ``RoundRobinPartitioner`` masks the low bits for a power-of-two part
  count; the ids must be Python's floor modulo of every key, negative
  keys and dtype extremes included.
* ``unique_segments`` finds runs in one sentinel pass; its runs must be
  ``np.unique``'s, and unsorted input must still raise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kvset
from repro.core.kvset import KeyValueSet
from repro.core.partitioner import RoundRobinPartitioner
from repro.primitives import unique_segments
from repro.primitives.common import uniform_element

_ID_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
_PART_COUNTS = [1, 2, 3, 4, 5, 6, 7, 8, 16, 64]
#: the threshold that forces each path whatever the part count
_PATHS = {"compress": 1 << 30, "counting_sort": 0}


def _split(kv: KeyValueSet, ids: np.ndarray, n_parts: int, path: str):
    with mock.patch.object(kvset, "SPLIT_COMPRESS_MAX_PARTS", _PATHS[path]):
        return kv.split_by(ids, n_parts)


def _values(layout: str, n: int) -> np.ndarray:
    if layout == "uniform":
        return np.broadcast_to(np.int32(1), (n,))
    if layout == "int":
        return np.arange(n, dtype=np.int64) * 3 - 7
    return (np.arange(n * 3, dtype=np.float32) * 0.5).reshape(n, 3)


@settings(max_examples=200, deadline=None)
@given(
    path=st.sampled_from(sorted(_PATHS)),
    n_parts=st.sampled_from(_PART_COUNTS),
    n=st.integers(0, 200),
    id_dtype=st.sampled_from(_ID_DTYPES),
    layout=st.sampled_from(["uniform", "int", "2d"]),
    data=st.data(),
)
def test_split_by_matches_a_stable_argsort_gather(path, n_parts, n, id_dtype, layout, data):
    ids = np.asarray(
        data.draw(st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n)),
        dtype=id_dtype,
    )
    values = _values(layout, n)
    s = KeyValueSet(keys=np.arange(n, dtype=np.uint32) * 5, values=values, scale=3.0)
    parts = _split(s, ids, n_parts, path)

    order = np.argsort(ids.astype(np.int64), kind="stable")
    ranked = ids[order]
    assert len(parts) == n_parts
    for p, part in enumerate(parts):
        pick = order[ranked == p]
        assert part.scale == s.scale
        assert part.keys.dtype == s.keys.dtype and part.values.dtype == values.dtype
        assert part.values.shape[1:] == values.shape[1:]
        np.testing.assert_array_equal(part.keys, s.keys[pick])
        np.testing.assert_array_equal(part.values, np.asarray(values)[pick])
        if layout == "uniform" and len(part):
            # Re-broadcast, never gathered.
            assert uniform_element(part.values) is not None


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("n_parts", _PART_COUNTS)
@pytest.mark.parametrize("id_dtype", _ID_DTYPES)
def test_split_by_refuses_an_id_outside_the_range_on_both_paths(path, n_parts, id_dtype):
    s = KeyValueSet(keys=np.arange(4, dtype=np.uint32), values=np.arange(4.0))
    with pytest.raises(ValueError, match="out of range"):
        _split(s, np.array([0, n_parts, 0, 0], dtype=id_dtype), n_parts, path)
    if np.dtype(id_dtype).kind == "i":
        with pytest.raises(ValueError, match="out of range"):
            _split(s, np.array([0, 0, -1, 0], dtype=id_dtype), n_parts, path)


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_split_by_of_an_empty_set_gives_empty_parts(path):
    s = KeyValueSet(keys=np.empty(0, np.uint32), values=np.empty((0, 2), np.float32))
    parts = _split(s, np.empty(0, np.int64), 3, path)
    assert [len(part) for part in parts] == [0, 0, 0]
    assert all(part.values.shape == (0, 2) for part in parts)


_KEY_DTYPES = [np.int32, np.int64, np.uint32, np.uint64]


@st.composite
def _keys(draw):
    dtype = draw(st.sampled_from(_KEY_DTYPES))
    info = np.iinfo(dtype)
    edges = [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max]
    elements = st.one_of(
        st.integers(int(info.min), int(info.max)),
        st.sampled_from([e for e in edges if info.min <= e <= info.max]),
    )
    return np.asarray(draw(st.lists(elements, max_size=64)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(keys=_keys(), n_parts=st.sampled_from([1, 2, 3, 4, 6, 7, 8, 16, 64, 100, 1 << 16, 1 << 30]))
def test_round_robin_is_the_floor_modulo_of_every_key(keys, n_parts):
    s = KeyValueSet(keys=keys, values=np.zeros(len(keys)))
    ids = RoundRobinPartitioner().partition(s, n_parts)
    assert ids.dtype == keys.dtype
    assert ids.tolist() == [k % n_parts for k in keys.tolist()]


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.integers(-5, 5), max_size=80),
    dtype=st.sampled_from([np.int64, np.uint32, np.uint64, np.int16]),
)
def test_unique_segments_matches_np_unique(keys, dtype):
    info = np.iinfo(dtype)
    k = np.sort(np.asarray([min(max(x, info.min), info.max) for x in keys], dtype=dtype))
    _check_runs(k)


@pytest.mark.parametrize(
    "k",
    [
        np.empty(0, np.uint32),
        np.array([7], np.int64),
        np.full(33, 4, np.uint64),
        np.arange(50, dtype=np.int32),
        np.array([np.iinfo(np.int64).min, -1, -1, 0, np.iinfo(np.int64).max], np.int64),
    ],
    ids=["empty", "one", "all_equal", "all_distinct", "extremes"],
)
def test_unique_segments_edge_cases(k):
    _check_runs(k)


def _check_runs(k: np.ndarray) -> None:
    runs = unique_segments(k)
    uniq, first, counts = np.unique(k, return_index=True, return_counts=True)
    assert runs.unique_keys.dtype == k.dtype
    assert runs.offsets.dtype == np.int64 and runs.counts.dtype == np.int64
    np.testing.assert_array_equal(runs.unique_keys, uniq)
    np.testing.assert_array_equal(runs.offsets, first)
    np.testing.assert_array_equal(runs.counts, counts)


@pytest.mark.parametrize(
    "k", [np.array([1, 0], np.int64), np.array([0, 5, 5, 4, 9], np.uint32)]
)
def test_unique_segments_refuses_unsorted_keys(k):
    with pytest.raises(ValueError, match="sorted"):
        unique_segments(k)
