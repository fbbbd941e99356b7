"""Uniform value columns: uniform ≡ materialised, proven site by site.

A host value column may be one element repeated — the zero-stride view
``np.broadcast_to(element, (n,))`` (see :mod:`repro.core.kvset`).  Six
sites know a fast path for it (``select``/``split_by``, ``concat``, the
codec, ``radix_sort_pairs``, integer ``segmented_reduce``, SIO's
reducer); everything else sees an ordinary ndarray.  The contract every
backend now rests on is that each of those calls returns arrays
**byte-equal and dtype-equal** to the same call on the ``np.full`` twin.
The end-to-end half runs SIO against a reference job whose mapper is
the pre-uniform expression (``np.ones``), on all four backends.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sparse_int_occurrence import (
    SIOMapper,
    SIOReducer,
    sio_dataset,
    sio_job,
    sio_validate,
)
from repro.core import make_executor
from repro.core.combine import combine_by_key_sum
from repro.core.kvset import KeyValueSet, pack_parts, unpack_parts
from repro.exec.dataflow import reduce_worker
from repro.primitives import (
    radix_sort_pairs,
    segmented_reduce,
    uniform_element,
    unique_segments,
)

SIZES = (0, 1, 2, 1000)
KEY_DTYPES = (np.uint32, np.int64)
#: widest key per case — one per host sort regime at n = 1000: a single
#: counting pass (<= 16 bits), the packed word, the 16-bit digit loop
#: (only int64 keys are wide enough to overflow the packed word)
KEY_BITS = (5, 22, 60)

_ELEMENTS = st.one_of(
    st.builds(np.int32, st.integers(-(2**31), 2**31 - 1)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(
        np.float64,
        st.floats(allow_nan=True, allow_infinity=True, width=64)
        | st.sampled_from([0.1, -0.0, 1.0]),
    ),
)


def _uniform(element, n) -> np.ndarray:
    return np.broadcast_to(element, (n,))


def _keys(seed, n, dtype, bits) -> np.ndarray:
    bits = min(bits, 8 * np.dtype(dtype).itemsize - (np.dtype(dtype).kind == "i"))
    rng = np.random.default_rng(seed)
    # Draw from a small pool so keys repeat and segments have length > 1.
    pool = rng.integers(0, 1 << bits, size=max(n // 4, 1), dtype=np.uint64)
    return pool[rng.integers(0, len(pool), size=n)].astype(dtype)


@st.composite
def _pairs(draw):
    """(uniform KVSet, its ``np.full`` twin) over the same random keys."""
    n = draw(st.sampled_from(SIZES))
    keys = _keys(
        draw(st.integers(0, 2**32 - 1)),
        n,
        draw(st.sampled_from(KEY_DTYPES)),
        draw(st.sampled_from(KEY_BITS)),
    )
    element = draw(_ELEMENTS)
    scale = draw(st.sampled_from([1.0, 16.0]))
    return (
        KeyValueSet(keys=keys, values=_uniform(element, n), scale=scale),
        KeyValueSet(keys=keys, values=np.full(n, element), scale=scale),
    )


def _assert_same_array(a, b) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same(got: KeyValueSet, want: KeyValueSet) -> None:
    _assert_same_array(got.keys, want.keys)
    _assert_same_array(got.values, want.values)
    assert got.scale == want.scale
    # the logical layout is what every stat and sim charge reads
    assert got.pair_bytes == want.pair_bytes
    assert got.nbytes_logical == want.nbytes_logical


def _is_uniform(values) -> bool:
    return uniform_element(values) is not None


def test_uniform_element_recognises_exactly_the_stride_zero_columns():
    assert uniform_element(_uniform(np.int32(7), 5)) == 7
    assert uniform_element(_uniform(np.int32(7), 1)) == 7
    assert uniform_element(_uniform(np.int32(7), 5)[1:3]) == 7
    for plain in (
        np.full(5, 7),
        np.ones(1, dtype=np.int32),
        np.ones(5, dtype=np.int32)[3:4],
        _uniform(np.int32(7), 0),                      # nothing to repeat
        np.broadcast_to(np.ones(3), (4, 3)),           # records, not a column
        [1, 1, 1],
    ):
        assert uniform_element(plain) is None
    assert not _uniform(np.int32(7), 5).flags.writeable


# -- KeyValueSet transforms ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_pairs(), st.integers(0, 2**32 - 1))
def test_select_by_mask_index_and_slice(pair, seed):
    uni, twin = pair
    n = len(uni)
    rng = np.random.default_rng(seed)
    selectors = [
        rng.random(n) < 0.5,
        rng.integers(0, max(n, 1), size=n // 2 if n else 0),
        np.empty(0, dtype=np.int64),
        slice(n // 3, n),
        slice(None, None, 2),
    ]
    for sel in selectors:
        got = uni.select(sel)
        _assert_same(got, twin.select(sel))
        assert _is_uniform(got.values) == (len(got) > 0)


@settings(max_examples=60, deadline=None)
@given(_pairs(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_split_by_parts_including_empty_ones(pair, n_parts, seed):
    uni, twin = pair
    rng = np.random.default_rng(seed)
    # ids drawn from a random subset of the parts, so some stay empty
    live = rng.choice(n_parts, size=rng.integers(1, n_parts + 1), replace=False)
    ids = live[rng.integers(0, len(live), size=len(uni))]
    got = uni.split_by(ids, n_parts)
    want = twin.split_by(ids, n_parts)
    assert len(got) == len(want) == n_parts
    for g, w in zip(got, want):
        _assert_same(g, w)
        assert _is_uniform(g.values) == (len(g) > 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_pairs(), min_size=1, max_size=4), _ELEMENTS)
def test_concat_all_uniform_mixed_and_two_constants(pairs, other):
    pairs = [(KeyValueSet(u.keys, u.values), KeyValueSet(t.keys, t.values)) for u, t in pairs]
    unis = [u for u, _ in pairs]
    twins = [t for _, t in pairs]

    # one constant everywhere -> stays uniform (empty parts anywhere)
    first = next((u.values[0] for u in unis if len(u)), np.int32(1))
    same_u = [KeyValueSet(u.keys, _uniform(first, len(u))) for u in unis]
    same_t = [KeyValueSet(u.keys, np.full(len(u), first)) for u in unis]
    empty = KeyValueSet(unis[0].keys[:0], _uniform(first, 0))
    for parts_u, parts_t in (
        (same_u, same_t),
        ([empty] + same_u, [empty] + same_t),      # empty parts first
    ):
        got = KeyValueSet.concat(parts_u)
        _assert_same(got, KeyValueSet.concat(parts_t))
        assert _is_uniform(got.values) == (len(got) > 0)

    # arbitrary constants (dtypes may differ: concatenate promotes)
    got = KeyValueSet.concat(unis)
    _assert_same(got, KeyValueSet.concat(twins))

    # two different constants of one dtype -> materialises
    a = KeyValueSet(np.arange(3, dtype=np.uint32), _uniform(first, 3))
    b = KeyValueSet(np.arange(2, dtype=np.uint32), _uniform(other, 2))
    got = KeyValueSet.concat([a, b])
    _assert_same(got, KeyValueSet.concat([
        KeyValueSet(a.keys, np.full(3, first)),
        KeyValueSet(b.keys, np.full(2, other)),
    ]))
    if first.dtype != other.dtype or first.tobytes() != other.tobytes():
        assert not _is_uniform(got.values)

    # uniform + plain -> materialises
    mixed = [unis[0], twins[0]] + [
        t if i % 2 else u for i, (u, t) in enumerate(pairs[1:])
    ]
    got = KeyValueSet.concat(mixed)
    _assert_same(got, KeyValueSet.concat([twins[0]] * 2 + twins[1:]))
    if len(twins[0]):
        assert not _is_uniform(got.values)


def test_concat_keeps_signed_zero_and_nan_bytes():
    """Element identity is by bytes: 0.0 == -0.0 and nan != nan must
    neither merge two different columns nor split one."""
    keys = np.arange(2, dtype=np.uint32)
    pos, neg, nan = np.float64(0.0), np.float64(-0.0), np.float64("nan")
    got = KeyValueSet.concat(
        [KeyValueSet(keys, _uniform(pos, 2)), KeyValueSet(keys, _uniform(neg, 2))]
    )
    assert not _is_uniform(got.values)
    assert got.values.tobytes() == np.array([pos, pos, neg, neg]).tobytes()
    got = KeyValueSet.concat([KeyValueSet(keys, _uniform(nan, 2))] * 2)
    assert _is_uniform(got.values)
    assert got.values.tobytes() == np.full(4, nan).tobytes()


# -- codec -----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(_pairs(), min_size=1, max_size=4))
def test_pack_unpack_round_trip(pairs):
    unis = [u for u, _ in pairs]
    twins = [t for _, t in pairs]
    manifest, chunks, nbytes = pack_parts(unis)
    data = b"".join(bytes(c) for c in chunks)
    assert len(data) == nbytes
    # wire bytes: the keys plus ONE element per non-empty part
    assert nbytes == sum(
        u.keys.nbytes + (u.values.dtype.itemsize if len(u) else 0) for u in unis
    )
    got = unpack_parts(manifest, data)
    assert len(got) == len(twins)
    for g, t in zip(got, twins):
        _assert_same(g, t)
        assert _is_uniform(g.values) == (len(g) > 0)


# -- sort ------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(_pairs(), st.sampled_from([None, "exact", 64]))
def test_radix_sort_pairs_in_every_host_regime(pair, key_bits):
    uni, twin = pair
    if key_bits == "exact":
        key_bits = max(int(uni.keys.max(initial=0)).bit_length(), 1)
    got_k, got_v = radix_sort_pairs(uni.keys, uni.values, key_bits=key_bits)
    want_k, want_v = radix_sort_pairs(twin.keys, twin.values, key_bits=key_bits)
    _assert_same_array(got_k, want_k)
    _assert_same_array(got_v, want_v)
    assert _is_uniform(got_v) == (len(got_k) > 0)


@pytest.mark.parametrize("dtype", KEY_DTYPES)
def test_too_narrow_key_bits_pin_still_raises(dtype):
    keys = np.array([3, 1 << 20, 7], dtype=dtype)
    with pytest.raises(ValueError, match="key_bits=16 was pinned"):
        radix_sort_pairs(keys, _uniform(np.int32(1), 3), key_bits=16)
    with pytest.raises(ValueError, match="same length"):
        radix_sort_pairs(keys, _uniform(np.int32(1), 4))
    if np.dtype(dtype).kind == "i":
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort_pairs(-keys, _uniform(np.int32(1), 3))


# -- reduce ----------------------------------------------------------------------

def _random_offsets(rng, n, with_empty):
    """Segment starts over ``n`` values; ``with_empty`` repeats some."""
    if n == 0:
        return np.zeros(3 if with_empty else 0, dtype=np.int64)
    cuts = np.unique(rng.integers(0, n, size=max(n // 5, 1)))
    offsets = np.concatenate(([0], cuts[cuts > 0]))
    if with_empty:
        offsets = np.sort(np.concatenate((offsets, offsets[-2:], [n])))
    return offsets.astype(np.int64)


@settings(max_examples=100, deadline=None)
@given(_pairs(), st.integers(0, 2**32 - 1), st.booleans())
def test_segmented_reduce_sum_and_the_other_ops(pair, seed, with_empty):
    uni, twin = pair
    offsets = _random_offsets(np.random.default_rng(seed), len(uni), with_empty)
    with np.errstate(all="ignore"):
        _assert_same_array(
            segmented_reduce(uni.values, offsets),
            segmented_reduce(twin.values, offsets),
        )
        if not with_empty:
            for op in ("min", "max", "prod"):
                _assert_same_array(
                    segmented_reduce(uni.values, offsets, op=op),
                    segmented_reduce(twin.values, offsets, op=op),
                )


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_integer_sum_wraps_and_widens_like_reduceat(dtype):
    """``counts * element`` lands in add.reduceat's output dtype with
    the same modular arithmetic, overflow included."""
    element = np.dtype(dtype).type(np.iinfo(dtype).max)
    n = 1000
    for offsets in (np.array([0, 1, 700]), np.array([0, 0, 5, 5, n])):
        _assert_same_array(
            segmented_reduce(_uniform(element, n), offsets),
            segmented_reduce(np.full(n, element), offsets),
        )


def test_offset_validation_is_unchanged_for_uniform_columns():
    col = _uniform(np.int32(1), 10)
    for bad, match in (
        ([1, 5], "must be 0"),
        ([0, 7, 3], "non-decreasing"),
        ([0, 11], "beyond end"),
    ):
        with pytest.raises(ValueError, match=match):
            segmented_reduce(col, np.array(bad))


def test_float_columns_keep_the_reduceat_path():
    """c * v != v + ... + v in floating point: a float uniform column
    must be *summed*, not multiplied."""
    col = _uniform(np.float64(0.1), 6)
    got = segmented_reduce(col, np.array([0]))
    assert got.tobytes() == np.add.reduceat(np.full(6, 0.1), [0]).tobytes()
    assert got[0] == 0.6 != 6 * 0.1


@settings(max_examples=60, deadline=None)
@given(_pairs())
def test_combine_by_key_sum(pair):
    uni, twin = pair
    with np.errstate(all="ignore"):
        _assert_same(combine_by_key_sum(uni), combine_by_key_sum(twin))


@settings(max_examples=60, deadline=None)
@given(_pairs())
def test_sio_reducer_reduce_segments(pair):
    uni, twin = pair
    keys = np.sort(uni.keys)
    runs = unique_segments(keys)
    if runs.n_keys == 0:
        return
    with np.errstate(all="ignore"):
        got, want = (
            SIOReducer().reduce_segments(
                runs.unique_keys, kv.values, runs.offsets, runs.counts, kv.scale
            )
            for kv in (uni, twin)
        )
    _assert_same(got, want)
    assert got.values.dtype == np.int64


# -- end to end ------------------------------------------------------------------

class _OnesSIOMapper(SIOMapper):
    """The pre-uniform emission, kept as the reference."""

    def map_chunk(self, chunk):
        data = chunk.data
        return KeyValueSet(
            keys=data.astype(np.uint32),
            values=np.ones(len(data), dtype=np.int32),
            scale=chunk.scale,
        )


def _reference_job(fused=False):
    job = sio_job(key_space=1 << 16)
    return dataclasses.replace(
        job, mapper=_OnesSIOMapper(), fused=job.fused if fused else None
    )


def _stats_but_frames(result):
    rows = [w.to_dict() for w in result.stats.workers]
    for row in rows:
        del row["stage_seconds"]        # measured wall-clock
        del row["shuffle_frames_sent"]  # wire frames legitimately halve
    return rows


def _assert_outputs_identical(ref, other, tag):
    assert len(ref.outputs) == len(other.outputs), tag
    for a, b in zip(ref.outputs, other.outputs):
        assert (a is None) == (b is None), tag
        if a is not None:
            _assert_same(a, b)


@pytest.mark.parametrize("backend", ["sim", "serial", "local", "cluster"])
def test_sio_matches_the_np_ones_reference_on_every_backend(backend):
    ds = sio_dataset(120_000, chunk_elements=18_000, key_space=1 << 16, seed=3)
    chunk = next(iter(ds.chunks()))
    emitted = SIOMapper().map_chunk(chunk)
    assert _is_uniform(emitted.values)
    assert np.shares_memory(emitted.keys, chunk.data)  # born uint32: no copy

    job = sio_job(key_space=1 << 16).with_config(enable_stealing=False)
    ref_job = _reference_job().with_config(enable_stealing=False)
    got = make_executor(backend, 4).run(job, dataset=ds)
    ref = make_executor(backend, 4).run(ref_job, dataset=ds)
    _assert_outputs_identical(ref, got, backend)
    sio_validate(got, ds)
    assert got.stats.total_network_bytes == ref.stats.total_network_bytes
    assert _stats_but_frames(got) == _stats_but_frames(ref)
    if backend == "sim":
        assert repr(got.stats.elapsed) == repr(ref.stats.elapsed)


@pytest.mark.parametrize("backend", ["serial", "local"])
def test_fused_sio_still_matches_staged(backend):
    ds = sio_dataset(120_000, chunk_elements=18_000, key_space=1 << 16, seed=3)
    job = sio_job(key_space=1 << 16).with_config(enable_stealing=False)
    staged = make_executor(backend, 3).run(job, dataset=ds)
    fused = make_executor(backend, 3, fused=True).run(job, dataset=ds)
    fused_ref = make_executor(backend, 3, fused=True).run(
        _reference_job(fused=True).with_config(enable_stealing=False), dataset=ds
    )
    _assert_outputs_identical(staged, fused, backend)
    _assert_outputs_identical(fused_ref, fused, backend)
    assert _stats_but_frames(fused) == _stats_but_frames(fused_ref)


def _reduce_peak(parts) -> int:
    job = sio_job(key_space=1 << 22)
    tracemalloc.start()
    try:
        out = reduce_worker(job, parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is not None and int(out.values.sum()) == sum(len(p) for p in parts)
    return peak


def test_reduce_worker_peak_memory_guard():
    """8 x 256 Ki incoming parts: concat + sort + reduce of uniform
    parts must peak well under the materialised twin (sized 63 vs
    110 MB) — the column is never allocated, packed or widened."""
    rng = np.random.default_rng(24)
    keys = [
        rng.integers(0, 1 << 22, size=1 << 18, dtype=np.uint32) for _ in range(8)
    ]
    uniform = [KeyValueSet(k, _uniform(np.int32(1), len(k))) for k in keys]
    plain = [KeyValueSet(k, np.ones(len(k), dtype=np.int32)) for k in keys]
    assert _reduce_peak(uniform) <= 0.65 * _reduce_peak(plain)
