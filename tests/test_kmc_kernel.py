"""The KMC host kernel: one fixed-window Lloyd step, proven against the
``n x k x dims`` expression it replaced.

``_nearest_center`` screens with one matrix product and hands the points
it cannot settle to ``_nearest_exact``, the windowed kernel that *is* the
definition; the screen must agree with it on every input, however BLAS
orders the product (CI runs this file again with four BLAS threads).

``_reference_table`` is that expression, kept here as the oracle: up to
seven dimensions NumPy's ``sum`` adds left to right, so the windowed
kernel must equal it bit for bit; from eight dimensions ``sum`` goes
pairwise and the kernel's left-to-right association *is* the definition
(``_left_to_right_nearest``, what the perf ledger's oracle computes).
The rest is the staged == fused == naive contract on the inputs a
rewrite is likeliest to break: ties, ``k = 1``, strided and
Fortran-ordered payloads, sampled chunks.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import kmeans
from repro.apps.kmeans import (
    _SCREEN_WINDOW,
    _WINDOW,
    KMCMapper,
    _chunk_table,
    _nearest_center,
    _nearest_exact,
    kmc_dataset,
    kmc_extract_centers,
    kmc_job,
)
from repro.core import make_executor
from repro.core.chunk import Chunk

#: chunk lengths that straddle the exact path's window and the screen's
SIZES = (0, 1, _WINDOW - 1, _WINDOW, _WINDOW + 1, 3 * _WINDOW + 5) + (
    _SCREEN_WINDOW - 1, _SCREEN_WINDOW, _SCREEN_WINDOW + 1, 3 * _SCREEN_WINDOW + 5
)


def _reference_table(pts, centers):
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    k, dims = centers.shape
    sums = np.zeros((k, dims), dtype=np.float64)
    np.add.at(sums, nearest, pts)
    counts = np.bincount(nearest, minlength=k).astype(np.float64)
    return nearest, np.concatenate([sums, counts[:, None]], axis=1).reshape(-1)


def _left_to_right_nearest(pts, centers):
    d2 = np.zeros((len(pts), len(centers)))
    for d in range(centers.shape[1]):
        d2 += (pts[:, d, None] - centers[None, :, d]) ** 2
    return d2.argmin(axis=1)


def _draw(seed, n, k, dims, coarse):
    """Gaussian points, or half-integer grid points: the grid makes
    duplicate centres and exactly equidistant points the common case."""
    rng = np.random.default_rng(seed)
    if coarse:
        return rng.integers(-2, 3, (n, dims)) / 2.0, rng.integers(-2, 3, (k, dims)) / 2.0
    return rng.standard_normal((n, dims)), rng.standard_normal((k, dims))


shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(SIZES),
    k=st.integers(1, 40),
    coarse=st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(dims=st.integers(1, 7), **shapes)
def test_kernel_equals_the_old_expression_bit_for_bit(seed, n, k, dims, coarse):
    pts, centers = _draw(seed, n, k, dims, coarse)
    want_nearest, want_values = _reference_table(pts, centers)
    np.testing.assert_array_equal(_nearest_center(pts, centers), want_nearest)
    keys, values = _chunk_table(pts, centers)
    assert keys.dtype == np.uint32 and values.dtype == np.float64
    np.testing.assert_array_equal(keys, np.arange(k * (dims + 1)))
    assert values.tobytes() == want_values.tobytes()


@settings(max_examples=80, deadline=None)
@given(dims=st.integers(1, 17), **shapes)
def test_kernel_associates_dimensions_left_to_right(seed, n, k, dims, coarse):
    pts, centers = _draw(seed, n, k, dims, coarse)
    np.testing.assert_array_equal(
        _nearest_center(pts, centers), _left_to_right_nearest(pts, centers)
    )


def test_ties_resolve_to_the_lowest_centre_index():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [-2.0, 0.0]])
    # equidistant from 0/1/2 -> 0; on the duplicated centre -> 0, not 2
    np.testing.assert_array_equal(_nearest_center(pts, centers), [0, 0, 0, 1])
    np.testing.assert_array_equal(
        _nearest_center(np.tile(pts, (_WINDOW, 1)), centers), np.tile([0, 0, 0, 1], _WINDOW)
    )


# -- the screen against the exact path ------------------------------------------

_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, 5e-324, 1e308])


@st.composite
def _screen_inputs(draw):
    """Points and centres at one scale between 1e-300 and 1e300 (points
    optionally each at their own), with duplicate centres, points on and a
    few ulps off the bisector of two centres, and NaN/inf/huge/subnormal
    entries in points and centres.  Around 1e-160 every product is
    subnormal: only the absolute slack floor keeps the screen right there."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.sampled_from(SIZES))
    k = draw(st.sampled_from((1, 2, 7, 32, 255, 256, 300)))
    dims = draw(st.integers(1, 17))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** draw(st.one_of(st.floats(-300, 300), st.floats(-165, -150)))
    centers = rng.standard_normal((k, dims)) * scale
    if draw(st.booleans()):
        centers[rng.integers(0, k, k // 2 + 1)] = centers[0]
    pts = rng.standard_normal((n, dims))
    pts *= 10.0 ** rng.uniform(-300, 300, (n, 1)) if draw(st.booleans()) else scale
    if n and k > 1 and draw(st.booleans()):
        i, j = rng.integers(0, k, (2, n))
        ulps = rng.integers(-4, 5, (n, dims)) * np.spacing(np.abs(centers[i]) + np.abs(centers[j]))
        pts = (centers[i] + centers[j]) / 2 + ulps
    for arr, fracs in ((pts, (0, 0.05)), (centers, (0, 0.3))):
        hit = rng.random(arr.shape) < draw(st.sampled_from(fracs))
        arr[hit] = rng.choice(_SPECIALS, hit.sum())
    return pts, centers


@settings(max_examples=150, deadline=None)
@given(_screen_inputs())
def test_screen_equals_the_exact_path(inputs):
    pts, centers = inputs
    with np.errstate(all="ignore"):
        want = _nearest_exact(pts, centers)
        got = _nearest_center(pts, centers)
    np.testing.assert_array_equal(got, want)


def _exact_path_load(monkeypatch, pts, centers):
    """Points the screen hands to the exact path, and its answer."""
    seen = []

    def counted(p, c):
        seen.append(len(p))
        return _nearest_exact(p, c)

    monkeypatch.setattr(kmeans, "_nearest_exact", counted)
    got = _nearest_center(pts, centers)
    np.testing.assert_array_equal(got, _nearest_exact(pts, centers))
    return sum(seen)


def test_the_screen_settles_every_point_of_a_ledger_sized_chunk(monkeypatch):
    """A slack bug that sends every point to the exact path fails here
    rather than only running slow."""
    pts, centers = _draw(8, 1 << 17, 32, 2, coarse=False)
    assert _exact_path_load(monkeypatch, pts, centers) == 0
    ds = kmc_dataset(1 << 17, n_centers=32, dims=2, chunk_points=1 << 17, seed=1)
    assert _exact_path_load(monkeypatch, ds.chunk(0).data, ds.start_centers()) == 0


def test_ties_on_the_half_integer_grid_take_the_exact_path(monkeypatch):
    pts, centers = _draw(9, 3 * _SCREEN_WINDOW + 5, 9, 2, coarse=True)
    assert 0 < _exact_path_load(monkeypatch, pts, centers) < len(pts)


def test_points_past_the_overflow_guard_take_the_exact_path(monkeypatch):
    """``(|x| + R)²`` past 2¹⁰⁰⁰: no score may overflow, so no screening."""
    centers = np.array([[2.0**498], [-(2.0**498)]])
    pts = np.array([[2.0**500], [2.0**490], [-(2.0**490)]])
    assert _exact_path_load(monkeypatch, pts, centers) == 1


# -- staged == fused == naive on awkward inputs ---------------------------------

def _as_chunks(arrays):
    return [
        Chunk(index=i, data=a, logical_items=len(a), logical_bytes=a.nbytes)
        for i, a in enumerate(arrays)
    ]


def _assert_three_pipelines_agree(chunks, centers):
    """Staged and fused post the same bits; the naive per-point port,
    which sums in another order, derives the same centres."""
    k, dims = centers.shape

    def run(use_accumulation=True, **kwargs):
        job = kmc_job(None, centers, use_accumulation=use_accumulation)
        job = job.with_config(enable_stealing=False)
        return make_executor("serial", 2, **kwargs).run(job, chunks=chunks)

    staged, fused, naive = run(), run(fused=True), run(use_accumulation=False)
    want, got = staged.merged(), fused.merged()
    np.testing.assert_array_equal(got.keys, want.keys)
    assert got.values.tobytes() == want.values.tobytes()
    want_centers, want_counts = kmc_extract_centers(staged, k, dims, centers)
    got_centers, got_counts = kmc_extract_centers(naive, k, dims, centers)
    np.testing.assert_array_equal(got_counts, want_counts)
    np.testing.assert_allclose(got_centers, want_centers, rtol=1e-12, atol=1e-12)
    return want_centers, want_counts


def test_duplicate_centres_and_equidistant_points_three_ways():
    pts, centers = _draw(5, 2 * _WINDOW + 7, 9, 2, coarse=True)
    assert len(np.unique(centers, axis=0)) < len(centers)
    _, counts = _assert_three_pipelines_agree(_as_chunks([pts[:_WINDOW], pts[_WINDOW:]]), centers)
    # every duplicate of a lower-indexed centre attracts nothing
    _, first = np.unique(centers, axis=0, return_index=True)
    assert counts[np.setdiff1d(np.arange(len(centers)), first)].sum() == 0
    assert counts.sum() == len(pts)


def test_single_centre_three_ways():
    pts, centers = _draw(6, _WINDOW + 3, 1, 3, coarse=False)
    got, counts = _assert_three_pipelines_agree(_as_chunks([pts]), centers)
    assert counts.tolist() == [len(pts)]
    np.testing.assert_allclose(got[0], pts.mean(axis=0), rtol=1e-12)


def test_strided_and_fortran_ordered_payloads_three_ways():
    pts, centers = _draw(7, 2 * _WINDOW + 10, 6, 3, coarse=False)
    wide = np.zeros((len(pts), 5))
    wide[:, 1:4] = pts
    layouts = [pts[::2], np.asfortranarray(pts), wide[:, 1:4]]
    assert not any(a.flags.c_contiguous for a in layouts)
    for a in layouts:
        packed = _chunk_table(np.ascontiguousarray(a), centers)[1]
        assert _chunk_table(a, centers)[1].tobytes() == packed.tobytes()
    _assert_three_pipelines_agree(_as_chunks(layouts), centers)


def test_sampled_chunks_three_ways():
    ds = kmc_dataset(9_000, n_centers=7, dims=2, chunk_points=2_500, seed=4, sample_factor=4)
    chunks = [Chunk.from_work_item(item) for item in ds.chunks()]
    assert all(c.scale > 1 for c in chunks)
    _assert_three_pipelines_agree(chunks, ds.start_centers())


# -- the temporary is bounded by the window, not the chunk ---------------------

def test_mapping_a_ledger_sized_chunk_peaks_below_8_mb():
    """128 Ki x 2 points against 32 centres: the ``n x k x dims``
    temporary was 64 MB (twice); two ``window x k`` buffers, the index
    vector and one ``bincount`` column are ~2.5 MB."""
    pts, centers = _draw(8, 1 << 17, 32, 2, coarse=False)
    mapper = KMCMapper(centers)
    chunk = _as_chunks([pts])[0]
    tracemalloc.start()
    try:
        mapper.map_chunk(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"map_chunk peaked at {peak / 2**20:.1f} MiB above its input"
