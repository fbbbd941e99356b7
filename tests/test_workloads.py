"""Tests for workload generators (datasets, chunking, sampling)."""

import numpy as np
import pytest

from repro.workloads import (
    IntegerDataset,
    KMeansDataset,
    MatrixDataset,
    RegressionDataset,
    TextDataset,
    tokenize,
)
from repro.util.rng import generator


# -- integers -----------------------------------------------------------------

def test_integer_dataset_chunk_count():
    ds = IntegerDataset(n_elements=1000, chunk_elements=300, seed=1)
    assert ds.n_chunks == 4


def test_integer_dataset_last_chunk_short():
    ds = IntegerDataset(n_elements=1000, chunk_elements=300, seed=1)
    sizes = [c.logical_items for c in ds.chunks()]
    assert sizes == [300, 300, 300, 100]
    assert sum(sizes) == 1000


def test_integer_dataset_deterministic_per_chunk():
    ds = IntegerDataset(n_elements=500, chunk_elements=100, seed=7)
    a = ds.chunk(2).data
    b = ds.chunk(2).data
    np.testing.assert_array_equal(a, b)


def test_integer_dataset_chunks_differ():
    ds = IntegerDataset(n_elements=500, chunk_elements=100, seed=7)
    assert not np.array_equal(ds.chunk(0).data, ds.chunk(1).data)


def test_integer_dataset_sampling_preserves_logical():
    full = IntegerDataset(n_elements=1 << 16, chunk_elements=1 << 16, seed=3)
    sampled = IntegerDataset(
        n_elements=1 << 16, chunk_elements=1 << 16, seed=3, sample_factor=8
    )
    cf, cs = full.chunk(0), sampled.chunk(0)
    assert cf.logical_items == cs.logical_items == 1 << 16
    assert cs.actual_items == (1 << 16) // 8
    assert cs.scale == pytest.approx(8.0)
    assert cf.scale == pytest.approx(1.0)


def test_integer_dataset_keys_in_range():
    ds = IntegerDataset(n_elements=1000, chunk_elements=1000, key_space=50, seed=2)
    data = ds.chunk(0).data
    assert data.min() >= 0 and data.max() < 50


def test_integer_dataset_index_bounds():
    ds = IntegerDataset(n_elements=100, chunk_elements=100)
    with pytest.raises(IndexError):
        ds.chunk(1)


def test_integer_dataset_validation():
    with pytest.raises(ValueError):
        IntegerDataset(n_elements=0)
    with pytest.raises(ValueError):
        IntegerDataset(n_elements=10, key_space=1 << 33)


# -- text ----------------------------------------------------------------------

def test_tokenize_basic():
    text = np.frombuffer(b"hello world\nfoo", dtype=np.uint8)
    starts, lengths = tokenize(text)
    np.testing.assert_array_equal(starts, [0, 6, 12])
    np.testing.assert_array_equal(lengths, [5, 5, 3])


def test_tokenize_leading_trailing_separators():
    text = np.frombuffer(b"  a b  ", dtype=np.uint8)
    starts, lengths = tokenize(text)
    np.testing.assert_array_equal(starts, [2, 4])
    np.testing.assert_array_equal(lengths, [1, 1])


def test_tokenize_empty():
    starts, lengths = tokenize(np.empty(0, dtype=np.uint8))
    assert len(starts) == 0 and len(lengths) == 0


def test_tokenize_all_separators():
    starts, _ = tokenize(np.frombuffer(b"   \n ", dtype=np.uint8))
    assert len(starts) == 0


def test_text_dataset_words_come_from_dictionary():
    ds = TextDataset(n_chars=5000, chunk_chars=5000, n_words=500, seed=1)
    chunk = ds.chunk(0)
    starts, lengths = tokenize(chunk.data)
    vocab = set(ds.dictionary)
    for s, l in zip(starts[:50], lengths[:50]):
        assert bytes(chunk.data[s : s + l]) in vocab


def test_text_dataset_has_line_breaks():
    ds = TextDataset(n_chars=5000, chunk_chars=5000, n_words=500, line_words=5, seed=1)
    assert np.any(ds.chunk(0).data == 0x0A)


def test_text_dataset_deterministic():
    ds = TextDataset(n_chars=2000, chunk_chars=1000, n_words=300, seed=9)
    np.testing.assert_array_equal(ds.chunk(1).data, ds.chunk(1).data)


def test_text_dataset_sampled_chunk_smaller():
    full = TextDataset(n_chars=1 << 16, chunk_chars=1 << 16, n_words=300, seed=4)
    samp = TextDataset(
        n_chars=1 << 16, chunk_chars=1 << 16, n_words=300, seed=4, sample_factor=4
    )
    assert samp.chunk(0).actual_items < full.chunk(0).actual_items
    # Logical size tracks generated bytes exactly: scale is the integer
    # sample factor, and the logical totals agree to within a few words.
    assert samp.chunk(0).scale == 4.0
    assert full.chunk(0).scale == 1.0
    assert samp.chunk(0).logical_items == pytest.approx(
        full.chunk(0).logical_items, rel=0.01
    )


def _plain_corpus(ds, index):
    """Chunk ``index`` of ``ds`` assembled word by word in plain Python,
    from the same RNG draw ``TextDataset.chunk`` makes."""
    logical = min(ds.chunk_chars, ds.n_chars - index * ds.chunk_chars)
    target = max(16, logical // ds.sample_factor)
    mean_word = sum(map(len, ds.dictionary)) / len(ds.dictionary) + 1.0
    n_words = max(1, int(target / mean_word))
    ids = generator(ds.seed, stream=(index,)).integers(
        0, len(ds.dictionary), size=n_words
    )
    out = bytearray()
    for j, i in enumerate(ids.tolist()):
        out += ds.dictionary[i]
        out += b"\n" if (j + 1) % ds.line_words == 0 else b" "
    return bytes(out)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_chars=1 << 16, chunk_chars=1 << 14, n_words=500, seed=3, sample_factor=4),
        dict(n_chars=10_000, chunk_chars=3_000, n_words=300, line_words=5, seed=1),
        dict(n_chars=1 << 17, chunk_chars=1 << 17, seed=7),
    ],
    ids=["sampled", "short-last-chunk", "43k-dictionary"],
)
def test_text_dataset_bytes_match_plain_assembly(kwargs):
    ds = TextDataset(**kwargs)
    for i in range(ds.n_chunks):
        item = ds.chunk(i)
        assert item.data.tobytes() == _plain_corpus(ds, i)
        size = len(item.data) * ds.sample_factor
        assert ds.chunk_meta(i) == (size, size)
        assert (item.logical_items, item.logical_bytes) == (size, size)


# -- points ---------------------------------------------------------------------

def test_kmeans_dataset_shapes():
    ds = KMeansDataset(n_points=1000, n_centers=4, dims=2, chunk_points=400, seed=5)
    assert ds.n_chunks == 3
    c = ds.chunk(0)
    assert c.data.shape == (400, 2)
    assert c.logical_bytes == 400 * 16  # 16-byte elements per Table 1


def test_kmeans_start_centers_fixed_random():
    ds = KMeansDataset(n_points=100, n_centers=8, seed=5)
    a, b = ds.start_centers(), ds.start_centers()
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8, 2)
    # Start centres differ from the generating centres.
    assert not np.allclose(a, ds.true_centers)


def test_kmeans_points_near_true_centers():
    ds = KMeansDataset(n_points=2000, n_centers=3, chunk_points=2000, spread=0.01, seed=6)
    pts = ds.chunk(0).data
    dists = np.linalg.norm(pts[:, None, :] - ds.true_centers[None], axis=2).min(axis=1)
    assert np.quantile(dists, 0.95) < 0.05


def test_regression_dataset_recovers_model():
    ds = RegressionDataset(n_points=50_000, slope=3.0, intercept=0.5, noise=0.01,
                           chunk_points=50_000, seed=7)
    data = ds.chunk(0).data
    x, y = data[:, 0].astype(np.float64), data[:, 1].astype(np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(3.0, abs=0.01)
    assert intercept == pytest.approx(0.5, abs=0.01)


def test_regression_element_bytes():
    ds = RegressionDataset(n_points=10, chunk_points=10, seed=1)
    assert ds.chunk(0).logical_bytes == 80
    assert ds.chunk(0).data.dtype == np.float32


# -- matrices -------------------------------------------------------------------

def test_matrix_dataset_panel_plan():
    ds = MatrixDataset(m=16, tile=4, kspan=2, seed=1)
    assert ds.grid == 4
    assert ds.k_groups == 2
    assert ds.n_chunks == 4 * 4 * 2
    tasks = [(t.i, t.j, t.k0) for t in (ds.task(i) for i in range(ds.n_chunks))]
    assert len(set(tasks)) == ds.n_chunks


def test_matrix_dataset_kspan_clamped_to_grid():
    ds = MatrixDataset(m=8, tile=4, kspan=100, seed=1)
    assert ds.kspan == 2
    assert ds.k_groups == 1


def test_matrix_dataset_panels_assemble_product():
    ds = MatrixDataset(m=16, tile=4, kspan=2, seed=1)
    c = np.zeros((ds.m_actual, ds.m_actual), dtype=np.float64)
    t = ds.tile_actual
    for idx in range(ds.n_chunks):
        task = ds.task(idx)
        partial = ds.a_panel(task).astype(np.float64) @ ds.b_panel(task).astype(np.float64)
        c[task.i * t : (task.i + 1) * t, task.j * t : (task.j + 1) * t] += partial
    np.testing.assert_allclose(c, ds.a.astype(np.float64) @ ds.b.astype(np.float64), rtol=1e-6)


def test_matrix_dataset_reference_product():
    ds = MatrixDataset(m=16, tile=4, seed=2)
    np.testing.assert_allclose(
        ds.reference_product(),
        (ds.a.astype(np.float64) @ ds.b.astype(np.float64)).astype(np.float32),
        rtol=1e-6,
    )


def test_matrix_dataset_sampling_shrinks_tiles():
    full = MatrixDataset(m=16, tile=8, kspan=2, seed=3)
    samp = MatrixDataset(m=16, tile=8, kspan=2, seed=3, sample_factor=4)
    assert samp.tile_actual == 2
    assert samp.n_chunks == full.n_chunks  # logical plan unchanged
    assert samp.chunk(0).logical_bytes == full.chunk(0).logical_bytes


def test_matrix_dataset_logical_cost_helpers():
    ds = MatrixDataset(m=16, tile=4, kspan=2, seed=1)
    task = ds.task(0)
    assert ds.panel_bytes(task) == 2 * 2 * 16 * 4
    assert ds.panel_flops(task) == 2 * 4 * 4 * 8
    assert ds.out_key(ds.task(1)) == ds.out_key(ds.task(0))  # same (i, j)


def test_matrix_dataset_validation():
    with pytest.raises(ValueError):
        MatrixDataset(m=10, tile=4)
    with pytest.raises(ValueError):
        MatrixDataset(m=16, tile=6, sample_factor=4)
