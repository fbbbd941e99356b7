"""K-Means Clustering (KMC) — paper Section 5.3.4.

One Lloyd iteration over random points with a fixed random start-centre
set.  The paper's optimised GPU pipeline, reproduced here:

* **persistent threads**: the block reads points coalesced, each thread
  finds the closest centre, and the block performs per-centre
  reductions — "these optimizations reduced Map times by almost 8x"
  over the emit-per-point port;
* **atomic-free Accumulation**: GT200 has no floating-point atomics, so
  each block accumulates into a per-block global-memory pool and a
  second kernel folds the pools (``SumAccumulator(use_atomics=False)``
  prices exactly that);
* the emitted keys are ``<C, P_dim>`` per dimension **plus one count
  key per centre** — ``K * (dims + 1)`` keys total, allowing coalesced
  writes;
* the **partitioner sends all keys of a centre to one GPU**;
* reduce is one key per thread (negligible time at these key counts).

On the host the per-point distance/argmin is a screen and a definition.
:func:`_nearest_center` scores every centre for a window of points with
one BLAS product (``|c|² − 2x·c``, the half-norm trick of GPU Lloyd
kernels) and settles each point whose nearest centre beats every other by
more than a written rounding bound; :func:`_nearest_exact`, the windowed
per-dimension kernel, decides the rest (near-ties, duplicate centres,
NaN/inf, extreme scales), so the answer is the exact kernel's, bit for
bit, whatever BLAS does.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core import (
    KeyValueSet,
    MapReduceJob,
    Mapper,
    Partitioner,
    Reducer,
    SumAccumulator,
    make_executor,
)
from ..core.chunk import Chunk
from ..core.executor import JobResult
from ..core.sorter import RadixSorter
from ..hw.kernel import KernelLaunch
from ..primitives import launch_1d, segmented_reduce
from ..workloads import KMeansDataset

__all__ = [
    "KMCMapper",
    "NaiveKMCMapper",
    "KMCReducer",
    "CenterPartitioner",
    "kmc_job",
    "kmc_dataset",
    "kmc_extract_centers",
    "kmc_validate",
    "kmc_phoenix_workload",
    "kmc_mars_workload",
]


#: Points per distance window, measured on the ledger's chunk shape (128 Ki
#: 2-D points, 32 centres): 1 Ki is fastest, 256 and 4 Ki 15-30 % slower.  The
#: ``window x k`` buffers stay in cache, as the paper's block stays in shared memory.
_WINDOW = 1 << 10

#: Points per screening window, measured on the same chunk shape: 2 Ki and
#: 4 Ki are fastest, 1 Ki and 8 Ki 10-30 % slower.  The ``k x window`` scores
#: and masks stay in cache.
_SCREEN_WINDOW = 1 << 11

#: Relative and absolute screen slack (see :func:`_nearest_center`).
_REL_SLACK = 2.0 ** -40
_ABS_SLACK = 2.0 ** -1000


def _nearest_exact(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest centre per point, lowest index on a tie — the definition the
    screen in :func:`_nearest_center` must reproduce.  Squared distances
    accumulate one dimension at a time, left to right, a window of points at
    a time: no ``n x k x dims`` temporary."""
    k, dims = centers.shape
    nearest = np.empty(len(pts), dtype=np.intp)
    d2, sq = np.empty((2, min(_WINDOW, len(pts)), k), dtype=np.float64)
    for s in range(0, len(pts), _WINDOW):
        window = pts[s : s + _WINDOW]
        acc, tmp = d2[: len(window)], sq[: len(window)]
        for d in range(dims):
            out = tmp if d else acc
            np.subtract(window[:, d, None], centers[:, d], out=out)
            np.multiply(out, out, out=out)
            if d:
                np.add(acc, tmp, out=acc)
        np.argmin(acc, axis=1, out=nearest[s : s + _WINDOW])
    return nearest


def _nearest_center(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """:func:`_nearest_exact`'s answer, bit for bit, from one BLAS product
    per window; only the points the product cannot settle take the exact path.

    The screen scores centre ``c`` for point ``x`` as ``S(c) = |c|² − 2x·c``:
    ``A @ X`` with ``A = [−2c | |c|²]`` (``k x (dims+1)``) and ``X = [xᵀ; 1]``
    (``(dims+1) x window``).  ``S`` orders the centres as ``|x − c|²`` does.
    A point is settled when exactly one centre ``j`` scores within ``slack``
    of the best; the smallest unsigned dtype that counts to ``k`` counts the
    near centres and sums their indices, so a count of one names ``j``.

    The bound.  Let ``d(c)`` be the real ``|x − c|²``, ``D(c)`` the exact
    path's float value, ``R`` the largest centre norm and ``u = 2⁻⁵³``.  For
    any summation order, blocking or FMA (BLAS may pick any), to first order
    in ``u``: ``|S(c) − (d(c) − |x|²)| ≤ (2dims + 1)u(|x| + R)²`` and
    ``|D(c) − d(c)| ≤ (dims + 2)u(|x| + R)²``.  With one more ``u(|x| + R)²``
    for rounding ``best + slack``, every other centre has ``D(c) > D(j)`` —
    strictly, so ``argmin`` has no tie to break — whenever ``slack ≥ 8(dims +
    3)u(|x| + R)²``.  The slack used is 4x that, ``max(2⁻⁴⁰, (dims +
    3)·2⁻⁴⁸)(|x|₁ + R)²`` (the 1-norm bounds ``|x|`` from above, and the
    margin absorbs the slack's own rounding), plus ``2⁻¹⁰⁰⁰``: that floor
    covers the absolute error of products in the subnormal range (each under
    ``2⁻¹⁰²²``, even flushed to zero), where relative bounds fail.

    Everything else takes the exact path: several near centres (near-ties,
    exact ties, duplicate centres); a NaN in the score column (``best`` is NaN,
    so no centre is near); and a slack that overflows — ``(|x| + R)²`` past
    ``2¹⁰⁰⁰`` makes it infinite, so every centre is near.  Below ``2¹⁰⁰⁰`` no
    score, distance or partial sum can overflow.
    """
    k, dims = centers.shape
    n = len(pts)
    w = min(_SCREEN_WINDOW, n)
    # A = [-2c | |c|²]; its product with a window's [xᵀ; 1] is S.
    a = np.empty((k, dims + 1), dtype=np.float64)
    np.multiply(centers, -2.0, out=a[:, :dims])
    np.add.reduce(centers * centers, axis=1, out=a[:, dims])
    radius = np.sqrt(np.max(a[:, dims]))
    rel = max(_REL_SLACK, (dims + 3) * 2.0**-48)
    small = np.min_scalar_type(k)
    rows = np.arange(k, dtype=small)[:, None]
    count, index = np.empty((2, n), dtype=small)
    xbuf, sbuf = np.empty((dims + 1) * w), np.empty(k * w)
    nbuf, ibuf = np.empty(k * w, dtype=np.uint8), np.empty(k * w, dtype=small)
    bound = np.empty(w)
    # The screen stays silent; the exact path warns on the points it gets.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, _SCREEN_WINDOW):
            window = pts[s : s + _SCREEN_WINDOW]
            m = len(window)
            x = xbuf[: (dims + 1) * m].reshape(dims + 1, m)
            x[:dims] = window.T
            x[dims] = 1.0
            scores = np.matmul(a, x, out=sbuf[: k * m].reshape(k, m))
            # best + rel·(|x|₁ + R)² + floor, squared at 2²⁴ times the scale
            # so that (|x| + R)² past 2¹⁰⁰⁰ overflows to infinity.
            b = bound[:m]
            np.add.reduce(np.abs(x[:dims]), axis=0, out=b)
            b += radius
            b *= 2.0**12
            np.square(b, out=b)
            b *= rel * 2.0**-24
            b += _ABS_SLACK
            b += np.minimum.reduce(scores, axis=0)
            near = nbuf[: k * m].reshape(k, m)
            np.less_equal(scores, b, out=near.view(bool))
            np.add.reduce(near, axis=0, dtype=small, out=count[s : s + m])
            picked = np.multiply(near, rows, out=ibuf[: k * m].reshape(k, m))
            np.add.reduce(picked, axis=0, out=index[s : s + m])
    nearest = index.astype(np.intp)
    todo = np.flatnonzero(count != 1)
    if len(todo):
        nearest[todo] = _nearest_exact(pts[todo], centers)
    return nearest


def _chunk_table(pts: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk's block-accumulated ``<key, partial>`` table: per centre,
    ``dims`` coordinate sums then the member count.

    The order of its float operations *is* the definition: distances as
    :func:`_nearest_exact` associates them (the screen only ever returns its
    answer), each centre's sums in point order (what ``np.add.at`` would do).
    """
    k, dims = centers.shape
    nearest = _nearest_center(pts, centers)
    cols = [np.bincount(nearest, weights=pts[:, d], minlength=k) for d in range(dims)]
    table = np.stack(cols + [np.bincount(nearest, minlength=k)], axis=1).astype(np.float64)
    return np.arange(table.size, dtype=np.uint32), table.reshape(-1)


class KMCMapper(Mapper):
    """Persistent-thread distance map with block-level accumulation."""

    def __init__(self, centers: np.ndarray) -> None:
        self.centers = np.asarray(centers, dtype=np.float64)
        self.k, self.dims = self.centers.shape
        # Centres live in constant/shared memory; per-block pools in global.
        self.scratch_bytes = self.centers.nbytes + (1 << 20)

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        keys, values = _chunk_table(chunk.data, self.centers)
        # Block-reduced emissions are exact per chunk: scale=1 pair-wise
        # byte accounting happens at the accumulator table level.
        return KeyValueSet(keys=keys, values=values, scale=1.0)

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        n = chunk.logical_items
        # Distance + argmin per point, plus the paper's "series of
        # reductions of all points belonging to C": K sequential
        # block-wide tree reductions (log2(block) steps each) in which
        # most warps idle — hence the heavy divergence de-rating.  This
        # matches the paper's observation that even after an ~8x map
        # optimisation, KMC map time (not transfer) dominates.
        block = 256
        flops_per_point = (
            3.0 * self.k * self.dims            # squared distances
            + self.k                             # argmin compares
            + 2.0 * self.k * np.log2(block)      # per-centre block reductions
        )
        return [
            launch_1d(
                "kmc_map_persistent",
                n,
                flops_per_item=flops_per_point,
                read_bytes_per_item=8.0 * self.dims,
                write_bytes_per_item=0.02,   # per-block pool writes
                items_per_thread=8,           # persistent threads
                coalescing=1.0,               # block-cooperative loads
                divergence=0.25,              # idle warps in the reduction series
                syncs=1,
            ),
            # Fold the per-block pools into the accumulator table.
            launch_1d(
                "kmc_pool_fold",
                self.k * (self.dims + 1) * 64,
                flops_per_item=1.0,
                read_bytes_per_item=8.0,
                write_bytes_per_item=8.0 / 64,
            ),
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return self.k * (self.dims + 1) * 12


class NaiveKMCMapper(Mapper):
    """The paper's *first* KMC port, kept for ablation A1.

    "The typical CPU implementation of the Map kernel reads one point
    P, finds the index of the closest center C, and emits
    <index(C), P>.  We implemented this in GPMR and saw poor results":
    thread-private point loads (uncoalesced), emitted pairs per point
    (far too much intermediate data), uncoalesced writes.  Emits
    ``<key(C, field), coordinate-or-count>`` so the same reducer and
    validation as the optimised pipeline apply.
    """

    def __init__(self, centers: np.ndarray) -> None:
        self.centers = np.asarray(centers, dtype=np.float64)
        self.k, self.dims = self.centers.shape
        self.scratch_bytes = self.centers.nbytes

    def map_chunk(self, chunk: Chunk) -> KeyValueSet:
        pts, fields = chunk.data, self.dims + 1
        # (dims + 1) pairs per point: the coordinates and a count of 1.
        keys = _nearest_center(pts, self.centers)[:, None] * fields + np.arange(fields)
        values = np.column_stack([pts, np.ones(len(pts))])
        return KeyValueSet(keys.astype(np.uint32).ravel(), values.ravel(), scale=chunk.scale)

    def map_cost(self, chunk: Chunk) -> List[KernelLaunch]:
        n = chunk.logical_items
        return [
            launch_1d(
                "kmc_map_naive",
                n,
                flops_per_item=3.0 * self.k * self.dims + self.k,
                read_bytes_per_item=8.0 * self.dims,
                write_bytes_per_item=12.0 * (self.dims + 1),
                coalescing=0.25,   # thread-private loads, scattered emits
            )
        ]

    def output_bytes_estimate(self, chunk: Chunk) -> int:
        return chunk.logical_items * 12 * (self.dims + 1)


class KMCReducer(Reducer):
    """Thread-per-key sum of the per-GPU partial values."""

    def reduce_segments(self, keys, values, offsets, counts, scale) -> KeyValueSet:
        sums = segmented_reduce(values, offsets)
        return KeyValueSet(keys=keys, values=sums, scale=scale)

    def reduce_cost(self, n_values: int, n_keys: int) -> List[KernelLaunch]:
        return [
            launch_1d(
                "kmc_reduce",
                n_values,
                flops_per_item=1.0,
                read_bytes_per_item=12.0,
                write_bytes_per_item=12.0 * n_keys / max(n_values, 1),
                coalescing=0.5,
            )
        ]


class CenterPartitioner(Partitioner):
    """All keys of a centre go to one GPU (paper's KMC partitioner)."""

    def __init__(self, dims: int) -> None:
        self.dims = dims

    def partition(self, kv: KeyValueSet, n_parts: int) -> np.ndarray:
        centers = kv.keys // np.uint32(self.dims + 1)
        return (centers % np.uint32(n_parts)).astype(np.int64)


def kmc_dataset(
    n_points: int,
    n_centers: int = 32,
    dims: int = 2,
    chunk_points: int = 4 << 20,
    seed: int = 0,
    sample_factor: int = 1,
) -> KMeansDataset:
    """The paper's KMC input: 16-byte elements (2-D double points)."""
    return KMeansDataset(
        n_points=n_points,
        n_centers=n_centers,
        dims=dims,
        chunk_points=chunk_points,
        seed=seed,
        sample_factor=sample_factor,
    )


def kmc_job(
    dataset: KMeansDataset,
    centers: np.ndarray = None,
    use_accumulation: bool = True,
) -> MapReduceJob:
    """One KMC MapReduce iteration from ``centers`` (default: the fixed
    random start centres, as the paper's benchmark does).

    ``use_accumulation=False`` selects the paper's first emit-per-point
    port (ablation A1: "dramatically worse performance ... before
    implementing Accumulation; all three had similar characteristics to
    SIO").
    """
    if centers is None:
        centers = dataset.start_centers()
    k, dims = centers.shape
    n_keys = k * (dims + 1)
    key_bits = max(int(np.ceil(np.log2(n_keys))) + 1, 8)
    if use_accumulation:
        mapper = KMCMapper(centers)
        accumulator = SumAccumulator(
            n_keys, value_dtype=np.float64, use_atomics=False  # no FP atomics
        )
    else:
        # The naive per-point port has no accumulator, so nothing to fuse.
        mapper = NaiveKMCMapper(centers)
        accumulator = None
    return MapReduceJob(
        name="k-means" if use_accumulation else "k-means-naive",
        mapper=mapper,
        reducer=KMCReducer(),
        partitioner=CenterPartitioner(dims),
        accumulator=accumulator,
        sorter=RadixSorter(key_bits=key_bits),
        key_bytes=4,
        value_bytes=8,
        key_bits=key_bits,
    )


def kmc_extract_centers(
    result: JobResult, k: int, dims: int, old_centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild the new centres (and member counts) from reduce output."""
    table = np.zeros(k * (dims + 1), dtype=np.float64)
    merged = result.merged()
    np.add.at(table, merged.keys.astype(np.int64), merged.values)
    sums = table.reshape(k, dims + 1)[:, :dims]
    counts = table.reshape(k, dims + 1)[:, dims]
    new_centers = old_centers.copy()
    nonzero = counts > 0
    new_centers[nonzero] = sums[nonzero] / counts[nonzero, None]
    return new_centers, counts.astype(np.int64)


def kmc_validate(result: JobResult, dataset: KMeansDataset) -> None:
    """Check one GPMR iteration against the serial Lloyd step."""
    from ..baselines.serial import kmeans_step

    start = dataset.start_centers()
    expected_centers, expected_counts = kmeans_step(dataset, start)
    got_centers, got_counts = kmc_extract_centers(
        result, dataset.n_centers, dataset.dims, start
    )
    np.testing.assert_allclose(got_centers, expected_centers, rtol=1e-9)
    np.testing.assert_array_equal(got_counts, expected_counts)


# -- baseline descriptors ---------------------------------------------------

def kmc_phoenix_workload(dataset: KMeansDataset):
    """Phoenix KMC: distance loop per point (SSE-friendly), per-point
    emit of <centre, point> through the runtime."""
    from ..baselines.phoenix import PhoenixWorkload

    k, dims = dataset.n_centers, dataset.dims
    return PhoenixWorkload(
        name="kmc",
        n_items=dataset.n_points,
        map_flops_per_item=3.0 * k * dims + k,
        map_bytes_per_item=8.0 * dims,
        # Phoenix KMC accumulates into thread-local tables and
        # merges at the end: grouped pair volume is per-worker, tiny.
        emits_per_item=16.0 * k / dataset.n_points,
        pair_bytes=4 + 8 * dims,
        n_unique_keys=k,
        reduce_flops_per_pair=float(dims),
        flops_efficiency=0.45,
        group_cost_per_pair=5e-8,
    )


def kmc_mars_workload(dataset: KMeansDataset):
    """Mars KMC: thread-per-point map emitting <centre, point>, then a
    bitonic sort of every point-sized pair — the design GPMR's
    accumulation makes unnecessary (hence the ~37x in Table 3)."""
    from ..baselines.mars import MarsWorkload

    n = dataset.n_points
    k, dims = dataset.n_centers, dataset.dims
    pair = 4 + 8 * dims + 8  # key + point + Mars directory entry
    return MarsWorkload(
        name="kmc",
        input_bytes=n * 8 * dims,
        n_items=n,
        map_launches=[
            launch_1d(
                "mars_kmc_map",
                n,
                flops_per_item=3.0 * k * dims + k,
                read_bytes_per_item=8.0 * dims,
                write_bytes_per_item=float(pair),
                coalescing=0.3,      # thread-private point loads
            )
        ],
        n_pairs=n,
        pair_bytes=pair,
        key_bits=32,
        reduce_launches=[
            launch_1d(
                "mars_kmc_reduce",
                n,
                flops_per_item=float(dims),
                read_bytes_per_item=float(pair - 16),
                coalescing=0.5,
            )
        ],
        output_bytes=k * (dims + 1) * 12,
    )


def run_kmc(
    n_gpus: int,
    dataset: KMeansDataset,
    *,
    backend: str = "sim",
    schedule=None,
    use_accumulation: bool = True,
    **executor_kwargs,
) -> JobResult:
    """Convenience: run one KMC iteration on ``n_gpus`` workers."""
    return make_executor(backend, n_gpus, **executor_kwargs).run(
        kmc_job(dataset, use_accumulation=use_accumulation),
        dataset,
        schedule=schedule,
    )
