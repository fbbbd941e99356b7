"""Fused-kernel microbench: map-phase throughput and emission volume.

Times one rank's map phase (:class:`~repro.core.dataflow.MapRunner`,
fed chunk by chunk exactly as the pull loop does) for each app, in up
to three variants:

* **raw** — the paper's first-port pipeline where it exists
  (``use_accumulation=False``): every pair crosses the map boundary;
* **staged** — the tuned unfused pipeline (accumulate / plain map);
* **fused** — the same job with its
  :class:`~repro.core.mapper.FusedMapper` collapsing map + partial
  reduce (+ per-chunk combine) into one call per chunk.

Reported per variant: map wall seconds, logical item throughput and
bytes handed to the exchange (``bytes_binned``).  Each variant runs
once untimed first, so the timed run does not pay the process's first
large allocations.  The headline findings are the emission-byte
reductions: fused KMC and WO emit one resident table per rank instead
of a pair stream, and fused SIO merges like keys per chunk before the
shuffle.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from .ablations import AblationResult
from .experiments import bench_smoke_enabled
from ..apps import (
    kmc_dataset,
    kmc_job,
    lr_dataset,
    lr_job,
    sio_dataset,
    sio_job,
    wo_dataset,
    wo_job,
)
from ..core.chunk import Chunk
from ..core.job import MapReduceJob
from ..core.dataflow import MapRunner

__all__ = ["fused_kernels"]

M = 1 << 20

#: partitions the map output is split across (a mid-size rank count)
N_WORKERS = 4


def _run_map(job: MapReduceJob, chunks: Sequence[Chunk], fused: bool):
    runner = MapRunner(job, N_WORKERS, fused=fused)
    for chunk in chunks:
        runner.feed(chunk)
    runner.finish()
    return runner.out


def _time_map(job: MapReduceJob, chunks: Sequence[Chunk], fused: bool):
    _run_map(job, chunks, fused)  # warm-up: not timed
    t0 = time.perf_counter()
    out = _run_map(job, chunks, fused)
    return time.perf_counter() - t0, out


def fused_kernels(seed: int = 0) -> AblationResult:
    """Fused vs unfused map-phase throughput for the four fused apps."""
    smoke = bench_smoke_enabled()
    n_items = (1 << 14) if smoke else 2 * M
    chunk_items = max(n_items // 8, 1)

    wo_ds = wo_dataset(n_items, chunk_chars=chunk_items, seed=seed)
    kmc_ds = kmc_dataset(
        n_items, n_centers=32, dims=2, chunk_points=chunk_items, seed=seed
    )
    lr_ds = lr_dataset(n_items, chunk_points=chunk_items, seed=seed)
    # A key space small enough that chunks hold duplicate keys: the
    # per-chunk combine has something to merge.  (The paper's sparse
    # 2^28 space is the adversarial case where it would not.)
    sio_ds = sio_dataset(
        n_items, chunk_elements=chunk_items, key_space=1 << 14, seed=seed
    )

    cases = [
        ("KMC", kmc_ds, {
            "raw": (kmc_job(kmc_ds, use_accumulation=False), False),
            "staged": (kmc_job(kmc_ds), False),
            "fused": (kmc_job(kmc_ds), True),
        }),
        ("WO", wo_ds, {
            "raw": (wo_job(N_WORKERS, use_accumulation=False), False),
            "staged": (wo_job(N_WORKERS), False),
            "fused": (wo_job(N_WORKERS), True),
        }),
        ("LR", lr_ds, {
            "raw": (lr_job(use_accumulation=False), False),
            "staged": (lr_job(), False),
            "fused": (lr_job(), True),
        }),
        ("SIO", sio_ds, {
            "raw": (sio_job(key_space=sio_ds.key_space), False),
            "fused": (sio_job(key_space=sio_ds.key_space), True),
        }),
    ]

    rows: List[List[object]] = []
    findings: Dict[str, float] = {}
    for app, ds, variants in cases:
        chunks = list(ds.chunks())
        items = sum(c.logical_items for c in chunks)
        emitted: Dict[str, int] = {}
        elapsed: Dict[str, float] = {}
        for variant, (job, fused) in variants.items():
            secs, out = _time_map(job, chunks, fused)
            emitted[variant] = out.bytes_binned
            elapsed[variant] = secs
            rows.append([
                app,
                variant,
                secs,
                items / max(secs, 1e-12) / M,
                out.bytes_binned / M,
            ])
        key = app.lower()
        findings[f"{key}_emission_reduction"] = (
            emitted["raw"] / max(emitted["fused"], 1)
        )
        findings[f"{key}_fused_speedup"] = (
            elapsed["raw"] / max(elapsed["fused"], 1e-12)
        )

    return AblationResult(
        title=f"Fused map+partial-reduce kernels ({N_WORKERS}-way partition)",
        headers=["App", "variant", "map (s)", "Mitems/s", "emitted (MB)"],
        rows=rows,
        findings=findings,
    )
