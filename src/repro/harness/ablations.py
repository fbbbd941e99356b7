"""Ablation experiments (A1–A4) for the design choices DESIGN.md calls out.

* **A1** — Accumulation on/off for WO, KMC, LR ("We saw dramatically
  worse performance in KMC, LR, and especially WO before implementing
  Accumulation; all three had similar characteristics to SIO").
* **A2** — SIO pipeline configurations: plain vs Partial Reduction vs
  Combine ("we forego Partial Reduction and Accumulation as they yield
  no speedup with our intermediate data, and we skip Combine as it
  causes slowdown").
* **A3** — chunk-size sweep: the overlap trade-off of Section 3.
* **A4** — WO reduce kernels: warp-per-key vs thread-per-key ("reduction
  times were reduced (by an order of magnitude in some cases)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .report import render_table
from ..apps import (
    kmc_dataset,
    lr_dataset,
    run_kmc,
    run_lr,
    run_wo,
    sio_dataset,
    sio_job,
    wo_dataset,
)
from ..core import SumCombiner, SumPartialReducer
from ..core.job import MapReduceJob
from ..hw.kernel import kernel_duration
from ..hw.specs import GT200
from ..apps.word_occurrence import WOThreadReducer, WOWarpReducer
from ..sim.runtime import GPMRRuntime

__all__ = [
    "AblationResult",
    "ablation_accumulation",
    "ablation_sio_pipeline",
    "ablation_chunk_size",
    "ablation_wo_reduce",
]

M = 1 << 20


@dataclass
class AblationResult:
    title: str
    headers: List[str]
    rows: List[List[object]]
    #: named scalar findings for assertions
    findings: Dict[str, float]

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def ablation_accumulation(n_gpus: int = 4, seed: int = 0) -> AblationResult:
    """A1: accumulation on/off for WO, KMC, LR."""
    rows = []
    findings: Dict[str, float] = {}

    wo_ds = wo_dataset(64 * M, seed=seed, sample_factor=32)
    t_on = run_wo(n_gpus, wo_ds, use_accumulation=True).elapsed
    t_off = run_wo(n_gpus, wo_ds, use_accumulation=False).elapsed
    rows.append(["WO 64M", t_on, t_off, t_off / t_on])
    findings["wo_slowdown"] = t_off / t_on

    kmc_ds = kmc_dataset(32 * M, seed=seed, sample_factor=16)
    t_on = run_kmc(n_gpus, kmc_ds, use_accumulation=True).elapsed
    t_off = run_kmc(n_gpus, kmc_ds, use_accumulation=False).elapsed
    rows.append(["KMC 32M", t_on, t_off, t_off / t_on])
    findings["kmc_slowdown"] = t_off / t_on

    lr_ds = lr_dataset(64 * M, seed=seed, sample_factor=32)
    t_on = run_lr(n_gpus, lr_ds, use_accumulation=True).elapsed
    t_off = run_lr(n_gpus, lr_ds, use_accumulation=False).elapsed
    rows.append(["LR 64M", t_on, t_off, t_off / t_on])
    findings["lr_slowdown"] = t_off / t_on

    return AblationResult(
        title=f"A1: Accumulation ablation ({n_gpus} GPUs)",
        headers=["Workload", "with accum (s)", "without (s)", "slowdown"],
        rows=rows,
        findings=findings,
    )


def ablation_sio_pipeline(n_gpus: int = 4, seed: int = 0) -> AblationResult:
    """A2: SIO with plain / partial-reduce / combine pipelines."""
    ds = sio_dataset(32 * M, seed=seed, sample_factor=16)
    rt = GPMRRuntime(n_gpus=n_gpus)

    def variant(partial=None, combiner=None) -> float:
        base = sio_job(ds.key_space)
        job = MapReduceJob(
            name=base.name,
            mapper=base.mapper,
            reducer=base.reducer,
            partitioner=base.partitioner,
            partial_reducer=partial,
            combiner=combiner,
            sorter=base.sorter,
            key_bytes=base.key_bytes,
            value_bytes=base.value_bytes,
            key_bits=base.key_bits,
        )
        return rt.run(job, ds).elapsed

    t_plain = variant()
    t_partial = variant(partial=SumPartialReducer())
    t_combine = variant(combiner=SumCombiner())
    findings = {
        "plain": t_plain,
        "partial_reduce": t_partial,
        "combine": t_combine,
    }
    rows = [
        ["plain (paper's choice)", t_plain, 1.0],
        ["+ partial reduction", t_partial, t_partial / t_plain],
        ["+ combine", t_combine, t_combine / t_plain],
    ]
    return AblationResult(
        title=f"A2: SIO pipeline configurations ({n_gpus} GPUs, 32M ints)",
        headers=["Pipeline", "elapsed (s)", "vs plain"],
        rows=rows,
        findings=findings,
    )


def ablation_chunk_size(
    n_gpus: int = 8,
    chunk_elements: Sequence[int] = (1 * M, 4 * M, 16 * M, 64 * M),
    seed: int = 0,
) -> AblationResult:
    """A3: SIO chunk-size sweep (overlap vs per-chunk overhead)."""
    rows = []
    findings: Dict[str, float] = {}
    rt = GPMRRuntime(n_gpus=n_gpus)
    for chunk in chunk_elements:
        ds = sio_dataset(
            128 * M, chunk_elements=chunk, seed=seed, sample_factor=64
        )
        t = rt.run(sio_job(ds.key_space), ds).elapsed
        rows.append([f"{chunk // M}M ints/chunk", ds.n_chunks, t])
        findings[f"chunk_{chunk // M}M"] = t
    return AblationResult(
        title=f"A3: SIO chunk-size sweep ({n_gpus} GPUs, 128M ints)",
        headers=["Chunk size", "# chunks", "elapsed (s)"],
        rows=rows,
        findings=findings,
    )


def ablation_wo_reduce(seed: int = 0) -> AblationResult:
    """A4: WO reduce kernel, warp-per-key vs thread-per-key.

    Prices the two reduce kernels over the same (n_values, n_keys)
    workload, and also times full WO jobs with each reducer.
    """
    n_keys = 43_000
    n_values = n_keys * 16  # 16 GPUs' worth of accumulated tables
    warp = sum(
        kernel_duration(GT200, k)
        for k in WOWarpReducer().reduce_cost(n_values, n_keys)
    )
    thread = sum(
        kernel_duration(GT200, k)
        for k in WOThreadReducer().reduce_cost(n_values, n_keys)
    )
    ds = wo_dataset(16 * M, seed=seed, sample_factor=8)
    t_warp_job = run_wo(4, ds, warp_reducer=True).elapsed
    t_thread_job = run_wo(4, ds, warp_reducer=False).elapsed
    findings = {
        "kernel_speedup": thread / warp,
        "warp_kernel_s": warp,
        "thread_kernel_s": thread,
        "job_speedup": t_thread_job / t_warp_job,
    }
    rows = [
        ["warp-per-key kernel", warp, 1.0],
        ["thread-per-key kernel", thread, thread / warp],
        ["warp-per-key full job (4 GPUs)", t_warp_job, 1.0],
        ["thread-per-key full job (4 GPUs)", t_thread_job, t_thread_job / t_warp_job],
    ]
    return AblationResult(
        title="A4: WO reduce kernel ablation",
        headers=["Variant", "seconds", "ratio"],
        rows=rows,
        findings=findings,
    )
