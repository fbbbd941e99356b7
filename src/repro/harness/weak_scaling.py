"""Weak-scaling experiments: Table 1's second dataset set.

"We ran each GPMR benchmark against two datasets.  One tests strong
scalability ...; the other tests weak scalability" with per-GPU element
counts (e.g. SIO 1–32 M elements *per GPU*).  The paper reports no
separate weak-scaling figure, so this module is an extension: it holds
per-GPU input constant, sweeps the GPU count, and reports *weak
efficiency* ``T(1) / T(N)`` (1.0 = perfect weak scaling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .experiments import dataset_for
from .report import render_series
from ..apps import run_app

__all__ = ["WeakScalingResult", "weak_scaling", "WEAK_PER_GPU"]

M = 1 << 20

#: Representative per-GPU element counts from Table 1's second set.
WEAK_PER_GPU: Dict[str, int] = {
    "SIO": 8 * M,      # second set: 1..32 M / GPU
    "WO": 32 * M,      # second set: 1..256 M / GPU
    "KMC": 8 * M,      # second set: 1..32 M / GPU
    "LR": 16 * M,      # second set: 1..64 M / GPU
}


@dataclass
class WeakCurve:
    app: str
    per_gpu: int
    gpu_counts: List[int]
    elapsed: List[float]

    @property
    def weak_efficiencies(self) -> List[float]:
        base = self.elapsed[0]
        return [base / t for t in self.elapsed]

    def efficiency_at(self, n_gpus: int) -> float:
        return self.weak_efficiencies[self.gpu_counts.index(n_gpus)]


@dataclass
class WeakScalingResult:
    curves: Dict[str, WeakCurve]

    def render(self) -> str:
        first = next(iter(self.curves.values()))
        xs = first.gpu_counts
        series = [
            (f"{app} ({c.per_gpu // M}M/GPU)", [round(e, 3) for e in c.weak_efficiencies])
            for app, c in self.curves.items()
        ]
        return render_series(
            "GPUs", xs, series,
            title="Weak scaling: efficiency T(1)/T(N), constant work per GPU",
        )


def weak_scaling(
    apps: Sequence[str] = ("SIO", "WO", "KMC", "LR"),
    gpu_counts: Sequence[int] = (1, 4, 8, 16, 32),
    seed: int = 0,
) -> WeakScalingResult:
    """Hold per-GPU input constant; sweep the GPU count."""
    curves: Dict[str, WeakCurve] = {}
    for app in apps:
        per_gpu = WEAK_PER_GPU[app]
        elapsed = []
        for g in gpu_counts:
            ds = dataset_for(app, per_gpu * g, seed=seed)
            elapsed.append(run_app(app, ds, g).elapsed)
        curves[app] = WeakCurve(
            app=app, per_gpu=per_gpu, gpu_counts=list(gpu_counts), elapsed=elapsed
        )
    return WeakScalingResult(curves=curves)
