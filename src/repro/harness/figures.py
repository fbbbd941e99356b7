"""Regeneration of the paper's Figures 2 and 3.

* **Figure 2** — runtime percentage breakdown (Map / Complete Binning /
  Sort / Reduce / GPMR Internal-Scheduler) for every app at 1, 8, and
  64 GPUs on the largest strong-scaling inputs.
* **Figure 3** — parallel efficiency (``speedup / n_gpus``) per app over
  the GPU sweep for each strong-scaling input size.  SIO is rendered as
  *speedup* like the paper's SIO panel (that is where the super-linear
  in-core bump is visible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .experiments import (
    FIGURE2_GPUS,
    GPU_COUNTS,
    dataset_for,
    strong_scaling_sizes,
)
from .report import render_series, render_table
from ..apps import run_app
from ..core.stats import STAGES

__all__ = [
    "Figure2Result",
    "Figure3Result",
    "figure2",
    "figure3",
    "efficiency_curve",
]

_STAGE_LABELS = {
    "map": "Map",
    "bin": "Complete Binning",
    "sort": "Sort",
    "reduce": "Reduce",
    "scheduler": "GPMR Internal / Scheduler",
}


# ---------------------------------------------------------------------------
# Figure 2 — runtime breakdowns
# ---------------------------------------------------------------------------

@dataclass
class Figure2Result:
    #: (app, n_gpus) -> stage -> fraction
    breakdowns: Dict[Tuple[str, int], Dict[str, float]]

    def fraction(self, app: str, n_gpus: int, stage: str) -> float:
        return self.breakdowns[(app, n_gpus)][stage]

    def render(self) -> str:
        headers = ["App", "GPUs"] + [_STAGE_LABELS[s] for s in STAGES]
        rows = []
        for (app, g), frac in self.breakdowns.items():
            rows.append([app, g] + [f"{frac[s] * 100:.1f}%" for s in STAGES])
        return render_table(
            headers, rows, title="Figure 2: GPMR runtime breakdowns (largest datasets)"
        )


def figure2(
    apps: Sequence[str] = ("MM", "KMC", "LR", "SIO", "WO"),
    gpu_counts: Sequence[int] = FIGURE2_GPUS,
    quick: bool = False,
    seed: int = 0,
) -> Figure2Result:
    """Stage-fraction breakdowns on each app's largest input."""
    out: Dict[Tuple[str, int], Dict[str, float]] = {}
    for app in apps:
        size = strong_scaling_sizes(app, quick=quick)[-1]
        ds = dataset_for(app, size, seed=seed)
        for g in gpu_counts:
            run = run_app(app, ds, g)
            out[(app, g)] = run.stats.stage_fractions
    return Figure2Result(breakdowns=out)


# ---------------------------------------------------------------------------
# Figure 3 — parallel efficiency
# ---------------------------------------------------------------------------

@dataclass
class EfficiencyCurve:
    app: str
    size: int
    gpu_counts: List[int]
    elapsed: List[float]

    @property
    def speedups(self) -> List[float]:
        base = self.elapsed[0] * self.gpu_counts[0]
        return [base / t for t in self.elapsed]

    @property
    def efficiencies(self) -> List[float]:
        return [s / g for s, g in zip(self.speedups, self.gpu_counts)]

    def efficiency_at(self, n_gpus: int) -> float:
        return self.efficiencies[self.gpu_counts.index(n_gpus)]


@dataclass
class Figure3Result:
    #: app -> list of curves (one per input size)
    curves: Dict[str, List[EfficiencyCurve]]

    def curve(self, app: str, size: int) -> EfficiencyCurve:
        for c in self.curves[app]:
            if c.size == size:
                return c
        raise KeyError((app, size))

    def render(self) -> str:
        blocks = []
        for app, curves in self.curves.items():
            xs = curves[0].gpu_counts
            series = []
            for c in curves:
                label = _size_label(app, c.size)
                ys = [round(e, 3) for e in c.efficiencies]
                series.append((label, ys))
            blocks.append(
                render_series(
                    "GPUs", xs, series,
                    title=f"Figure 3 ({app}): parallel efficiency",
                )
            )
        return "\n\n".join(blocks)


def _size_label(app: str, size: int) -> str:
    if app == "MM":
        return f"{size}x{size}"
    m = size / (1 << 20)
    return f"{m:g}M elems"


def efficiency_curve(
    app: str,
    size: int,
    gpu_counts: Sequence[int] = GPU_COUNTS,
    seed: int = 0,
) -> EfficiencyCurve:
    """Strong-scaling efficiency curve for one app/input size."""
    ds = dataset_for(app, size, seed=seed)
    elapsed = [run_app(app, ds, g).elapsed for g in gpu_counts]
    return EfficiencyCurve(
        app=app, size=size, gpu_counts=list(gpu_counts), elapsed=elapsed
    )


def figure3(
    apps: Sequence[str] = ("MM", "SIO", "WO", "KMC", "LR"),
    gpu_counts: Sequence[int] = GPU_COUNTS,
    quick: bool = False,
    seed: int = 0,
) -> Figure3Result:
    """Full Figure-3 sweep: every app x input size x GPU count."""
    curves: Dict[str, List[EfficiencyCurve]] = {}
    for app in apps:
        sizes = strong_scaling_sizes(app, quick=quick)
        if app == "MM":
            sizes = tuple(s for s in sizes if s >= 2048)  # paper plots 2048+
        curves[app] = [
            efficiency_curve(app, size, gpu_counts=gpu_counts, seed=seed)
            for size in sizes
        ]
    return Figure3Result(curves=curves)
