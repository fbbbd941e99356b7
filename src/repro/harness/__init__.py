"""Experiment harness (S13): regenerates every table and figure.

Entry points:

* :func:`table1` … :func:`table4` — the paper's tables
* :func:`figure2`, :func:`figure3` — runtime breakdowns + efficiency
* :func:`ablation_accumulation` … — the A1–A4 design-choice ablations

Each returns a structured result with ``render()`` for the text rows
the paper reports; ``benchmarks/`` wires them into pytest-benchmark.
"""

from .ablations import (
    AblationResult,
    ablation_accumulation,
    ablation_chunk_size,
    ablation_sio_pipeline,
    ablation_wo_reduce,
)
from .experiments import (
    APP_NAMES,
    FIGURE2_GPUS,
    GPU_COUNTS,
    TABLE2_SIZES,
    TABLE3_SIZES,
    bench_smoke_enabled,
    dataset_for,
    sample_factor_for,
    sample_target,
    strong_scaling_sizes,
)
from .figures import (
    Figure2Result,
    Figure3Result,
    efficiency_curve,
    figure2,
    figure3,
)
from .loc import app_loc_counts, count_loc
from .report import render_series, render_table
from .runners import AppRun, run_app
from .weak_scaling import WEAK_PER_GPU, WeakScalingResult, weak_scaling
from .tables import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    Table1Result,
    Table2Result,
    Table3Result,
    Table4Result,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure2",
    "figure3",
    "efficiency_curve",
    "ablation_accumulation",
    "ablation_sio_pipeline",
    "ablation_chunk_size",
    "ablation_wo_reduce",
    "run_app",
    "AppRun",
    "weak_scaling",
    "WeakScalingResult",
    "WEAK_PER_GPU",
    "dataset_for",
    "sample_factor_for",
    "sample_target",
    "bench_smoke_enabled",
    "strong_scaling_sizes",
    "GPU_COUNTS",
    "FIGURE2_GPUS",
    "APP_NAMES",
    "TABLE2_SIZES",
    "TABLE3_SIZES",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "Table4Result",
    "Figure2Result",
    "Figure3Result",
    "AblationResult",
    "app_loc_counts",
    "count_loc",
    "render_table",
    "render_series",
]
