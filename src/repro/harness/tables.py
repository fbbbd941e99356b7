"""Regeneration of the paper's Tables 1–4.

Each ``tableN()`` returns a structured result with a ``render()``
producing the same rows the paper prints, plus the paper's published
values for side-by-side comparison (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .experiments import TABLE2_SIZES, TABLE3_SIZES, dataset_for
from .loc import app_loc_counts
from .report import render_table
from ..apps import (
    kmc_mars_workload,
    kmc_phoenix_workload,
    lr_phoenix_workload,
    mm_mars_workload,
    mm_phoenix_workload,
    run_app,
    sio_phoenix_workload,
    wo_mars_workload,
    wo_phoenix_workload,
)
from ..baselines import MarsModel, PhoenixModel

__all__ = [
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "Table4Result",
    "table1",
    "table2",
    "table3",
    "table4",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
]

#: The paper's Table 2 (speedup of GPMR over Phoenix).
PAPER_TABLE2: Dict[str, Tuple[float, float]] = {
    "MM": (162.712, 559.209),
    "KMC": (2.991, 11.726),
    "LR": (1.296, 4.085),
    "SIO": (1.450, 2.322),
    "WO": (11.080, 18.441),
}

#: The paper's Table 3 (speedup of GPMR over Mars).
PAPER_TABLE3: Dict[str, Tuple[float, float]] = {
    "MM": (2.695, 10.760),
    "KMC": (37.344, 129.425),
    "WO": (3.098, 11.709),
}

#: The paper's Table 4 (lines of source code per benchmark).
PAPER_TABLE4: Dict[str, Dict[str, int]] = {
    "Phoenix": {"MM": 317, "KMC": 345, "WO": 231},
    "Mars": {"MM": 235, "KMC": 152, "WO": 140},
    "GPMR": {"MM": 214, "KMC": 129, "WO": 397},
}


# ---------------------------------------------------------------------------
# Table 1 — dataset sizes
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    rows: List[List[object]]

    def render(self) -> str:
        headers = ["", "MM", "SIO", "WO", "KMC", "LR"]
        return render_table(headers, self.rows, title="Table 1: Dataset sizes")


def table1() -> Table1Result:
    """The dataset-size matrix (element sizes and counts, Table 1)."""
    rows = [
        ["Input element size", "float32", "4 bytes", "1 byte", "16 bytes", "8 bytes"],
        [
            "# Elems, first set (x10^6)",
            "1024^2..16384^2",
            "1, 8, 32, 128",
            "1, 16, 64, 512",
            "1, 8, 32, 512",
            "1, 16, 64, 512",
        ],
        [
            "# Elems, second set (x10^6/GPU)",
            "-",
            "1..32",
            "1..256",
            "1..32",
            "1..64",
        ],
    ]
    return Table1Result(rows=rows)


# ---------------------------------------------------------------------------
# Table 2 — GPMR vs Phoenix
# ---------------------------------------------------------------------------

@dataclass
class Table2Result:
    #: app -> (gpmr_1gpu_s, gpmr_4gpu_s, phoenix_s, speedup1, speedup4)
    measurements: Dict[str, Tuple[float, float, float, float, float]]

    def speedups(self, app: str) -> Tuple[float, float]:
        m = self.measurements[app]
        return m[3], m[4]

    def render(self) -> str:
        headers = ["", "MM", "KMC", "LR", "SIO", "WO"]
        order = ["MM", "KMC", "LR", "SIO", "WO"]
        row1 = ["1-GPU"] + [self.measurements[a][3] for a in order]
        row4 = ["4-GPU"] + [self.measurements[a][4] for a in order]
        paper1 = ["paper 1-GPU"] + [PAPER_TABLE2[a][0] for a in order]
        paper4 = ["paper 4-GPU"] + [PAPER_TABLE2[a][1] for a in order]
        return render_table(
            headers,
            [row1, row4, paper1, paper4],
            title="Table 2: Speedup of GPMR over Phoenix",
        )


def table2(seed: int = 0) -> Table2Result:
    """Run GPMR at 1 and 4 GPUs and the Phoenix model per app."""
    phoenix = PhoenixModel()
    workload_of = {
        "MM": mm_phoenix_workload,
        "SIO": sio_phoenix_workload,
        "WO": wo_phoenix_workload,
        "KMC": kmc_phoenix_workload,
        "LR": lr_phoenix_workload,
    }
    out: Dict[str, Tuple[float, float, float, float, float]] = {}
    for app, size in TABLE2_SIZES.items():
        ds = dataset_for(app, size, seed=seed)
        t1 = run_app(app, ds, 1).elapsed
        t4 = run_app(app, ds, 4).elapsed
        tp = phoenix.runtime(workload_of[app](ds)).total
        out[app] = (t1, t4, tp, tp / t1, tp / t4)
    return Table2Result(measurements=out)


# ---------------------------------------------------------------------------
# Table 3 — GPMR vs Mars
# ---------------------------------------------------------------------------

@dataclass
class Table3Result:
    #: app -> (gpmr_1gpu_s, gpmr_4gpu_s, mars_s, speedup1, speedup4)
    measurements: Dict[str, Tuple[float, float, float, float, float]]

    def speedups(self, app: str) -> Tuple[float, float]:
        m = self.measurements[app]
        return m[3], m[4]

    def render(self) -> str:
        order = ["MM", "KMC", "WO"]
        headers = ["", "MM", "KMC", "WO"]
        row1 = ["1-GPU"] + [self.measurements[a][3] for a in order]
        row4 = ["4-GPU"] + [self.measurements[a][4] for a in order]
        paper1 = ["paper 1-GPU"] + [PAPER_TABLE3[a][0] for a in order]
        paper4 = ["paper 4-GPU"] + [PAPER_TABLE3[a][1] for a in order]
        return render_table(
            headers,
            [row1, row4, paper1, paper4],
            title="Table 3: Speedup of GPMR over Mars",
        )


def table3(seed: int = 0) -> Table3Result:
    """Run GPMR at 1 and 4 GPUs and the Mars model per app."""
    mars = MarsModel()
    workload_of = {
        "MM": mm_mars_workload,
        "KMC": kmc_mars_workload,
        "WO": wo_mars_workload,
    }
    out: Dict[str, Tuple[float, float, float, float, float]] = {}
    for app, size in TABLE3_SIZES.items():
        ds = dataset_for(app, size, seed=seed)
        t1 = run_app(app, ds, 1).elapsed
        t4 = run_app(app, ds, 4).elapsed
        tm = mars.runtime(workload_of[app](ds)).total
        out[app] = (t1, t4, tm, tm / t1, tm / t4)
    return Table3Result(measurements=out)


# ---------------------------------------------------------------------------
# Table 4 — lines of source code
# ---------------------------------------------------------------------------

@dataclass
class Table4Result:
    ours: Dict[str, int]

    def render(self) -> str:
        headers = ["", "MM", "KMC", "WO"]
        rows = [
            ["Phoenix (paper)"] + [PAPER_TABLE4["Phoenix"][a] for a in ("MM", "KMC", "WO")],
            ["Mars (paper)"] + [PAPER_TABLE4["Mars"][a] for a in ("MM", "KMC", "WO")],
            ["GPMR (paper)"] + [PAPER_TABLE4["GPMR"][a] for a in ("MM", "KMC", "WO")],
            ["GPMR (this repo)"] + [self.ours[a] for a in ("MM", "KMC", "WO")],
        ]
        return render_table(headers, rows, title="Table 4: Lines of source code")


def table4() -> Table4Result:
    """Count this repo's benchmark implementation sizes."""
    return Table4Result(ours=app_loc_counts())
