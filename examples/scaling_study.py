#!/usr/bin/env python
"""Capacity planning: which jobs deserve more GPUs?

The paper's Section 7 conclusion is that the right cluster
configuration depends on the task's communication/computation balance,
"and to a certain degree each input set for a job".  This study sweeps
two contrasting jobs (compute-bound MM, communication-bound SIO) across
GPU counts and prints efficiency plus the Figure-2-style breakdown, so
the crossover where extra GPUs stop paying is visible.

    python examples/scaling_study.py
"""

from repro.apps import run_app
from repro.harness import dataset_for
from repro.harness.report import render_table


def sweep(app: str, size: int, gpu_counts=(1, 4, 8, 16, 32, 64)):
    ds = dataset_for(app, size, seed=5)
    rows = []
    t1 = None
    for g in gpu_counts:
        run = run_app(app, ds, g)
        if t1 is None:
            t1 = run.elapsed
        eff = t1 / (g * run.elapsed)
        frac = run.stats.stage_fractions
        comm = frac["bin"] + frac["scheduler"]
        rows.append(
            [g, f"{run.elapsed:.4f}", f"{eff:.2f}", f"{frac['map']:.0%}",
             f"{frac['sort']:.0%}", f"{comm:.0%}"]
        )
    return rows


def main() -> None:
    headers = ["GPUs", "sim time (s)", "efficiency", "map", "sort", "comm+sched"]

    print(render_table(headers, sweep("MM", 16384),
                       title="Compute-bound: 16384^2 matrix multiply"))
    print("\n-> every GPU added keeps paying (map share stays dominant).\n")

    print(render_table(headers, sweep("SIO", 128 << 20),
                       title="Communication-bound: 128M-integer occurrence count"))
    print(
        "\n-> superlinear at 4 GPUs (pair set fits in core), then the network"
        "\n   take-over: past ~8 GPUs extra hardware mostly idles in waits."
    )


if __name__ == "__main__":
    main()
