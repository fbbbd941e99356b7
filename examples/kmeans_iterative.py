#!/usr/bin/env python
"""Iterative K-Means to convergence on a simulated GPU cluster.

The paper benchmarks a single KMC MapReduce iteration ("a full KMC
implementation repeats a fixed number of times or until convergence.
Our benchmark simply runs one iteration").  This example runs the full
iterative loop — one GPMR job per Lloyd step, feeding each step's
centres into the next — and reports convergence against the
ground-truth generating centres.

    python examples/kmeans_iterative.py
"""

import numpy as np

from repro.apps import kmc_dataset, kmc_extract_centers, kmc_job
from repro.core import make_executor


def main() -> None:
    k, dims, n_gpus = 12, 2, 8
    dataset = kmc_dataset(
        n_points=2 << 20, n_centers=k, dims=dims, chunk_points=256 << 10, seed=3
    )
    rt = make_executor("sim", n_gpus)

    centers = dataset.start_centers()
    total_sim_time = 0.0
    print(f"K-Means: {dataset.n_points:,d} points, k={k}, {n_gpus} simulated GPUs")

    for iteration in range(1, 31):
        result = rt.run(kmc_job(dataset, centers=centers), dataset)
        new_centers, counts = kmc_extract_centers(result, k, dims, centers)
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        total_sim_time += result.elapsed
        print(
            f"  iter {iteration:>2}: max centre shift {shift:.6f}, "
            f"sim time {result.elapsed * 1e3:7.2f} ms, "
            f"cluster sizes {counts.min():,d}..{counts.max():,d}"
        )
        centers = new_centers
        if shift < 1e-3:
            print(f"\nConverged after {iteration} iterations.")
            break
    else:
        print("\nStopped at iteration cap.")

    # How close did we get to the generating centres?  Greedy matching.
    remaining = list(range(k))
    errs = []
    for c in centers:
        d = np.linalg.norm(dataset.true_centers[remaining] - c, axis=1)
        j = int(np.argmin(d))
        errs.append(float(d[j]))
        remaining.pop(j)
    print(f"Mean distance to generating centres: {np.mean(errs):.4f}")
    print(f"Total simulated time: {total_sim_time * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
