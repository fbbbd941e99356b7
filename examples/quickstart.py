#!/usr/bin/env python
"""Quickstart: count words with GPMR — simulated, then for real.

Runs the paper's Word Occurrence pipeline (minimal-perfect-hash keys,
on-GPU accumulation) over a synthetic corpus twice: on the ``"sim"``
backend (4 simulated GPUs with full cost accounting) and on a real
execution backend of your choice, checks the two agree bit-for-bit,
prints the top words, and shows where the simulated time went.

    python examples/quickstart.py                      # local (default)
    python examples/quickstart.py --backend cluster    # TCP socket fabric
    python examples/quickstart.py --backend sim        # simulation only
"""

import argparse

import numpy as np

from repro.apps import run_wo, wo_dataset, wo_mph
from repro.workloads import build_dictionary

BACKEND_LABELS = {
    "serial": "the real dataflow, rank by rank, in-process",
    "local": "4 real rank processes over loopback TCP",
    "cluster": "4 rank processes over the TCP socket fabric",
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=("sim", "serial", "local", "cluster"),
        default="local",
        help="execution backend for the real re-run "
        "(sim = run the simulation only; default: local)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    # A 32 MB corpus over a 5,000-word dictionary, split into 2 MB chunks.
    dataset = wo_dataset(
        n_chars=32 << 20, chunk_chars=2 << 20, n_words=5_000, seed=42
    )

    print("Running Word Occurrence on 4 simulated GPUs...")
    result = run_wo(4, dataset)

    if args.backend != "sim":
        print(f"Re-running the same job on {BACKEND_LABELS[args.backend]}...")
        real = run_wo(4, dataset, backend=args.backend)
        real_merged = real.merged()
        sim_merged_check = result.merged()
        assert np.array_equal(sim_merged_check.keys, real_merged.keys)
        assert np.array_equal(sim_merged_check.values, real_merged.values)
        print(
            f"sim and {args.backend} backends agree on all "
            f"{len(real_merged):,d} reduced pairs "
            f"({args.backend} wall time {real.elapsed:.2f}s)"
        )

    # The reduce output is a KeyValueSet of <mph-slot, count> pairs.
    merged = result.merged()
    counts = np.zeros(5_000, dtype=np.int64)
    np.add.at(counts, merged.keys.astype(np.int64), merged.values.astype(np.int64))

    # Invert the MPH to print actual words.
    words = list(build_dictionary(5_000))
    slot_of = wo_mph(5_000).lookup_words(words)
    word_of_slot = {int(s): w.decode() for s, w in zip(slot_of, words)}

    top = np.argsort(counts)[::-1][:10]
    print("\nTop 10 words:")
    for slot in top:
        print(f"  {word_of_slot[int(slot)]:>14}  {counts[slot]:>8,d}")
    print(f"\nTotal words counted: {counts.sum():,d}")

    stats = result.stats
    print(f"\nSimulated job time: {stats.elapsed * 1e3:.2f} ms on {stats.n_gpus} GPUs")
    print(f"Per-stage breakdown: {stats.describe()}")


if __name__ == "__main__":
    main()
