#!/usr/bin/env python
"""Execution backends: one job, four ways to run it.

Builds a single Sparse Integer Occurrence job and executes it on the
requested backends (default: all of them)

* ``sim``     — the discrete-event cluster simulation (modeled seconds),
* ``serial``  — the real dataflow, rank by rank, in this process,
* ``local``   — the real dataflow on 4 ``multiprocessing`` workers,
* ``cluster`` — the real dataflow on 4 rank processes joined by the
  TCP socket shuffle fabric,

then verifies they all produced bit-identical per-rank outputs.
This is the repo's cross-validation story in miniature: the simulator's
functional answers are exactly what real parallel execution yields,
whether the shuffle rides in-node pipes or a real wire.

    python examples/backends.py
    python examples/backends.py --backend sim --backend cluster
    python examples/backends.py --fused            # map + per-chunk sum, one kernel
"""

import argparse

import numpy as np

from repro.apps import sio_dataset, sio_job
from repro.core import available_backends, make_executor

N_WORKERS = 4
KEY_SPACE = 1 << 20

ALL_BACKENDS = ("sim", "serial", "local", "cluster")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        action="append",
        choices=ALL_BACKENDS,
        default=None,
        help="backend to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--fused",
        action="store_true",
        help="sum like keys within each chunk right after its map "
        "(the job's fused fold, priced as part of the map kernel)",
    )
    args = parser.parse_args()
    if args.backend is None:
        args.backend = list(ALL_BACKENDS)
    return args


def main() -> None:
    args = parse_args()
    dataset = sio_dataset(
        2 << 20, chunk_elements=300_000, key_space=KEY_SPACE, seed=2024
    )
    # Stealing is a sim-timing-driven rebalancing decision; disabling it
    # pins the deterministic round-robin placement all backends share.
    job = sio_job(key_space=KEY_SPACE).with_config(enable_stealing=False)

    print(f"available backends: {', '.join(available_backends())}")
    print(f"{dataset.n_chunks} chunks over {N_WORKERS} workers\n")

    results = {}
    for backend in args.backend:
        result = make_executor(backend, N_WORKERS, fused=args.fused).run(
            job, dataset
        )
        results[backend] = result
        kind = "modeled" if backend == "sim" else "wall-clock"
        pairs = sum(len(kv) for kv in result.outputs if kv is not None)
        print(
            f"{backend:>7}: {result.elapsed * 1e3:8.2f} ms {kind:<10} "
            f"{pairs:,d} reduced pairs"
        )

    if len(results) > 1:
        ref_name = "sim" if "sim" in results else args.backend[0]
        ref = results[ref_name]
        for backend, result in results.items():
            if backend == ref_name:
                continue
            for a, b in zip(ref.outputs, result.outputs):
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a.keys, b.keys)
                    assert a.values.tobytes() == b.values.tobytes()
        others = ", ".join(b for b in results if b != ref_name)
        print(
            f"\n{ref_name} and {others} agree bit-for-bit on every "
            "rank's output"
        )


if __name__ == "__main__":
    main()
