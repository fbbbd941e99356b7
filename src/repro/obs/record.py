"""Record a traced demo run: ``python -m repro.obs.record``.

A thin wrapper over :func:`repro.apps.run_app` that runs one of
the single-phase benchmark apps with tracing on and writes the JSONL
trace (and optionally the Chrome export) — what the CI bench-smoke
job uses to publish a sample trace artifact::

    python -m repro.obs.record --app SIO --backend local -n 2 \\
        --out results/sio_local.trace.jsonl \\
        --chrome results/sio_local.trace.chrome.json
"""

from __future__ import annotations

import argparse
from typing import List, Optional

__all__ = ["main"]

_DEFAULT_SIZES = {"SIO": 64_000, "WO": 64_000, "KMC": 16_000, "LR": 16_000}


def _make_dataset(app: str, size: int):
    """Build a dataset sized so the run grants ~8 chunks."""
    from .. import apps

    if app == "SIO":
        return apps.sio_dataset(
            n_elements=size, chunk_elements=max(size // 8, 1_000),
            key_space=1 << 14, seed=7,
        )
    if app == "WO":
        return apps.wo_dataset(
            n_chars=size, chunk_chars=max(size // 8, 1_024), seed=7,
        )
    if app == "KMC":
        return apps.kmc_dataset(
            n_points=size, chunk_points=max(size // 8, 512), seed=7,
        )
    if app == "LR":
        return apps.lr_dataset(
            n_points=size, chunk_points=max(size // 8, 512), seed=7,
        )
    raise ValueError(f"unknown app {app!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.record",
        description="Run one app with tracing on and write the trace.",
    )
    parser.add_argument("--app", choices=sorted(_DEFAULT_SIZES), default="SIO")
    parser.add_argument(
        "--backend", choices=("sim", "serial", "local", "cluster"),
        default="local",
    )
    parser.add_argument("-n", "--n-workers", type=int, default=2)
    parser.add_argument(
        "--size", type=int, default=None,
        help="problem size (elements/chars/points; app-specific default)",
    )
    parser.add_argument(
        "--fused", action="store_true",
        help="fold each chunk's map output at once (apps with an "
        "accumulator or a per-chunk fold)",
    )
    parser.add_argument("--out", required=True, help="JSONL trace path")
    parser.add_argument(
        "--chrome", metavar="OUT",
        help="also write the Chrome trace_event export",
    )
    ns = parser.parse_args(argv)

    from ..apps import run_app

    size = ns.size or _DEFAULT_SIZES[ns.app]
    dataset = _make_dataset(ns.app, size)
    extra = {"fused": True} if ns.fused else {}
    run = run_app(
        ns.app, dataset, ns.n_workers, backend=ns.backend,
        trace_path=ns.out, **extra,
    )
    obs = run.result.obs
    print(run.stats.describe())
    print(f"trace: {ns.out} ({len(obs.tracer)} records)")
    if ns.chrome:
        obs.write_chrome(ns.chrome)
        print(f"chrome export: {ns.chrome} (open at https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
