"""Join a cluster fabric from the command line — the multi-host path.

:class:`~repro.exec.cluster.ClusterExecutor` spawns its ranks as local
processes for single-host runs and tests, but the wire protocol is
host-agnostic; this launcher is the only extra piece a real multi-host
run needs.  Start the driver with ``make_executor("cluster", N,
spawn_ranks=False)`` (it prints / exposes its coordinator address),
then on each host::

    python -m repro.fabric.launch --coordinator driver-host:5555 --rank 0
    python -m repro.fabric.launch --coordinator driver-host:5555 --rank 1 ...

Each invocation sends HELLO to the coordinator once, then serves every
run of the driver's executor: it receives each job in an ASSIGN, pulls
chunks one at a time from the coordinator's chunk service (stealing
from loaded peers at runtime like any other rank), shuffles directly
with its peers, and reports its result — no code or data staging on
the worker hosts.  It exits 0 when the executor closes (the
coordinator hangs up).  Nobody respawns a launched rank: if one dies,
the run fails with a ``WorkerFailure`` naming it, and the executor's
next run waits for a fresh set of launched ranks.

``--listen-host`` binds the rank's shuffle listener (default
``0.0.0.0`` here, so peers on other hosts can reach it) and
``--advertise-host`` is the address peers should dial (defaults to this
host's name as resolved locally).

The fabric moves pickled objects and assumes a private, trusted
network (see :mod:`repro.fabric.wire`); only bind interfaces on an
isolated cluster interconnect.
"""

from __future__ import annotations

import argparse
import socket
import sys
from typing import Optional, Sequence

from .endpoint import run_rank
from .wire import load_auth_key, parse_address

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric.launch",
        description="Join a GPMR cluster fabric as one worker rank.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        metavar="HOST:PORT",
        help="address of the driver's fabric coordinator",
    )
    parser.add_argument(
        "--rank", required=True, type=int, help="this worker's rank id (0-based)"
    )
    parser.add_argument(
        "--listen-host",
        default="0.0.0.0",
        help="interface the shuffle listener binds (default: all)",
    )
    parser.add_argument(
        "--advertise-host",
        default=None,
        help="address peers dial for shuffle batches "
        "(default: this host's resolved name)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-phase fabric timeout (default: 300)",
    )
    parser.add_argument(
        "--listen-port",
        type=int,
        default=0,
        help="shuffle listener port (default: ephemeral)",
    )
    parser.add_argument(
        "--auth-key-env",
        default=None,
        metavar="VAR",
        help="environment variable holding the fabric's shared auth "
        "key (the coordinator must be started with the same key)",
    )
    parser.add_argument(
        "--auth-key-file",
        default=None,
        metavar="PATH",
        help="file holding the shared auth key (trailing whitespace "
        "stripped); mutually exclusive with --auth-key-env",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rank < 0:
        print(f"error: --rank must be >= 0, got {args.rank}", file=sys.stderr)
        return 2
    advertise = args.advertise_host
    if advertise is None:
        # A wildcard bind is not dialable; advertise something that is.
        advertise = (
            "127.0.0.1"
            if args.listen_host in ("0.0.0.0", "")
            and args.coordinator.startswith(("127.", "localhost"))
            else socket.gethostname()
        )
    try:
        auth_key = load_auth_key(args.auth_key_env, args.auth_key_file)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_rank(
            args.rank,
            parse_address(args.coordinator),
            listen_host=args.listen_host,
            advertise_host=advertise,
            timeout_seconds=args.timeout,
            listen_port=args.listen_port,
            auth_key=auth_key,
        )
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"rank {args.rank} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
