"""Real execution on rank processes joined by the TCP cluster fabric.

Both process backends live here, and they share one transport.
``ClusterExecutor`` (``"cluster"``) runs the shared rank loop
(:func:`repro.exec.rank.drive_rank`) over the :mod:`repro.fabric`
wire: ranks register with a driver-side
:class:`~repro.fabric.Coordinator`, receive the job as a framed
message, *pull* their chunks one at a time from the coordinator-hosted
:class:`~repro.core.scheduler.ChunkService` (``CHUNK_REQ``/
``CHUNK_GRANT`` control frames — an idle rank steals from the longest
queue at runtime, and every run records the resulting
:class:`~repro.core.scheduler.ScheduleTrace` as ``JobResult.schedule``),
shuffle peer-to-peer over TCP sockets, and report results (or remote
tracebacks) back over their control connection.
``LocalExecutor`` (``"local"``) is that executor with its multi-host
knobs fixed: ranks spawned on this host, everything over ``127.0.0.1``.

By default the cluster executor also spawns its ranks on this host.
The wire protocol is host-agnostic, so the same driver serves a real
multi-host run: construct with ``spawn_ranks=False`` (and typically
``host="0.0.0.0"``), read the port from
:attr:`ClusterExecutor.coordinator_address`, and start each rank with
``python -m repro.fabric.launch --coordinator host:port --rank N`` —
no code changes.  (With a wildcard bind, ``--coordinator`` takes the
driver's *real* interface address; ``0.0.0.0`` is bindable, not
dialable.)

Failure handling: a rank that raises ships its traceback upstream and
the driver re-raises :class:`WorkerFailure`; a rank that dies hard —
or exits cleanly without a result — is caught either by the
coordinator (its control socket hits EOF) or by the driver's process
liveness probe, never waited out.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import traceback
from typing import Dict, List, Optional, Tuple

from ..core.executor import Executor, register_backend
from ..core.faults import FaultPlan, WorkerFailure
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import DEFAULT_PREFETCH_WINDOW, ChunkService
from ..core.stats import WorkerStats
from ..obs import Observability
from ..fabric import (
    DEFAULT_MAX_FRAME_BYTES,
    Coordinator,
    PeerDisconnected,
    RankFailure,
    run_rank,
)

__all__ = [
    "ClusterExecutor",
    "LocalExecutor",
    "WorkerFailure",
    "dead_worker_failure",
]


def _default_start_method() -> str:
    # fork is dramatically cheaper and keeps the job object shared
    # copy-on-write; fall back to spawn where fork is unavailable.
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def dead_worker_failure(procs) -> Optional["WorkerFailure"]:
    """The driver's liveness predicate: a :class:`WorkerFailure` naming
    every worker process that died with a nonzero exit code, or None
    while all are healthy."""
    dead = [p for p in procs if not p.is_alive() and p.exitcode not in (0, None)]
    if not dead:
        return None
    codes = {p.name: p.exitcode for p in dead}
    return WorkerFailure(-1, f"worker process(es) died without reporting: {codes}")


def _rank_main(
    rank: int,
    host: str,
    port: int,
    timeout_seconds: float,
    max_frame_bytes: int,
    listen_port: int = 0,
    rejoin: bool = False,
    auth_key: Optional[bytes] = None,
) -> None:
    """Process target for one locally spawned rank."""
    try:
        run_rank(
            rank,
            (host, port),
            listen_host="127.0.0.1",
            timeout_seconds=timeout_seconds,
            max_frame_bytes=max_frame_bytes,
            listen_port=listen_port,
            rejoin=rejoin,
            auth_key=auth_key,
        )
    except Exception:
        # The endpoint could not ship its traceback over the control
        # link; put it on stderr and die visibly so the driver's
        # liveness probe attributes the failure instead of waiting for
        # a timeout.
        traceback.print_exc()
        sys.exit(1)


class ClusterExecutor(Executor):
    """Execute jobs on ``n_workers`` ranks joined by the TCP fabric.

    ``fault_plan`` (a :class:`~repro.core.faults.FaultPlan`) arms the
    recovery machinery: a spawned rank it kills mid-map is noticed by
    the coordinator, its un-posted grants are reclaimed into the pool,
    and a replacement process rejoins under the same rank id — the run
    completes with output bit-identical to a failure-free run.  Its
    ``stall_seconds`` make a rank sleep before each chunk request (a
    deliberate straggler whose queue gets stolen), and
    ``speculate_after`` additionally re-executes straggling in-flight
    grants on idle ranks; receivers drop the duplicate map output by
    chunk-id provenance tags.  Without a plan, any rank death is a
    :class:`WorkerFailure`.
    """

    name = "cluster"

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        start_method: Optional[str] = None,
        timeout_seconds: float = 300.0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        spawn_ranks: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        auth_key: Optional[bytes] = None,
        prefetch_window: int = DEFAULT_PREFETCH_WINDOW,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(
            n_workers,
            initial_distribution=initial_distribution,
            fault_plan=fault_plan,
            obs=obs,
            trace_path=trace_path,
            fused=fused,
        )
        #: grant pipelining depth shipped to ranks via ASSIGN: each
        #: rank keeps up to ``1 + prefetch_window`` CHUNK_REQ frames in
        #: flight so the next grant's wire time hides under the current
        #: chunk's map (0 restores strict request/reply)
        self.prefetch_window = max(0, int(prefetch_window))
        #: shared HMAC key; when set the coordinator challenges every
        #: connection and spawned local ranks answer with the same key
        #: (externally launched ranks pass it via
        #: ``repro.fabric.launch --auth-key-env/--auth-key-file``)
        self.auth_key = auth_key
        self.start_method = start_method or _default_start_method()
        self.timeout_seconds = float(timeout_seconds)
        self.host = host
        self.port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        #: respawning a rank the fault plan kills needs
        #: ``spawn_ranks=True`` — externally launched ranks can still
        #: *rejoin* via ``repro.fabric.launch --rejoin``, but nobody
        #: restarts them automatically
        self.spawn_ranks = spawn_ranks
        #: (host, port) of the live coordinator; set for the duration of
        #: :meth:`run` — the address external ranks dial when
        #: ``spawn_ranks=False``.
        self.coordinator_address: Optional[tuple] = None

    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats], None]:
        # The driver hosts the pull authority; ranks reach it through
        # the coordinator's CHUNK_REQ/CHUNK_GRANT control frames.
        fault = self.fault_plan
        procs: Dict[int, mp.process.BaseProcess] = {}
        respawns_left = {
            rank: (0 if fault is None else fault.max_respawns)
            for rank in range(self.n_workers)
        }

        def _probe() -> None:
            # Under a fault plan a dead rank is not (yet) a failure:
            # the coordinator notices the broken control socket and
            # decides — reclaim + respawn, or raise RankFailure once
            # the budget/recoverability runs out.
            candidates = [
                p for rank, p in procs.items()
                if not (fault is not None and respawns_left[rank] > 0)
            ]
            failure = dead_worker_failure(candidates)
            if failure is not None:
                raise failure

        with Coordinator(
            self.n_workers,
            host=self.host,
            port=self.port,
            timeout_seconds=self.timeout_seconds,
            max_frame_bytes=self.max_frame_bytes,
            liveness_probe=_probe if self.spawn_ranks else None,
            obs=obs,
            auth_key=self.auth_key,
            prefetch_window=self.prefetch_window,
        ) as coordinator:
            self.coordinator_address = coordinator.address
            respawner = None
            if self.spawn_ranks:
                # A wildcard bind is not dialable; local ranks always
                # reach a wildcard-bound coordinator over loopback.
                dial_host = (
                    "127.0.0.1"
                    if coordinator.host in ("0.0.0.0", "::", "")
                    else coordinator.host
                )
                ctx = mp.get_context(self.start_method)

                def spawn(rank: int, incarnation: int, listen_port: int = 0):
                    return ctx.Process(
                        target=_rank_main,
                        args=(
                            rank,
                            dial_host,
                            coordinator.port,
                            self.timeout_seconds,
                            self.max_frame_bytes,
                            listen_port,
                            incarnation > 0,
                            self.auth_key,
                        ),
                        name=f"gpmr-{self.name}-r{rank}.{incarnation}",
                        daemon=True,
                    )

                for rank in range(self.n_workers):
                    procs[rank] = spawn(rank, 0)
                for p in procs.values():
                    p.start()

                def respawner(rank: int, listen_port: int) -> bool:
                    """Coordinator callback: restart a dead rank's
                    process as a rejoining replacement on the same
                    shuffle port.  False once the budget is spent."""
                    if respawns_left.get(rank, 0) <= 0 or fault is None:
                        return False
                    respawns_left[rank] -= 1
                    incarnation = fault.max_respawns - respawns_left[rank]
                    procs[rank] = spawn(rank, incarnation, listen_port)
                    procs[rank].start()
                    return True

            try:
                coordinator.wait_for_ranks()
                coordinator.broadcast_assignments(job, fault_plan=fault)
                coordinator.barrier("start")
                collected = coordinator.collect_results(
                    chunk_service=service,
                    respawner=respawner if fault is not None else None,
                )
            except RankFailure as exc:
                raise WorkerFailure(exc.rank, exc.detail) from exc
            except PeerDisconnected as exc:
                # Recv-side deaths become RankFailure inside the
                # coordinator; this catches the rare send-side races so
                # the documented contract (WorkerFailure or
                # TimeoutError) holds for every rank-death path.
                raise WorkerFailure(-1, f"a rank disconnected: {exc}") from exc
            finally:
                self.coordinator_address = None
                for p in procs.values():
                    if p.is_alive():
                        p.terminate()
                for p in procs.values():
                    p.join(timeout=5.0)

        outputs: List[Optional[KeyValueSet]] = [None] * self.n_workers
        worker_stats: List[WorkerStats] = []
        for rank, output, stats in collected:
            outputs[rank] = output
            worker_stats.append(stats)
        if obs is not None:
            for payload in coordinator.obs_payloads.values():
                obs.absorb(payload)
        return outputs, worker_stats, None


class LocalExecutor(ClusterExecutor):
    """Execute jobs on ``n_workers`` rank processes on this host: the
    cluster fabric on loopback, without its multi-host knobs."""

    name = "local"

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        start_method: Optional[str] = None,
        timeout_seconds: float = 300.0,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        prefetch_window: int = DEFAULT_PREFETCH_WINDOW,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(
            n_workers,
            initial_distribution=initial_distribution,
            start_method=start_method,
            timeout_seconds=timeout_seconds,
            host="127.0.0.1",
            spawn_ranks=True,
            fault_plan=fault_plan,
            obs=obs,
            trace_path=trace_path,
            prefetch_window=prefetch_window,
            fused=fused,
        )


register_backend(ClusterExecutor.name, ClusterExecutor)
register_backend(LocalExecutor.name, LocalExecutor)
