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

Ranks outlive a run: the coordinator and the rank processes belong to
the executor from its first :meth:`~ClusterExecutor.run` to
:meth:`~ClusterExecutor.close`, and each later run is one more ASSIGN
on the same connections (no fork, no registration).  A run that raises
tears them all down; the next run starts afresh.

By default the cluster executor also spawns its ranks on this host.
The wire protocol is host-agnostic, so the same driver serves a real
multi-host run: construct with ``spawn_ranks=False`` (and typically
``host="0.0.0.0"``), read the port from
:attr:`ClusterExecutor.coordinator_address` once the first run has
started, and start each rank with
``python -m repro.fabric.launch --coordinator host:port --rank N`` —
no code changes; the launched ranks serve every run until the
executor closes.  (With a wildcard bind, ``--coordinator`` takes the
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
import time
import traceback
import weakref
from typing import Dict, List, Optional, Tuple

from ..core.executor import Executor, register_backend
from ..core.faults import FaultPlan, WorkerFailure
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import ChunkService
from ..core.stats import WorkerStats
from ..obs import NULL_OBS, Observability
from ..fabric import (
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


#: Bound on each wait for rank processes to exit: the grace
#: :meth:`ClusterExecutor.close` gives idle ranks to leave on the EOF it
#: sends before it terminates them, and the join of an ended one.
_EXIT_SECONDS = 5.0


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
    listen_port: int = 0,
    auth_key: Optional[bytes] = None,
) -> None:
    """Process target for one locally spawned rank."""
    try:
        run_rank(
            rank,
            (host, port),
            listen_host="127.0.0.1",
            timeout_seconds=timeout_seconds,
            listen_port=listen_port,
            auth_key=auth_key,
        )
    except Exception:
        # The endpoint could not ship its traceback over the control
        # link; put it on stderr and die visibly so the driver's
        # liveness probe attributes the failure instead of waiting for
        # a timeout.
        traceback.print_exc()
        sys.exit(1)


class _Ranks:
    """What a :class:`ClusterExecutor` keeps from its first run to
    :meth:`~ClusterExecutor.close`: the coordinator, and the rank
    processes it spawned (none when ranks are launched externally).

    Built from the executor's settings but holding no reference to it,
    so the executor's finalizer can call :meth:`stop`.
    """

    def __init__(self, ex: "ClusterExecutor") -> None:
        # Import before the first fork what every rank would otherwise
        # import after it, on every job: numpy.random (datasets build
        # their chunks through util.rng) and encodings.idna (the first
        # getaddrinfo of a socket.create_connection).  The driver pays
        # once per process here; at module level every process that
        # imports this module would pay, forking or not.
        import encodings.idna  # noqa: F401
        import numpy.random  # noqa: F401

        self.coordinator = Coordinator(
            ex.n_workers,
            host=ex.host,
            port=ex.port,
            timeout_seconds=ex.timeout_seconds,
            auth_key=ex.auth_key,
        )
        self.procs: Dict[int, mp.process.BaseProcess] = {}
        self._incarnations: Dict[int, int] = {}
        self._ctx = mp.get_context(ex.start_method)
        self._backend = ex.name
        # A wildcard bind is not dialable; local ranks always reach a
        # wildcard-bound coordinator over loopback.
        host, port = self.coordinator.address
        dial_host = "127.0.0.1" if host in ("0.0.0.0", "::", "") else host
        self._rank_args = (dial_host, port, ex.timeout_seconds)
        self._auth_key = ex.auth_key

    def spawn(self, rank: int, listen_port: int = 0) -> None:
        """Start a process for ``rank``, replacing (and reaping) a dead
        predecessor; a replacement mid-run binds its predecessor's
        shuffle ``listen_port``."""
        incarnation = self._incarnations[rank] = self._incarnations.get(rank, -1) + 1
        proc = self._ctx.Process(
            target=_rank_main,
            args=(rank, *self._rank_args, listen_port, self._auth_key),
            name=f"gpmr-{self._backend}-r{rank}.{incarnation}",
            daemon=True,
        )
        dead = self.procs.get(rank)
        if dead is not None:
            _reap(dead)
        self.procs[rank] = proc
        proc.start()

    def respawn_idle_deaths(self) -> None:
        """Replace every rank whose process died since the last run;
        the replacement registers like a first-run rank."""
        for rank, proc in list(self.procs.items()):
            if not proc.is_alive():
                self.coordinator.retire(rank)
                self.spawn(rank)

    def stop(self, grace_seconds: float) -> None:
        """Hang up on every rank, give the processes ``grace_seconds``
        to exit on that EOF, then terminate the stragglers."""
        self.coordinator.close()
        deadline = time.monotonic() + grace_seconds
        for proc in self.procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            _reap(proc)
        self.procs.clear()


def _reap(proc: mp.process.BaseProcess) -> None:
    """Join an ended (or terminated) rank process and free its handle."""
    proc.join(_EXIT_SECONDS)
    if proc.exitcode is not None:
        proc.close()


class ClusterExecutor(Executor):
    """Execute jobs on ``n_workers`` ranks joined by the TCP fabric.

    Ranks belong to the executor, not to a run.  The first :meth:`run`
    builds the coordinator and spawns (or, with ``spawn_ranks=False``,
    admits) the ranks; every later run is a fresh ASSIGN on the same
    connections, so it pays no fork and no registration.
    :meth:`close` — or the garbage collector, for an executor nobody
    closed — hangs up on the ranks, which then exit.  A run that raises
    tears every rank down, and the next run starts afresh; a spawned
    rank found dead when a run starts is replaced before its ASSIGN.
    Each rank requests one chunk ahead of the one it maps
    (:data:`~repro.exec.rank.PULL_AHEAD`, not a setting), so the
    next grant's wire round-trip hides under the current map.

    ``fault_plan`` (a :class:`~repro.core.faults.FaultPlan`) arms the
    recovery machinery, per run: a spawned rank it kills mid-map is
    noticed by the coordinator, its un-posted grants are reclaimed into
    the pool, and a replacement process rejoins under the same rank id
    — the run completes with output bit-identical to a failure-free
    run.  Its ``stall_seconds`` make a rank sleep before each chunk
    request (a deliberate straggler whose queue gets stolen).  Without
    a plan, any rank death during a run is a :class:`WorkerFailure`.
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
        spawn_ranks: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        auth_key: Optional[bytes] = None,
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
        #: shared HMAC key; when set the coordinator challenges every
        #: connection and spawned local ranks answer with the same key
        #: (externally launched ranks pass it via
        #: ``repro.fabric.launch --auth-key-env/--auth-key-file``)
        self.auth_key = auth_key
        self.start_method = start_method or _default_start_method()
        self.timeout_seconds = float(timeout_seconds)
        self.host = host
        self.port = int(port)
        #: respawning a rank the fault plan kills needs
        #: ``spawn_ranks=True``: nobody restarts an externally launched
        #: rank, so its death is always a WorkerFailure
        self.spawn_ranks = spawn_ranks
        #: (host, port) of the live coordinator — the address external
        #: ranks dial when ``spawn_ranks=False``; set from the first
        #: :meth:`run` until :meth:`close` (or a failed run).
        self.coordinator_address: Optional[tuple] = None
        self._ranks: Optional[_Ranks] = None
        self._finalizer: Optional[weakref.finalize] = None

    def _start_ranks(self) -> _Ranks:
        """Build the coordinator and spawn the ranks: the first run's
        cost, kept until :meth:`close`."""
        ranks = self._ranks = _Ranks(self)
        # An executor nobody closes (``make_executor(...).run(...)``)
        # still leaves no process behind once it is collected.
        self._finalizer = weakref.finalize(self, ranks.stop, _EXIT_SECONDS)
        self.coordinator_address = ranks.coordinator.address
        if self.spawn_ranks:
            for rank in range(self.n_workers):
                ranks.spawn(rank)
        return ranks

    def _stop_ranks(self, grace_seconds: float) -> None:
        ranks, self._ranks = self._ranks, None
        self.coordinator_address = None
        if ranks is not None:
            self._finalizer.detach()
            ranks.stop(grace_seconds)

    def _release(self) -> None:
        self._stop_ranks(_EXIT_SECONDS)

    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats], None]:
        # The driver hosts the pull authority; ranks reach it through
        # the coordinator's CHUNK_REQ/CHUNK_GRANT control frames.
        fault = self.fault_plan
        respawns_left = {
            rank: (0 if fault is None else fault.max_respawns)
            for rank in range(self.n_workers)
        }
        try:
            ranks = self._ranks or self._start_ranks()
            coordinator = ranks.coordinator
            coordinator.obs = obs if obs is not None else NULL_OBS
            procs = ranks.procs

            def _probe() -> None:
                # Under a fault plan a dead rank is not (yet) a failure:
                # the coordinator notices the broken control socket and
                # decides — reclaim + respawn, or raise RankFailure once
                # the budget/recoverability runs out.
                candidates = [
                    p for rank, p in procs.items() if respawns_left[rank] <= 0
                ]
                failure = dead_worker_failure(candidates)
                if failure is not None:
                    raise failure

            def respawner(rank: int, listen_port: int) -> bool:
                """Coordinator callback: restart a dead rank's process
                as a replacement on the same shuffle port.  False once
                the run's budget is spent."""
                if respawns_left[rank] <= 0:
                    return False
                respawns_left[rank] -= 1
                ranks.spawn(rank, listen_port)
                return True

            coordinator.liveness_probe = _probe if self.spawn_ranks else None
            if self.spawn_ranks:
                ranks.respawn_idle_deaths()
            try:
                coordinator.wait_for_ranks()
                coordinator.broadcast_assignments(job, fault_plan=fault)
                collected = coordinator.collect_results(
                    chunk_service=service,
                    respawner=(
                        respawner if fault is not None and self.spawn_ranks
                        else None
                    ),
                )
            except RankFailure as exc:
                raise WorkerFailure(exc.rank, exc.detail) from exc
            except PeerDisconnected as exc:
                # Recv-side deaths become RankFailure inside the
                # coordinator; this catches the rare send-side races so
                # the documented contract (WorkerFailure or
                # TimeoutError) holds for every rank-death path.
                raise WorkerFailure(-1, f"a rank disconnected: {exc}") from exc
        except BaseException:
            # A failed run may leave ranks mid-job: none is reused, and
            # the next run starts with a fresh coordinator and ranks.
            self._stop_ranks(0.0)
            raise

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
            fused=fused,
        )


register_backend(ClusterExecutor.name, ClusterExecutor)
register_backend(LocalExecutor.name, LocalExecutor)
