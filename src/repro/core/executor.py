"""Pluggable execution backends: *how* a GPMR job runs.

The GPMR dataflow — chunk scheduling, Map (+ Combine / Partial Reduce /
Accumulate), Partition, Bin/exchange, Sort, Reduce — is described by a
:class:`~repro.core.job.MapReduceJob`.  An :class:`Executor` decides how
that dataflow executes:

* ``GPMRRuntime`` (``"sim"``, in :mod:`repro.sim.runtime`) — the
  discrete-event simulation.  Every stage charges modeled time
  (kernels, PCI-e, network) and the result carries the paper's Figure-2
  stage accounting.
* ``ClusterExecutor`` (``"cluster"``, in :mod:`repro.exec.cluster`) —
  real execution with NumPy-vectorized kernels on rank processes
  joined by the :mod:`repro.fabric` TCP socket shuffle (host-agnostic
  wire; spawns local ranks by default, or accepts remote ranks started
  with ``python -m repro.fabric.launch``).
* ``LocalExecutor`` (``"local"``, same module) — the cluster backend on
  loopback: spawned ranks on this host over ``127.0.0.1``, without the
  multi-host knobs.  One transport serves both.
* ``SerialExecutor`` (``"serial"``, in :mod:`repro.exec.serial`) — the
  same real dataflow, run rank-by-rank in the current process.

There is one driver, :meth:`Executor.run`: it resolves the chunks,
pre-flights the (job, fault plan, schedule) triple, opens the pull
authority, calls the one backend-specific step (:meth:`_run_ranks`),
checks that every chunk was granted and closes the job.  The settings
every backend shares (``initial_distribution``, ``fault_plan``) are
read and validated once, in :meth:`Executor.__init__`.

Each backend's module is imported the first time the backend is asked
for (:func:`make_executor`, :func:`available_backends`), so a process
that runs only real backends never loads the modeled cluster.

Every backend implements the same canonical semantics (pull-based
chunk distribution through one shared
:class:`~repro.core.scheduler.ChunkService`, source-major shuffle
order, identical sort/reduce maths), so a job produces
**bit-identical** per-rank outputs on all of them — the
cross-validation contract ``tests/test_exec_parity.py`` enforces, and
``tests/test_dynamic_steal.py`` extends to natively load-balanced runs
via record-on-real / replay-on-sim.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .chunk import Chunk
from .faults import FaultPlan
from .job import MapReduceJob
from .kvset import KeyValueSet
from .scheduler import DISTRIBUTIONS, ChunkService, ScheduleTrace, resolve_chunks
from .stats import JobStats, WorkerStats
from ..obs import Observability
from ..workloads.base import Dataset

__all__ = [
    "Executor",
    "JobResult",
    "available_backends",
    "make_executor",
    "register_backend",
]


@dataclass
class JobResult:
    """Outcome of one GPMR job execution."""

    stats: JobStats
    outputs: List[Optional[KeyValueSet]]   #: per-rank reduce output
    #: the chunk schedule this run followed.  Every backend records one
    #: — the sim from its modeled scheduler, the real backends from the
    #: live pull service (steals included); a replayed run carries the
    #: trace it was given.
    schedule: Optional[ScheduleTrace] = None
    #: the run's merged :class:`~repro.obs.Observability` bundle —
    #: spans, events, and metrics from every rank — when the executor
    #: was built with ``obs=`` / ``trace_path=``; None otherwise.
    obs: Optional[Observability] = None

    @property
    def elapsed(self) -> float:
        return self.stats.elapsed

    def merged(self) -> Optional[KeyValueSet]:
        """All ranks' outputs concatenated (None if nothing was produced)."""
        parts = [kv for kv in self.outputs if kv is not None and len(kv)]
        return KeyValueSet.concat(parts) if parts else None


class Executor:
    """One way of executing :class:`MapReduceJob` dataflows."""

    #: registry name of the backend ("sim", "local", ...)
    name: str = "abstract"

    #: False on backends whose ranks can never straggle behind idle
    #: ones (the sim's modeled clock, serial's one-rank-at-a-time
    #: loop): a ``speculate_after`` plan has nothing to hedge there
    can_speculate: bool = True

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if initial_distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"initial_distribution {initial_distribution!r} must be "
                "'round_robin' or 'single' (all chunks start on "
                "rank 0, as when one node ingested the data)"
            )
        if fault_plan is not None:
            fault_plan.validate_for(n_workers)
            if fault_plan.speculate_after is not None and not self.can_speculate:
                raise ValueError(
                    f"speculate_after is not supported on the {self.name} "
                    "backend: its ranks never straggle behind idle ones "
                    "(the sim runs on modeled time, serial runs its ranks "
                    "one at a time)"
                )
        self.n_workers = int(n_workers)
        #: where each run's chunks start before any stealing
        self.initial_distribution = initial_distribution
        #: scripted faults + recovery policy for every run (see
        #: :class:`~repro.core.faults.FaultPlan`)
        self.fault_plan = fault_plan
        #: override for every run: ``fused`` turns the fused
        #: map+partial-reduce path on/off.  ``None`` (default) respects
        #: whatever the job's own PipelineConfig says; a non-None value
        #: is stamped into each run's job config (which travels in the
        #: job pickle, so remote ranks see it).
        self.fused = fused
        #: where to write the run's JSONL trace (tracing implied when set)
        self.trace_path = trace_path
        if obs is None and trace_path is not None:
            obs = Observability()
        #: the run's :class:`~repro.obs.Observability` bundle, or None
        #: when tracing is off (the default).  Instrumentation is
        #: passive — timestamps and counters only — so traced runs stay
        #: bit-identical to untraced runs.
        self.obs = obs
        #: True once :meth:`close` ran; a closed executor refuses to run
        self._closed = False

    def run(
        self,
        job: MapReduceJob,
        dataset: Optional[Dataset] = None,
        chunks: Optional[Sequence[Chunk]] = None,
        schedule: Optional[ScheduleTrace] = None,
    ) -> JobResult:
        """Execute ``job`` over ``dataset`` (or explicit ``chunks``).

        Chunk distribution is pull-based on every backend: workers
        request chunks at runtime from a shared
        :class:`~repro.core.scheduler.ChunkService`, so idle workers
        steal from the longest queue and the run records the resulting
        :class:`~repro.core.scheduler.ScheduleTrace` as
        ``JobResult.schedule``.  ``schedule`` replays a recorded trace
        instead: every backend grants the same chunks to the same ranks
        in the same per-rank order the trace dictates, which extends
        the bit-parity contract to load-balanced runs in both
        directions (record on sim / replay on real, and vice versa).

        This is the driver every backend shares — pre-flight, pull
        authority, ledger cross-check, stats — around the one
        backend-specific step, :meth:`_run_ranks`.
        """
        self._check_open()
        # Stamp ``fused`` into the job config before the job is pickled
        # to any rank — their MapRunners read it off the config, so the
        # choice needs no wire change.  A job with nothing to fold per
        # chunk is refused here, before any rank starts.
        if self.fused is not None and job.config.fused != bool(self.fused):
            job = job.with_config(fused=bool(self.fused))
        all_chunks = resolve_chunks(dataset, chunks)
        # Replay and plan validation happen here, in the driver, before
        # any process exists — a bad run fails fast with full context.
        self._preflight(job, schedule)
        obs = self.obs
        if obs is not None:
            # One executor observes one run at a time: the bundle starts
            # fresh, under the caller's job id (if it has one).
            obs.reset()
        service = self._make_chunk_service(all_chunks, job, schedule, obs)
        t_start = time.perf_counter()
        outputs, worker_stats, modeled = self._run_ranks(job, service, obs)
        elapsed = time.perf_counter() - t_start if modeled is None else modeled
        # Every chunk must have been granted: ranks that reported
        # results without draining the service would silently drop work.
        if service.remaining:
            raise RuntimeError(
                f"every rank reported a result but {service.remaining} "
                "chunk(s) were never granted"
            )
        # The service's grant ledger and the ranks' fetch ledgers are
        # written independently; they must agree rank for rank, or the
        # recorded trace would not describe the run it came from.
        service.validate_ledgers(worker_stats)
        service.record_outcomes()
        stats = JobStats(
            job_name=job.name,
            n_gpus=self.n_workers,
            elapsed=elapsed,
            workers=worker_stats,
            chunks_reclaimed=service.chunks_reclaimed,
            speculative_wins=service.speculative_wins,
            retries_by_worker=list(service.retries_by_worker),
            clock="wall" if modeled is None else "simulated",
        )
        # A replayed run carries the trace it was given; any other
        # carries the trace the service recorded.
        result = JobResult(
            stats=stats,
            outputs=outputs,
            schedule=schedule if schedule is not None else service.trace,
            obs=obs,
        )
        if obs is not None:
            obs.finish(backend=self.name, stats=stats, clock=stats.clock)
            if self.trace_path:
                obs.write_jsonl(self.trace_path)
        return result

    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats], Optional[float]]:
        """Backend hook: run every rank of one job to completion.

        Spawn/serve/collect only — ranks pull their chunks from
        ``service`` and the backend returns ``(outputs, worker_stats,
        modeled)``, the first two indexed by rank.  ``modeled`` is the
        run's modeled duration on a simulated clock, or None to time the
        call on the wall clock.  ``obs`` is the run's bundle (None when
        tracing is off); rank-side records are absorbed into it here.
        """
        raise NotImplementedError

    def _preflight(
        self, job: MapReduceJob, schedule: Optional[ScheduleTrace]
    ) -> None:
        """Reject (job, fault plan, schedule) combinations that cannot
        keep the bit-parity contract — one rule for every backend."""
        fault = self.fault_plan
        if fault is None:
            return
        if schedule is not None:
            raise ValueError(
                "fault_plan and schedule replay are mutually exclusive: a "
                "recorded trace already fixes every grant, so there is "
                "nothing to reclaim or speculate"
            )
        if fault.speculate_after is None:
            return
        # Receivers drop a speculative duplicate by the chunk id tagged
        # on each emitted part.  Emissions made at finish time fold
        # many chunks into one untagged part, so a duplicated chunk
        # inside them cannot be told apart.
        if job.accumulator is not None or job.combiner is not None:
            raise ValueError(
                "speculate_after requires chunk-tagged map emissions; job "
                f"{job.name!r} emits at finish time (an accumulator or a "
                "combiner), and finish-time output cannot be de-duplicated "
                "per chunk"
            )

    # -- reusable lifecycle ------------------------------------------------
    #
    # Executors are pool-managed by the job service (repro.service): one
    # instance runs many jobs back to back, so the lifecycle is part of
    # the backend contract — close() is idempotent on every backend and
    # releases what the executor keeps between runs (local/cluster: the
    # rank processes), run() after close() raises RuntimeError, and
    # reset() returns a used executor to a runnable state between
    # leases.

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed executor never runs again."""
        return self._closed

    def close(self) -> None:
        """Release any resources the executor holds between runs.

        Idempotent on every backend: the first call runs the
        :meth:`_release` hook, later calls are no-ops.  After close the
        executor is permanently retired — :meth:`run` raises
        ``RuntimeError`` — so pools can retire instances without
        tracking whether a given one was already closed.
        """
        if self._closed:
            return
        self._closed = True
        self._release()

    def _release(self) -> None:
        """Subclass hook, called exactly once by the first :meth:`close`.

        The default is a no-op: sim and serial acquire everything per
        :meth:`run`.  ``local``/``cluster`` keep their coordinator and
        rank processes from the first run on, and release them here.
        """

    def reset(self) -> None:
        """Return a used (but open) executor to a runnable state.

        The pool calls this between leases so one instance serves many
        jobs.  Per-run state on the built-in backends is already scoped
        to :meth:`run`, and the ranks ``local``/``cluster`` keep between
        runs hold nothing of a finished job, so they stay up: reset
        clears recorded observability, and refuses on a closed executor.
        """
        self._check_open("reset")
        if self.obs is not None:
            self.obs.reset()

    def _check_open(self, action: str = "run") -> None:
        """Raise clearly when a closed executor is asked to work again."""
        if self._closed:
            raise RuntimeError(
                f"cannot {action} on a closed {type(self).__name__}: "
                "close() already released this executor; build a new one "
                "(or lease from a pool) instead"
            )

    def _make_chunk_service(
        self,
        chunks: Sequence[Chunk],
        job: MapReduceJob,
        schedule: Optional[ScheduleTrace],
        obs: Optional[Observability],
    ) -> ChunkService:
        """Build the run's private pull authority."""
        fault = self.fault_plan
        return ChunkService(
            chunks,
            self.n_workers,
            initial_distribution=self.initial_distribution,
            enable_stealing=job.config.enable_stealing,
            schedule=schedule,
            context=job.name,
            speculate_after=None if fault is None else fault.speculate_after,
            obs=obs,
        )

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n_workers={self.n_workers}>"


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Callable[..., Executor]] = {}

#: The built-in backends, by the module that registers each when it is
#: imported.  None is imported at core's load: the real backends import
#: core (a cycle), and the sim is the modeled cluster, which the real
#: backends never load.
_BACKEND_MODULES: Dict[str, str] = {
    "sim": "repro.sim.runtime",
    "serial": "repro.exec.serial",
    "local": "repro.exec.cluster",
    "cluster": "repro.exec.cluster",
}


def register_backend(name: str, factory: Callable[..., Executor]) -> None:
    """Register an executor factory under ``name`` (last wins)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _BACKENDS[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Registered backend names (imports every built-in one)."""
    for name in _BACKEND_MODULES:
        _load_backend(name)
    return tuple(sorted(_BACKENDS))


def _load_backend(name: str) -> None:
    """Import the module of a built-in backend not registered yet."""
    if name not in _BACKENDS and name in _BACKEND_MODULES:
        importlib.import_module(_BACKEND_MODULES[name])


def make_executor(backend: str, n_workers: int, **kwargs) -> Executor:
    """Build the executor registered as ``backend``.

    ``kwargs`` go to the backend factory verbatim (e.g. ``cluster=`` /
    ``network=`` for ``"sim"``, ``start_method=`` for ``"local"``).
    Every built-in backend accepts ``initial_distribution=``
    (``"round_robin"`` or ``"single"``) and ``fault_plan=`` (both
    validated when the executor is built), the
    observability knobs ``obs=`` (an :class:`~repro.obs.Observability`
    bundle) and ``trace_path=`` (write the run's JSONL span/event trace
    there; implies tracing) — both off by default, and passive when on,
    so traced runs stay bit-identical to untraced runs — plus ``fused=``
    (fold each chunk's map output at once, into the job's accumulator
    or through its ``fused`` partial reducer, priced as the map kernel
    alone; ``None``, the default, respects the job's own
    :class:`~repro.core.config.PipelineConfig`).  How far ahead a rank
    pulls is not a setting: a ``local``/``cluster`` rank keeps one
    request ahead of the chunk it maps
    (:data:`~repro.core.scheduler.PULL_AHEAD`).

    ``executor=`` short-circuits construction with a pre-built
    instance — the job service's warm-pool path: every app's ``run_*``
    convenience funnels through here, so a pool lease passed as
    ``executor=`` reuses the warm instance while one-shot callers keep
    building fresh ones.  The instance must match ``backend`` and
    ``n_workers``; no other kwargs may accompany it (they would be
    silently ignored otherwise).
    """
    pre_built = kwargs.pop("executor", None)
    if pre_built is not None:
        if kwargs:
            raise ValueError(
                "executor= supplies a fully configured instance; "
                f"conflicting kwargs {sorted(kwargs)} would be ignored"
            )
        if pre_built.name != backend or pre_built.n_workers != int(n_workers):
            raise ValueError(
                f"pre-built executor is {pre_built.name!r}×"
                f"{pre_built.n_workers}, caller asked for "
                f"{backend!r}×{n_workers}"
            )
        return pre_built
    _load_backend(backend)
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"available: {available_backends()}"
        )
    return _BACKENDS[backend](n_workers, **kwargs)

