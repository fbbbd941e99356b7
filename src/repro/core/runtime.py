"""GPMR runtime: build the simulated cluster, run a job, collect stats.

"Each GPU is controlled by a separate process and each process executes
the MapReduce pipeline."  :class:`GPMRRuntime` instantiates the nodes,
the network fabric, the MPI communicator (one rank per GPU, packed onto
nodes fill-first like the paper's launcher), hands the dataset's chunks
to the same :class:`~repro.core.scheduler.ChunkService` every real
backend pulls from, runs every :class:`~repro.core.pipeline.Worker` —
the real backends' dataflow, priced in modeled time — to completion on
the discrete-event engine, and returns a :class:`JobResult` holding
per-rank outputs and the Figure-2 stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .chunk import Chunk
from .faults import FaultPlan
from .job import MapReduceJob
from .kvset import KeyValueSet
from .pipeline import Worker
from .scheduler import DISTRIBUTIONS, ChunkService, ScheduleTrace, resolve_chunks
from .stats import JobStats, WorkerStats
from ..hw.node import build_nodes
from ..obs import Observability
from ..hw.specs import ACCELERATOR, ClusterSpec
from ..net.fabric import Fabric
from ..net.mpi import Communicator
from ..net.topology import FatTreeTopology, StarTopology
from ..sim import Environment
from ..workloads.base import Dataset

__all__ = ["JobResult", "GPMRRuntime", "close_job"]


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


def close_job(
    job: MapReduceJob,
    service: ChunkService,
    outputs: List[Optional[KeyValueSet]],
    worker_stats: List[WorkerStats],
    elapsed: float,
    clock: str,
    schedule: Optional[ScheduleTrace] = None,
    obs: Optional[Observability] = None,
) -> JobResult:
    """The epilogue of every backend's run: cross-check, stats, result.

    The service's grant ledger and the ranks' fetch ledgers are written
    independently; they must agree rank for rank, or the recorded trace
    would not describe the run it came from.  A replayed run carries
    the ``schedule`` it was given; any other carries the trace the
    service recorded.
    """
    service.validate_ledgers(worker_stats)
    service.record_outcomes()
    stats = JobStats(
        job_name=job.name,
        n_gpus=service.n_workers,
        elapsed=elapsed,
        workers=worker_stats,
        chunks_reclaimed=service.chunks_reclaimed,
        speculative_wins=service.speculative_wins,
        retries_by_worker=list(service.retries_by_worker),
        clock=clock,
    )
    return JobResult(
        stats=stats,
        outputs=outputs,
        schedule=schedule if schedule is not None else service.trace,
        obs=obs,
    )


class GPMRRuntime:
    """Configured entry point for running GPMR jobs."""

    def __init__(
        self,
        n_gpus: int,
        cluster: ClusterSpec = ACCELERATOR,
        initial_distribution: str = "round_robin",
        network: str = "star",
        oversubscription: float = 1.0,
        fat_tree_radix: int = 2,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if n_gpus > cluster.total_gpus:
            raise ValueError(
                f"cluster {cluster.name!r} has {cluster.total_gpus} GPUs, "
                f"requested {n_gpus}"
            )
        if initial_distribution not in DISTRIBUTIONS:
            raise ValueError(
                "initial_distribution must be 'round_robin', 'blocks', or "
                "'single' (all chunks start on rank 0, as when one node "
                "ingested the data)"
            )
        if network not in ("star", "fat-tree"):
            raise ValueError("network must be 'star' or 'fat-tree'")
        self.n_gpus = n_gpus
        self.cluster = cluster
        self.initial_distribution = initial_distribution
        self.network = network
        self.oversubscription = float(oversubscription)
        self.fat_tree_radix = int(fat_tree_radix)
        #: scripted fault injection, mirrored from the real backends so
        #: recovery schedules can be studied (and replayed) in modeled
        #: time: kills lose a rank's un-posted map phase and reclaim
        #: its chunks, stalls slow its requests.  ``speculate_after``
        #: is rejected — the sim's modeled clock has no stragglers to
        #: hedge against that a recorded schedule would not already
        #: show.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate_for(n_gpus)
            if fault_plan.speculate_after is not None:
                raise ValueError(
                    "speculate_after is not supported on the sim backend: "
                    "speculation hedges real-world nondeterminism, which "
                    "modeled time does not have"
                )

    # -- assembly ----------------------------------------------------------
    def _build(self):
        env = Environment()
        n_nodes = self.cluster.nodes_used(self.n_gpus)
        nodes = build_nodes(env, self.cluster, n_nodes)
        if self.network == "star":
            topo = StarTopology(n_nodes, self.cluster.node.nic)
        else:
            topo = FatTreeTopology(
                n_nodes,
                self.cluster.node.nic,
                radix=self.fat_tree_radix,
                oversubscription=self.oversubscription,
            )
        fabric = Fabric(env, topo, self.cluster.node.cpu)
        placement = self.cluster.placement(self.n_gpus)
        rank_to_node = [node_i for node_i, _ in placement]
        comm = Communicator(
            env, fabric, rank_to_node,
            message_overhead=self.cluster.node.nic.message_overhead,
        )
        gpus = [nodes[n_i].gpus[g_i] for n_i, g_i in placement]
        return env, nodes, fabric, comm, gpus, rank_to_node

    # -- execution -----------------------------------------------------------
    def run(
        self,
        job: MapReduceJob,
        dataset: Optional[Dataset] = None,
        chunks: Optional[Sequence[Chunk]] = None,
        schedule: Optional[ScheduleTrace] = None,
        obs: Optional[Observability] = None,
        service: Optional[ChunkService] = None,
    ) -> JobResult:
        """Execute ``job`` over ``dataset`` (or explicit ``chunks``).

        Chunk handout goes through the shared
        :class:`~repro.core.scheduler.ChunkService` — the same pull
        authority every real backend uses.  With ``schedule`` the
        service replays the recorded trace instead of stealing live:
        chunks are granted in exactly the traced order (steals,
        victims, and all), so a recorded load-balanced run reproduces
        decision-for-decision.

        ``obs`` observes the run: spans and events are stamped with
        the *modeled* clock (``env.now``), so the trace timeline is
        the simulated cluster's, not this process's wall-clock.

        ``service`` supplies a pre-built pull authority (an executor's
        :meth:`~repro.core.executor.Executor._make_chunk_service`
        product, possibly a job-scoped namespace on a shared
        :class:`~repro.core.scheduler.JobChunkAuthority`); when omitted
        the runtime builds its own private one, as before.
        """
        chunks = resolve_chunks(dataset, chunks)
        fault = self.fault_plan
        if fault is not None and schedule is not None:
            raise ValueError(
                "fault_plan and schedule replay are mutually exclusive: a "
                "recorded trace already fixes every grant, so there is "
                "nothing to reclaim"
            )

        env, nodes, fabric, comm, gpus, rank_to_node = self._build()
        if obs is not None:
            # Trace in modeled time: every span/event is stamped with
            # the simulated cluster's clock.
            obs.tracer.clock = lambda: env.now
        if service is None:
            service = ChunkService(
                chunks,
                self.n_gpus,
                initial_distribution=self.initial_distribution,
                enable_stealing=job.config.enable_stealing,
                schedule=schedule,
                context=job.name,
                obs=obs,
            )

        workers = [
            Worker(
                env=env,
                rank=r,
                gpu=gpus[r],
                node=nodes[rank_to_node[r]],
                comm=comm,
                job=job,
                scheduler=service,
                kill_at_chunk=None if fault is None else fault.kill_for(r),
                stall_seconds=0.0 if fault is None else fault.stall_for(r),
                respawns_left=0 if fault is None else fault.max_respawns,
                obs=obs,
            )
            for r in range(self.n_gpus)
        ]
        procs = [env.process(w.run(), name=f"worker{w.rank}") for w in workers]
        done = env.all_of(procs)
        env.run(until=done)

        return close_job(
            job,
            service,
            outputs=[w.result for w in workers],
            worker_stats=[w.stats for w in workers],
            elapsed=env.now,
            clock="simulated",
            obs=obs,
        )
