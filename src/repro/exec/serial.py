"""In-process real execution: the same rank loop, one rank at a time.

``SerialExecutor`` runs the identical functional semantics as the
process backends with zero IPC — useful for debugging app
kernels, for environments where spawning processes is off-limits, and
as a fast third witness in the backend-parity tests.

There is no link here: the executor steps *n*
:class:`~repro.exec.rank.RankRun`\\ s itself.  Chunk distribution is
pull-based like every other backend — ranks take turns requesting one
chunk at a time from the shared driver-side
:class:`~repro.core.scheduler.ChunkService` (the serial analogue of
concurrent workers pulling at matching rates), so a serial run with
stealing enabled *generates* a deterministic load-balanced
:class:`~repro.core.scheduler.ScheduleTrace` instead of only replaying
one — and the "exchange" is handing each run its peers' batches.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from .cluster import WorkerFailure
from .rank import RankRun
from ..core.executor import Executor, register_backend
from ..core.faults import FaultPlan
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import ChunkService
from ..core.stats import WorkerStats
from ..obs import NULL_OBS, Observability

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Run every rank's dataflow sequentially in the current process."""

    name = "serial"

    def __init__(
        self,
        n_workers: int,
        initial_distribution: str = "round_robin",
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
        trace_path: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        super().__init__(n_workers, obs=obs, trace_path=trace_path, fused=fused)
        self.initial_distribution = initial_distribution
        #: kill injection mirrors the process backends in-process: at
        #: its scripted grant ordinal a rank's un-posted map state is
        #: discarded and its chunks reclaimed, exactly what SIGKILL
        #: plus respawn does for real.  ``stall_seconds`` is ignored
        #: (serial ranks take turns; there is no concurrent schedule to
        #: skew) and ``speculate_after`` is rejected — with one rank
        #: running at a time no grant can age while others idle.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.validate_for(n_workers)
            if fault_plan.speculate_after is not None:
                raise ValueError(
                    "speculate_after is meaningless on the serial backend: "
                    "ranks run one at a time, so no in-flight grant can "
                    "straggle behind idle workers"
                )

    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats]]:
        fault = self.fault_plan
        obs = obs if obs is not None else NULL_OBS
        grant_latency = obs.metrics.histogram("grant_latency_s")
        n = self.n_workers
        runs = [RankRun(job, rank, n, obs) for rank in range(n)]
        grants_received = [0] * n
        respawns_left = [0 if fault is None else fault.max_respawns] * n
        killed = [False] * n

        # Interleaved pull: every active rank requests one chunk per
        # round, in rank order.  This models equal-speed workers, keeps
        # the generated schedule deterministic, and still exercises real
        # stealing — a rank whose queue is empty robs the longest one.
        active = set(range(n))
        while active:
            for rank in sorted(active):
                runs[rank].resume()
                w0 = time.time()
                assignment = service.request(rank)
                w1 = time.time()
                obs.tracer.add_span("grant_wait", w0, w1, rank=rank)
                grant_latency.observe(w1 - w0)
                if assignment is None:
                    active.discard(rank)
                    service.mark_posted(rank)
                    continue
                grants_received[rank] += 1
                kill_at = None if fault is None else fault.kill_for(rank)
                if (
                    kill_at is not None
                    and not killed[rank]
                    and grants_received[rank] >= kill_at
                ):
                    # The scripted death: this grant is never mapped,
                    # and everything the rank mapped-but-not-posted
                    # dies with it.
                    killed[rank] = True
                    if respawns_left[rank] <= 0 or not service.can_recover(rank):
                        raise WorkerFailure(
                            rank,
                            f"rank {rank} killed at grant {kill_at} with no "
                            "respawn budget left",
                        )
                    respawns_left[rank] -= 1
                    service.reclaim(rank)
                    runs[rank] = RankRun(job, rank, n, obs)
                    continue
                runs[rank].map_chunk(assignment.chunk, assignment.victim)

        for run in runs:
            run.resume()
            run.finish_map()

        outputs: List[Optional[KeyValueSet]] = []
        for run in runs:
            run.resume()
            outputs.append(run.reduce(
                [peer.batch_for(run.rank) for peer in runs if peer is not run]
            ))
        return outputs, [run.stats for run in runs]


register_backend(SerialExecutor.name, SerialExecutor)
