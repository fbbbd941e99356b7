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

from .rank import RankRun
from ..core.executor import Executor, register_backend
from ..core.faults import ScriptedDeath
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import ChunkService
from ..core.stats import WorkerStats
from ..obs import NULL_OBS, Observability

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Run every rank's dataflow sequentially in the current process.

    Kill injection mirrors the process backends in-process: at its
    scripted grant ordinal a rank's un-posted map state is discarded
    and its chunks reclaimed, exactly what SIGKILL plus respawn does
    for real.  ``stall_seconds`` is ignored (serial ranks take turns;
    there is no concurrent schedule to skew).
    """

    name = "serial"

    def _run_ranks(
        self,
        job: MapReduceJob,
        service: ChunkService,
        obs: Optional[Observability],
    ) -> Tuple[List[Optional[KeyValueSet]], List[WorkerStats], None]:
        obs = obs if obs is not None else NULL_OBS
        grant_latency = obs.metrics.histogram("grant_latency_s")
        n = self.n_workers
        runs = [RankRun(job, rank, n, obs) for rank in range(n)]
        deaths = [ScriptedDeath(self.fault_plan, rank) for rank in range(n)]

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
                if deaths[rank].strikes(service):
                    # The scripted death: this grant is never mapped,
                    # and everything the rank mapped-but-not-posted
                    # dies with it.
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
        return outputs, [run.stats for run in runs], None


register_backend(SerialExecutor.name, SerialExecutor)
