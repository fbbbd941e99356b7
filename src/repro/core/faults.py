"""Fault injection and recovery policy: the ``FaultPlan``.

The pull protocol makes failure recovery a *scheduling* problem: the
driver-side :class:`~repro.core.scheduler.ChunkService` owns every
chunk, knows which grants each worker still holds un-posted, and can
return them to the pool (:meth:`~repro.core.scheduler.ChunkService.
reclaim`) the moment a worker dies.  A :class:`FaultPlan` is the one
object that configures all of it — what to break (deterministic kill
and stall injection, so tests and benchmarks can script a failure) and
how to recover (respawn budget, straggler speculation):

* ``kill_rank_at_chunk`` — ``{rank: n}``: the rank SIGKILLs itself (or,
  on the sim/serial mirrors, models its death) upon receiving its
  ``n``-th chunk grant, i.e. genuinely mid-map with ``n`` grants
  outstanding.  The backend reclaims those grants and respawns a
  replacement with the same rank id, so the job completes with output
  bit-identical to a failure-free run.
* ``stall_seconds`` — ``{rank: seconds}``: sleep before each of that
  rank's chunk requests (modeled time on the sim), making it a
  straggler whose queued chunks get stolen — and, with speculation on,
  whose in-flight chunks get re-executed.
* ``speculate_after`` — age in seconds after which a grant still held
  by an un-posted worker may be *speculatively* re-granted to an idle
  worker.  Both copies map the chunk; receivers keep exactly one
  (first in canonical source-major order), so duplicate map output
  never double-counts.
* ``max_respawns`` — per-rank replacement budget; a rank that dies
  more often, or dies after posting its shuffle batches (nothing left
  to reclaim — the unit of loss is the whole un-posted map phase), is
  a terminal :class:`~repro.exec.cluster.WorkerFailure` as before.

Merely *constructing* a plan changes nothing: recovery machinery
activates only on runs whose executor received a ``fault_plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Scripted failures plus the recovery policy for one run."""

    #: rank -> 1-based grant ordinal at which the rank kills itself
    kill_rank_at_chunk: Mapping[int, int] = field(default_factory=dict)
    #: rank -> seconds slept before each of its chunk requests
    stall_seconds: Mapping[int, float] = field(default_factory=dict)
    #: grant age (seconds) that triggers speculative re-execution;
    #: None disables speculation
    speculate_after: Optional[float] = None
    #: how many times each rank may be replaced before the run fails
    max_respawns: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kill_rank_at_chunk",
            {int(r): int(n) for r, n in dict(self.kill_rank_at_chunk).items()},
        )
        object.__setattr__(
            self, "stall_seconds",
            {int(r): float(s) for r, s in dict(self.stall_seconds).items()},
        )
        for rank, n in self.kill_rank_at_chunk.items():
            if rank < 0:
                raise ValueError(f"kill_rank_at_chunk names rank {rank} < 0")
            if n < 1:
                raise ValueError(
                    f"kill_rank_at_chunk[{rank}] = {n}; the grant ordinal "
                    "is 1-based and must be >= 1"
                )
        for rank, seconds in self.stall_seconds.items():
            if rank < 0:
                raise ValueError(f"stall_seconds names rank {rank} < 0")
            if seconds < 0:
                raise ValueError(
                    f"stall_seconds[{rank}] = {seconds}; must be >= 0"
                )
        if self.speculate_after is not None and self.speculate_after <= 0:
            raise ValueError(
                f"speculate_after = {self.speculate_after}; must be > 0 "
                "(or None to disable speculation)"
            )
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns = {self.max_respawns}; must be >= 0")

    # -- per-rank accessors --------------------------------------------------
    def kill_for(self, rank: int) -> Optional[int]:
        """The grant ordinal at which ``rank`` dies, or None."""
        return self.kill_rank_at_chunk.get(rank)

    def stall_for(self, rank: int) -> float:
        """Seconds ``rank`` sleeps before each chunk request."""
        return self.stall_seconds.get(rank, 0.0)

    def validate_for(self, n_workers: int) -> None:
        """Reject plans naming ranks the run does not have."""
        for mapping, what in (
            (self.kill_rank_at_chunk, "kill_rank_at_chunk"),
            (self.stall_seconds, "stall_seconds"),
        ):
            for rank in mapping:
                if rank >= n_workers:
                    raise ValueError(
                        f"{what} names rank {rank}, but the run has only "
                        f"{n_workers} worker(s)"
                    )
