"""Fault injection and recovery policy: the ``FaultPlan``.

The pull protocol makes failure recovery a *scheduling* problem: the
driver-side :class:`~repro.core.scheduler.ChunkService` owns every
chunk, knows which grants each worker still holds un-posted, and can
return them to the pool (:meth:`~repro.core.scheduler.ChunkService.
reclaim`) the moment a worker dies.  A :class:`FaultPlan` is the one
object that configures all of it — what to break (deterministic kill
and stall injection, so tests and benchmarks can script a failure) and
how to recover (the respawn budget):

* ``kill_rank_at_chunk`` — ``{rank: n}``: the rank SIGKILLs itself (or,
  on the sim/serial mirrors, models its death through
  :class:`ScriptedDeath`) upon receiving its ``n``-th chunk grant, i.e.
  genuinely mid-map with ``n`` grants outstanding.  The backend
  reclaims those grants and respawns a replacement with the same rank
  id, so the job completes with output bit-identical to a failure-free
  run.
* ``stall_seconds`` — ``{rank: seconds}``: sleep before each of that
  rank's chunk requests (modeled time on the sim), making it a
  straggler whose queued chunks get stolen.
* ``max_respawns`` — per-rank replacement budget; a rank that dies
  more often, or dies after posting its shuffle batches (nothing left
  to reclaim — the unit of loss is the whole un-posted map phase), is
  a terminal :class:`WorkerFailure` on every backend.

Merely *constructing* a plan changes nothing: recovery machinery
activates only on runs whose executor received a ``fault_plan``, and
:class:`~repro.core.executor.Executor` checks the plan against its rank
count once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["FaultPlan", "ScriptedDeath", "WorkerFailure"]


class WorkerFailure(RuntimeError):
    """A worker failed for good; carries the rank and its traceback."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"worker rank {rank} failed:\n{detail}")
        self.rank = rank
        self.detail = detail


@dataclass(frozen=True)
class FaultPlan:
    """Scripted failures plus the recovery policy for one run."""

    #: rank -> 1-based grant ordinal at which the rank kills itself
    kill_rank_at_chunk: Mapping[int, int] = field(default_factory=dict)
    #: rank -> seconds slept before each of its chunk requests
    stall_seconds: Mapping[int, float] = field(default_factory=dict)
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


class ScriptedDeath:
    """One rank's scripted death on the in-process backends (sim, serial).

    Counts the rank's grants.  The grant the plan names is never
    mapped: the rank dies holding it, its un-posted grants go back to
    the pool, and the caller builds the replacement incarnation (the
    sim a fresh ``MapRunner``, serial a fresh ``RankRun``).  The
    process backends die for real instead (``GrantPuller`` SIGKILLs
    its own rank).
    """

    def __init__(self, plan: Optional[FaultPlan], rank: int) -> None:
        self.rank = rank
        #: the grant ordinal that kills the rank; None once it has died
        #: (a replacement never re-runs its predecessor's death)
        self.kill_at = None if plan is None else plan.kill_for(rank)
        self.can_respawn = plan is not None and plan.max_respawns > 0
        self.grants = 0

    def strikes(self, service) -> bool:
        """Count one grant; True when the rank dies on it.

        The death has already been recovered when this returns True:
        ``service`` reclaimed the rank's grants.  A death past the
        respawn budget, or after the rank posted, raises
        :class:`WorkerFailure`.
        """
        self.grants += 1
        if self.kill_at is None or self.grants < self.kill_at:
            return False
        self.kill_at = None
        if not self.can_respawn or not service.can_recover(self.rank):
            raise WorkerFailure(
                self.rank,
                f"rank {self.rank} killed at grant {self.grants} with no "
                "respawn budget left",
            )
        service.reclaim(self.rank)
        return True
