"""Per-stage time accounting: the data behind the paper's Figure 2.

Figure 2 decomposes runtime into **Map**, **Complete Binning** (network
transmission exposed after the maps finish), **Sort**, **Reduce**, and
**GPMR Internal / Scheduler**.  Each worker records wall-time intervals
into those buckets; the job aggregates them into fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["STAGES", "WorkerStats", "JobStats"]

#: Figure-2 stage buckets, in display order.
STAGES = ("map", "bin", "sort", "reduce", "scheduler")


@dataclass
class WorkerStats:
    """One worker's (one GPU's) accounting."""

    rank: int
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    chunks_mapped: int = 0
    chunks_stolen: int = 0
    pairs_emitted_logical: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    bytes_sent_network: int = 0
    #: logical shuffle bytes binned to this worker's own rank — they
    #: never leave the process, so they are accounted separately from
    #: the network traffic (the real backends fill this in)
    bytes_kept_local: int = 0
    #: wire frames the worker's outbound shuffle used (cluster backend:
    #: one BATCH frame per destination); 0 on backends whose exchange
    #: is not framed
    shuffle_frames_sent: int = 0

    def add(self, stage: str, seconds: float) -> None:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        if seconds < 0:
            raise ValueError(f"negative stage time {seconds} for {stage!r}")
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.stage_seconds.values())

    def fraction(self, stage: str) -> float:
        total = self.total
        return self.stage_seconds.get(stage, 0.0) / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "stage_seconds": dict(self.stage_seconds),
            "chunks_mapped": self.chunks_mapped,
            "chunks_stolen": self.chunks_stolen,
            "pairs_emitted_logical": self.pairs_emitted_logical,
            "bytes_h2d": self.bytes_h2d,
            "bytes_d2h": self.bytes_d2h,
            "bytes_sent_network": self.bytes_sent_network,
            "bytes_kept_local": self.bytes_kept_local,
            "shuffle_frames_sent": self.shuffle_frames_sent,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "WorkerStats":
        return cls(**d)


@dataclass
class JobStats:
    """Aggregated statistics of one GPMR job execution."""

    job_name: str
    n_gpus: int
    #: job time in seconds — *modeled* cluster time on the sim backend,
    #: *measured* wall-clock on the real backends (see :attr:`clock`)
    elapsed: float
    workers: List[WorkerStats]
    #: chunks the scheduler re-queued after worker deaths (0 on a
    #: failure-free run)
    chunks_reclaimed: int = 0
    #: speculated chunks whose duplicate copy is the one the reducers
    #: kept (first-in-canonical-order wins; see FaultPlan.speculate_after)
    speculative_wins: int = 0
    #: per-worker count of re-executed grants — reclaimed re-grants
    #: plus speculative duplicates — in rank order; empty when the
    #: backend ran without a fault plan's machinery engaged
    retries_by_worker: List[int] = field(default_factory=list)
    #: what :attr:`elapsed` measures: ``"simulated"`` (the sim backend's
    #: modeled clock) or ``"wall"`` (real backends' wall-clock)
    clock: str = "simulated"

    @property
    def stage_totals(self) -> Dict[str, float]:
        out = {s: 0.0 for s in STAGES}
        for w in self.workers:
            for s, v in w.stage_seconds.items():
                out[s] += v
        return out

    @property
    def stage_fractions(self) -> Dict[str, float]:
        """Cluster-wide share of each Figure-2 bucket."""
        totals = self.stage_totals
        denom = sum(totals.values())
        if denom == 0:
            return {s: 0.0 for s in STAGES}
        return {s: v / denom for s, v in totals.items()}

    @property
    def total_pairs_logical(self) -> int:
        return sum(w.pairs_emitted_logical for w in self.workers)

    @property
    def total_network_bytes(self) -> int:
        return sum(w.bytes_sent_network for w in self.workers)

    @property
    def total_local_exchange_bytes(self) -> int:
        """Shuffle bytes that stayed on their own rank (no wire cost)."""
        return sum(w.bytes_kept_local for w in self.workers)

    @property
    def total_chunks(self) -> int:
        return sum(w.chunks_mapped for w in self.workers)

    @property
    def total_steals(self) -> int:
        return sum(w.chunks_stolen for w in self.workers)

    @property
    def steals_by_worker(self) -> List[int]:
        """Per-worker steal ledger, in rank order — the per-GPU view of
        the scheduler's load balancing (matches a recorded
        :class:`~repro.core.scheduler.ScheduleTrace` grant-for-grant)."""
        return [w.chunks_stolen for w in sorted(self.workers, key=lambda w: w.rank)]

    def describe(self) -> str:
        """One-paragraph human summary."""
        fr = self.stage_fractions
        pieces = ", ".join(f"{s}={fr[s]:.1%}" for s in STAGES)
        clock = "simulated" if self.clock == "simulated" else "wall-clock"
        return (
            f"{self.job_name}: {self.n_gpus} GPU(s), {self.elapsed:.4f}s "
            f"{clock}; breakdown {pieces}; {self.total_chunks} chunks "
            f"({self.total_steals} stolen), "
            f"{self.total_network_bytes / 1e6:.1f} MB shuffled"
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable export (see :meth:`from_dict`) so traces
        and benchmark scripts can persist stats without pickle."""
        return {
            "job_name": self.job_name,
            "n_gpus": self.n_gpus,
            "elapsed": self.elapsed,
            "clock": self.clock,
            "chunks_reclaimed": self.chunks_reclaimed,
            "speculative_wins": self.speculative_wins,
            "retries_by_worker": list(self.retries_by_worker),
            "workers": [w.to_dict() for w in self.workers],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobStats":
        d = dict(d)
        d["workers"] = [WorkerStats.from_dict(w) for w in d["workers"]]
        return cls(**d)
