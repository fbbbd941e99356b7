"""Pipeline configuration knobs.

These are the tunables the paper's Section 4.4 tells users to spend
time on ("GPMR users should devote at least some time to deciding what
stages of the pipeline are suitable for their jobs").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime behaviour flags for a GPMR job."""

    #: Overlap the h2d copy of chunk i+1 with the map of chunk i
    #: (GPMR's streaming double-buffer; requires 2x chunk residency).
    double_buffer: bool = True

    #: Dynamic load balancing: idle workers steal chunks from the
    #: longest queue (chunks are serialised over the wire).
    enable_stealing: bool = True

    #: Fraction of device memory the Sort stage may use for pairs
    #: (the rest is radix workspace); received sets larger than this
    #: sort out-of-core in multiple passes.
    sort_in_core_fraction: float = 0.45

    #: Skip Sort and Reduce entirely; the job's result is the shuffled
    #: map output per rank (the paper's MM does this, feeding a second
    #: MapReduce).
    skip_sort_reduce: bool = False

    #: Fixed per-worker job coordination cost (pinned-buffer setup, MPI
    #: wire-up, queue registration) charged to the Scheduler bucket.
    #: This is the paper's "GPMR Internal / Scheduler" share, which
    #: Figure 2 shows growing with GPU count as per-GPU work shrinks.
    job_setup_seconds: float = 0.008

    #: Fold each chunk's map output at once, into the accumulator or
    #: through ``job.fused``, as one map kernel instead of the staged
    #: map_chunk → accumulate/partial-reduce → partition path; a job
    #: that sets this must have an accumulator or a ``fused`` fold.
    fused: bool = False

    def __post_init__(self) -> None:
        if not (0.05 <= self.sort_in_core_fraction <= 0.95):
            raise ValueError("sort_in_core_fraction must be in [0.05, 0.95]")
        if self.job_setup_seconds < 0:
            raise ValueError("job_setup_seconds must be non-negative")
