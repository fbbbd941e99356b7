"""GPMR core (S6): the paper's contribution, reimplemented.

Public API surface::

    from repro.core import (
        MapReduceJob, PipelineConfig, make_executor,
        Mapper, Reducer, Partitioner, RoundRobinPartitioner,
        Combiner, PartialReducer, Accumulator,
        SumCombiner, SumPartialReducer, SumAccumulator,
        KeyValueSet, Chunk,
    )

A job is a :class:`MapReduceJob` (mapper + optional substages); an
:class:`Executor` runs it and returns a :class:`JobResult` with
per-rank outputs and per-stage timing (`JobStats`).  Backends are
pluggable via :func:`make_executor`: ``"sim"`` (the simulated cluster,
:class:`repro.sim.runtime.GPMRRuntime`), ``"cluster"`` (real rank
processes joined by the TCP fabric, on any host), ``"local"`` (the
cluster backend on loopback), and ``"serial"`` (in-process real
execution).  Nothing here imports the modeled cluster: the sim backend
is loaded the first time it is asked for.
"""

from .chunk import Chunk
from .combine import (
    Accumulator,
    Combiner,
    PartialReducer,
    SumAccumulator,
    SumCombiner,
    SumPartialReducer,
    combine_by_key_sum,
)
from .config import PipelineConfig
from .faults import FaultPlan
from .executor import (
    Executor,
    JobResult,
    available_backends,
    make_executor,
    register_backend,
)
from .job import MapReduceJob
from .kvset import KeyValueSet
from .mapper import Mapper
from .partitioner import (
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from .reducer import Reducer
from .scheduler import (
    Assignment,
    ChunkService,
    ScheduleGrant,
    ScheduleTrace,
    distribute_chunks,
    resolve_chunks,
)
from .sorter import ComparisonSorter, RadixSorter, Sorter
from .stats import STAGES, JobStats, WorkerStats

__all__ = [
    "MapReduceJob",
    "FaultPlan",
    "JobResult",
    "PipelineConfig",
    "Executor",
    "make_executor",
    "register_backend",
    "available_backends",
    "resolve_chunks",
    "distribute_chunks",
    "Mapper",
    "Reducer",
    "Partitioner",
    "RoundRobinPartitioner",
    "BlockPartitioner",
    "HashPartitioner",
    "Combiner",
    "PartialReducer",
    "Accumulator",
    "SumCombiner",
    "SumPartialReducer",
    "SumAccumulator",
    "combine_by_key_sum",
    "Sorter",
    "RadixSorter",
    "ComparisonSorter",
    "KeyValueSet",
    "Chunk",
    "ChunkService",
    "ScheduleGrant",
    "ScheduleTrace",
    "Assignment",
    "STAGES",
    "JobStats",
    "WorkerStats",
]
