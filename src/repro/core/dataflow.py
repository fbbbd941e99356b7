"""The functional GPMR dataflow, independent of any execution backend.

These are the *real* (NumPy-vectorized) map/combine/partition/sort/
reduce semantics a worker rank executes: the Figure-1 work flow minus
the cost model.  Every backend runs exactly this code — the real ones
(:mod:`repro.exec`) directly, the sim's :class:`~repro.sim.worker.Worker`
step by step, pricing each :class:`MapStep` record :meth:`MapRunner.feed`
and :meth:`MapRunner.finish` return and the :func:`sort_pairs` /
:func:`reduce_runs` halves of :func:`reduce_worker` — so all backends
produce bit-identical per-rank outputs.

Canonical semantics (the parity contract):

* a worker maps its assigned chunks in assignment order;
* Partial Reduce applies per chunk; Accumulate folds every chunk into a
  resident state emitted once, after the last map (a worker with *no*
  chunks still emits the accumulator's initial state); Combine buffers
  raw pairs and merges them once after all maps;
* Partition routes through
  :meth:`~repro.core.job.MapReduceJob.partition_parts` (no partitioner
  means everything goes to rank 0);
* each reducer rank concatenates its incoming parts in **source-major,
  emission-order** order, then sorts with the job's sorter and reduces
  per key segment.

When ``fused=True`` is requested and the job has an accumulator or a
per-chunk fold (``MapReduceJob.fused``), each chunk's map is followed
at once by that fold and the pair is one map kernel: the cost model
sees no accumulate or partial-reduce step.  The output is
bit-identical to the staged path's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .chunk import Chunk
from .job import MapReduceJob
from .kvset import KeyValueSet
from .stats import WorkerStats
from ..primitives import KeyRuns, unique_segments

__all__ = [
    "MapPhaseOutput",
    "MapRunner",
    "MapStep",
    "map_worker",
    "merge_incoming",
    "reduce_runs",
    "reduce_worker",
    "sort_pairs",
]


@dataclass
class MapPhaseOutput:
    """One worker's map-phase product: per-destination emission lists."""

    #: ``parts[dest]`` = this worker's parts for rank ``dest``, in
    #: emission order; empty parts are dropped at emission time.
    parts: List[List[KeyValueSet]]
    chunks_mapped: int = 0
    pairs_emitted_logical: int = 0
    #: logical bytes handed to the exchange (the sim's bin accounting)
    bytes_binned: int = 0
    #: per-destination share of ``bytes_binned``, same indexing as
    #: ``parts`` — lets workers split self-kept vs. network-sent bytes
    bytes_binned_by_dest: List[int] = field(default_factory=list)
    #: ``part_chunk_ids[dest][i]`` = id of the chunk that produced
    #: ``parts[dest][i]``, or -1 for finish-time (accumulate/combine)
    #: emissions — the provenance tag each part carries on the wire
    part_chunk_ids: List[List[int]] = field(default_factory=list)

    def bytes_self(self, rank: int) -> int:
        """Logical bytes binned to this worker's own rank (never leave
        the process — the sim charges them to loopback, not the wire)."""
        return self.bytes_binned_by_dest[rank]

    def bytes_remote(self, rank: int) -> int:
        """Logical bytes binned to *other* ranks — what actually rides
        the exchange fabric, and what network accounting must report."""
        return self.bytes_binned - self.bytes_binned_by_dest[rank]


@dataclass
class MapStep:
    """The sizes one :meth:`MapRunner.feed` / :meth:`MapRunner.finish`
    call produced — exactly what the sim's cost model charges.  Real
    backends ignore it."""

    #: logical pairs the staged map kernel emitted (0 when fused)
    map_pairs: int = 0
    #: logical pairs of the accumulator state before this chunk's fold;
    #: None when the chunk was not accumulated
    state_pairs: Optional[int] = None
    #: logical pairs the partial reducer kept; None without one
    reduced_pairs: Optional[int] = None
    #: pairs parked in the combine buffer (combined once, at finish)
    buffered: Optional[KeyValueSet] = None
    #: the merged combine buffer this finish combined, and the logical
    #: pairs the combiner kept of it
    combine_in: Optional[KeyValueSet] = None
    combine_out_pairs: int = 0
    #: the non-empty pairs handed to Partition
    emission: Optional[KeyValueSet] = None
    #: the emission's non-empty ``(dest, part)`` pieces, in dest order
    parts: List[Tuple[int, KeyValueSet]] = field(default_factory=list)


class MapRunner:
    """One rank's map phase, fed one chunk at a time.

    The pull model's worker-side half: a worker requests a chunk from
    the driver's :class:`~repro.core.scheduler.ChunkService`, feeds it
    here, and repeats until the service says it is done; :meth:`finish`
    then flushes the deferred accumulate/combine paths.  Feeding the
    same chunk sequence always produces the same
    :class:`MapPhaseOutput` as the one-shot :func:`map_worker`, which
    is just this class over a precomputed list — that equivalence is
    what lets a recorded pull schedule replay bit-for-bit on any
    backend.
    """

    def __init__(
        self,
        job: MapReduceJob,
        n_workers: int,
        fused: Optional[bool] = None,
    ) -> None:
        self.job = job
        self.n_workers = n_workers
        # Defaults come from the job config, which travels in the job
        # pickle to remote ranks.
        fused_flag = job.config.fused if fused is None else bool(fused)
        self._use_fused = fused_flag and (
            job.accumulator is not None or job.fused is not None
        )
        self.out = MapPhaseOutput(
            parts=[[] for _ in range(n_workers)],
            bytes_binned_by_dest=[0] * n_workers,
            part_chunk_ids=[[] for _ in range(n_workers)],
        )
        self._accum_state: Optional[KeyValueSet] = None
        self._combine_buffer: List[KeyValueSet] = []
        self._finished = False

    def _emit(self, kv: KeyValueSet, step: MapStep, chunk_id: int = -1) -> None:
        """Partition one emission and append the non-empty parts.

        ``chunk_id`` tags each appended part with the chunk it came from
        (-1 for finish-time emissions that aggregate many chunks).
        """
        if len(kv) == 0:
            return
        job, out = self.job, self.out
        if self.n_workers == 1 or job.partitioner is None:
            # Fast path: every pair routes to rank 0 (either it is the
            # only rank, or partitioner-less jobs send everything to a
            # single reducer) — keep the emission whole instead of
            # paying the partition scan.  Bit-identical to the slow
            # path: it appends the same pairs in the same order.
            pieces = [(0, kv)]
        else:
            pieces = [
                (dest, part)
                for dest, part in enumerate(job.partition_parts(kv, self.n_workers))
                if len(part)
            ]
        for dest, part in pieces:
            out.parts[dest].append(part)
            out.part_chunk_ids[dest].append(chunk_id)
            out.bytes_binned += part.nbytes_logical
            out.bytes_binned_by_dest[dest] += part.nbytes_logical
        step.emission, step.parts = kv, pieces

    def feed(self, chunk: Chunk) -> MapStep:
        """Map one granted chunk (in grant order)."""
        if self._finished:
            raise RuntimeError("feed() after finish()")
        job = self.job
        step = MapStep()
        self.out.chunks_mapped += 1
        kv = job.mapper.map_chunk(chunk)
        if not self._use_fused:
            step.map_pairs = kv.logical_pairs
            self.out.pairs_emitted_logical += kv.logical_pairs

        if job.accumulator is not None:
            if self._accum_state is None:
                self._accum_state = job.accumulator.initial_state(kv.scale)
            if not self._use_fused:
                step.state_pairs = self._accum_state.logical_pairs
            self._accum_state = job.accumulator.accumulate(self._accum_state, kv)
            return step

        if self._use_fused:
            # The fold is part of the map kernel: only what it keeps
            # counts as emitted, and no partial-reduce step is priced.
            kv = job.fused.partial_reduce(kv)
            self.out.pairs_emitted_logical += kv.logical_pairs
            self._emit(kv, step, chunk_id=chunk.index)
            return step

        if job.partial_reducer is not None:
            kv = job.partial_reducer.partial_reduce(kv)
            step.reduced_pairs = kv.logical_pairs

        if job.combiner is not None:
            if len(kv):
                self._combine_buffer.append(kv)
                step.buffered = kv
            return step

        self._emit(kv, step, chunk_id=chunk.index)
        return step

    def finish(self) -> MapStep:
        """Flush the accumulate/combine paths (the map output is then
        complete in :attr:`out`).

        A worker that mapped *no* chunks still emits the accumulator's
        initial state.
        """
        step = MapStep()
        if self._finished:
            return step
        self._finished = True
        job = self.job
        if job.accumulator is not None:
            state = (
                self._accum_state
                if self._accum_state is not None
                else job.accumulator.initial_state(1.0)
            )
            if self._use_fused:
                # A fused run counts the flushed state, not the folded pairs.
                self.out.pairs_emitted_logical += state.logical_pairs
            self._emit(state, step)
        if job.combiner is not None and self._combine_buffer:
            merged = KeyValueSet.concat(self._combine_buffer)
            combined = job.combiner.combine(merged)
            step.combine_in, step.combine_out_pairs = merged, combined.logical_pairs
            self._emit(combined, step)
            self._combine_buffer = []
        return step


def map_worker(
    job: MapReduceJob, chunks: Sequence[Chunk], n_workers: int
) -> MapPhaseOutput:
    """Run one rank's full map phase over a precomputed chunk list."""
    runner = MapRunner(job, n_workers)
    for chunk in chunks:
        runner.feed(chunk)
    runner.finish()
    return runner.out


def merge_incoming(batches: Sequence[Tuple]) -> List[KeyValueSet]:
    """Order received batches canonically: by source rank, then emission.

    ``batches`` holds one entry per source, in arbitrary arrival order:
    ``(source_rank, parts)``, or ``(source_rank, parts, chunk_ids)``
    with one provenance tag per part (the chunk that produced it, -1
    for finish-time emissions).  A chunk has one live grant at a time
    and a dead holder's output never ships, so the batches hold each
    chunk's map output once.
    """
    merged: List[KeyValueSet] = []
    for entry in sorted(batches, key=lambda item: item[0]):
        merged.extend(entry[1])
    return merged


def sort_pairs(
    job: MapReduceJob, incoming: Sequence[KeyValueSet]
) -> Tuple[KeyValueSet, KeyRuns]:
    """The sort half of :func:`reduce_worker`: one rank's non-empty
    parts, concatenated, sorted, and cut into per-key runs."""
    sorted_kv = job.sorter.sort(KeyValueSet.concat(incoming))
    return sorted_kv, unique_segments(sorted_kv.keys)


def reduce_runs(
    job: MapReduceJob, sorted_kv: KeyValueSet, runs: KeyRuns
) -> KeyValueSet:
    """The reduce half of :func:`reduce_worker`: one reduce call per key
    run (a job without a reducer keeps the sorted pair set)."""
    if runs.n_keys == 0 or job.reducer is None:
        return sorted_kv
    return job.reducer.reduce_segments(
        runs.unique_keys,
        sorted_kv.values,
        runs.offsets,
        runs.counts,
        sorted_kv.scale,
    )


def reduce_worker(
    job: MapReduceJob,
    incoming: Sequence[KeyValueSet],
    stats: Optional[WorkerStats] = None,
    obs=None,
) -> Optional[KeyValueSet]:
    """Run one rank's sort + reduce over its (canonically ordered) input.

    ``skip_sort_reduce`` jobs return the concatenated shuffle output; an
    empty inbox returns ``None``; a job without a reducer returns the
    sorted pair set.

    With ``stats``, measured wall-clock lands in the same ``sort`` /
    ``reduce`` Figure-2 buckets the sim charges modeled time to; with
    ``obs``, the same intervals are recorded as ``sort`` / ``reduce``
    spans attributed to ``stats.rank``.
    """
    tracer = obs.tracer if obs is not None else None
    rank = stats.rank if stats is not None else None
    nonempty = [kv for kv in incoming if len(kv)]
    if not nonempty:
        return None
    if job.config.skip_sort_reduce:
        return KeyValueSet.concat(nonempty)

    # One monotonic clock for the whole run, rebased to the tracer's
    # wall-clock timebase exactly once: every span edge is
    # ``rebase + perf_counter()``, so the sort span's end and the reduce
    # span's start are the *same* reading instead of a wall-clock anchor
    # mixed with monotonic durations.
    rebase = time.time() - time.perf_counter()
    t0 = time.perf_counter()
    sorted_kv, runs = sort_pairs(job, nonempty)
    t1 = time.perf_counter()
    if stats is not None:
        stats.add("sort", t1 - t0)
    if tracer is not None:
        tracer.add_span("sort", rebase + t0, rebase + t1, rank=rank)
    if runs.n_keys == 0 or job.reducer is None:
        return sorted_kv
    output = reduce_runs(job, sorted_kv, runs)
    t2 = time.perf_counter()
    if stats is not None:
        stats.add("reduce", t2 - t1)
    if tracer is not None:
        tracer.add_span("reduce", rebase + t1, rebase + t2, rank=rank)
    return output
