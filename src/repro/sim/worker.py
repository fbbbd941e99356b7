"""The GPMR worker pipeline: one process per GPU, priced in modeled time.

Executes the paper's Figure-1 work flow:

``[fetch chunk] -> Map (+ Partial Reduce | Accumulate) -> Partition ->
d2h -> Bin (async, CPU thread) -> ... -> Sort -> Reduce``

with the documented overlap structure: chunk h2d double-buffers against
the previous map; binning runs on a host core concurrently with
subsequent maps; Combine/Accumulate defer binning until all maps are
done.

The worker computes nothing itself: each granted chunk goes through the
same :class:`~repro.core.dataflow.MapRunner` the real backends run, and
the shuffled pairs through the same :func:`~repro.core.dataflow.sort_pairs`
/ :func:`~repro.core.dataflow.reduce_runs` halves of
:func:`~repro.core.dataflow.reduce_worker`.  What the worker adds is the
price: fetch and steal charges, kernel launches, PCI-e copies, GPU
allocations and binner submits, charged from the sizes each
:class:`~repro.core.dataflow.MapStep` records and booked into the
Figure-2 stage buckets.  Functional work takes no modeled time, so
running it first and charging after keeps every modeled second
unchanged.

The worker is one rank of the ``"sim"`` backend: the shared driver
(:meth:`~repro.core.executor.Executor.run`) hands every worker the same
:class:`~repro.core.scheduler.ChunkService`, and
:class:`~repro.sim.runtime.GPMRRuntime` runs the workers on the event
engine.  A scripted death goes through
:class:`~repro.core.faults.ScriptedDeath`, the rule the serial backend
uses too.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

import numpy as np

from .binner import Binner
from .engine import Environment
from ..core.chunk import Chunk
from ..core.dataflow import MapRunner, MapStep, reduce_runs, sort_pairs
from ..core.faults import FaultPlan, ScriptedDeath
from ..core.job import MapReduceJob
from ..core.kvset import KeyValueSet
from ..core.scheduler import Assignment, ChunkService
from ..core.stats import WorkerStats
from ..obs import NULL_TRACER
from ..hw.gpu import GPU
from ..hw.node import Node
from ..net.mpi import Communicator
from ..primitives import KeyRuns, unique_segments_cost

__all__ = ["Worker"]


class Worker:
    """One GPMR worker: a GPU, its host resources, and a rank."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        gpu: GPU,
        node: Node,
        comm: Communicator,
        job: MapReduceJob,
        scheduler: ChunkService,
        fault: Optional[FaultPlan] = None,
        obs=None,
    ) -> None:
        self.env = env
        #: span recording in modeled time (no-op when the run is
        #: untraced); the runtime points the tracer's clock at env.now
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        self.rank = rank
        self.gpu = gpu
        self.node = node
        self.comm = comm
        self.job = job
        self.scheduler = scheduler
        self.stats = WorkerStats(rank=rank)
        #: the functional map phase this worker prices
        self.runner = MapRunner(job, comm.size)
        self.binner = Binner(env, comm, node.cpu, rank)
        self.result: Optional[KeyValueSet] = None
        #: scripted fault injection, mirroring the real backends: die
        #: upon the Nth grant (and continue as the respawned
        #: replacement) / stall this long in modeled time before every
        #: chunk request
        self.death = ScriptedDeath(fault, rank)
        self.stall_seconds = 0.0 if fault is None else fault.stall_for(rank)
        #: when set, emissions buffer here instead of reaching the
        #: binner mid-map — a faulted rank must be able to discard
        #: everything it has not posted, so nothing leaves early
        self._deferred_parts: Optional[List[List[Tuple[int, KeyValueSet]]]] = None

    # ------------------------------------------------------------------
    # Fetch: steal pricing + h2d copy (double-buffered by the caller)
    # ------------------------------------------------------------------
    def _fetch_proc(self, assignment: Assignment) -> Generator:
        chunk = assignment.chunk
        if assignment.stolen_by(self.rank):
            self.stats.chunks_stolen += 1
            # Victim serialises, wire moves it, thief deserialises.
            yield from self.node.cpu.process_bytes(chunk.wire_bytes, tag="steal")
            victim_node = self.comm.node_of(assignment.victim)
            my_node = self.comm.node_of(self.rank)
            if victim_node != my_node:
                yield from self.comm.fabric.send(victim_node, my_node, chunk.wire_bytes)
        nbytes = self.job.mapper.input_bytes(chunk)
        alloc = self.gpu.alloc(nbytes, tag=f"chunk{chunk.index}")
        yield from self.gpu.copy_h2d(nbytes)
        self.stats.bytes_h2d += nbytes
        return alloc

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def _map_one(self, chunk: Chunk, in_alloc, t_chunk: float) -> Generator:
        """Map one resident chunk, then charge its on-GPU substages and
        the transfer of whatever it emitted."""
        job = self.job
        step = self.runner.feed(chunk)
        out_bytes = job.mapper.output_bytes_estimate(chunk) + job.mapper.scratch_bytes
        out_alloc = self.gpu.alloc(out_bytes, tag="map-out") if out_bytes else None
        # A fused run's fold is part of the map kernel: the runner leaves
        # ``state_pairs``/``reduced_pairs`` unset, so only ``map_cost`` is
        # charged (map cost alone is the fusion's upper bound).
        for launch in job.mapper.map_cost(chunk):
            yield from self.gpu.run_kernel(launch)
        if step.state_pairs is not None:
            if self.runner.out.chunks_mapped == 1:
                # The first fold of this incarnation makes the state resident.
                self.gpu.alloc(
                    job.accumulator.state_bytes(job.pair_bytes), tag="accum-state"
                )
            for launch in job.accumulator.accumulate_cost(
                step.map_pairs, step.state_pairs, job.pair_bytes
            ):
                yield from self.gpu.run_kernel(launch)
        if step.reduced_pairs is not None:
            for launch in job.partial_reducer.partial_reduce_cost(
                step.map_pairs, step.reduced_pairs, job.pair_bytes
            ):
                yield from self.gpu.run_kernel(launch)
        if out_alloc:
            self.gpu.free(out_alloc)
        yield from self._transfer(step)
        self.gpu.free(in_alloc)
        # Descriptor-backed chunks drop their payload once
        # mapped (re-materialising if granted again), so a whole-dataset
        # sim run stays bounded by the in-flight window, not the logical
        # dataset size.
        chunk.release()
        self.tracer.add_span(
            "chunk_map", t_chunk, self.env.now, rank=self.rank, chunk=chunk.index
        )

    def _copy_d2h(self, nbytes: int) -> Generator:
        yield from self.gpu.copy_d2h(nbytes)
        self.stats.bytes_d2h += nbytes

    def _transfer(self, step: MapStep) -> Generator:
        """Charge moving a step's output off the GPU.

        Pairs parked in the combine buffer only pay their d2h copy; an
        emission pays the partition kernel and its d2h copy, and its
        per-destination parts go to the binner.
        """
        job = self.job
        if step.buffered is not None:
            yield from self._copy_d2h(step.buffered.nbytes_logical)
        kv = step.emission
        if kv is None:
            return
        if job.partitioner is not None:
            for launch in job.partitioner.partition_cost(
                kv.logical_pairs, kv.nbytes_logical
            ):
                yield from self.gpu.run_kernel(launch)
        yield from self._copy_d2h(kv.nbytes_logical)
        if self._deferred_parts is not None:
            self._deferred_parts.append(step.parts)
        else:
            self.binner.submit(step.parts)

    def _next_grant(self) -> Generator:
        """The next assignment (None when done), after the scripted
        stall.  A scripted death on the grant restarts the rank as its
        own replacement — exactly like SIGKILL on a real backend, its
        grants reclaimed and its un-posted map output, state, buffered
        bins and stats gone; modeled time keeps flowing."""
        while True:
            if self.stall_seconds:
                yield self.env.timeout(self.stall_seconds)
            assignment = self.scheduler.request(self.rank)
            if assignment is None or not self.death.strikes(self.scheduler):
                return assignment
            self.runner = MapRunner(self.job, self.comm.size)
            self._deferred_parts = []
            self.stats = WorkerStats(rank=self.rank)
            self._t_map = self.env.now

    def _map_loop(self, ahead: bool) -> Generator:
        """The pull loop.  ``ahead`` (an unfaulted rank) requests chunk
        i+1 while chunk i maps, and fetches it too with
        ``double_buffer``; a faulted rank pulls one chunk at a time."""
        self._t_map = self.env.now
        assignment = yield from self._next_grant()
        fetch = None
        while assignment is not None:
            if fetch is None:
                fetch = self.env.process(self._fetch_proc(assignment))
            in_alloc = yield fetch
            t_chunk = self.env.now
            fetch = None
            if ahead:
                following = yield from self._next_grant()
                if following is not None and self.job.config.double_buffer:
                    fetch = self.env.process(self._fetch_proc(following))
            yield from self._map_one(assignment.chunk, in_alloc, t_chunk)
            if not ahead:
                following = yield from self._next_grant()
            assignment = following
        self.stats.add("map", self.env.now - self._t_map)

    def map_phase(self) -> Generator:
        """Process the worker's entire map workload."""
        job = self.job
        # A faulted rank bins nothing mid-map (submissions buffer in
        # ``_deferred_parts``), so a death loses only what it holds.
        faulted = self.death.kill_at is not None or self.stall_seconds > 0
        if faulted:
            self._deferred_parts = []
        yield from self._map_loop(ahead=not faulted)

        # -- post-map paths: the accumulator flush, or the
        # combine pass that streams the buffered pairs back through
        # the GPU.  A rank with neither charges nothing here.
        t0 = self.env.now
        step = self.runner.finish()
        if step.combine_in is not None:
            merged = step.combine_in
            yield from self.gpu.copy_h2d(merged.nbytes_logical)
            for launch in job.combiner.combine_cost(
                merged.logical_pairs, step.combine_out_pairs, job.pair_bytes
            ):
                yield from self.gpu.run_kernel(launch)
        yield from self._transfer(step)
        self.stats.add("map", self.env.now - t0)
        mapped = self.runner.out
        self.stats.chunks_mapped = mapped.chunks_mapped
        self.stats.pairs_emitted_logical = mapped.pairs_emitted_logical

        # A faulted rank's buffered submissions post together, here —
        # the first moment its output leaves the process.  From this
        # point its grants are complete and its death would be fatal,
        # which is exactly what mark_posted records.
        if self._deferred_parts is not None:
            for parts in self._deferred_parts:
                self.binner.submit(parts)
            self._deferred_parts = None
        self.scheduler.mark_posted(self.rank)

        # "Complete Binning": exposed network time after the maps.
        t0 = self.env.now
        yield self.binner.drain()
        flushes = self.binner.flush()
        yield self.env.all_of(flushes)
        self.stats.add("bin", self.env.now - t0)
        self.tracer.add_span("bin", t0, self.env.now, rank=self.rank)

    # ------------------------------------------------------------------
    # Sort + Reduce phases
    # ------------------------------------------------------------------
    def _sort_phase(self, incoming: List[KeyValueSet]) -> Generator:
        job = self.job
        sorted_kv, runs = sort_pairs(job, incoming)

        t0 = self.env.now
        budget = int(self.gpu.spec.mem_capacity * job.config.sort_in_core_fraction)
        total_bytes = sorted_kv.nbytes_logical
        n_pairs_logical = sorted_kv.logical_pairs
        passes = max(1, -(-total_bytes // budget))  # ceil division

        per_pass_pairs = -(-n_pairs_logical // passes)
        per_pass_bytes = -(-total_bytes // passes)
        for _ in range(passes):
            alloc = self.gpu.alloc(min(per_pass_bytes, budget), tag="sort")
            yield from self.gpu.copy_h2d(per_pass_bytes)
            for launch in job.sorter.sort_cost(
                per_pass_pairs, job.key_bits, job.pair_bytes
            ):
                yield from self.gpu.run_kernel(launch)
            if passes > 1:
                yield from self.gpu.copy_d2h(per_pass_bytes)
            self.gpu.free(alloc)
        if passes > 1:
            # Host-side multiway merge of the sorted runs.
            merge_factor = float(np.ceil(np.log2(passes))) or 1.0
            yield from self.node.cpu.process_bytes(
                total_bytes * merge_factor, tag="sort-merge"
            )
            # The merged set streams back for the reduce.
            yield from self.gpu.copy_h2d(min(total_bytes, budget))

        for launch in unique_segments_cost(
            n_pairs_logical, int(round(runs.n_keys * sorted_kv.scale)), job.key_bytes
        ):
            yield from self.gpu.run_kernel(launch)
        self.stats.add("sort", self.env.now - t0)
        self.tracer.add_span("sort", t0, self.env.now, rank=self.rank)
        return sorted_kv, runs

    def _reduce_phase(self, sorted_kv: KeyValueSet, runs: KeyRuns) -> Generator:
        job = self.job
        t0 = self.env.now
        n_keys = runs.n_keys
        if n_keys == 0 or job.reducer is None:
            self.stats.add("reduce", 0.0)
            return sorted_kv
        output = reduce_runs(job, sorted_kv, runs)

        # GPMR's reduce-chunking callback: how many value sets per chunk?
        avg_set_bytes = max(
            1, int(sorted_kv.nbytes_logical / max(n_keys, 1))
        )
        sets_per_chunk = job.reducer.value_sets_per_chunk(
            self.gpu.allocator.free_bytes, avg_set_bytes
        )
        sets_per_chunk = max(1, min(sets_per_chunk, n_keys))
        n_chunks = -(-n_keys // sets_per_chunk)

        scale = sorted_kv.scale
        values_per_chunk_logical = int(round(len(sorted_kv) * scale / n_chunks))
        keys_per_chunk_logical = int(round(n_keys * scale / n_chunks))
        for _ in range(n_chunks):
            for launch in job.reducer.reduce_cost(
                max(values_per_chunk_logical, 1), max(keys_per_chunk_logical, 1)
            ):
                yield from self.gpu.run_kernel(launch)

        yield from self._copy_d2h(output.nbytes_logical)
        self.stats.add("reduce", self.env.now - t0)
        self.tracer.add_span("reduce", t0, self.env.now, rank=self.rank)
        return output

    # ------------------------------------------------------------------
    # Whole pipeline
    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The worker's full MapReduce pipeline (one sim process)."""
        setup = self.job.config.job_setup_seconds
        if setup:
            yield self.env.timeout(setup)
            self.stats.add("scheduler", setup)

        yield from self.map_phase()

        # Gather this rank's shuffled pairs (wait time = scheduler bucket).
        t0 = self.env.now
        incoming = yield from self.binner.receive_all()
        self.stats.bytes_sent_network += self.binner.bytes_sent
        self.stats.bytes_kept_local += self.binner.bytes_kept_local
        self.stats.add("scheduler", self.env.now - t0)
        self.tracer.add_span("shuffle_recv", t0, self.env.now, rank=self.rank)

        nonempty = [kv for kv in incoming if len(kv)]
        if self.job.config.skip_sort_reduce or not nonempty:
            self.result = KeyValueSet.concat(nonempty) if nonempty else None
            return self.result
        sorted_kv, runs = yield from self._sort_phase(nonempty)
        self.result = yield from self._reduce_phase(sorted_kv, runs)
        return self.result
