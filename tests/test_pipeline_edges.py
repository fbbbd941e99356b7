"""Edge cases and failure injection for the GPMR pipeline."""

import numpy as np
import pytest

from repro.core import (
    Chunk,
    KeyValueSet,
    MapReduceJob,
    Mapper,
    PipelineConfig,
    Reducer,
    RoundRobinPartitioner,
)
from repro.hw.memory import OutOfDeviceMemory
from repro.hw.specs import ACCELERATOR_NODE, ClusterSpec, GT200, NodeSpec
from repro.net import Communicator, Fabric, StarTopology
from repro.primitives import launch_1d, segmented_reduce
from repro.sim import Environment
from repro.sim.binner import Binner
from repro.sim.runtime import GPMRRuntime
from repro.hw.cpu import HostCPU
from repro.util.rng import generator
from repro.util.units import MIB


class EmitMapper(Mapper):
    """Emit <key % 8, 1> per element."""

    def map_chunk(self, chunk):
        return KeyValueSet(
            keys=(chunk.data % 8).astype(np.uint32),
            values=np.ones(len(chunk.data), dtype=np.int64),
            scale=chunk.scale,
        )

    def map_cost(self, chunk):
        return [launch_1d("m", chunk.logical_items, read_bytes_per_item=4.0)]


class SilentMapper(Mapper):
    """A mapper that emits nothing at all."""

    def map_chunk(self, chunk):
        return KeyValueSet.empty(value_dtype=np.int64, scale=chunk.scale)

    def map_cost(self, chunk):
        return [launch_1d("silent", chunk.logical_items, read_bytes_per_item=4.0)]


class SumRed(Reducer):
    def reduce_segments(self, keys, values, offsets, counts, scale):
        return KeyValueSet(keys=keys, values=segmented_reduce(values, offsets), scale=scale)

    def reduce_cost(self, n_values, n_keys):
        return [launch_1d("r", n_values, read_bytes_per_item=8.0)]


def job(mapper=None, **kwargs):
    defaults = dict(
        name="edge",
        mapper=mapper or EmitMapper(),
        reducer=SumRed(),
        partitioner=RoundRobinPartitioner(),
        key_bytes=4,
        value_bytes=8,
        key_bits=3,
    )
    defaults.update(kwargs)
    return MapReduceJob(**defaults)


def chunk_of(n, index=0):
    return Chunk(
        index=index,
        data=np.arange(n, dtype=np.uint32),
        logical_items=n,
        logical_bytes=n * 4,
    )


def test_more_workers_than_chunks():
    """Workers without chunks still participate in shuffle and barrier."""
    result = GPMRRuntime(n_gpus=8).run(job(), chunks=[chunk_of(100)])
    merged = result.merged()
    assert int(merged.values.sum()) == 100


def test_empty_emission_job_completes():
    result = GPMRRuntime(n_gpus=4).run(
        job(mapper=SilentMapper()), chunks=[chunk_of(50, i) for i in range(4)]
    )
    assert result.merged() is None
    assert result.elapsed > 0


def test_single_element_chunk():
    result = GPMRRuntime(n_gpus=2).run(job(), chunks=[chunk_of(1)])
    merged = result.merged()
    assert len(merged) == 1 and int(merged.values[0]) == 1


def test_chunk_larger_than_device_memory_raises():
    huge = Chunk(
        index=0,
        data=np.zeros(8, dtype=np.uint32),
        logical_items=8,
        logical_bytes=2 * GT200.mem_capacity,  # cannot fit
    )
    with pytest.raises(OutOfDeviceMemory):
        GPMRRuntime(n_gpus=1).run(job(), chunks=[huge])


def test_many_tiny_chunks():
    chunks = [chunk_of(10, i) for i in range(100)]
    result = GPMRRuntime(n_gpus=4).run(job(), chunks=chunks)
    assert int(result.merged().values.sum()) == 1000
    assert result.stats.total_chunks == 100


def test_out_of_core_sort_path():
    """A received pair set larger than the sort budget triggers the
    multi-pass sort and still produces exact results."""
    n = 200_000
    cfg = PipelineConfig(sort_in_core_fraction=0.05)
    # Shrink the device so the budget is tiny relative to the pairs.
    small_gpu = GT200.with_memory(16 * MIB)
    node = NodeSpec(
        name="small",
        cpu=ACCELERATOR_NODE.cpu,
        gpu=small_gpu,
        gpus_per_node=4,
        pcie=ACCELERATOR_NODE.pcie,
        nic=ACCELERATOR_NODE.nic,
        host_memory=ACCELERATOR_NODE.host_memory,
    )
    cluster = ClusterSpec(name="small", node=node, node_count=1)
    chunks = [
        Chunk(
            index=i,
            data=generator(i).integers(0, 1 << 20, 50_000).astype(np.uint32),
            logical_items=50_000,
            logical_bytes=200_000,
        )
        for i in range(4)
    ]

    class WideMapper(EmitMapper):
        def map_chunk(self, chunk):
            return KeyValueSet(
                keys=chunk.data,
                values=np.ones(len(chunk.data), dtype=np.int64),
                scale=1.0,
            )

    j = MapReduceJob(
        name="ooc",
        mapper=WideMapper(),
        reducer=SumRed(),
        partitioner=None,  # all to rank 0 => guaranteed over budget
        config=cfg,
        key_bytes=4,
        value_bytes=8,
        key_bits=20,
    )
    result = GPMRRuntime(n_gpus=1, cluster=cluster).run(j, chunks=chunks)
    assert int(result.merged().values.sum()) == n


def test_job_setup_cost_charged_to_scheduler():
    cfg = PipelineConfig(job_setup_seconds=0.5)
    result = GPMRRuntime(n_gpus=2).run(
        job(config=cfg), chunks=[chunk_of(100)]
    )
    for w in result.stats.workers:
        assert w.stage_seconds["scheduler"] >= 0.5
    base = GPMRRuntime(n_gpus=2).run(
        job(config=PipelineConfig(job_setup_seconds=0.0)), chunks=[chunk_of(100)]
    )
    assert result.elapsed >= base.elapsed + 0.5 - 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(sort_in_core_fraction=0.01)
    with pytest.raises(ValueError):
        PipelineConfig(job_setup_seconds=-1)


# ---------------------------------------------------------------------------
# Binner protocol
# ---------------------------------------------------------------------------

def make_binner_env(ranks=2):
    env = Environment()
    topo = StarTopology(ranks, ACCELERATOR_NODE.nic)
    fabric = Fabric(env, topo, ACCELERATOR_NODE.cpu)
    comm = Communicator(env, fabric, list(range(ranks)))
    cpus = [HostCPU(env, ACCELERATOR_NODE.cpu) for _ in range(ranks)]
    binners = [Binner(env, comm, cpus[r], r) for r in range(ranks)]
    return env, comm, binners


def kv(keys, values):
    return KeyValueSet(
        keys=np.asarray(keys, dtype=np.uint32), values=np.asarray(values)
    )


def test_binner_flush_protocol_counts_messages():
    env, comm, (b0, b1) = make_binner_env()
    received = {}

    def sender(env):
        b0.submit([(0, kv([0], [1.0])), (1, kv([1], [2.0]))])  # one part per rank
        b0.submit([(0, kv([2], [3.0])), (1, KeyValueSet.empty())])  # only rank 0
        yield b0.drain()
        yield env.all_of(b0.flush())

    def quiet_rank(env):
        yield env.all_of(b1.flush())  # rank 1 sends nothing but must flush

    def receiver(env, binner, rank):
        got = yield from binner.receive_all()
        received[rank] = got

    env.process(sender(env))
    env.process(quiet_rank(env))
    env.process(receiver(env, b0, 0))
    env.process(receiver(env, b1, 1))
    env.run()
    assert len(received[0]) == 2  # two DATA messages to rank 0
    assert len(received[1]) == 1
    assert b0.sent_counts == [2, 1]
    assert b0.bytes_sent > 0


def test_binner_empty_parts_not_sent():
    env, comm, (b0, b1) = make_binner_env()

    def sender(env):
        b0.submit([(0, KeyValueSet.empty()), (1, KeyValueSet.empty())])
        yield b0.drain()
        yield env.all_of(b0.flush())

    def other(env):
        yield env.all_of(b1.flush())

    results = {}

    def receiver(env, binner, rank):
        got = yield from binner.receive_all()
        results[rank] = got

    env.process(sender(env))
    env.process(other(env))
    env.process(receiver(env, b0, 0))
    env.process(receiver(env, b1, 1))
    env.run()
    assert results[0] == [] and results[1] == []
