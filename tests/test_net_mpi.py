"""Tests for the MPI-like communicator."""

import pytest

from repro.apps import sio_dataset, sio_job
from repro.core import make_executor
from repro.hw.specs import OPTERON_2216_2P, QDR_INFINIBAND
from repro.net import ANY, Communicator, Fabric, StarTopology
from repro.sim import Environment, Process


def make_comm(env, ranks=4, gpus_per_node=2):
    n_nodes = (ranks + gpus_per_node - 1) // gpus_per_node
    topo = StarTopology(max(n_nodes, 1), QDR_INFINIBAND)
    fab = Fabric(env, topo, OPTERON_2216_2P)
    rank_to_node = [r // gpus_per_node for r in range(ranks)]
    return Communicator(env, fab, rank_to_node)


def test_send_recv_roundtrip():
    env = Environment()
    comm = make_comm(env)
    got = []

    def sender(env):
        yield from comm.send(0, 1, {"hello": 7}, nbytes=100, tag=5)

    def receiver(env):
        msg = yield comm.recv(1, source=0, tag=5)
        got.append(msg)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    (msg,) = got
    assert msg.payload == {"hello": 7}
    assert msg.source == 0 and msg.dest == 1 and msg.tag == 5 and msg.nbytes == 100


def test_recv_wildcards():
    env = Environment()
    comm = make_comm(env)
    got = []

    def sender(env):
        yield from comm.send(2, 0, "a", nbytes=10, tag=9)

    def receiver(env):
        msg = yield comm.recv(0, source=ANY, tag=ANY)
        got.append((msg.source, msg.tag, msg.payload))

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert got == [(2, 9, "a")]


def test_recv_filters_by_source_and_tag():
    env = Environment()
    comm = make_comm(env)
    order = []

    def senders(env):
        yield from comm.send(1, 0, "wrong tag", nbytes=10, tag=1)
        yield from comm.send(2, 0, "right", nbytes=10, tag=2)

    def receiver(env):
        msg = yield comm.recv(0, source=2, tag=2)
        order.append(msg.payload)

    env.process(senders(env))
    env.process(receiver(env))
    env.run()
    assert order == ["right"]
    assert comm.pending(0) == 1  # the unmatched message remains queued


def test_isend_is_nonblocking():
    env = Environment()
    comm = make_comm(env)
    log = []

    def sender(env):
        comm.isend(0, 1, "x", nbytes=50_000_000)  # ~18 ms on the wire
        log.append(("after isend", env.now))
        yield env.timeout(0)

    def receiver(env):
        yield comm.recv(1)
        log.append(("received", env.now))

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert log[0] == ("after isend", 0)
    # Ranks 0 and 1 share a node: ~9.4 ms over host-memory loopback.
    assert log[1][1] > 0.008


def test_message_time_scales_with_size():
    env = Environment()
    comm = make_comm(env)
    times = {}

    def run_one(tag, nbytes):
        def sender(env):
            yield from comm.send(0, 3, None, nbytes=nbytes, tag=tag)

        def receiver(env):
            yield comm.recv(3, tag=tag)
            times[tag] = env.now

        return sender, receiver

    s1, r1 = run_one(1, 1_000_000)
    env.process(s1(env))
    env.process(r1(env))
    env.run()
    t_small = times[1]

    env2 = Environment()
    comm2 = make_comm(env2)
    times.clear()

    def sender(env):
        yield from comm2.send(0, 3, None, nbytes=10_000_000, tag=1)

    def receiver(env):
        yield comm2.recv(3, tag=1)
        times[1] = env.now

    env2.process(sender(env2))
    env2.process(receiver(env2))
    env2.run()
    assert times[1] > 5 * t_small


def test_same_node_ranks_use_loopback():
    env = Environment()
    comm = make_comm(env, ranks=4, gpus_per_node=2)  # ranks 0,1 on node 0
    t = {}

    def pair(env, src, dst, key):
        def sender(env):
            yield from comm.send(src, dst, None, nbytes=10_000_000, tag=src)

        def receiver(env):
            yield comm.recv(dst, source=src)
            t[key] = env.now

        return sender, receiver

    s, r = pair(env, 0, 1, "intra")
    env.process(s(env))
    env.process(r(env))
    env.run()

    env2 = Environment()
    comm2 = make_comm(env2, ranks=4, gpus_per_node=2)

    def sender(env):
        yield from comm2.send(0, 2, None, nbytes=10_000_000, tag=0)

    def receiver(env):
        yield comm2.recv(2, source=0)
        t["inter"] = env.now

    env2.process(sender(env2))
    env2.process(receiver(env2))
    env2.run()
    assert t["intra"] < t["inter"]


def test_barrier_releases_all_at_once():
    env = Environment()
    comm = make_comm(env, ranks=3, gpus_per_node=1)
    release_times = {}

    def worker(env, rank, delay):
        yield env.timeout(delay)
        yield comm.barrier(rank)
        release_times[rank] = env.now

    env.process(worker(env, 0, 1))
    env.process(worker(env, 1, 5))
    env.process(worker(env, 2, 3))
    env.run()
    assert release_times == {0: 5, 1: 5, 2: 5}


def test_barrier_multiple_rounds():
    env = Environment()
    comm = make_comm(env, ranks=2, gpus_per_node=1)
    log = []

    def worker(env, rank):
        for round_no in range(3):
            yield env.timeout(rank + 1)
            yield comm.barrier(rank)
            log.append((round_no, rank, env.now))

    env.process(worker(env, 0))
    env.process(worker(env, 1))
    env.run()
    # Each round releases both ranks at the slower rank's arrival time.
    times = sorted({t for _, _, t in log})
    assert times == [2, 4, 6]


def _alltoallv(comm, rank, payloads, nbytes):
    """Process: the Bin stage's all-to-all — one isend to every rank,
    then one receive per rank; returns the payloads by source rank."""
    sends = [comm.isend(rank, dest, payloads[dest], nbytes) for dest in range(comm.size)]
    received = [None] * comm.size
    for _ in range(comm.size):
        msg = yield comm.recv(rank)
        received[msg.source] = msg.payload
    yield comm.env.all_of(sends)
    return received


def test_alltoallv_exchanges_payloads():
    env = Environment()
    comm = make_comm(env, ranks=3, gpus_per_node=1)
    results = {}

    def worker(env, rank):
        results[rank] = yield from _alltoallv(comm, rank, [f"{rank}->{d}" for d in range(3)], 100)

    for r in range(3):
        env.process(worker(env, r))
    env.run()
    assert results[0] == ["0->0", "1->0", "2->0"]
    assert results[2] == ["0->2", "1->2", "2->2"]


def test_alltoallv_spawns_no_process_per_message(monkeypatch):
    """A message is a chain of callbacks on its events, not a process:
    a 16-rank all-to-all (256 messages) constructs only the 16 ranks."""
    constructed = []
    real_init = Process.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    env = Environment()
    comm = make_comm(env, ranks=16, gpus_per_node=4)
    results = {}

    def worker(env, rank):
        results[rank] = yield from _alltoallv(comm, rank, [(rank, d) for d in range(16)], 64)

    for r in range(16):
        env.process(worker(env, r))
    env.run()
    assert len(constructed) == 16
    assert results[5] == [(s, 5) for s in range(16)]


@pytest.mark.parametrize("senders, receivers", [((0, 0), (1, 2)), ((1, 2), (0, 0))])
def test_zero_byte_messages_hold_the_nic_for_one_latency(senders, receivers):
    """An empty message (a FLUSH) is priced: it holds its route's NIC
    channels for one latency, so two of them through one node's tx (or
    rx) channel serialise."""
    env = Environment()
    comm = make_comm(env, ranks=3, gpus_per_node=1)
    arrivals = []

    def receiver(env, rank):
        yield comm.recv(rank)
        arrivals.append(env.now)

    for src, dst in zip(senders, receivers):
        comm.isend(src, dst, None, nbytes=0)
    for rank in set(receivers):
        for _ in range(receivers.count(rank)):
            env.process(receiver(env, rank))
    env.run()
    latency = QDR_INFINIBAND.latency
    assert sorted(arrivals) == pytest.approx(
        [comm.message_overhead + latency, comm.message_overhead + 2 * latency]
    )


#: engine steps of one 16-GPU SIO sim job when every message was a
#: generator process: 5 events per message (start, overhead, wire,
#: mailbox put, end) plus its channel requests
STEPS_WITH_A_PROCESS_PER_MESSAGE = 6609
#: the job's messages: 512 DATA (32 chunks x 16 reducers) + 256 FLUSH
MESSAGES = 768


def test_sim_job_takes_one_step_less_per_message(monkeypatch):
    """Deterministic, timing-free guard on the message path's cost: a
    send starts inside ``isend``, with no start event of its own."""
    steps = []
    real_step = Environment.step

    def counting_step(self):
        steps.append(None)
        real_step(self)

    monkeypatch.setattr(Environment, "step", counting_step)
    ds = sio_dataset(64_000, chunk_elements=2_000, key_space=1 << 20, seed=3)
    result = make_executor("sim", 16).run(sio_job(key_space=1 << 20), ds)
    assert repr(result.stats.elapsed) == "0.009269204045826818"
    assert len(steps) <= STEPS_WITH_A_PROCESS_PER_MESSAGE - MESSAGES


def test_rank_validation():
    env = Environment()
    comm = make_comm(env)
    with pytest.raises(ValueError):
        comm.isend(0, 99, None, 1)
    with pytest.raises(ValueError):
        comm.recv(99)
    with pytest.raises(ValueError):
        comm.barrier(-2)


def test_bytes_accounting_per_rank():
    env = Environment()
    comm = make_comm(env)

    def proc(env):
        yield from comm.send(1, 2, None, nbytes=640)

    env.run(until=env.process(proc(env)))
    assert comm.bytes_by_rank[1] == 640
    assert comm.bytes_by_rank[2] == 0
