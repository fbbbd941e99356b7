"""The sim's modeled time and ledgers, pinned to the last bit.

Execution is decoupled from pricing: a host kernel, the grant ledger or
the functional dataflow under the sim may change, the modeled seconds
and the per-rank accounting of a sim run may not move one ulp.  Every
row of :data:`CASES` runs one sim configuration and compares, against
``sim_pins.json``:

* ``repr(stats.elapsed)`` of every job the row runs;
* every :class:`~repro.core.stats.WorkerStats` field of every rank, and
  the job-level ledgers (``stats.to_dict()``);
* the recorded schedule, and a digest of each rank's output bytes.

The SIO staged row and the two KMC rows carry the values those jobs had
before the host sort stopped sorting by 8-bit digits and before the
fixed-window Lloyd kernel: ``0.008821147323248416``,
``0.011405602274638571`` and ``0.010233424383067815``.

The four 16-GPU rows (:data:`MULTI_NODE_ROWS`) span four nodes, so they
pin the network model too: a star, a 4:1 fat tree whose core links
contend, cross-node steal fetches and a kill on node 1.

Re-record (only when a change is *meant* to move modeled time) with
``PYTHONPATH=src python tests/test_sim_pins.py --record``.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.apps import (
    kmc_dataset,
    kmc_job,
    lr_dataset,
    lr_job,
    mm_dataset,
    run_matmul,
    sio_dataset,
    sio_job,
    wo_dataset,
    wo_job,
)
from repro.core import (
    FaultPlan,
    PipelineConfig,
    SumCombiner,
    SumPartialReducer,
    make_executor,
)

from test_core_pipeline import count_job, make_dataset

PINS = pathlib.Path(__file__).with_name("sim_pins.json")
N = 4


def _sio():
    ds = sio_dataset(120_000, chunk_elements=18_000, key_space=1 << 22, seed=3)
    return sio_job(key_space=1 << 22), ds


def _kmc():
    return kmc_dataset(120_000, n_centers=32, dims=2, chunk_points=18_000, seed=3)


def _wo():
    return wo_dataset(1 << 16, chunk_chars=10_000, n_words=1_500, seed=7)


def _lr():
    return lr_dataset(12_000, chunk_points=2_500, seed=5)


def _run(job, ds=None, chunks=None, n=N, **kw):
    return [make_executor("sim", n, **kw).run(job, dataset=ds, chunks=chunks)]


def _wo_run(use_accumulation=True, fused=None):
    job = wo_job(N, n_words=1_500, use_accumulation=use_accumulation)
    return _run(job, _wo(), fused=fused)


def _mm():
    result = run_matmul(N, mm_dataset(256, tile=64, kspan=2, seed=13))
    return [result.phase1, result.phase2]


def _replayed_single():
    job, ds = _sio()
    recorded = make_executor("sim", N, initial_distribution="single").run(job, ds)
    assert recorded.schedule.total_steals > 0
    replayed = make_executor("sim", N).run(job, ds, schedule=recorded.schedule)
    return [recorded, replayed]


def _faulted(job, ds):
    plan = FaultPlan(kill_rank_at_chunk={1: 2}, stall_seconds={2: 1e-4})
    return _run(job, ds, fault_plan=plan)


# The rows above run 4 GPUs, one Accelerator node, so no message of
# theirs crosses a NIC.  These run 16 GPUs on 4 nodes: every shuffle
# message and cross-node steal is priced on the network model.
N_MULTI = 16
MULTI_NODE_ROWS = (
    "sio_16gpu_star",
    "sio_16gpu_fat_tree_4to1",
    "kmc_16gpu_single_steals",
    "sio_16gpu_kill_and_stall",
)


def _sio_multi():
    ds = sio_dataset(64_000, chunk_elements=2_000, key_space=1 << 20, seed=3)
    return sio_job(key_space=1 << 20), ds


def _kmc_multi():
    return kmc_dataset(64_000, n_centers=32, dims=2, chunk_points=2_000, seed=3)


def _multi(job, ds, **kw):
    return _run(job, ds, n=N_MULTI, **kw)


CASES = {
    "wo_accum": lambda: _wo_run(),
    "wo_naive": lambda: _wo_run(use_accumulation=False),
    "wo_fused": lambda: _wo_run(fused=True),
    "lr_accum": lambda: _run(lr_job(), _lr()),
    "lr_naive": lambda: _run(lr_job(use_accumulation=False), _lr()),
    "lr_fused": lambda: _run(lr_job(), _lr(), fused=True),
    "kmc_accum": lambda: _run(kmc_job(_kmc()), _kmc()),
    "kmc_naive": lambda: _run(kmc_job(_kmc(), use_accumulation=False), _kmc()),
    "kmc_fused": lambda: _run(kmc_job(_kmc()), _kmc(), fused=True),
    "sio_staged": lambda: _run(*_sio()),
    "sio_fused": lambda: _run(*_sio(), fused=True),
    "mm_two_phases": _mm,
    "count_combiner": lambda: _run(count_job(combiner=SumCombiner()), make_dataset()),
    "count_partial_reducer": lambda: _run(
        count_job(partial_reducer=SumPartialReducer()), make_dataset()
    ),
    "count_partial_then_combine": lambda: _run(
        count_job(partial_reducer=SumPartialReducer(), combiner=SumCombiner()),
        make_dataset(),
    ),
    "count_no_partitioner": lambda: _run(count_job(partitioner=None), make_dataset()),
    "count_no_double_buffer": lambda: _run(
        count_job(config=PipelineConfig(double_buffer=False)), make_dataset()
    ),
    "sio_kill_and_stall": lambda: _faulted(*_sio()),
    "kmc_kill_and_stall": lambda: _faulted(kmc_job(_kmc()), _kmc()),
    "sio_replayed_single_with_steals": _replayed_single,
    "sio_16gpu_star": lambda: _multi(*_sio_multi()),
    "sio_16gpu_fat_tree_4to1": lambda: _multi(
        *_sio_multi(), network="fat-tree", fat_tree_radix=2, oversubscription=4.0
    ),
    "kmc_16gpu_single_steals": lambda: _multi(
        kmc_job(_kmc_multi()), _kmc_multi(), initial_distribution="single"
    ),
    # rank 5 lives on node 1; rank 9 on node 2
    "sio_16gpu_kill_and_stall": lambda: _multi(
        *_sio_multi(),
        fault_plan=FaultPlan(kill_rank_at_chunk={5: 2}, stall_seconds={9: 1e-4}),
    ),
}


def _digest(kv):
    if kv is None:
        return None
    h = hashlib.sha256()
    for arr in (kv.keys, kv.values):
        h.update(str(arr.dtype).encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(repr(kv.scale).encode())
    return h.hexdigest()


def snapshot(results):
    """The pinned view of a row's job results, as JSON-ready data."""
    return [
        {
            "elapsed": repr(r.stats.elapsed),
            "stats": r.stats.to_dict(),
            "schedule": [list(g) for g in r.schedule.to_records()],
            "outputs": [_digest(kv) for kv in r.outputs],
        }
        for r in results
    ]


def _expected():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_sim_run_is_pinned_to_the_last_bit(case):
    expected = _expected()[case]
    got = json.loads(json.dumps(snapshot(CASES[case]())))
    assert [p["elapsed"] for p in got] == [p["elapsed"] for p in expected]
    assert got == expected


def test_pin_table_keeps_the_historical_values():
    pins = _expected()
    assert pins["sio_staged"][0]["elapsed"] == "0.008821147323248416"
    assert pins["kmc_accum"][0]["elapsed"] == "0.011405602274638571"
    assert pins["kmc_naive"][0]["elapsed"] == "0.010233424383067815"
    assert pins["sio_16gpu_star"][0]["elapsed"] == "0.009269204045826818"
    assert pins["sio_16gpu_fat_tree_4to1"][0]["elapsed"] == "0.0099240440458267"
    assert set(MULTI_NODE_ROWS) <= set(pins)
    assert set(pins) == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    table = {name: snapshot(CASES[name]()) for name in sorted(CASES)}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} rows into {PINS}")
