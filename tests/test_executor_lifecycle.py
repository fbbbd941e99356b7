"""The reusable executor lifecycle, on all four backends.

The job service leases executors from a warm pool, so the lifecycle
contract must hold everywhere: ``close()`` is idempotent, a closed
executor refuses to run with a clear error, ``reset()`` returns a used
instance to a runnable state, and the context-manager form closes on
exit.  These are pure lifecycle tests — output parity for reused
instances lives in test_service.py / test_job_service.py.  The last
block checks that every backend shares one driver (``Executor.run``)
and reads the settings all backends take — ``initial_distribution``
and ``fault_plan`` — once, when it is built.
"""

import pytest

from repro.apps import sio_dataset, sio_job
from repro.core import FaultPlan
from repro.core.executor import Executor, make_executor
from repro.sim.runtime import GPMRRuntime

BACKENDS = ("sim", "serial", "local", "cluster")

DATASET = sio_dataset(n_elements=400, chunk_elements=100, key_space=64, seed=5)
JOB = sio_job(DATASET.key_space)


@pytest.mark.parametrize("backend", BACKENDS)
def test_close_is_idempotent(backend):
    ex = make_executor(backend, 2)
    assert not ex.closed
    ex.close()
    assert ex.closed
    ex.close()  # second close must be a no-op, not an error
    assert ex.closed


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_after_close_raises(backend):
    ex = make_executor(backend, 2)
    ex.close()
    with pytest.raises(RuntimeError, match="closed"):
        ex.run(JOB, DATASET)


@pytest.mark.parametrize("backend", BACKENDS)
def test_context_manager_closes(backend):
    with make_executor(backend, 2) as ex:
        assert not ex.closed
    assert ex.closed


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_enables_rerun(backend):
    ex = make_executor(backend, 2)
    first = ex.run(JOB, DATASET)
    ex.reset()
    second = ex.run(JOB, DATASET)
    for a, b in zip(first.outputs, second.outputs):
        assert a.values.tobytes() == b.values.tobytes()
    ex.close()


def test_make_executor_passthrough_returns_prebuilt():
    ex = make_executor("serial", 2)
    assert make_executor("serial", 2, executor=ex) is ex
    ex.close()


def test_make_executor_passthrough_validates_shape():
    ex = make_executor("serial", 2)
    with pytest.raises(ValueError, match="pre-built executor"):
        make_executor("serial", 3, executor=ex)
    with pytest.raises(ValueError, match="pre-built executor"):
        make_executor("sim", 2, executor=ex)
    with pytest.raises(ValueError, match="conflicting kwargs"):
        make_executor("serial", 2, executor=ex, obs=None)
    ex.close()


# -- one driver, settings read once -------------------------------------------

def test_every_backend_runs_through_the_one_driver():
    for backend in BACKENDS:
        ex = make_executor(backend, 2)
        assert type(ex).run is Executor.run, backend
        ex.close()


def test_unknown_initial_distribution_fails_at_construction():
    for backend in BACKENDS:
        with pytest.raises(ValueError, match="'sideways'"):
            make_executor(backend, 2, initial_distribution="sideways")


def test_fault_plan_is_checked_and_held_by_the_executor():
    plan = FaultPlan(kill_rank_at_chunk={1: 1})
    for backend in BACKENDS:
        with pytest.raises(ValueError, match="names rank 5, but the run has only 2"):
            make_executor(backend, 2, fault_plan=FaultPlan(kill_rank_at_chunk={5: 1}))
        ex = make_executor(backend, 2, fault_plan=plan, initial_distribution="single")
        assert ex.fault_plan is plan, backend
        assert ex.initial_distribution == "single", backend
        ex.close()


def test_speculation_is_refused_by_one_rule():
    messages = []
    for backend in ("sim", "serial"):
        with pytest.raises(ValueError, match="speculate_after") as err:
            make_executor(backend, 2, fault_plan=FaultPlan(speculate_after=0.1))
        messages.append(
            str(err.value).replace(f"on the {backend} backend", "on the backend")
        )
    assert messages[0] == messages[1]


def test_gpmr_runtime_is_the_sim_executor():
    ex = make_executor("sim", 4)
    assert type(ex) is GPMRRuntime
    a = GPMRRuntime(n_gpus=4).run(JOB, DATASET)
    b = ex.run(JOB, DATASET)
    assert repr(a.stats.elapsed) == repr(b.stats.elapsed)
    assert a.schedule == b.schedule
    for x, y in zip(a.outputs, b.outputs):
        assert x.keys.tobytes() == y.keys.tobytes()
        assert x.values.tobytes() == y.values.tobytes()
    assert b.stats.clock == "simulated"
    assert make_executor("serial", 4).run(JOB, DATASET).stats.clock == "wall"
