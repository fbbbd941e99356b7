"""Tests for the runtime's network-topology options (fat-tree support).

The paper's Section 7 argues the right cluster configuration depends on
the job's communication profile; these tests exercise GPMR end-to-end
on a fat-tree with constrained bisection and confirm (a) results stay
exact and (b) oversubscription only hurts communication-bound jobs.
"""

import numpy as np
import pytest

from repro.apps import run_sio  # noqa: F401 - imported for parity with shapes tests
from repro.sim.runtime import GPMRRuntime
from repro.apps import sio_dataset, sio_job, sio_validate
from repro.apps import kmc_dataset, kmc_job, kmc_validate

M = 1 << 20


def test_network_option_validation():
    with pytest.raises(ValueError):
        GPMRRuntime(n_gpus=1, network="torus")


def test_fat_tree_results_exact():
    ds = sio_dataset(40_000, chunk_elements=5_000, key_space=256, seed=1)
    rt = GPMRRuntime(n_gpus=8, network="fat-tree")
    result = rt.run(sio_job(ds.key_space), ds)
    sio_validate(result, ds)


def test_fat_tree_full_bisection_matches_star():
    ds = sio_dataset(32 * M, chunk_elements=4 * M, sample_factor=32, seed=2)
    star = GPMRRuntime(n_gpus=16, network="star").run(sio_job(ds.key_space), ds)
    tree = GPMRRuntime(
        n_gpus=16, network="fat-tree", oversubscription=1.0
    ).run(sio_job(ds.key_space), ds)
    # Full-bisection fat tree behaves like the non-blocking switch
    # (NIC-limited either way); the multi-hop routes cost a few percent
    # of extra occupancy granularity.
    assert tree.elapsed == pytest.approx(star.elapsed, rel=0.10)


def test_oversubscription_slows_communication_bound_job():
    ds = sio_dataset(32 * M, chunk_elements=4 * M, sample_factor=32, seed=3)
    full = GPMRRuntime(
        n_gpus=16, network="fat-tree", oversubscription=1.0
    ).run(sio_job(ds.key_space), ds)
    starved = GPMRRuntime(
        n_gpus=16, network="fat-tree", oversubscription=16.0
    ).run(sio_job(ds.key_space), ds)
    assert starved.elapsed > full.elapsed * 1.2
    # Results identical regardless of the network.
    np.testing.assert_array_equal(
        np.sort(full.merged().keys), np.sort(starved.merged().keys)
    )


def test_oversubscription_harmless_for_accumulation_job():
    ds = kmc_dataset(32 * M, chunk_points=1 * M, sample_factor=16, seed=4)
    full = GPMRRuntime(
        n_gpus=16, network="fat-tree", oversubscription=1.0
    ).run(kmc_job(ds), ds)
    starved = GPMRRuntime(
        n_gpus=16, network="fat-tree", oversubscription=16.0
    ).run(kmc_job(ds), ds)
    kmc_validate(starved, ds)
    # KMC ships kilobytes: bisection starvation is invisible.
    assert starved.elapsed < full.elapsed * 1.05
