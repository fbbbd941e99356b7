"""FaultPlan construction and validation contracts."""

import pytest

from repro.core import FaultPlan


def test_defaults_are_a_no_op_plan():
    plan = FaultPlan()
    assert plan.kill_rank_at_chunk == {}
    assert plan.stall_seconds == {}
    assert plan.max_respawns == 1
    assert plan.kill_for(0) is None
    assert plan.stall_for(0) == 0.0
    plan.validate_for(1)  # nothing to reject


def test_mappings_are_coerced_to_int_keyed_dicts():
    plan = FaultPlan(kill_rank_at_chunk={"1": "2"}, stall_seconds={0: 1})
    assert plan.kill_rank_at_chunk == {1: 2}
    assert plan.stall_seconds == {0: 1.0}
    assert plan.kill_for(1) == 2
    assert plan.stall_for(0) == 1.0


def test_kill_ordinal_is_one_based():
    with pytest.raises(ValueError, match="1-based"):
        FaultPlan(kill_rank_at_chunk={0: 0})


def test_negative_ranks_rejected():
    with pytest.raises(ValueError, match="rank -1 < 0"):
        FaultPlan(kill_rank_at_chunk={-1: 1})
    with pytest.raises(ValueError, match="rank -2 < 0"):
        FaultPlan(stall_seconds={-2: 0.5})


def test_negative_stall_rejected():
    with pytest.raises(ValueError, match="must be >= 0"):
        FaultPlan(stall_seconds={0: -0.1})


def test_negative_respawn_budget_rejected():
    with pytest.raises(ValueError, match="max_respawns"):
        FaultPlan(max_respawns=-1)
    assert FaultPlan(max_respawns=0).max_respawns == 0


def test_validate_for_rejects_out_of_range_ranks():
    plan = FaultPlan(kill_rank_at_chunk={3: 1})
    plan.validate_for(4)
    with pytest.raises(ValueError, match="names rank 3, but the run has only"):
        plan.validate_for(3)
    stalled = FaultPlan(stall_seconds={5: 0.2})
    with pytest.raises(ValueError, match="stall_seconds names rank 5"):
        stalled.validate_for(2)
