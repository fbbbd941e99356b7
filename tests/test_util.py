"""Tests for shared utilities: units, rng, validation, meter."""

import numpy as np
import pytest

from repro.hw.meter import Meter
from repro.util import (
    check_in_range,
    check_non_negative,
    check_positive,
    child_generators,
    generator,
)
from repro.util.units import GB, GIB, KB, KIB, MB, MIB


def test_unit_constants():
    assert KB == 1000 and KIB == 1024
    assert MB == 10**6 and MIB == 2**20
    assert GB == 10**9 and GIB == 2**30


def test_generator_deterministic():
    a = generator(1).integers(0, 100, 10)
    b = generator(1).integers(0, 100, 10)
    np.testing.assert_array_equal(a, b)


def test_generator_streams_independent():
    a = generator(1, stream=(0,)).integers(0, 1 << 30, 10)
    b = generator(1, stream=(1,)).integers(0, 1 << 30, 10)
    assert not np.array_equal(a, b)


def test_generator_default_seed_stable():
    np.testing.assert_array_equal(
        generator().integers(0, 100, 5), generator(None).integers(0, 100, 5)
    )


def test_child_generators_count_and_independence():
    gens = list(child_generators(7, 3))
    assert len(gens) == 3
    draws = [g.integers(0, 1 << 30, 8) for g in gens]
    assert not np.array_equal(draws[0], draws[1])


def test_check_positive():
    assert check_positive(1, "x") == 1
    with pytest.raises(ValueError):
        check_positive(0, "x")


def test_check_non_negative():
    assert check_non_negative(0, "x") == 0
    with pytest.raises(ValueError):
        check_non_negative(-1, "x")


def test_check_in_range():
    assert check_in_range(0.5, 0, 1, "x") == 0.5
    with pytest.raises(ValueError):
        check_in_range(2, 0, 1, "x")


def test_meter_accumulates_and_merges():
    m1, m2 = Meter(), Meter()
    m1.add("a", 1.0)
    m1.add("a", 0.5)
    m2.add("b", 2.0)
    m1.merge(m2)
    assert m1.get("a") == pytest.approx(1.5)
    assert m1.get("b") == pytest.approx(2.0)
    assert m1.total == pytest.approx(3.5)
    assert dict(m1.items()) == m1.as_dict()


def test_meter_rejects_negative():
    with pytest.raises(ValueError):
        Meter().add("x", -1.0)


def test_meter_clear():
    m = Meter()
    m.add("x", 1.0)
    m.clear()
    assert m.total == 0.0
