"""Small argument-validation helpers shared across the package."""

from __future__ import annotations


__all__ = ["check_positive", "check_non_negative", "check_in_range"]


def check_positive(value: float, name: str) -> float:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(value: float, lo: float, hi: float, name: str) -> float:
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
