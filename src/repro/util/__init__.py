"""Shared utilities: units, deterministic RNG, validation."""

from .rng import DEFAULT_SEED, child_generators, generator
from .units import GB, GIB, KB, KIB, MB, MIB
from .validation import check_in_range, check_non_negative, check_positive

__all__ = [
    "DEFAULT_SEED",
    "generator",
    "child_generators",
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
