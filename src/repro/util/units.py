"""Unit constants: byte sizes, clock rates and time scales."""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "GHZ",
    "MHZ",
    "US",
    "MS",
]

KB = 10**3
MB = 10**6
GB = 10**9
KIB = 2**10
MIB = 2**20
GIB = 2**30
GHZ = 10**9
MHZ = 10**6
US = 1e-6
MS = 1e-3

