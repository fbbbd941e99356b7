"""Minimal perfect hashing for string keys (the paper's WO trick).

Word Occurrence cannot use strings as GPU keys ("strings cannot be read
in a single instruction"), so the paper assigns each dictionary word a
unique four-byte integer via a minimal perfect hash [Cichelli 1980].
We implement a displacement-based MPH in the CHD family:

1. two polynomial byte hashes ``h1, h2``, ``h = h * base + (b + 1)``
   per byte mod 2^64 (Horner's rule, run by the map kernel one byte
   position at a time over all of a chunk's words);
2. words are grouped into ``m ~ n / LAMBDA`` buckets by ``h1 % m``;
3. buckets are placed largest-first: for each bucket we search a
   displacement ``d`` such that ``mix(h2, d) % n`` is a fresh,
   collision-free slot for every word in the bucket, where ``mix`` is a
   splitmix-style non-linear combiner (an affine ``h2 + d*h3`` form over
   a third hash would leave mod-n-congruent pairs colliding for *every*
   d, so no third hash is needed).

Lookup is branch-free and fully vectorised over arrays of word hashes —
which is exactly what the simulated WO map kernel needs to hash
millions of words per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..primitives.sort import longest_first

__all__ = ["PolyHashes", "poly_hashes_bytes", "MinimalPerfectHash", "MPHBuildError"]

#: Average bucket load of the displacement search.
LAMBDA = 4

#: Polynomial bases for the two hash streams (odd, well-mixed).
_BASES = (31, 131)
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class PolyHashes:
    """The two base hashes of a batch of words (uint64 arrays): ``h1``
    picks the bucket, ``h2`` the slot under its displacement."""

    h1: np.ndarray
    h2: np.ndarray

    def __len__(self) -> int:
        return len(self.h1)


def _poly_hash_word(word: bytes, base: int) -> int:
    h = 0
    for b in word:
        h = (h * base + b + 1) & 0xFFFFFFFFFFFFFFFF
    return h


def poly_hashes_bytes(words: Sequence[bytes]) -> PolyHashes:
    """Base hashes for a list of byte-string words (build-time path)."""
    n = len(words)
    out = [np.empty(n, dtype=np.uint64) for _ in _BASES]
    for i, word in enumerate(words):
        for j, base in enumerate(_BASES):
            out[j][i] = _poly_hash_word(word, base)
    return PolyHashes(*out)


def segmented_poly_hashes(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> PolyHashes:
    """Vectorised base hashes for words packed in one byte array.

    ``data`` is a uint8 array; word ``i`` is
    ``data[starts[i] : starts[i] + lengths[i]]``.  This is the
    map-kernel path, so it loops over byte positions, never over words:
    with the words sorted longest-first, those that still have a byte at
    position ``p`` are a prefix, and Horner's rule
    ``h = h * base + (b + 1)`` advances that prefix for both bases from
    one shared byte gather.  An empty word hashes to 0.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    hashes = [np.zeros(len(starts), dtype=np.uint64) for _ in _BASES]
    if len(starts) == 0:
        return PolyHashes(*hashes)
    order, alive = longest_first(lengths)
    pos = starts[order]
    for k in alive:
        byte = np.add(data[pos[:k]], 1, dtype=np.uint64)
        for h, base in zip(hashes, _BASES):
            h[:k] *= base  # wraps mod 2^64, as intended
            h[:k] += byte
        pos[:k] += 1
    for h in hashes:
        h[order] = h.copy()
    return PolyHashes(*hashes)


class MPHBuildError(RuntimeError):
    """Raised when displacement search fails (retry with a new seed)."""


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(h2: np.ndarray, d: np.uint64) -> np.ndarray:
    """Splitmix64-style combine of a word hash with a displacement."""
    with np.errstate(over="ignore"):  # modular 2^64 arithmetic is intended
        z = (h2 ^ (d * _GOLDEN)) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK64
        return z ^ (z >> np.uint64(31))


class MinimalPerfectHash:
    """A minimal perfect hash over a fixed vocabulary of byte words.

    ``build`` maps each of the ``n`` vocabulary words to a distinct slot
    in ``[0, n)``; ``lookup_hashes`` maps batches of pre-hashed words to
    their slots without branching.
    """

    def __init__(self, n: int, m: int, displacements: np.ndarray) -> None:
        self.n = n
        self.m = m
        self.displacements = displacements

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, words: Sequence[bytes], max_displacement: int = 1 << 16) -> "MinimalPerfectHash":
        if len(set(words)) != len(words):
            raise ValueError("vocabulary contains duplicate words")
        n = len(words)
        if n == 0:
            raise ValueError("cannot build an MPH over an empty vocabulary")
        hashes = poly_hashes_bytes(words)
        m = max(1, n // LAMBDA)

        buckets: List[List[int]] = [[] for _ in range(m)]
        b_of = (hashes.h1 % np.uint64(m)).astype(np.int64)
        for i in range(n):
            buckets[b_of[i]].append(i)

        order = sorted(range(m), key=lambda b: -len(buckets[b]))
        taken = np.zeros(n, dtype=bool)
        displacements = np.zeros(m, dtype=np.uint64)
        h2 = hashes.h2

        batch = 64  # displacement candidates evaluated per vector op
        for b in order:
            members = buckets[b]
            if not members:
                continue
            mh2 = h2[members][:, None]
            placed = False
            for d0 in range(0, max_displacement, batch):
                ds = np.arange(d0, d0 + batch, dtype=np.uint64)[None, :]
                slots = (_mix(mh2, ds) % np.uint64(n)).astype(np.int64)
                # A candidate column is valid when its slots are distinct
                # and all free.
                srt = np.sort(slots, axis=0)
                distinct = (
                    np.ones(batch, dtype=bool)
                    if len(members) == 1
                    else ~np.any(srt[1:] == srt[:-1], axis=0)
                )
                free = ~np.any(taken[slots], axis=0)
                valid = np.flatnonzero(distinct & free)
                if len(valid):
                    col = int(valid[0])
                    taken[slots[:, col]] = True
                    displacements[b] = d0 + col
                    placed = True
                    break
            if not placed:
                raise MPHBuildError(
                    f"no displacement found for bucket of {len(members)} words"
                )
        assert taken.all(), "MPH build finished without covering every slot"
        return cls(n=n, m=m, displacements=displacements)

    # -- lookup ------------------------------------------------------------
    def lookup_hashes(self, hashes: PolyHashes) -> np.ndarray:
        """Slot indices in ``[0, n)`` for pre-hashed words (vectorised)."""
        b = (hashes.h1 % np.uint64(self.m)).astype(np.int64)
        d = self.displacements[b]
        slots = _mix(hashes.h2, d) % np.uint64(self.n)
        return slots.astype(np.int64)

    def lookup_words(self, words: Sequence[bytes]) -> np.ndarray:
        """Slot indices for raw byte words (convenience, loops per word)."""
        return self.lookup_hashes(poly_hashes_bytes(words))

    @property
    def table_bytes(self) -> int:
        """Size of the displacement table (what ships to the GPU)."""
        return self.displacements.nbytes
