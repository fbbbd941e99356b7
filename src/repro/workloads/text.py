"""Word Occurrence workload: synthetic corpus over a 43,000-word dictionary.

The paper: "we used randomly generated text from a forty-three thousand
word dictionary ... separated at line boundaries.  Each chunk contains
millions of bytes."  We build the dictionary deterministically from
syllables (pronounceable, unique, 4–16 characters) and generate chunks
of space/newline-separated words drawn uniformly.

Also provides :func:`tokenize`, the vectorised word splitter both the
GPMR WO mapper and the baselines share.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .base import Dataset, WorkItem
from ..primitives.sort import longest_first
from ..util.rng import generator
from ..util.validation import check_positive

__all__ = ["build_dictionary", "TextDataset", "tokenize", "DICTIONARY_WORDS"]

#: Size of the paper's corpus dictionary.
DICTIONARY_WORDS = 43_000

_ONSETS = ["b", "br", "c", "ch", "cr", "d", "dr", "f", "fl", "g", "gr",
           "h", "j", "k", "kl", "l", "m", "n", "p", "pl", "pr", "qu",
           "r", "s", "sk", "sl", "sm", "sn", "sp", "st", "str", "t",
           "th", "tr", "v", "w", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "b", "ck", "d", "g", "l", "m", "n", "nd", "ng", "nk",
          "p", "r", "rd", "rk", "rm", "rn", "s", "st", "t", "x"]


def _syllable(i: int) -> str:
    o = _ONSETS[i % len(_ONSETS)]
    v = _VOWELS[(i // len(_ONSETS)) % len(_VOWELS)]
    c = _CODAS[(i // (len(_ONSETS) * len(_VOWELS))) % len(_CODAS)]
    return o + v + c


@lru_cache(maxsize=4)
def build_dictionary(n_words: int = DICTIONARY_WORDS) -> Tuple[bytes, ...]:
    """``n_words`` unique deterministic pronounceable words, as bytes."""
    check_positive(n_words, "n_words")
    n_syll = len(_ONSETS) * len(_VOWELS) * len(_CODAS)
    words: List[bytes] = []
    seen = set()
    i = 0
    while len(words) < n_words:
        # Two-syllable words first, then three-syllable.
        if i < n_syll * n_syll:
            a, b = divmod(i, n_syll)
            w = (_syllable(a) + _syllable(b)).encode()
        else:  # pragma: no cover - dictionary sizes never reach this
            j = i - n_syll * n_syll
            a, rest = divmod(j, n_syll * n_syll)
            b, c = divmod(rest, n_syll)
            w = (_syllable(a) + _syllable(b) + _syllable(c)).encode()
        if w not in seen:
            seen.add(w)
            words.append(w)
        i += 1
    return tuple(words)


def tokenize(text: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a uint8 text buffer into words (vectorised).

    Returns ``(starts, lengths)`` for every maximal run of
    non-separator bytes; separators are space (0x20) and newline (0x0A).
    """
    t = np.asarray(text, dtype=np.uint8)
    if t.ndim != 1:
        raise ValueError("tokenize expects a 1-D byte array")
    if len(t) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    is_sep = (t == 0x20) | (t == 0x0A)
    # Word starts: non-sep preceded by sep (or buffer start).
    prev_sep = np.empty(len(t), dtype=bool)
    prev_sep[0] = True
    prev_sep[1:] = is_sep[:-1]
    starts = np.flatnonzero(~is_sep & prev_sep).astype(np.int64)
    # Word ends: non-sep followed by sep (or buffer end).
    next_sep = np.empty(len(t), dtype=bool)
    next_sep[-1] = True
    next_sep[:-1] = is_sep[1:]
    ends = np.flatnonzero(~is_sep & next_sep).astype(np.int64)
    return starts, ends - starts + 1


class TextDataset(Dataset):
    """Chunked random text over the dictionary (1-byte elements)."""

    def __init__(
        self,
        n_chars: int,
        chunk_chars: int = 32 << 20,
        n_words: int = DICTIONARY_WORDS,
        line_words: int = 12,
        seed: int = 0,
        sample_factor: int = 1,
    ) -> None:
        super().__init__(seed, sample_factor)
        check_positive(n_chars, "n_chars")
        check_positive(chunk_chars, "chunk_chars")
        check_positive(line_words, "line_words")
        self.n_chars = int(n_chars)
        self.chunk_chars = int(chunk_chars)
        self.line_words = int(line_words)
        self.dictionary = build_dictionary(n_words)
        # Pre-pack the dictionary into one blob for vectorised assembly.
        self._word_lens = np.array([len(w) for w in self.dictionary], dtype=np.int64)
        self._blob = np.frombuffer(b"".join(self.dictionary), dtype=np.uint8)
        self._blob_offsets = np.concatenate(
            ([0], np.cumsum(self._word_lens[:-1]))
        ).astype(np.int64)
        self._mean_word = float(self._word_lens.mean()) + 1.0  # + separator

    @property
    def n_chunks(self) -> int:
        return (self.n_chars + self.chunk_chars - 1) // self.chunk_chars

    def _logical_chars(self, index: int) -> int:
        lo = index * self.chunk_chars
        return min(self.chunk_chars, self.n_chars - lo)

    def chunk_meta(self, index: int):
        # Replays chunk()'s first (and size-determining) RNG draw to
        # compute the exact generated byte count without assembling the
        # payload — a streamed descriptor must carry the same logical
        # sizes the materialised chunk would.
        self._check_index(index)
        logical = self._logical_chars(index)
        actual_target = max(16, logical // self.sample_factor)
        rng = generator(self.seed, stream=(index,))
        n_words_est = max(1, int(actual_target / self._mean_word))
        ids = rng.integers(0, len(self.dictionary), size=n_words_est)
        total = int(self._word_lens[ids].sum()) + n_words_est
        logical_exact = total * self.sample_factor
        return logical_exact, logical_exact

    def chunk(self, index: int) -> WorkItem:
        self._check_index(index)
        logical = self._logical_chars(index)
        actual_target = max(16, logical // self.sample_factor)
        rng = generator(self.seed, stream=(index,))

        n_words_est = max(1, int(actual_target / self._mean_word))
        ids = rng.integers(0, len(self.dictionary), size=n_words_est)
        lens = self._word_lens[ids]
        # Separator: newline every `line_words` words, else space.
        seps = np.where(
            (np.arange(n_words_est) + 1) % self.line_words == 0, 0x0A, 0x20
        ).astype(np.uint8)
        # Copy the words from the blob one byte position at a time: in
        # longest-first order the words still that long are a prefix.
        out_starts = (np.cumsum(lens + 1) - (lens + 1)).astype(np.int64)
        total = int(lens.sum()) + n_words_est
        buf = np.empty(total, dtype=np.uint8)
        order, alive = longest_first(lens)
        src = self._blob_offsets[ids[order]]
        dst = out_starts[order]
        for k in alive:
            buf[dst[:k]] = self._blob[src[:k]]
            src[:k] += 1
            dst[:k] += 1
        buf[out_starts + lens] = seps
        # Logical size tracks the generated bytes exactly so every chunk
        # carries the same integer scale (sample_factor); the nominal
        # n_chars is a target, as in the paper's "millions of bytes".
        logical_exact = total * self.sample_factor
        del logical
        return WorkItem(
            index=index,
            data=buf,
            logical_items=logical_exact,
            logical_bytes=logical_exact,  # 1-byte elements (Table 1)
        )

    def words_in_logical_chars(self, n_chars: int) -> int:
        """Expected word count in ``n_chars`` of corpus."""
        return max(1, int(n_chars / self._mean_word))
