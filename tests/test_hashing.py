"""Tests for the minimal perfect hash and vectorised string hashing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import (
    MinimalPerfectHash,
    poly_hashes_bytes,
    segmented_poly_hashes,
)
from repro.workloads import TextDataset, build_dictionary, tokenize


def pack_words(words):
    """Pack byte words into (data, starts, lengths) arrays."""
    data = np.frombuffer(b"".join(words), dtype=np.uint8)
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths[:-1]))).astype(np.int64)
    return data, starts, lengths


# -- base hashes ---------------------------------------------------------------

def test_poly_hashes_deterministic():
    a = poly_hashes_bytes([b"alpha", b"beta"])
    b = poly_hashes_bytes([b"alpha", b"beta"])
    np.testing.assert_array_equal(a.h1, b.h1)
    np.testing.assert_array_equal(a.h2, b.h2)


def test_poly_hashes_distinguish_words():
    h = poly_hashes_bytes([b"alpha", b"alphb"])
    assert h.h1[0] != h.h1[1]


def test_segmented_hashes_match_scalar_path():
    words = [b"spelk", b"braid", b"x", b"longerwordhere"]
    data, starts, lengths = pack_words(words)
    seg = segmented_poly_hashes(data, starts, lengths)
    ref = poly_hashes_bytes(words)
    np.testing.assert_array_equal(seg.h1, ref.h1)
    np.testing.assert_array_equal(seg.h2, ref.h2)


def test_segmented_hashes_empty_batch():
    seg = segmented_poly_hashes(np.empty(0, dtype=np.uint8), [], [])
    assert len(seg) == 0


# Word shapes the length-sorted Horner loop must take: empty words
# (spans ``(start, 0)``, hash 0), one-byte words, short words, and words
# past 255 bytes, where the longest-first sort key widens to uint16.
_WORDS = st.lists(
    st.one_of(
        st.just(b""),
        st.binary(min_size=1, max_size=1),
        st.binary(min_size=0, max_size=20),
        st.binary(min_size=256, max_size=300),
    ),
    min_size=1,
    max_size=30,
)
# Every word the same length, so no word drops out before the last step.
_EQUAL_WORDS = st.integers(0, 20).flatmap(
    lambda n: st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=30)
)
# One word past 65,535 bytes: the sort key widens to uint32.
_PAST_U16 = [b"ab", np.random.default_rng(0).bytes(65_600), b"", b"z"]


@settings(max_examples=50, deadline=None)
@given(st.one_of(_WORDS, _EQUAL_WORDS))
@example(_PAST_U16)
def test_property_segmented_matches_scalar(words):
    data, starts, lengths = pack_words(words)
    seg = segmented_poly_hashes(data, starts, lengths)
    ref = poly_hashes_bytes(words)
    np.testing.assert_array_equal(seg.h1, ref.h1)
    np.testing.assert_array_equal(seg.h2, ref.h2)


def test_segmented_hashes_match_scalar_on_a_full_dictionary_chunk():
    ds = TextDataset(n_chars=1 << 17, chunk_chars=1 << 17, seed=7)
    text = ds.chunk(0).data
    starts, lengths = tokenize(text)
    words = [text[s : s + n].tobytes() for s, n in zip(starts, lengths)]
    seg = segmented_poly_hashes(text, starts, lengths)
    ref = poly_hashes_bytes(words)
    assert len(words) > 10_000
    np.testing.assert_array_equal(seg.h1, ref.h1)
    np.testing.assert_array_equal(seg.h2, ref.h2)


# -- MPH -------------------------------------------------------------------

def test_mph_requires_unique_vocabulary():
    with pytest.raises(ValueError):
        MinimalPerfectHash.build([b"dup", b"dup"])


def test_mph_empty_vocabulary_rejected():
    with pytest.raises(ValueError):
        MinimalPerfectHash.build([])


def test_mph_small_vocab_is_minimal_and_perfect():
    words = [f"word{i}".encode() for i in range(100)]
    mph = MinimalPerfectHash.build(words)
    slots = mph.lookup_words(words)
    assert sorted(slots.tolist()) == list(range(100))


def test_mph_single_word():
    mph = MinimalPerfectHash.build([b"only"])
    assert mph.lookup_words([b"only"])[0] == 0


def test_mph_on_real_dictionary_subset():
    words = list(build_dictionary(5000))
    mph = MinimalPerfectHash.build(words)
    slots = mph.lookup_words(words)
    assert len(np.unique(slots)) == 5000
    assert slots.min() == 0 and slots.max() == 4999


def test_mph_vectorised_lookup_matches_wordwise():
    words = list(build_dictionary(2000))
    mph = MinimalPerfectHash.build(words)
    data, starts, lengths = pack_words(words)
    seg = segmented_poly_hashes(data, starts, lengths)
    np.testing.assert_array_equal(mph.lookup_hashes(seg), mph.lookup_words(words))


def test_mph_table_bytes_reasonable():
    # Paper: "43k integer-integer pairs requires less than 350 kB".
    words = list(build_dictionary(4300))
    mph = MinimalPerfectHash.build(words)
    assert mph.table_bytes <= 4300 * 8


@settings(max_examples=20, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=12), min_size=2, max_size=200))
def test_property_mph_is_bijective_on_vocab(word_set):
    words = sorted(word_set)
    mph = MinimalPerfectHash.build(words)
    slots = mph.lookup_words(words)
    assert sorted(slots.tolist()) == list(range(len(words)))


# -- dictionary ------------------------------------------------------------

def test_dictionary_size_and_uniqueness():
    d = build_dictionary(43_000)
    assert len(d) == 43_000
    assert len(set(d)) == 43_000


def test_dictionary_words_are_clean_ascii():
    for w in build_dictionary(1000):
        assert w.isalpha()
        assert 2 <= len(w) <= 16


def test_dictionary_is_deterministic():
    assert build_dictionary(500) == build_dictionary(500)
