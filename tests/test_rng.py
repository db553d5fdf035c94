from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedec.rng import (
    _BLOCK_WORDS,
    GOLDEN,
    Stream,
    counter_hits,
    counter_uniforms,
    mix64,
    mix64_chain,
    mix64_lanes,
    mix64_np,
    pack_lanes,
    stream_key,
    stream_keys,
    unpack_lanes,
)

_MASK64 = (1 << 64) - 1


def test_scalar_and_vector_mixers_agree() -> None:
    # words from 2**64 - GOLDEN up wrap in mix64's leading add
    wrap = 2**64 - GOLDEN
    words = [0, 1, 2, 2**32, 2**63, 2**64 - 1, GOLDEN, wrap - 1, wrap, wrap + 1]
    probes = np.array(words + [int(w) for w in stream_keys(5, 14)], dtype=np.uint64)
    for z in (probes, probes.reshape(4, 6), probes.reshape(4, 6).T):
        before = z.copy()
        vectored = mix64_np(z)
        assert np.array_equal(z, before)  # the argument is never written
        assert vectored.dtype == np.uint64 and vectored.shape == z.shape
        assert vectored.ravel().tolist() == [mix64(int(x)) for x in z.flat]


def test_stream_keys_match_scalar_derivation() -> None:
    keys = stream_keys(123456789, 64)
    for i in range(64):
        assert int(keys[i]) == stream_key(123456789, i)


def test_uniforms_are_deterministic_and_in_range() -> None:
    a = Stream.from_seed(7).uniforms(1000)
    b = Stream.from_seed(7).uniforms(1000)
    assert np.array_equal(a, b)
    assert float(a.min()) >= 0.0
    assert float(a.max()) < 1.0


def test_distinct_streams_disagree() -> None:
    a = Stream.from_seed(7, 0).uniforms(100)
    b = Stream.from_seed(7, 1).uniforms(100)
    c = Stream.from_seed(8, 0).uniforms(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_matrix_draws_equal_per_stream_draws() -> None:
    keys = stream_keys(42, 16)
    matrix = counter_uniforms(keys, 33)
    for i in range(16):
        row = Stream(int(keys[i])).uniforms(33)
        assert np.array_equal(matrix[i], row)


def test_uniforms_look_uniform() -> None:
    u = Stream.from_seed(2024).uniforms(200_000)
    # mean of U(0,1): sigma = 1/sqrt(12n)
    assert abs(float(u.mean()) - 0.5) < 4 / np.sqrt(12 * 200_000)


@pytest.mark.parametrize("n", [0, 1, 33, _BLOCK_WORDS + 1])
def test_counter_hits_equals_float_reference(n: int) -> None:
    # 2 blocks and one extra key, so the last block is partial
    keys = stream_keys(99, 2 * max(1, _BLOCK_WORDS // max(n, 1)) + 1)
    u = counter_uniforms(keys, n)
    drawn = float(u.flat[u.size // 2]) if u.size else 0.5
    # a drawn value and its neighbours test the strict < at the boundary
    for p in (0.0, 1.0, 2.0 ** -1074, 0.5, 0.6837, drawn,
              float(np.nextafter(drawn, 0.0)), float(np.nextafter(drawn, 1.0))):
        hits = counter_hits(keys, n, p)
        assert hits.dtype == np.int64
        assert np.array_equal(hits, (u < p).sum(axis=1)), p
    if u.size:
        # the boundary is exercised: p = drawn excludes that draw, its upper neighbour counts it
        above = counter_hits(keys, n, float(np.nextafter(drawn, 1.0))).sum()
        assert above > counter_hits(keys, n, drawn).sum()


# a lane word: the extremes, where carries are largest or absent, or any 64-bit word
_WORD = st.one_of(st.sampled_from((0, _MASK64)), st.integers(0, _MASK64))


@st.composite
def lane_cases(draw):
    """(keys, values, addends): keys[j][i] is lane i's key at step j, 1-8 lanes, 0-40 steps."""
    n = draw(st.integers(1, 8))
    words = st.lists(_WORD, min_size=n, max_size=n)
    return draw(st.lists(words, max_size=40)), draw(words), draw(words)


_ONES = [_MASK64] * 8
_SHARED = [[key] * 3 for key in (GOLDEN, 0, _MASK64, 12345)]  # one key per step in every lane


@settings(max_examples=200)
@example(case=([_ONES] * 40, _ONES, _ONES))
@example(case=([], [0, 1, _MASK64], [_MASK64, 7, 0]))
@example(case=(_SHARED, [1, 2, 3], [1, 2, 3]))
@given(case=lane_cases())
def test_lanes_equal_per_lane_chains(case) -> None:
    keys, values, addends = case
    n = len(values)
    packed = mix64_lanes([pack_lanes(row) for row in keys], pack_lanes(values),
                         pack_lanes(addends), pack_lanes([_MASK64] * n))
    lanes = unpack_lanes(packed, n)
    # no bit outside the n lane words is set
    assert packed == pack_lanes(lanes)
    assert lanes == [mix64_chain([row[i] for row in keys], values[i], addends[i])
                     for i in range(n)]
