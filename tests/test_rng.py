from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedec.rng import (
    _BLOCK_KEYS,
    _BLOCK_WORDS,
    GOLDEN,
    LANE_BITS,
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
    assert np.array_equal(stream_keys(123456789, 40, 24), keys[24:])  # streams 24..63


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


# counter_hits' block edges: a buffer row spans up to W keys, and a block over a full run of
# keys holds J draws (up to 255 over a shorter run)
W = _BLOCK_KEYS
J = _BLOCK_WORDS // _BLOCK_KEYS
EDGE_KEYS = (W - 1, W, W + 1, 2 * W + 1)
EDGE_DRAWS = (0, 1, J - 1, J, J + 1, 255, 256)


def _drawn_ps(u: np.ndarray, drawn: float) -> tuple[float, ...]:
    # the shortcut p = 1, the largest p below it, and a drawn value with its neighbours, which
    # test the strict < at the boundary
    return (0.0, 1.0, float(np.nextafter(1.0, 0.0)), drawn,
            float(np.nextafter(drawn, 0.0)), float(np.nextafter(drawn, 1.0)))


@pytest.mark.parametrize("n", sorted({0, 1, 33, _BLOCK_WORDS + 1, *EDGE_DRAWS}))
def test_counter_hits_equals_float_reference(n: int) -> None:
    # each draw count at key counts around one and two key runs (partial last runs), or, past
    # 256 draws, one key, whose blocks are 255 draws each
    key_counts = EDGE_KEYS if n <= 256 else (1,)
    keys = stream_keys(99, key_counts[-1])
    u = counter_uniforms(keys, n)
    drawn = float(u.flat[u.size // 2]) if u.size else 0.5
    for m in key_counts:
        for p in (2.0 ** -1074, 0.5, 0.6837, *_drawn_ps(u, drawn)):
            hits = counter_hits(keys[:m], n, p)
            assert hits.dtype == np.int64
            assert np.array_equal(hits, (u[:m] < p).sum(axis=1)), (m, p)
    if u.size:
        # the boundary is exercised: p = drawn excludes that draw, its upper neighbour counts it
        above = counter_hits(keys, n, float(np.nextafter(drawn, 1.0))).sum()
        assert above > counter_hits(keys, n, drawn).sum()


def test_counter_hits_does_not_count_a_word_at_the_threshold() -> None:
    # the count compares w < T * 2**11 strictly: a word whose low 11 bits are 0 draws exactly
    # T * 2**-53, so at p equal to that draw it must not count
    keys, n = stream_keys(99, 2 * W + 1), J + 1
    words = mix64_np(keys[:, None] + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN))
    u = counter_uniforms(keys, n)
    at = np.flatnonzero(words % np.uint64(2048) == 0)[:3]
    assert at.size == 3 and np.array_equal(u.flat[at] * 2.0 ** 53, words.flat[at] >> np.uint64(11))
    for p in u.flat[at].tolist():
        assert np.array_equal(counter_hits(keys, n, p), (u < p).sum(axis=1)), p


@st.composite
def hit_cases(draw):
    """(keys, n): key and draw counts on both sides of the block edges, with m * n <= 2**17."""
    m = draw(st.one_of(st.sampled_from((1, *EDGE_KEYS)), st.integers(0, 2 * W + 1)))
    cap = min(600, 2**17 // max(m, 1))
    n = draw(st.one_of(st.sampled_from([n for n in (*EDGE_DRAWS, 257) if n <= cap]),
                       st.integers(0, cap)))
    return stream_keys(draw(st.integers(0, _MASK64)), m), n


@settings(max_examples=150)
@given(case=hit_cases(), data=st.data())
def test_counter_hits_equals_the_counted_uniforms(case, data) -> None:
    keys, n = case
    u = counter_uniforms(keys, n)
    drawn = float(u.flat[data.draw(st.integers(0, u.size - 1))]) if u.size else 0.5
    p = data.draw(st.sampled_from(_drawn_ps(u, drawn)))
    assert np.array_equal(counter_hits(keys, n, p), (u < p).sum(axis=1))


@settings(max_examples=100)
@given(seed=st.integers(0, _MASK64), m=st.integers(0, 2 * W + 1),
       cuts=st.lists(st.integers(0, 2 * W + 1), max_size=4), n=st.sampled_from((0, 1, J, 255)),
       p=st.sampled_from((0.0, 0.6837, float(np.nextafter(1.0, 0.0)), 1.0)))
def test_counter_hits_over_any_split_of_the_keys_equals_one_call(seed, m, cuts, n, p) -> None:
    # monte_carlo's workers each count one contiguous run of trials, keyed from its first trial
    bounds = [0, *sorted(min(c, m) for c in cuts), m]
    runs = [counter_hits(stream_keys(seed, hi - lo, lo), n, p)
            for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(runs), counter_hits(stream_keys(seed, m), n, p))


# a lane word: the extremes, where carries are largest or absent, or any 64-bit word
_WORD = st.one_of(st.sampled_from((0, _MASK64)), st.integers(0, _MASK64))


def unpack_lanes(packed: int, n: int) -> list[int]:
    """The n lane words of ``packed``, inverse to ``pack_lanes`` on words below 2**64."""
    return [(packed >> (LANE_BITS * i)) & _MASK64 for i in range(n)]


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
