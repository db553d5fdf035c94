"""Deterministic counter-based random streams built on SplitMix64.

``mix64`` is the SplitMix64 step (advance by the golden-gamma increment,
then the Stafford variant-13 finalizer) from Steele, Lea & Vigna's
splittable-generator construction, also used as the seeding mixer in
several mainstream RNG libraries.  A stream is identified by a 64-bit
key derived from ``(seed, stream_index)``; its i-th draw is
``mix64(key + i * GOLDEN)``, so any draw can be produced independently
of the others (pure counter mode).  Serial and parallel consumers of
the same (seed, index) pair therefore agree bit for bit, which is what
the Monte Carlo driver relies on.

``mix64_chain`` runs the mock model's layer steps on one word, and
``mix64_lanes`` on many at once, as lanes of one integer (SIMD within a register).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U = np.uint64
# mix64's constants as uint64 scalars, built once for the vectorized mixers
_GOLDEN_U, _M1, _M2 = _U(GOLDEN), _U(0xBF58476D1CE4E5B9), _U(0x94D049BB133111EB)
_S27, _S30, _S31 = _U(27), _U(30), _U(31)


def mix64(z: int) -> int:
    """One SplitMix64 step on a Python integer (wraps at 64 bits)."""
    z = (z + GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_finalize(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """mix64 after its ``+GOLDEN`` step, in place on uint64 ``z``; ``t`` is scratch like ``z``."""
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def mix64_chain(keys: Sequence[int], value: int, addend: int) -> int:
    """``value = mix64(value + word + addend)`` for each ``key = (word + GOLDEN) mod 2**64``.

    The add of mix64 is already in the key, and its finalizer is written
    out in the loop in mix64's order, so a step makes no Python call.
    """
    for key in keys:
        z = (value + key + addend) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        value = z ^ (z >> 31)
    return value


LANE_BITS = 128  # a lane's 64-bit word and the 64 zero bits that take its carries


def pack_lanes(words: Iterable[int]) -> int:
    """64-bit words as lanes of one integer: word i in bits [128*i, 128*i + 64)."""
    packed = 0
    for i, word in enumerate(words):
        packed |= word << (LANE_BITS * i)
    return packed


def mix64_lanes(rows: Sequence[int], values: int, addends: int, mask: int) -> int:
    """``mix64_chain`` on each lane of ``pack_lanes`` words at once, bit for bit.

    ``rows[j]`` packs each lane's key for step j (``key * pack_lanes([1] * n)``
    gives every lane the same key) and ``mask`` is ``pack_lanes([2**64 - 1] * n)``,
    the low 64 bits of each 128-bit slot.  No carry leaves a slot: a lane's
    sum is below 3 * 2**64 and each product below 2**128.  The mask after
    each xor-shift is needed for the latter: ``z >> s`` pulls the next lane's
    low s bits into the top of this slot, and an unmasked multiply would
    carry them into the next lane (a version without it gave wrong words).
    """
    for row in rows:
        z = (values + row + addends) & mask
        z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
        values = (z ^ (z >> 31)) & mask
    return values


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized ``mix64`` into a fresh uint64 array (``z`` is never written); bit-identical."""
    z = z + _GOLDEN_U
    return mix64_finalize(z, np.empty_like(z))


def stream_key(seed: int, stream: int = 0) -> int:
    """Derive the 64-bit key of stream ``stream`` under ``seed``."""
    return mix64(mix64(seed & _MASK64) ^ mix64(stream & _MASK64))


def stream_keys(seed: int, n: int, first: int = 0) -> np.ndarray:
    """Keys of streams first..first+n-1, equal elementwise to ``stream_key(seed, i)``."""
    idx = np.arange(first, first + n, dtype=np.uint64)
    base = np.full(n, mix64(seed & _MASK64), dtype=np.uint64)
    return mix64_np(base ^ mix64_np(idx))


def counter_uniforms(key: int | np.ndarray, n: int) -> np.ndarray:
    """Draws 0..n-1 of the stream(s) with the given key(s), as float64 in [0, 1).

    ``key`` may be a scalar or an array of stream keys; an array key of
    shape (m,) yields an (m, n) matrix whose row j is stream j's draws.
    """
    ctr = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN_U
    if np.isscalar(key) or isinstance(key, int):
        words = mix64_np(_U(int(key) & _MASK64) + ctr)
    else:
        words = mix64_np(np.asarray(key, dtype=np.uint64)[:, None] + ctr[None, :])
    return (words >> _U(11)).astype(np.float64) * (2.0 ** -53)


_BLOCK_KEYS = 1 << 12  # stream keys per buffer row
_BLOCK_WORDS = 1 << 15  # words per work buffer: 256 KB of uint64 stays in L2


def counter_hits(keys: np.ndarray, n: int, p: float) -> np.ndarray:
    """Count, per stream key, the draws 0..n-1 that fall below ``p``.

    Equals ``(counter_uniforms(keys, n) < p).sum(axis=1)`` exactly (int64,
    shape (m,)) without the (m, n) matrix.  Blocks are draw-major: a row is
    one draw over a run of cols <= ``_BLOCK_KEYS`` keys, a block is
    j = min(n, 255, _BLOCK_WORDS // cols) rows in reused buffers, mix64 runs
    in place (its ``+GOLDEN`` folded into the counters), and each block's
    hits are summed down its rows in uint8, exact since j <= 255.

    ``u = (w >> 11) * 2**-53`` and scaling by a power of two is exact, so
    ``u < p`` iff ``w >> 11 < T = ceil(p * 2**53)`` iff ``w < T * 2**11``.
    ``T = 2**53`` (p = 1), where every draw hits, is answered up front,
    since ``T * 2**11`` would overflow 64 bits.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    m = keys.shape[0]
    threshold = math.ceil(float(p) * 2.0 ** 53)
    if n == 0 or m == 0 or threshold >= 2 ** 53:  # no draw, no key, or every draw hits
        return np.full(m, n, dtype=np.int64)
    limit = _U(threshold << 11)
    ctr = np.arange(2, n + 2, dtype=np.uint64) * _GOLDEN_U
    cols = min(m, _BLOCK_KEYS)
    rows = min(n, 255, _BLOCK_WORDS // cols)
    z_buf, t_buf = np.empty((2, rows, cols), dtype=np.uint64)
    b_buf = np.empty((rows, cols), dtype=bool)
    hits = np.zeros(m, dtype=np.int64)
    for lo in range(0, m, cols):
        hi = min(lo + cols, m)
        for a in range(0, n, rows):
            e = min(a + rows, n)
            z, t, b = (buf[: e - a, : hi - lo] for buf in (z_buf, t_buf, b_buf))
            np.add(ctr[a:e, None], keys[lo:hi], out=z)
            np.less(mix64_finalize(z, t), limit, out=b)
            hits[lo:hi] += b.view(np.uint8).sum(axis=0, dtype=np.uint8)
    return hits


@dataclass(frozen=True)
class Stream:
    """A reproducible random stream; the key fully determines every draw."""

    key: int

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "Stream":
        return cls(stream_key(seed, stream))

    def uniforms(self, n: int) -> np.ndarray:
        return counter_uniforms(self.key, n)
