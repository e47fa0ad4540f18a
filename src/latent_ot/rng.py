"""Deterministic pseudo-random streams for reproducible experiments.

Two generators are implemented here directly, so that draws are
bit-reproducible across platforms and numpy versions:

* :class:`Xoshiro256StarStar`, the sequential xoshiro256** generator
  (Blackman & Vigna) seeded through SplitMix64.  Latent points, the
  stability route and the property suite draw from it.
* :func:`pair_uniforms`, a counter-based uniform per index pair (i, j): the
  SplitMix64 output at counter ``(i << 32) | j``, computed over numpy
  ``uint64`` (the counter-based design of Salmon et al., "Parallel random
  numbers: as easy as 1, 2, 3", SC'11).  A pair's draw depends only on
  (seed, i, j), so Bernoulli graphs can be drawn in any order, in blocks,
  or only over the pairs a caller reads.

Every randomized routine in the package takes an :class:`RngSeed`;
independent sub-streams are derived by hashing labels into the seed with
:meth:`RngSeed.derive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Unit scaling for 53-bit mantissa uniforms.
_U53 = 2.0 ** -53


def _splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK64
    return state, z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed value identifying one deterministic stream."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not 0 <= self.value <= _MASK64:
            raise InvalidParameterError(f"seed must be an integer in [0, 2^64): {self.value!r}")

    def derive(self, *parts: int | str) -> "RngSeed":
        """Derive a sub-seed by folding labels into this seed.

        Integer parts are masked to 64 bits, string parts are hashed with
        FNV-1a; each part is mixed in through one SplitMix64 step so
        ``seed.derive("graph", N)`` and ``seed.derive("latents", N)`` give
        unrelated streams.
        """
        state = self.value
        for part in parts:
            if isinstance(part, str):
                folded = _fnv1a64(part)
            elif isinstance(part, (int, np.integer)):
                folded = int(part) & _MASK64
            else:
                raise InvalidParameterError(f"derive parts must be int or str: {part!r}")
            _, state = _splitmix64(state ^ folded)
        return RngSeed(state)


_PAIR_INDEX_LIMIT = 1 << 32


def pair_uniforms(seed: RngSeed, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per index pair of ``rows`` and ``cols`` broadcast
    together, so ``rows[:, None]`` and ``cols[None, :]`` give a whole
    rectangle of pairs from two index vectors.

    Pair (i, j) gets ``(_splitmix64((seed + c * gamma) mod 2^64)[1] >> 11) * 2^-53``
    with ``c = (i << 32) | j``: SplitMix64's output at counter c.  Indices
    must lie in [0, 2^32) so that distinct pairs get distinct counters.
    The hash runs in place on the one uint64 array of counters.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    for name, index in (("rows", rows), ("cols", cols)):
        if index.size and (index.min() < 0 or index.max() >= _PAIR_INDEX_LIMIT):
            raise InvalidParameterError(f"pair {name} must lie in [0, 2^32)")
    z = (rows.astype(np.uint64) << np.uint64(32)) | cols.astype(np.uint64)
    shifted = np.empty_like(z)
    # uint64 array arithmetic wraps modulo 2^64, as the scalar step masks.
    z += np.uint64(1)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(seed.value)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_SPLITMIX_MUL1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_SPLITMIX_MUL2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    uniforms = z.astype(np.float64)
    uniforms *= _U53
    return uniforms


class Xoshiro256StarStar:
    """xoshiro256** stream with SplitMix64 state initialization."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: RngSeed | int):
        if isinstance(seed, RngSeed):
            state = seed.value
        else:
            state = int(seed)
            if not 0 <= state <= _MASK64:
                raise InvalidParameterError(f"seed must lie in [0, 2^64): {seed!r}")
        words = []
        for _ in range(4):
            state, out = _splitmix64(state)
            words.append(out)
        if not any(words):  # all-zero state is the one forbidden fixed point
            words[0] = _SPLITMIX_GAMMA
        self._s0, self._s1, self._s2, self._s3 = words

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        r = (s1 * 5) & _MASK64
        r = (((r << 7) | (r >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return r

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random mantissa bits."""
        return (self.next_uint64() >> 11) * _U53

    def uniforms(self, count: int) -> np.ndarray:
        """A vector of ``count`` uniforms in [0, 1)."""
        if count < 0:
            raise InvalidParameterError(f"count must be nonnegative: {count}")
        out = np.empty(count, dtype=np.float64)
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        for idx in range(count):
            r = (s1 * 5) & _MASK64
            r = (((r << 7) | (r >> 57)) & _MASK64) * 9 & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            out[idx] = (r >> 11) * _U53
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def normals(self, count: int) -> np.ndarray:
        """A vector of ``count`` standard normals via Box-Muller pairs."""
        if count < 0:
            raise InvalidParameterError(f"count must be nonnegative: {count}")
        pairs = (count + 1) // 2
        raw = self.uniforms(2 * pairs)
        # First uniform of each pair is shifted into (0, 1] so log() is finite.
        u1 = 1.0 - raw[0::2]
        u2 = raw[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]
