"""Deterministic pseudo-random streams for reproducible experiments.

One generator family is implemented here directly, so that draws are
bit-reproducible across platforms and numpy versions: the SplitMix64 output
at a 64-bit counter, hashed over numpy ``uint64`` arrays (the counter-based
design of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11; SplitMix64 from Steele, Lea & Flood, OOPSLA'14).  It is read through
two kinds of counter:

* pair counters ``(i << 32) | j`` in :func:`pair_uniforms`, one uniform per
  index pair (i, j).  A pair's draw depends only on (seed, i, j), so
  Bernoulli graphs can be drawn in any order, in blocks, or only over the
  pairs a caller reads.
* sequential counters 0, 1, 2, ... in :class:`CounterStream`, which draws
  latent points, the stability route's costs and the property suite's
  inputs.  Counter c is the pair (c >> 32, c & 0xFFFFFFFF), so a stream is
  row 0 of :func:`pair_uniforms` and runs on past 2^32 without wrapping.

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


def _splitmix64_words(seed: int, counters: np.ndarray) -> np.ndarray:
    """SplitMix64's 64-bit output at each ``uint64`` counter c: the mix of
    state ``(seed + (c + 1) * gamma) mod 2^64``, the (c + 1)-th step of the
    sequential generator seeded with ``seed``.

    The hash runs in place on ``counters`` and returns it.
    """
    z = counters
    shifted = np.empty_like(z)
    # uint64 array arithmetic wraps modulo 2^64.
    z += np.uint64(1)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(seed)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_SPLITMIX_MUL1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_SPLITMIX_MUL2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


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
        FNV-1a; each part is mixed in as SplitMix64's output at counter 0 so
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
            state = int(_splitmix64_words(state ^ folded, np.zeros(1, dtype=np.uint64))[0])
        return RngSeed(state)


_PAIR_INDEX_LIMIT = 1 << 32


def _counter_uniforms(seed: RngSeed, counters: np.ndarray) -> np.ndarray:
    """The top 53 bits of each counter's SplitMix64 output, scaled into [0, 1)."""
    z = _splitmix64_words(seed.value, counters)
    z >>= np.uint64(11)
    uniforms = z.astype(np.float64)
    uniforms *= _U53
    return uniforms


def pair_uniforms(seed: RngSeed, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per index pair of ``rows`` and ``cols`` broadcast
    together, so ``rows[:, None]`` and ``cols[None, :]`` give a whole
    rectangle of pairs from two index vectors.

    Pair (i, j) gets the top 53 bits of SplitMix64's output at counter
    ``c = (i << 32) | j``, scaled by 2^-53.  Indices must lie in [0, 2^32)
    so that distinct pairs get distinct counters.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    for name, index in (("rows", rows), ("cols", cols)):
        if index.size and (index.min() < 0 or index.max() >= _PAIR_INDEX_LIMIT):
            raise InvalidParameterError(f"pair {name} must lie in [0, 2^32)")
    return _counter_uniforms(seed, (rows.astype(np.uint64) << np.uint64(32)) | cols.astype(np.uint64))


class CounterStream:
    """A sequential stream: the SplitMix64 outputs at counters ``offset``,
    ``offset + 1``, ... under one seed.

    Each draw reads the next counters and advances ``offset`` past them, so
    ``uniforms(3)`` then ``uniforms(5)`` equals ``uniforms(8)``.
    """

    __slots__ = ("seed", "offset")

    def __init__(self, seed: RngSeed):
        self.seed = seed
        self.offset = 0

    def _counters(self, count: int) -> np.ndarray:
        if count < 0:
            raise InvalidParameterError(f"count must be nonnegative: {count}")
        counters = np.arange(count, dtype=np.uint64)
        counters += np.uint64(self.offset)
        self.offset += count
        return counters

    def word(self) -> int:
        """The raw 64-bit output at the next counter, e.g. as a child seed."""
        return int(_splitmix64_words(self.seed.value, self._counters(1))[0])

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random mantissa bits."""
        return float(self.uniforms(1)[0])

    def uniforms(self, count: int) -> np.ndarray:
        """A vector of ``count`` uniforms in [0, 1)."""
        return _counter_uniforms(self.seed, self._counters(count))

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


# perfbench/spans.py and its tests still wrap ``uniforms`` under the old
# generator's name; this alias goes once they name CounterStream.
Xoshiro256StarStar = CounterStream
