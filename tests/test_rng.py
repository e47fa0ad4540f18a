"""Bit-level checks of the seeded generators against a reference written here.

The reference SplitMix64 and xoshiro256** steps below are implemented
independently of the package (straight from the published recurrences) so a
transcription slip in either copy shows up as a mismatch.  The vectorised
pair hash is also checked against the package's scalar SplitMix64 step.
"""

import math

import numpy as np
import pytest

from latent_ot.errors import InvalidParameterError
from latent_ot.rng import RngSeed, Xoshiro256StarStar, _splitmix64, pair_uniforms

MASK = (1 << 64) - 1


def ref_splitmix64_stream(state, count):
    outs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        outs.append(z ^ (z >> 31))
    return state, outs


def ref_rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


class RefXoshiro:
    def __init__(self, seed_value):
        _, words = ref_splitmix64_stream(seed_value, 4)
        if not any(words):
            words[0] = 0x9E3779B97F4A7C15
        self.s = words

    def next(self):
        s = self.s
        result = (ref_rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ref_rotl(s[3], 45)
        return result


def test_uint64_stream_matches_reference():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        ours = Xoshiro256StarStar(RngSeed(seed))
        ref = RefXoshiro(seed)
        for _ in range(200):
            assert ours.next_uint64() == ref.next()


def test_uniform_is_53_bit_mantissa_of_reference():
    ours = Xoshiro256StarStar(RngSeed(7))
    ref = RefXoshiro(7)
    for _ in range(50):
        expected = (ref.next() >> 11) * 2.0**-53
        assert ours.uniform() == expected


def test_uniforms_vector_equals_scalar_draws():
    a = Xoshiro256StarStar(RngSeed(123))
    b = Xoshiro256StarStar(RngSeed(123))
    vec = a.uniforms(64)
    scalars = [b.uniform() for _ in range(64)]
    assert vec.tolist() == scalars


def test_uniforms_in_half_open_unit_interval():
    draws = Xoshiro256StarStar(RngSeed(5)).uniforms(10_000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    # crude moment sanity: mean of U[0,1) over 10k draws
    assert abs(draws.mean() - 0.5) < 0.02


def test_normals_match_box_muller_of_uniform_stream():
    gen = Xoshiro256StarStar(RngSeed(9))
    raw = Xoshiro256StarStar(RngSeed(9)).uniforms(8)
    out = gen.normals(8)
    for k in range(4):
        u1, u2 = 1.0 - raw[2 * k], raw[2 * k + 1]
        r = math.sqrt(-2.0 * math.log(u1))
        assert out[2 * k] == pytest.approx(r * math.cos(2 * math.pi * u2), abs=1e-15)
        assert out[2 * k + 1] == pytest.approx(r * math.sin(2 * math.pi * u2), abs=1e-15)


def test_normals_odd_count_and_moments():
    out = Xoshiro256StarStar(RngSeed(11)).normals(10_001)
    assert out.shape == (10_001,)
    assert abs(out.mean()) < 0.05
    assert abs(out.std() - 1.0) < 0.05


def test_derive_is_order_sensitive_and_label_sensitive():
    base = RngSeed(400)
    assert base.derive("graph", 100) != base.derive("latents", 100)
    assert base.derive("graph", 100) != base.derive(100, "graph")
    assert base.derive("graph", 100) == base.derive("graph", 100)
    # folding one part at a time equals passing the parts together
    assert base.derive("a").derive("b") == base.derive("a", "b")


def test_derive_streams_do_not_collide_in_practice():
    base = RngSeed(0)
    seen = {base.derive("cell", n, s).value for n in range(50) for s in range(50)}
    assert len(seen) == 2500


def test_seed_validation():
    with pytest.raises(InvalidParameterError):
        RngSeed(-1)
    with pytest.raises(InvalidParameterError):
        RngSeed(2**64)
    with pytest.raises(InvalidParameterError):
        RngSeed(1.5)
    with pytest.raises(InvalidParameterError):
        RngSeed(3).derive(2.5)
    with pytest.raises(InvalidParameterError):
        Xoshiro256StarStar(RngSeed(0)).uniforms(-1)


def test_numpy_integer_parts_accepted():
    base = RngSeed(8)
    assert base.derive(np.int64(12)) == base.derive(12)


def test_same_seed_same_stream_fresh_instances():
    a = Xoshiro256StarStar(RngSeed(77)).uniforms(32)
    b = Xoshiro256StarStar(RngSeed(77)).uniforms(32)
    assert np.array_equal(a, b)


def test_pair_uniforms_are_splitmix64_outputs_at_the_pair_counter():
    pairs = [(0, 0), (0, 1), (1, 0), (3, 7), (70_000, 65_537), (2**32 - 1, 2**32 - 1), (12, 2**31)]
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    for seed in (0, 41, 0xDEADBEEF, 2**64 - 1, 2**64 - 3):
        ours = pair_uniforms(RngSeed(seed), rows, cols)
        for k, (i, j) in enumerate(pairs):
            state = (seed + ((i << 32) | j) * 0x9E3779B97F4A7C15) & MASK
            _, scalar = _splitmix64(state)
            _, (reference,) = ref_splitmix64_stream(state, 1)
            assert scalar == reference
            assert ours[k] == (scalar >> 11) * 2.0**-53, (seed, i, j)
        # rows[:, None] against cols[None, :] hashes every (i, j) combination
        grid = pair_uniforms(RngSeed(seed), rows[:, None], cols[None, :])
        assert grid.shape == (len(pairs), len(pairs))
        for a, i in enumerate(rows.tolist()):
            for b, j in enumerate(cols.tolist()):
                _, scalar = _splitmix64((seed + ((i << 32) | j) * 0x9E3779B97F4A7C15) & MASK)
                assert grid[a, b] == (scalar >> 11) * 2.0**-53, (seed, i, j)


def test_pair_uniforms_along_row_zero_replay_the_splitmix64_stream():
    _, outs = ref_splitmix64_stream(2**64 - 2, 6)
    ours = pair_uniforms(RngSeed(2**64 - 2), np.zeros(6, dtype=np.int64), np.arange(6))
    assert ours.tolist() == [(out >> 11) * 2.0**-53 for out in outs]


def test_pair_uniforms_reject_indices_outside_32_bits():
    seed = RngSeed(3)
    for rows, cols in (([0], [2**32]), ([2**32], [0]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(InvalidParameterError):
            pair_uniforms(seed, np.array(rows), np.array(cols))
    assert pair_uniforms(seed, np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)
