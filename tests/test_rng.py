"""Bit-level checks of the seeded generators against a reference written here.

The reference SplitMix64 stream below is implemented independently of the
package (straight from the published recurrence) so a transcription slip in
either copy shows up as a mismatch.
"""

import math

import numpy as np
import pytest

from latent_ot.errors import InvalidParameterError
from latent_ot.rng import CounterStream, RngSeed, pair_uniforms

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


def ref_uniform(word):
    return (word >> 11) * 2.0**-53


def test_stream_matches_the_splitmix64_reference_from_offset_zero():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        _, outs = ref_splitmix64_stream(seed, 201)
        stream = CounterStream(RngSeed(seed))
        assert stream.uniforms(200).tolist() == [ref_uniform(out) for out in outs[:200]]
        # the raw word is the same hash at the next counter
        assert stream.word() == outs[200]
        assert stream.offset == 201


def test_stream_runs_on_across_the_32_bit_counter_carry():
    start = 2**32 - 3
    for seed in (0, 7, 2**64 - 2):
        state = (seed + start * 0x9E3779B97F4A7C15) & MASK
        _, outs = ref_splitmix64_stream(state, 7)
        stream = CounterStream(RngSeed(seed))
        stream.offset = start
        assert stream.uniforms(7).tolist() == [ref_uniform(out) for out in outs], seed


def test_split_draws_continue_the_stream():
    whole = CounterStream(RngSeed(19)).uniforms(8)
    split = CounterStream(RngSeed(19))
    assert np.concatenate([split.uniforms(3), split.uniforms(5)]).tolist() == whole.tolist()


def test_uniforms_vector_equals_scalar_draws():
    a = CounterStream(RngSeed(123))
    b = CounterStream(RngSeed(123))
    vec = a.uniforms(64)
    scalars = [b.uniform() for _ in range(64)]
    assert vec.tolist() == scalars


def test_uniforms_in_half_open_unit_interval():
    draws = CounterStream(RngSeed(5)).uniforms(10_000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    # crude moment sanity: mean of U[0,1) over 10k draws
    assert abs(draws.mean() - 0.5) < 0.02


def test_normals_match_box_muller_of_uniform_stream():
    gen = CounterStream(RngSeed(9))
    raw = CounterStream(RngSeed(9)).uniforms(8)
    out = gen.normals(8)
    for k in range(4):
        u1, u2 = 1.0 - raw[2 * k], raw[2 * k + 1]
        r = math.sqrt(-2.0 * math.log(u1))
        assert out[2 * k] == pytest.approx(r * math.cos(2 * math.pi * u2), abs=1e-15)
        assert out[2 * k + 1] == pytest.approx(r * math.sin(2 * math.pi * u2), abs=1e-15)


def test_normals_odd_count_and_moments():
    out = CounterStream(RngSeed(11)).normals(10_001)
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
    # an integer part is folded in as SplitMix64's first output from seed ^ part
    _, (first,) = ref_splitmix64_stream(400 ^ 100, 1)
    assert base.derive(100) == RngSeed(first)


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
        CounterStream(RngSeed(0)).uniforms(-1)


def test_numpy_integer_parts_accepted():
    base = RngSeed(8)
    assert base.derive(np.int64(12)) == base.derive(12)


def test_same_seed_same_stream_fresh_instances():
    a = CounterStream(RngSeed(77)).uniforms(32)
    b = CounterStream(RngSeed(77)).uniforms(32)
    assert np.array_equal(a, b)


def test_pair_uniforms_are_splitmix64_outputs_at_the_pair_counter():
    pairs = [(0, 0), (0, 1), (1, 0), (3, 7), (70_000, 65_537), (2**32 - 1, 2**32 - 1), (12, 2**31)]
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    for seed in (0, 41, 0xDEADBEEF, 2**64 - 1, 2**64 - 3):
        ours = pair_uniforms(RngSeed(seed), rows, cols)
        for k, (i, j) in enumerate(pairs):
            state = (seed + ((i << 32) | j) * 0x9E3779B97F4A7C15) & MASK
            _, (reference,) = ref_splitmix64_stream(state, 1)
            assert ours[k] == ref_uniform(reference), (seed, i, j)
        # rows[:, None] against cols[None, :] hashes every (i, j) combination
        grid = pair_uniforms(RngSeed(seed), rows[:, None], cols[None, :])
        assert grid.shape == (len(pairs), len(pairs))
        for a, i in enumerate(rows.tolist()):
            for b, j in enumerate(cols.tolist()):
                _, (reference,) = ref_splitmix64_stream((seed + ((i << 32) | j) * 0x9E3779B97F4A7C15) & MASK, 1)
                assert grid[a, b] == ref_uniform(reference), (seed, i, j)


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
