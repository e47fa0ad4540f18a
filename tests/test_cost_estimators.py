"""Cost-estimator tests.

Hop counts are checked against an in-test queue BFS, the spectral
estimator against exact low-rank inputs where thresholding is lossless and
against a dense eigh oracle, and the adjacency route against hand-built
graphs.
"""

import collections
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import latent_ot
import latent_ot.cost_estimators as cost_estimators
from latent_ot.cost_estimators import (
    CostMap,
    UsvtEstimate,
    UsvtParams,
    cost_from_distances,
    fast_kernel_block,
    geodesic_estimate,
    hop_counts,
    usvt,
)
from latent_ot.errors import InvalidParameterError, NumericFailureError, TargetsDisconnectedError
from latent_ot.latent_models import (
    Circle,
    Density,
    GaussianPowerKernel,
    Graph,
    LatentConfiguration,
    NonlocalKernel,
    Sphere,
    eps_graph,
    h_schedule,
    sample_kernel_graph,
    sample_latents,
)
from latent_ot.rng import CounterStream, RngSeed


def bfs_oracle(graph, source):
    """Plain queue BFS, independent of the library's frontier version."""
    dist = [math.inf] * graph.node_count
    dist[source] = 0
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    queue = collections.deque([source])
    while queue:
        v = queue.popleft()
        for w in indices[indptr[v] : indptr[v + 1]]:
            w = int(w)
            if dist[w] == math.inf:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# Cost maps
# ---------------------------------------------------------------------------


def test_identity_map():
    cm = CostMap.identity(2.0)
    assert tuple(cm.breakpoints) == (0.0, 2.0)
    assert cm.cost_range == (0.0, 2.0)
    assert cm.lipschitz_constant == 1.0
    inputs = np.array([-1.0, 0.5, 3.0])
    assert np.array_equal(cm.apply(inputs), np.array([0.0, 0.5, 2.0]))
    with pytest.raises(InvalidParameterError):
        CostMap.identity(0.0)


def test_one_minus_map():
    cm = CostMap.one_minus()
    assert np.allclose(cm.apply(np.array([0.0, 0.25, 1.0])), [1.0, 0.75, 0.0])
    assert cm.cost_range == (0.0, 1.0)
    assert cm.lipschitz_constant == 1.0


def test_piecewise_map_interpolates():
    cm = CostMap([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
    assert cm.apply(np.array([0.5]))[0] == pytest.approx(1.0)
    assert cm.apply(np.array([2.0]))[0] == pytest.approx(2.5)
    assert cm.lipschitz_constant == 2.0


def test_cost_map_validation():
    with pytest.raises(InvalidParameterError):
        CostMap([0.0, 1.0], [0.0])
    with pytest.raises(InvalidParameterError):
        CostMap([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        CostMap([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
    with pytest.raises(InvalidParameterError):
        CostMap([0.0, 1.0], [-1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        CostMap([0.0, np.inf], [0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        CostMap([0.0], [0.0])
    # descending tables are allowed
    CostMap([0.0, 1.0, 2.0], [3.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Shortest-path route
# ---------------------------------------------------------------------------


def test_hop_counts_on_a_path_graph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    hops = hop_counts(g, sources=[0, 1], targets=[3, 4])
    assert np.array_equal(hops, np.array([[3, 4], [2, 3]]))


def test_hop_counts_marks_unreachable_pairs():
    g = Graph.from_edges(4, [(0, 1)])
    hops = hop_counts(g, sources=[0], targets=[2, 3])
    assert np.array_equal(hops, np.array([[math.inf, math.inf]]))


def _two_jittered_arcs(seed: RngSeed) -> LatentConfiguration:
    """Points on the unit circle along two far-apart arcs, 0.05 rad apart with
    at most 0.005 rad of jitter.  Within h = 0.07 lie exactly the arc
    neighbours, so each arc is a path.  The sources are drawn from the first
    20 points of the long arc; four targets end that arc, at least 17 hops
    away, and four lie on the short arc, out of reach."""
    rng = CounterStream(seed)
    long_arc = 0.05 * np.arange(40) + 0.005 * (2.0 * rng.uniforms(40) - 1.0)
    short_arc = math.pi + 0.05 * np.arange(20) + 0.005 * (2.0 * rng.uniforms(20) - 1.0)
    order = np.argsort(rng.uniforms(20), kind="stable")
    sources, spare = long_arc[order[:8]], long_arc[order[8:]]
    targets = np.concatenate([long_arc[36:], short_arc[:4]])
    rest = np.concatenate([spare, long_arc[20:36], short_arc[4:]])

    def on_circle(angles):
        return np.column_stack([np.cos(angles), np.sin(angles)])

    return LatentConfiguration(
        xs=on_circle(sources), ys=on_circle(targets), zs=on_circle(rest), manifold=Circle()
    )


def _paths_and_an_isolated_node() -> Graph:
    """Three paths, listed out of order, over nodes 0..11; node 8 has no neighbours."""
    edges = []
    for path in ([0, 5, 9, 2], [1, 7, 3, 11, 4], [6, 10]):
        edges += zip(path[:-1], path[1:])
    return Graph.from_edges(12, edges[::-1])


def test_hop_counts_matches_queue_bfs_on_random_graphs():
    cases = (
        (eps_graph(sample_latents(Sphere(), Density(), 8, 8, 40, RngSeed(100)), h=0.8), range(8), range(8, 16)),
        (eps_graph(_two_jittered_arcs(RngSeed(101)), h=0.07), range(8), range(8, 16)),
        (_paths_and_an_isolated_node(), [8, 0, 1, 6], [2, 3, 4, 5, 7, 9, 10, 11]),
        # n != m
        (eps_graph(sample_latents(Sphere(), Density(), 3, 11, 60, RngSeed(102)), h=0.6), range(3), range(3, 14)),
    )
    matrices = []
    for case, (g, sources, targets) in enumerate(cases):
        hops = hop_counts(g, sources, targets)
        assert hops.shape == (len(sources), len(targets))
        for row, s in enumerate(sources):
            reference = bfs_oracle(g, s)
            for col, t in enumerate(targets):
                assert hops[row, col] == reference[t], (case, s, t)
        matrices.append(hops)
    # the second graph leaves some pairs unreachable and joins others by long paths
    assert 0 < np.count_nonzero(matrices[1] == math.inf) < matrices[1].size
    assert matrices[1][np.isfinite(matrices[1])].max() > 5
    # the isolated source reaches nothing; the others reach their own path
    assert np.all(matrices[2][0] == math.inf)
    assert matrices[2][1].tolist() == [3, math.inf, math.inf, 1, math.inf, 2, math.inf, math.inf]


def test_hop_counts_are_symmetric_with_unreachable_pairs():
    g = _paths_and_an_isolated_node()
    sources, targets = [8, 0, 1, 6], [2, 3, 4, 5, 7, 9, 10, 11]
    forward = hop_counts(g, sources, targets)
    assert np.isinf(forward).any()
    assert np.array_equal(forward, hop_counts(g, targets, sources).T)


def test_hop_counts_matches_scipy_shortest_paths_on_a_large_sphere_graph():
    total = 2000
    g = eps_graph(sample_latents(Sphere(), Density(), 8, 8, total, RngSeed(103)), h_schedule(total, 2, 2.0))
    sources, targets = range(8), range(8, total)
    hops = hop_counts(g, sources, targets)
    reference = shortest_path(g.adjacency, unweighted=True, indices=list(sources))[:, targets]
    assert np.all(np.isfinite(reference))
    assert np.array_equal(hops, reference)
    assert hops.max() > 5


def test_hop_counts_validation():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidParameterError):
        hop_counts(g, [], [1])
    with pytest.raises(InvalidParameterError):
        hop_counts(g, [0], [4])
    with pytest.raises(InvalidParameterError):
        hop_counts(g, [0, 1], [1, 2])
    with pytest.raises(InvalidParameterError):
        hop_counts(g, [0, 0], [1])


def test_geodesic_estimate_scales_by_radius():
    hops = np.array([[2.0, 3.0], [1.0, 0.0]])
    assert np.allclose(geodesic_estimate(hops, 0.25), np.array([[0.5, 0.75], [0.25, 0.0]]))
    with pytest.raises(InvalidParameterError):
        geodesic_estimate(hops, 0.0)


def test_geodesic_estimate_raises_on_disconnection():
    hops = np.array([[1.0, math.inf], [2.0, 2.0]])
    with pytest.raises(TargetsDisconnectedError) as info:
        geodesic_estimate(hops, 0.5)
    assert info.value.source_index == 0
    assert info.value.target_index == 1


def test_cost_from_distances_applies_the_map():
    dhat = np.array([[0.2, 0.6], [1.4, 0.0]])
    cost = cost_from_distances(dhat, CostMap.identity(1.0))
    assert np.allclose(cost.entries, np.array([[0.2, 0.6], [1.0, 0.0]]))
    assert cost.c_min == 0.0 and cost.c_max == 1.0


# np.interp is the oracle of the maps applied in place.  The general
# two-point map is one where slope * (x1 - x0) + y0 misses y1, so its entries
# at and above x1 are set to y1; usvt_paths' three-point map goes through
# np.interp itself.
_ORACLE_MAPS = {
    "identity": CostMap.identity(math.pi),
    "one_minus": CostMap.one_minus(),
    "two_point": CostMap(np.array([0.3, 1.7]), np.array([2.5, 0.1])),
    "usvt_paths": CostMap(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.3, 0.0])),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MAPS))
def test_cost_maps_applied_in_place_match_np_interp(name):
    cost_map = _ORACLE_MAPS[name]
    breakpoints, values = cost_map.breakpoints, cost_map.values
    lo, hi = breakpoints[0], breakpoints[-1]
    inputs = np.concatenate([
        CounterStream(RngSeed(11)).uniforms(100_000) * (hi - lo) + lo,
        breakpoints,
        np.nextafter(breakpoints, -np.inf),
        np.nextafter(breakpoints, np.inf),
        [lo - 1.0, hi + 1.0, -np.inf, np.inf, 0.0, -0.0, 1e-300, 5e-324],
    ])
    expected = np.interp(inputs, breakpoints, values)
    assert np.array_equal(cost_map.apply(inputs), expected)
    buffer = inputs.copy()
    assert cost_map.apply_in_place(buffer) is buffer
    assert np.array_equal(buffer, expected)
    if name == "two_point":
        (x0, x1), (y0, y1) = breakpoints, values
        assert (y1 - y0) / (x1 - x0) * (x1 - x0) + y0 != y1


def test_cost_from_distances_maps_a_fresh_array_in_its_own_buffer():
    cost_map = CostMap.one_minus()
    fresh = CounterStream(RngSeed(12)).uniforms(12).reshape(3, 4).copy()
    expected = np.interp(fresh, cost_map.breakpoints, cost_map.values)
    cost = cost_from_distances(fresh, cost_map)
    assert cost.entries is fresh
    assert np.array_equal(cost.entries, expected)
    assert not fresh.flags.writeable
    # A view, a read-only array and a float32 array are copied and left as
    # they were.
    base = CounterStream(RngSeed(13)).uniforms(24).reshape(4, 6)
    readonly = base.copy()
    readonly.setflags(write=False)
    for dhat in (base[:, ::2], readonly, base.astype(np.float32)):
        before = dhat.copy()
        cost = cost_from_distances(dhat, cost_map)
        assert not np.shares_memory(cost.entries, dhat)
        assert np.array_equal(dhat, before)
        assert dhat.dtype == before.dtype
        assert np.array_equal(cost.entries, np.interp(np.asarray(dhat, np.float64), (0.0, 1.0), (1.0, 0.0)))
    assert base.flags.writeable


def test_forming_a_usvt_cost_adds_no_n_by_m_array():
    # The bench's usvt_dense cross block: n = 533, m = 1067.  The cost map
    # writes 1 - w into the block's own buffer; a map into a new array
    # would allocate one more n x m array.
    n, total = 533, 1600
    stream = CounterStream(RngSeed(14))
    vectors = stream.uniforms(total * 3).reshape(total, 3) / math.sqrt(total)
    estimate = UsvtEstimate(np.array([900.0, 500.0, 200.0]), vectors, UsvtParams(1.0, 1.0))
    block = estimate.block(slice(0, n), slice(n, total))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cost = cost_from_distances(block, CostMap.one_minus())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    array = block.size * 8
    assert peak - start <= 0.25 * array, f"forming the cost allocated {(peak - start) / array:.2f} n x m arrays"
    assert cost.entries is block


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------


ALL = slice(None)


def test_usvt_recovers_exact_rank_one_kernel():
    v = np.array([0.9, 0.6, 0.3, 0.8])
    w = np.outer(v, v)
    params = UsvtParams(gamma=0.1, rho=1.0)
    assert np.allclose(usvt(w, params).block(ALL, ALL), w, atol=1e-10)


def test_usvt_rescales_by_rho_on_noiseless_input():
    v = np.array([0.9, 0.6, 0.3])
    w = np.outer(v, v)
    rho = 0.5
    estimate = usvt(rho * w, UsvtParams(gamma=0.1, rho=rho)).block(ALL, ALL)
    assert np.allclose(estimate, w, atol=1e-10)


def test_usvt_threshold_drops_small_spectra():
    v = np.array([0.9, 0.6, 0.3])
    w = np.outer(v, v)
    # eigenvalue is ||v||^2 = 1.26 < gamma * sqrt(N) for gamma = 2
    estimate = usvt(w, UsvtParams(gamma=2.0, rho=1.0)).block(ALL, ALL)
    assert np.array_equal(estimate, np.zeros((3, 3)))


def test_usvt_clamps_into_the_kernel_range():
    mat = np.array([[0.0, 3.0], [3.0, 0.0]])
    estimate = usvt(mat, UsvtParams(gamma=0.1, rho=1.0)).block(ALL, ALL)
    assert np.array_equal(estimate, np.ones((2, 2)))
    tighter = usvt(mat, UsvtParams(gamma=0.1, rho=1.0, clamp_range=(0.0, 0.8))).block(ALL, ALL)
    assert np.array_equal(tighter, np.full((2, 2), 0.8))


def test_usvt_graph_and_dense_inputs_agree():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
    params = UsvtParams(gamma=0.3, rho=1.0)
    from_graph, from_dense = usvt(g, params), usvt(g.adjacency.toarray(), params)
    assert np.array_equal(from_graph.values, from_dense.values)
    assert np.array_equal(from_graph.block(ALL, ALL), from_dense.block(ALL, ALL))


def test_usvt_validation():
    with pytest.raises(InvalidParameterError):
        usvt(np.array([[1.0]]), UsvtParams(gamma=0.1, rho=1.0))
    with pytest.raises(InvalidParameterError):
        usvt(np.ones((2, 3)), UsvtParams(gamma=0.1, rho=1.0))
    with pytest.raises(InvalidParameterError):
        usvt(np.array([[0.0, 1.0], [0.5, 0.0]]), UsvtParams(gamma=0.1, rho=1.0))
    with pytest.raises(InvalidParameterError):
        UsvtParams(gamma=0.0, rho=1.0)
    with pytest.raises(InvalidParameterError):
        UsvtParams(gamma=0.1, rho=0.0)
    with pytest.raises(InvalidParameterError):
        UsvtParams(gamma=0.1, rho=1.5)
    with pytest.raises(InvalidParameterError):
        UsvtParams(gamma=0.1, rho=1.0, clamp_range=(0.5, 0.2))
    with pytest.raises(InvalidParameterError):
        UsvtParams(gamma=0.1, rho=1.0, clamp_range=(0.0, 1.5))


def _dense_usvt_oracle(matrix: np.ndarray, params: UsvtParams) -> tuple[int, np.ndarray]:
    """Rank and full matrix of the estimate, from numpy's dense eigh."""
    values, vectors = np.linalg.eigh(matrix)
    keep = values >= params.gamma * math.sqrt(params.rho * matrix.shape[0])
    raw = (vectors[:, keep] * values[keep]) @ vectors[:, keep].T / params.rho
    return int(keep.sum()), np.clip(raw, *params.clamp_range)


@pytest.mark.parametrize("size", [2, 3, 6, 40, 300])
def test_usvt_matches_a_dense_eigh_oracle(size):
    rng = CounterStream(RngSeed(size))
    raw = rng.uniforms(size * size).reshape(size, size)
    kernel = 0.5 * (raw + raw.T)
    # A positive spectrum, so that some threshold keeps every eigenpair.
    kernel += (1.0 - np.linalg.eigvalsh(kernel)[0]) * np.eye(size)
    rho = 0.7
    observed = rho * kernel
    values = np.linalg.eigvalsh(observed)[::-1]
    some = max(1, size // 3)
    cases = {
        0: values[0] + 1.0,
        some: 0.5 * (values[some - 1] + values[some]),
        size: 0.5 * values[-1],
    }
    lowest = usvt(observed, UsvtParams(gamma=cases[size] / math.sqrt(rho * size), rho=rho))
    for kept, threshold in cases.items():
        params = UsvtParams(gamma=threshold / math.sqrt(rho * size), rho=rho)
        rank, expected = _dense_usvt_oracle(observed, params)
        assert rank == kept
        for estimate in (usvt(observed, params), lowest.at_gamma(params.gamma)):
            assert estimate.rank == kept
            assert np.all(np.diff(estimate.values) <= 0)
            assert np.abs(estimate.block(ALL, ALL) - expected).max() <= 1e-10
            rows, cols = slice(0, size // 2), slice(size // 2, size)
            assert np.abs(estimate.block(rows, cols) - expected[rows, cols]).max() <= 1e-10
    with pytest.raises(InvalidParameterError):
        usvt(observed, UsvtParams(gamma=1.0, rho=rho)).at_gamma(0.5)


def test_usvt_repeats_its_bits_when_arpack_restarts():
    # A rank-one matrix exhausts the Krylov space after one step, so ARPACK
    # draws restart vectors; they must not change from call to call.
    v = np.array([0.9, 0.6, 0.3, 0.8, 0.5, 0.7, 0.2, 0.4])
    params = UsvtParams(gamma=1e-6, rho=1.0)
    first, second = usvt(np.outer(v, v), params), usvt(np.outer(v, v), params)
    assert first.rank == 1
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def _with_spectrum(values: np.ndarray, seed: int) -> np.ndarray:
    """A symmetric matrix with the given eigenvalues in a random orthonormal basis."""
    size = values.size
    basis, _ = np.linalg.qr(CounterStream(RngSeed(seed)).normals(size * size).reshape(size, size))
    matrix = (basis * values) @ basis.T
    return 0.5 * (matrix + matrix.T)


class _CountingMatrix:
    """A CSR matrix that counts its matvecs."""

    def __init__(self, matrix: csr_array):
        self.matrix, self.shape, self.data, self.matvecs = matrix, matrix.shape, matrix.data, 0

    def __matmul__(self, vector):
        self.matvecs += 1
        return self.matrix @ vector


def _probe_and_oracle(matrix: np.ndarray, threshold: float) -> tuple[int, int]:
    """The Lanczos probe's count at ``threshold`` and the dense eigvalsh count."""
    start = np.cos(np.arange(matrix.shape[0], dtype=np.float64))
    probed = cost_estimators._probe_rank(csr_array(matrix), start, threshold)
    return probed, int(np.count_nonzero(np.linalg.eigvalsh(matrix) >= threshold))


@pytest.mark.parametrize("split", [0.0, 0.02])
def test_usvt_probe_never_overcounts_clustered_spectra(split):
    # Clusters of multiplicity 1, 3, 5 and 7, as the spherical harmonics of
    # degree 0-3 give on the sphere, exactly repeated or split by up to
    # `split`, over a bulk in [-2, 2].  Thresholds fall between clusters,
    # through the cluster at 6 and exactly on its centre.
    clusters = [value + split * np.linspace(-1.0, 1.0, size) for value, size in ((12, 1), (9, 3), (6, 5), (4, 7))]
    bulk = 4.0 * CounterStream(RngSeed(1)).uniforms(44) - 2.0
    matrix = _with_spectrum(np.concatenate([*clusters, bulk]), seed=2)
    for threshold in (13.0, 10.0, 7.5, 6.0 + 0.5 * split, 6.0, 5.0, 4.0, 3.0, 2.5):
        probed, oracle = _probe_and_oracle(matrix, threshold)
        assert probed <= oracle
    assert _probe_and_oracle(matrix, 10.0) == (1, 1)
    # Above the spectrum the count never grows, so the stall rule ends the run.
    counting = _CountingMatrix(csr_array(matrix))
    assert cost_estimators._probe_rank(counting, np.cos(np.arange(60.0)), 13.0) == 0
    assert counting.matvecs == cost_estimators._PROBE_STALL


def test_usvt_probe_stops_at_the_breakdown_of_a_rank_one_matrix():
    v = np.array([0.9, 0.6, 0.3, 0.8, 0.5, 0.7, 0.2, 0.4])
    matrix = np.outer(v, v)
    # The second Lanczos vector completes an invariant space.
    counting = _CountingMatrix(csr_array(matrix))
    assert cost_estimators._probe_rank(counting, np.cos(np.arange(8.0)), 0.5 * v @ v) == 1
    assert counting.matvecs == 2
    assert _probe_and_oracle(matrix, 0.5 * v @ v) == (1, 1)
    assert _probe_and_oracle(matrix, 1e-6) == (1, 1)
    # On the eigenvalue itself the margin drops it: a lower bound still.
    assert _probe_and_oracle(matrix, float(v @ v))[0] <= 1
    assert _probe_and_oracle(matrix, 1.1 * v @ v) == (0, 0)


@pytest.mark.parametrize("size", [2, 3, 6])
def test_usvt_probe_on_tiny_matrices(size):
    raw = CounterStream(RngSeed(size)).uniforms(size * size).reshape(size, size)
    matrix = 0.5 * (raw + raw.T)
    values = np.linalg.eigvalsh(matrix)
    # On eigenvalues a lower bound; between them, with the whole space
    # spanned in `size` steps, the exact count.
    for threshold in values:
        probed, oracle = _probe_and_oracle(matrix, float(threshold))
        assert probed <= oracle
    for threshold in [values[0] - 1.0, *(0.5 * (values[1:] + values[:-1])), values[-1] + 1.0]:
        probed, oracle = _probe_and_oracle(matrix, float(threshold))
        assert probed == oracle


@pytest.mark.parametrize(("total", "sigma", "gamma"), [(240, 0.5, 0.5), (300, 0.4, 0.8)])
def test_usvt_takes_one_arpack_call_when_the_probe_sees_the_rank(monkeypatch, total, sigma, gamma):
    # Without the probe, k = 6 comes first, and at rank 6-11 all six of its
    # eigenvalues pass the threshold, so a second call at k = 12 follows.
    calls, real_eigsh = [], cost_estimators.eigsh

    def counting_eigsh(matrix, k, **kwargs):
        calls.append(k)
        return real_eigsh(matrix, k, **kwargs)

    monkeypatch.setattr(cost_estimators, "eigsh", counting_eigsh)
    latents = sample_latents(Sphere(), Density(), total // 3, total - total // 3, total, RngSeed(40))
    graph = sample_kernel_graph(latents, NonlocalKernel(rho=1.0, form=GaussianPowerKernel(sigma=sigma)), RngSeed(50))
    estimate = usvt(graph, UsvtParams(gamma=gamma, rho=1.0))
    assert 6 <= estimate.rank <= 11
    assert calls == [12]


def test_usvt_reports_arpack_non_convergence(monkeypatch):
    # Non-convergence and any other ARPACK error (3: no shifts could be
    # applied) are numeric failures, not tracebacks.
    for failure in (ArpackNoConvergence("no convergence", np.empty(0), np.empty((6, 0))), ArpackError(3)):

        def failing_eigsh(*args, failure=failure, **kwargs):
            raise failure

        monkeypatch.setattr(cost_estimators, "eigsh", failing_eigsh)
        with pytest.raises(NumericFailureError):
            usvt(np.ones((6, 6)), UsvtParams(gamma=0.1, rho=1.0))


def test_usvt_retries_a_failed_arpack_call_once_with_more_lanczos_vectors(monkeypatch):
    # A plain ArpackError is retried at the same k with ncv = min(N, 2 (2k + 1));
    # non-convergence is not retried.
    calls, real_eigsh = [], cost_estimators.eigsh

    def failing_first_eigsh(matrix, k, **kwargs):
        calls.append((k, kwargs.get("ncv")))
        if len(calls) == 1:
            raise failure
        return real_eigsh(matrix, k, **kwargs)

    monkeypatch.setattr(cost_estimators, "eigsh", failing_first_eigsh)
    adjacency = np.ones((30, 30)) - np.eye(30)
    failure = ArpackError(3)
    assert usvt(adjacency, UsvtParams(gamma=1.0, rho=1.0)).rank == 1
    assert calls == [(6, None), (6, 26)]
    calls.clear()
    failure = ArpackNoConvergence("no convergence", np.empty(0), np.empty((30, 0)))
    with pytest.raises(NumericFailureError):
        usvt(adjacency, UsvtParams(gamma=1.0, rho=1.0))
    assert calls == [(6, None)]


def test_usvt_of_a_graph_with_no_edge_has_rank_zero():
    # ARPACK cannot start from the zero vector that A v is for every v.
    params = UsvtParams(gamma=1.0, rho=0.05, clamp_range=(0.0, 1.0))
    for estimate in (usvt(Graph.from_edges(12, []), params), usvt(np.zeros((12, 12)), params)):
        assert estimate.rank == 0
        assert estimate.vectors.shape == (12, 0)
        assert np.array_equal(estimate.block(slice(0, 5), slice(5, 12)), np.zeros((5, 7)))


# A script's own peak RSS.  Not ru_maxrss: Linux carries a parent's peak
# across fork and exec, so a script started from a pytest process that has
# run large cells in-process would read that process's peak instead.
_PEAK_KB = """
def peak_kb():
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

_USVT_RSS_SCRIPT = _PEAK_KB + """
import json
from latent_ot.cost_estimators import UsvtParams, usvt
from latent_ot.latent_models import (
    Density, GaussianPowerKernel, NonlocalKernel, Sphere, sample_kernel_graph, sample_latents,
)
from latent_ot.rng import RngSeed
total, n = 8000, 2667
latents = sample_latents(Sphere(), Density(), n, total - n, total, RngSeed(21))
form = GaussianPowerKernel(p=2.0, sigma=0.15)
graph = sample_kernel_graph(latents, NonlocalKernel(rho=1.0, form=form), RngSeed(22))
estimate = usvt(graph, UsvtParams(gamma=1.0, rho=1.0, clamp_range=form.bounds(Sphere())))
block = estimate.block(slice(0, n), slice(n, total))
print(json.dumps({
    "rank": estimate.rank,
    "shape": list(block.shape),
    "maxrss_kb": peak_kb(),
}))
"""


def _run_json_script(script: str, **env_vars: str) -> dict:
    """Run a script in a fresh interpreter on this package; parse its JSON output."""
    src = str(Path(latent_ot.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=300
    )
    return json.loads(done.stdout)


def test_usvt_at_eight_thousand_nodes_holds_no_n_by_n_array():
    # One N x N float64 array alone would take 512 MB at this size.
    report = _run_json_script(_USVT_RSS_SCRIPT)
    assert report["rank"] > 0
    assert report["shape"] == [2667, 5333]
    assert report["maxrss_kb"] < 8000 * 8000 * 8 // 1024


_THREADED_USVT_SCRIPT = """
import hashlib, json
from latent_ot.cost_estimators import UsvtParams, usvt
from latent_ot.latent_models import (
    Density, GaussianPowerKernel, NonlocalKernel, Sphere, sample_kernel_graph, sample_latents,
)
from latent_ot.rng import RngSeed
total, n = 1600, 533
latents = sample_latents(Sphere(), Density(), n, total - n, total, RngSeed(31))
graph = sample_kernel_graph(latents, NonlocalKernel(rho=1.0, form=GaussianPowerKernel(sigma=0.15)), RngSeed(32))
estimate = usvt(graph, UsvtParams(gamma=0.5, rho=1.0))
digest = lambda arr: hashlib.sha256(arr.tobytes()).hexdigest()
print(json.dumps({
    "rank": estimate.rank,
    "values": digest(estimate.values),
    "vectors": digest(estimate.vectors),
    "cross": digest(estimate.block(slice(0, n), slice(n, total))),
    "rows": digest(estimate.block(slice(0, 700), slice(None))),
}))
"""


def test_usvt_does_not_depend_on_the_blas_thread_count():
    # An unpinned BLAS gemm block product differs in its last bits between 1
    # and 2 threads on this graph; the pinned eigenpairs and blocks must not.
    one, two = (_run_json_script(_THREADED_USVT_SCRIPT, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one["rank"] > 0
    assert one == two


# ---------------------------------------------------------------------------
# Direct adjacency route
# ---------------------------------------------------------------------------


def test_fast_kernel_block_values_and_support():
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 4), (0, 1), (2, 3)])
    block = fast_kernel_block(g.adjacency[:2, 2:5], rho=0.5)
    assert isinstance(block, csr_array) and block.has_canonical_format
    block = block.toarray()
    # cross edges are (0,2), (0,3), (1,4); within-group edges (0,1), (2,3)
    # never show up
    expected = np.array([[2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(block, expected)
    assert set(np.unique(block)) <= {0.0, 1.0 / 0.5}
    # the dense cross block gives the same estimate
    cross = g.adjacency.toarray()[:2, 2:]
    assert np.array_equal(fast_kernel_block(cross, rho=0.5).toarray(), expected)
    # a CSR block holding an entry twice is summed into canonical format
    repeated = csr_array((np.ones(3), np.array([1, 1, 0]), np.array([0, 2, 3])), shape=(2, 3))
    summed = fast_kernel_block(repeated, rho=0.5)
    assert summed.has_canonical_format
    assert np.array_equal(summed.toarray(), [[0.0, 4.0, 0.0], [2.0, 0.0, 0.0]])


def test_fast_kernel_block_ignores_within_group_edges():
    base = Graph.from_edges(4, [(0, 2), (1, 3)])
    extra = Graph.from_edges(4, [(0, 2), (1, 3), (0, 1), (2, 3)])
    assert np.array_equal(
        fast_kernel_block(base.adjacency[:2, 2:4], 1.0).toarray(),
        fast_kernel_block(extra.adjacency[:2, 2:4], 1.0).toarray(),
    )


def test_fast_kernel_block_ignores_auxiliary_nodes():
    # nodes 4-6 belong to neither group; their edges, to the groups and
    # among themselves, never show up
    base = Graph.from_edges(4, [(0, 2), (1, 3)])
    auxiliary = Graph.from_edges(7, [(0, 2), (1, 3), (0, 4), (3, 5), (1, 6), (4, 6)])
    block = fast_kernel_block(auxiliary.adjacency[:2, 2:4], 0.5).toarray()
    assert np.array_equal(block, fast_kernel_block(base.adjacency[:2, 2:4], 0.5).toarray())
    assert np.array_equal(block, [[2.0, 0.0], [0.0, 2.0]])


def test_fast_kernel_block_validation():
    block = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(block, rho=0.0)
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(block, rho=1.5)
    # the block must be a nonempty matrix
    for bad in (np.zeros((0, 4)), np.zeros((3, 0)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(InvalidParameterError):
            fast_kernel_block(bad, rho=1.0)
