"""Cost-estimator tests.

Hop counts are checked against an in-test queue BFS, the spectral
estimator against exact low-rank inputs where thresholding is lossless,
and the adjacency route against hand-built graphs.
"""

import collections
import math

import numpy as np
import pytest

from latent_ot.cost_estimators import (
    CostMap,
    Eigendecomposition,
    HopMatrix,
    UNREACHABLE,
    UsvtParams,
    cost_from_distances,
    fast_kernel_block,
    geodesic_estimate,
    hop_counts,
    usvt,
    usvt_cost_block,
    usvt_from_eigen,
)
from latent_ot.errors import InvalidParameterError, TargetsDisconnectedError
from latent_ot.latent_models import (
    Circle,
    Density,
    Graph,
    LatentConfiguration,
    Sphere,
    eps_graph,
    sample_latents,
)
from latent_ot.rng import RngSeed, Xoshiro256StarStar


def bfs_oracle(graph, source):
    """Plain queue BFS, independent of the library's frontier version."""
    dist = [UNREACHABLE] * graph.node_count
    dist[source] = 0
    queue = collections.deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            w = int(w)
            if dist[w] == UNREACHABLE:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# Cost maps
# ---------------------------------------------------------------------------


def test_identity_map():
    cm = CostMap.identity(2.0)
    assert cm.domain == (0.0, 2.0)
    assert cm.cost_range == (0.0, 2.0)
    assert cm.lipschitz_constant == 1.0
    inputs = np.array([-1.0, 0.5, 3.0])
    assert np.array_equal(cm.apply(inputs), np.array([0.0, 0.5, 2.0]))
    with pytest.raises(InvalidParameterError):
        CostMap.identity(0.0)


def test_one_minus_map():
    cm = CostMap.one_minus()
    assert np.allclose(cm.apply(np.array([0.0, 0.25, 1.0])), [1.0, 0.75, 0.0])
    clipped = CostMap.one_minus(lower=0.2, upper=0.9)
    assert clipped.cost_range == pytest.approx((0.1, 0.8), abs=1e-15)
    # inputs below the floor saturate at the largest cost
    assert clipped.apply(np.array([0.0]))[0] == pytest.approx(0.8)
    with pytest.raises(InvalidParameterError):
        CostMap.one_minus(lower=0.5, upper=0.5)
    with pytest.raises(InvalidParameterError):
        CostMap.one_minus(lower=-0.1, upper=1.0)


def test_piecewise_map_interpolates():
    cm = CostMap.piecewise([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
    assert cm.apply(np.array([0.5]))[0] == pytest.approx(1.0)
    assert cm.apply(np.array([2.0]))[0] == pytest.approx(2.5)
    assert cm.lipschitz_constant == 2.0


def test_cost_map_validation():
    with pytest.raises(InvalidParameterError):
        CostMap.piecewise([0.0, 1.0], [0.0])
    with pytest.raises(InvalidParameterError):
        CostMap.piecewise([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        CostMap.piecewise([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
    with pytest.raises(InvalidParameterError):
        CostMap.piecewise([0.0, 1.0], [-1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        CostMap.piecewise([0.0, np.inf], [0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        CostMap.piecewise([0.0], [0.0])
    # descending tables are allowed
    CostMap.piecewise([0.0, 1.0, 2.0], [3.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Shortest-path route
# ---------------------------------------------------------------------------


def test_hop_counts_on_a_path_graph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    hops = hop_counts(g, sources=[0, 1], targets=[3, 4])
    assert np.array_equal(hops.entries, np.array([[3, 4], [2, 3]]))
    assert hops.all_reachable
    assert hops.first_unreachable() is None


def test_hop_counts_marks_unreachable_pairs():
    g = Graph.from_edges(4, [(0, 1)])
    hops = hop_counts(g, sources=[0], targets=[2, 3])
    assert np.array_equal(hops.entries, np.array([[UNREACHABLE, UNREACHABLE]]))
    assert not hops.all_reachable
    assert hops.first_unreachable() == (0, 0)


def _two_jittered_arcs(seed: RngSeed) -> LatentConfiguration:
    """Points on the unit circle along two far-apart arcs, 0.05 rad apart with
    at most 0.005 rad of jitter.  Within h = 0.07 lie exactly the arc
    neighbours, so each arc is a path.  The sources are drawn from the first
    20 points of the long arc; four targets end that arc, at least 17 hops
    away, and four lie on the short arc, out of reach."""
    rng = Xoshiro256StarStar(seed)
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


def test_hop_counts_matches_queue_bfs_on_random_graphs():
    sources = list(range(8))
    targets = list(range(8, 16))
    graphs = (
        eps_graph(sample_latents(Sphere(), Density(), 8, 8, 40, RngSeed(100)), h=0.8),
        eps_graph(_two_jittered_arcs(RngSeed(101)), h=0.07),
    )
    for case, g in enumerate(graphs):
        hops = hop_counts(g, sources, targets)
        for row, s in enumerate(sources):
            reference = bfs_oracle(g, s)
            for col, t in enumerate(targets):
                assert hops.entries[row, col] == reference[t], (case, s, t)
    # the second graph leaves some pairs unreachable and joins others by long paths
    assert 0 < np.count_nonzero(hops.entries == UNREACHABLE) < hops.entries.size
    assert hops.entries.max() > 5


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


def test_hop_matrix_validation():
    with pytest.raises(InvalidParameterError):
        HopMatrix(np.array([[-2]]))
    with pytest.raises(InvalidParameterError):
        HopMatrix(np.empty((0, 0), dtype=np.int64))


def test_geodesic_estimate_scales_by_radius():
    hops = HopMatrix(np.array([[2, 3], [1, 0]]))
    assert np.allclose(geodesic_estimate(hops, 0.25), np.array([[0.5, 0.75], [0.25, 0.0]]))
    with pytest.raises(InvalidParameterError):
        geodesic_estimate(hops, 0.0)


def test_geodesic_estimate_raises_on_disconnection():
    hops = HopMatrix(np.array([[1, UNREACHABLE], [2, 2]]))
    with pytest.raises(TargetsDisconnectedError) as info:
        geodesic_estimate(hops, 0.5)
    assert info.value.source_index == 0
    assert info.value.target_index == 1


def test_cost_from_distances_applies_the_map():
    dhat = np.array([[0.2, 0.6], [1.4, 0.0]])
    cost = cost_from_distances(dhat, CostMap.identity(1.0))
    assert np.allclose(cost.entries, np.array([[0.2, 0.6], [1.0, 0.0]]))
    assert cost.c_min == 0.0 and cost.c_max == 1.0


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------


def test_eigendecomposition_sorts_and_reconstructs():
    mat = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
    dec = Eigendecomposition.from_symmetric(mat)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert np.allclose(dec.reconstruct(), mat, atol=1e-12)


def test_eigendecomposition_validation():
    with pytest.raises(InvalidParameterError):
        Eigendecomposition.from_symmetric(np.ones((2, 3)))
    with pytest.raises(InvalidParameterError):
        Eigendecomposition.from_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InvalidParameterError):
        Eigendecomposition(np.array([1.0]), np.ones((2, 2)))


def test_usvt_recovers_exact_rank_one_kernel():
    v = np.array([0.9, 0.6, 0.3, 0.8])
    w = np.outer(v, v)
    params = UsvtParams(gamma=0.1, rho=1.0)
    assert np.allclose(usvt(w, params), w, atol=1e-10)


def test_usvt_rescales_by_rho_on_noiseless_input():
    v = np.array([0.9, 0.6, 0.3])
    w = np.outer(v, v)
    rho = 0.5
    estimate = usvt(rho * w, UsvtParams(gamma=0.1, rho=rho))
    assert np.allclose(estimate, w, atol=1e-10)


def test_usvt_threshold_drops_small_spectra():
    v = np.array([0.9, 0.6, 0.3])
    w = np.outer(v, v)
    # eigenvalue is ||v||^2 = 1.26 < gamma * sqrt(N) for gamma = 2
    estimate = usvt(w, UsvtParams(gamma=2.0, rho=1.0))
    assert np.array_equal(estimate, np.zeros((3, 3)))


def test_usvt_clamps_into_the_kernel_range():
    mat = np.array([[0.0, 3.0], [3.0, 0.0]])
    estimate = usvt(mat, UsvtParams(gamma=0.1, rho=1.0))
    assert np.array_equal(estimate, np.ones((2, 2)))
    tighter = usvt(mat, UsvtParams(gamma=0.1, rho=1.0, clamp_range=(0.0, 0.8)))
    assert np.array_equal(tighter, np.full((2, 2), 0.8))


def test_usvt_graph_and_dense_inputs_agree():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
    params = UsvtParams(gamma=0.3, rho=1.0)
    assert np.array_equal(usvt(g, params), usvt(g.to_dense(), params))


def test_usvt_from_eigen_matches_usvt():
    rng = Xoshiro256StarStar(RngSeed(9))
    raw = rng.uniforms(36).reshape(6, 6)
    sym = 0.5 * (raw + raw.T)
    params = UsvtParams(gamma=0.4, rho=0.7)
    dec = Eigendecomposition.from_symmetric(sym)
    assert np.array_equal(usvt(sym, params), usvt_from_eigen(dec, 6, params))


def test_usvt_validation():
    with pytest.raises(InvalidParameterError):
        usvt(np.array([[1.0]]), UsvtParams(gamma=0.1, rho=1.0))
    with pytest.raises(InvalidParameterError):
        usvt(np.ones((2, 3)), UsvtParams(gamma=0.1, rho=1.0))
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


def test_usvt_cost_block_extracts_the_cross_block():
    n, m = 2, 3
    v = np.array([0.9, 0.8, 0.6, 0.5, 0.4])
    w = np.outer(v, v)
    cost = usvt_cost_block(w, n, m, CostMap.one_minus())
    assert np.allclose(cost.entries, 1.0 - w[:n, n:], atol=1e-12)
    with pytest.raises(InvalidParameterError):
        usvt_cost_block(w, 3, 3, CostMap.one_minus())
    with pytest.raises(InvalidParameterError):
        usvt_cost_block(w, 0, 5, CostMap.one_minus())


# ---------------------------------------------------------------------------
# Direct adjacency route
# ---------------------------------------------------------------------------


def test_fast_kernel_block_values_and_support():
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 4), (0, 1), (2, 3)])
    block = fast_kernel_block(g, rho=0.5, n=2, m=3)
    # cross edges are (0,2), (0,3), (1,4); within-group edges (0,1), (2,3)
    # never show up
    expected = np.array([[2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(block, expected)
    assert set(np.unique(block)) <= {0.0, 1.0 / 0.5}


def test_fast_kernel_block_ignores_within_group_edges():
    base = Graph.from_edges(4, [(0, 2), (1, 3)])
    extra = Graph.from_edges(4, [(0, 2), (1, 3), (0, 1), (2, 3)])
    assert np.array_equal(
        fast_kernel_block(base, 1.0, 2, 2), fast_kernel_block(extra, 1.0, 2, 2)
    )


def test_fast_kernel_block_validation():
    g = Graph.from_edges(4, [(0, 2)])
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(g, rho=0.0, n=2, m=2)
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(g, rho=1.5, n=2, m=2)
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(g, rho=1.0, n=3, m=3)
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(g, rho=1.0, n=0, m=4)
