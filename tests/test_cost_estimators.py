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
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import ArpackNoConvergence

import latent_ot
import latent_ot.cost_estimators as cost_estimators
from latent_ot.cost_estimators import (
    CostMap,
    HopMatrix,
    UNREACHABLE,
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
    Graph,
    LatentConfiguration,
    Sphere,
    eps_graph,
    h_schedule,
    sample_latents,
)
from latent_ot.rng import CounterStream, RngSeed


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
        assert hops.entries.shape == (len(sources), len(targets))
        for row, s in enumerate(sources):
            reference = bfs_oracle(g, s)
            for col, t in enumerate(targets):
                assert hops.entries[row, col] == reference[t], (case, s, t)
        matrices.append(hops.entries)
    # the second graph leaves some pairs unreachable and joins others by long paths
    assert 0 < np.count_nonzero(matrices[1] == UNREACHABLE) < matrices[1].size
    assert matrices[1].max() > 5
    # the isolated source reaches nothing; the others reach their own path
    assert np.all(matrices[2][0] == UNREACHABLE)
    assert matrices[2][1].tolist() == [3, -1, -1, 1, -1, 2, -1, -1]


def test_hop_counts_matches_scipy_shortest_paths_on_a_large_sphere_graph():
    total = 2000
    g = eps_graph(sample_latents(Sphere(), Density(), 8, 8, total, RngSeed(103)), h_schedule(total, 2, 2.0))
    sources, targets = range(8), range(8, total)
    hops = hop_counts(g, sources, targets)
    reference = shortest_path(g.adjacency, unweighted=True, indices=list(sources))[:, targets]
    assert np.all(np.isfinite(reference))
    assert np.array_equal(hops.entries, reference)
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


def test_usvt_reports_arpack_non_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((6, 0)))

    monkeypatch.setattr(cost_estimators, "eigsh", no_convergence)
    with pytest.raises(NumericFailureError):
        usvt(np.ones((6, 6)), UsvtParams(gamma=0.1, rho=1.0))


_USVT_RSS_SCRIPT = """
import json, resource
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
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
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
    # A BLAS gemm block product differs in its last bits between 1 and 2
    # threads on this graph; the eigenpairs and einsum blocks must not.
    one, two = (_run_json_script(_THREADED_USVT_SCRIPT, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one["rank"] > 0
    assert one == two


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
    # the cross block alone gives the same estimate
    cross = g.adjacency.toarray()[:2, 2:]
    assert np.array_equal(fast_kernel_block(cross, rho=0.5, n=2, m=3), expected)


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
    with pytest.raises(InvalidParameterError):
        fast_kernel_block(np.zeros((3, 2)), rho=1.0, n=2, m=2)
