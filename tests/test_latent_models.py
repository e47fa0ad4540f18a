"""Manifold, density, and random-graph model tests.

Geodesics are checked against hand-computed arc lengths, graph builders
against brute-force O(N^2) reconstruction, and the Bernoulli pair walker
and the graph sampler against an in-test scalar replay of their documented
per-pair draws.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array

from latent_ot import latent_models
from latent_ot.errors import DensityMisconfiguredError, InvalidParameterError
from latent_ot.latent_models import (
    Circle,
    Density,
    GaussianPowerKernel,
    Graph,
    LatentConfiguration,
    NonlocalKernel,
    Placement,
    Sphere,
    UnitSquare,
    bernoulli_block,
    eps_graph,
    graph_to_edgelist,
    h_schedule,
    make_manifold,
    pairwise_squared_distances,
    sample_kernel_graph,
    sample_latents,
    sparse_log_rho,
)
from latent_ot.rng import CounterStream, RngSeed


# ---------------------------------------------------------------------------
# Manifolds
# ---------------------------------------------------------------------------


def test_sphere_geodesics_hand_values():
    s = Sphere()
    north = np.array([0.0, 0.0, 1.0])
    south = np.array([0.0, 0.0, -1.0])
    equator = np.array([1.0, 0.0, 0.0])
    to_south, to_equator, to_north = s.geodesic_matrix(north[None, :], np.array([south, equator, north]))[0]
    assert to_south == pytest.approx(math.pi, abs=1e-12)
    assert to_equator == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert to_north == 0.0
    assert s.diameter == pytest.approx(math.pi)
    assert s.euclidean_diameter == 2.0
    assert s.coordinate_range == (-1.0, 1.0)
    assert s.ambient_dim == 3 and s.intrinsic_dim == 2


def test_circle_geodesics_hand_values():
    c = Circle()
    east = np.array([1.0, 0.0])
    north = np.array([0.0, 1.0])
    west = np.array([-1.0, 0.0])
    to_north, to_west = c.geodesic_matrix(east[None, :], np.array([north, west]))[0]
    assert to_north == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert to_west == pytest.approx(math.pi, abs=1e-12)
    assert c.diameter == pytest.approx(math.pi)
    assert c.euclidean_diameter == 2.0
    assert c.coordinate_range == (-1.0, 1.0)
    assert c.intrinsic_dim == 1 and c.ambient_dim == 2


def test_unit_square_geodesics_are_euclidean():
    sq = UnitSquare()
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    assert sq.geodesic_matrix(a[None, :], b[None, :])[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert sq.diameter == pytest.approx(math.sqrt(2.0))
    assert sq.coordinate_range == (0.0, 1.0)


def test_make_manifold_dispatch():
    assert isinstance(make_manifold("sphere"), Sphere)
    assert isinstance(make_manifold("unit_square"), UnitSquare)
    assert isinstance(make_manifold("circle"), Circle)
    # Manifolds are values: equal by kind, hashable, and not interchangeable.
    assert Sphere() == Sphere() and make_manifold("circle") == Circle()
    assert hash(make_manifold("sphere")) == hash(Sphere())
    assert Sphere() != Circle() and Circle() != UnitSquare()
    with pytest.raises(InvalidParameterError):
        make_manifold("torus")


def test_uniform_samples_lie_on_manifold_and_are_deterministic():
    for manifold in (Sphere(), Circle(), UnitSquare()):
        pts_a = manifold.sample_uniform(CounterStream(RngSeed(5)), 40)
        pts_b = manifold.sample_uniform(CounterStream(RngSeed(5)), 40)
        assert manifold.on_manifold(pts_a)
        assert np.array_equal(pts_a, pts_b)
        pts_c = manifold.sample_uniform(CounterStream(RngSeed(6)), 40)
        assert not np.array_equal(pts_a, pts_c)


def test_sphere_samples_are_roughly_centered():
    pts = Sphere().sample_uniform(CounterStream(RngSeed(11)), 2000)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.05)


def test_pairwise_squared_distances_matches_brute_force():
    rng = CounterStream(RngSeed(2))
    xs = rng.uniforms(15).reshape(5, 3)
    ys = rng.uniforms(12).reshape(4, 3)
    expected = np.array([[np.sum((x - y) ** 2) for y in ys] for x in xs])
    assert np.allclose(pairwise_squared_distances(xs, ys), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# Densities and placement
# ---------------------------------------------------------------------------


def test_density_weight_bounds():
    assert Density().weight_bounds(Sphere()) == (1.0, 1.0)
    tilt = Density(kind="tilted", axis=0, strength=0.5)
    assert tilt.weight_bounds(Sphere()) == (0.5, 1.5)
    assert tilt.weight_bounds(UnitSquare()) == (1.0, 1.5)
    with pytest.raises(DensityMisconfiguredError):
        Density(kind="tilted", strength=-2.0).weight_bounds(Sphere())
    with pytest.raises(DensityMisconfiguredError):
        Density(kind="tilted", axis=3, strength=0.1).weight_bounds(Sphere())


def test_density_validation():
    with pytest.raises(InvalidParameterError):
        Density(kind="gaussian")
    with pytest.raises(InvalidParameterError):
        Density(kind="uniform", strength=0.3)


def test_tilted_sampling_shifts_the_mean():
    config = sample_latents(
        Sphere(), Density(kind="tilted", axis=0, strength=0.8), 200, 200, 400, RngSeed(3)
    )
    mean0 = float(config.all_points()[:, 0].mean())
    # expected tilted mean is strength / 3 on the unit sphere
    assert 0.1 < mean0 < 0.45


def test_placement_validation():
    with pytest.raises(InvalidParameterError):
        Placement(mode="ring")
    with pytest.raises(InvalidParameterError):
        Placement(mode="two_regions", region_radius=0.0)


def test_two_regions_placement_respects_the_balls():
    manifold = Sphere()
    radius = 0.6
    config = sample_latents(
        manifold,
        Density(),
        12,
        12,
        30,
        RngSeed(9),
        placement=Placement(mode="two_regions", region_radius=radius),
    )
    anchor_a, anchor_b = manifold.region_anchors()
    assert manifold.geodesic_matrix(config.xs, anchor_a[None, :]).max() <= radius + 1e-9
    assert manifold.geodesic_matrix(config.ys, anchor_b[None, :]).max() <= radius + 1e-9


def test_rejection_sampling_gives_up_after_the_attempt_cap(monkeypatch):
    monkeypatch.setattr(latent_models, "_REJECTION_ATTEMPT_CAP", 5)
    placement = Placement(mode="two_regions", region_radius=1e-6)
    with pytest.raises(DensityMisconfiguredError):
        sample_latents(Sphere(), Density(), 3, 3, 8, RngSeed(9), placement=placement)


def test_sample_latents_shapes_and_determinism():
    config = sample_latents(Sphere(), Density(), 4, 6, 15, RngSeed(21))
    assert config.xs.shape == (4, 3) and config.ys.shape == (6, 3) and config.zs.shape == (5, 3)
    again = sample_latents(Sphere(), Density(), 4, 6, 15, RngSeed(21))
    assert np.array_equal(config.all_points(), again.all_points())
    other = sample_latents(Sphere(), Density(), 4, 6, 15, RngSeed(22))
    assert not np.array_equal(config.all_points(), other.all_points())


def test_targets_are_a_prefix_of_the_draw_stream():
    # growing the auxiliary count leaves the target groups untouched
    small = sample_latents(Sphere(), Density(), 3, 3, 6, RngSeed(33))
    big = sample_latents(Sphere(), Density(), 3, 3, 20, RngSeed(33))
    assert np.array_equal(small.xs, big.xs)
    assert np.array_equal(small.ys, big.ys)


def test_sample_latents_validation():
    with pytest.raises(InvalidParameterError):
        sample_latents(Sphere(), Density(), 0, 2, 5, RngSeed(1))
    with pytest.raises(InvalidParameterError):
        sample_latents(Sphere(), Density(), 4, 4, 7, RngSeed(1))


def test_latent_configuration_validation():
    good = np.array([[1.0, 0.0, 0.0]])
    off = np.array([[2.0, 0.0, 0.0]])
    empty = np.empty((0, 3))
    with pytest.raises(InvalidParameterError):
        LatentConfiguration(xs=off, ys=good, zs=empty, manifold=Sphere())
    with pytest.raises(InvalidParameterError):
        LatentConfiguration(xs=good, ys=empty, zs=empty, manifold=Sphere())
    config = LatentConfiguration(xs=good, ys=good, zs=empty, manifold=Sphere())
    assert config.all_points().shape == (2, 3)


def test_all_points_orders_blocks():
    xs = np.array([[1.0, 0.0, 0.0]])
    ys = np.array([[0.0, 1.0, 0.0]])
    zs = np.array([[0.0, 0.0, 1.0]])
    config = LatentConfiguration(xs=xs, ys=ys, zs=zs, manifold=Sphere())
    stacked = config.all_points()
    assert np.array_equal(stacked[0], xs[0])
    assert np.array_equal(stacked[1], ys[0])
    assert np.array_equal(stacked[2], zs[0])


# ---------------------------------------------------------------------------
# Connectivity kernels
# ---------------------------------------------------------------------------


def test_gaussian_power_kernel_values():
    k = GaussianPowerKernel(p=2.0, sigma=0.5)
    xs = np.array([[0.0, 0.0]])
    ys = np.array([[0.3, 0.4]])
    assert k.evaluate(xs, ys)[0, 0] == pytest.approx(math.exp(-0.25 / 0.5), abs=1e-14)
    k1 = GaussianPowerKernel(p=1.0, sigma=2.0)
    assert k1.evaluate(xs, ys)[0, 0] == pytest.approx(math.exp(-0.5 / 2.0), abs=1e-14)
    assert k.evaluate(xs, xs)[0, 0] == 1.0


def test_gaussian_power_kernel_bounds_and_validation():
    k = GaussianPowerKernel(p=2.0, sigma=0.5)
    w_min, w_max = k.bounds(Sphere())
    assert w_max == 1.0
    assert w_min == pytest.approx(math.exp(-4.0 / 0.5), abs=1e-16)
    with pytest.raises(InvalidParameterError):
        GaussianPowerKernel(p=0.5, sigma=1.0)
    with pytest.raises(InvalidParameterError):
        GaussianPowerKernel(p=2.0, sigma=0.0)


def test_nonlocal_kernel_rho_range():
    form = GaussianPowerKernel()
    NonlocalKernel(rho=0.0, form=form)
    NonlocalKernel(rho=1.0, form=form)
    with pytest.raises(InvalidParameterError):
        NonlocalKernel(rho=1.5, form=form)
    with pytest.raises(InvalidParameterError):
        NonlocalKernel(rho=-0.1, form=form)


def test_sparsity_presets():
    assert sparse_log_rho(2.0, 100) == pytest.approx(2.0 * math.log(100) / 100)
    assert sparse_log_rho(1000.0, 10) == 1.0
    with pytest.raises(InvalidParameterError):
        sparse_log_rho(-1.0, 100)
    with pytest.raises(InvalidParameterError):
        sparse_log_rho(1.0, 1)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def test_graph_from_edges_ignores_direction_and_duplicates():
    g = Graph.from_edges(4, [(1, 0), (0, 1), (2, 3), (2, 3), (1, 2)])
    assert g.edge_count == 3
    assert g.edges().tolist() == [[0, 1], [1, 2], [2, 3]]
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(g.adjacency.toarray(), expected)
    assert g == Graph.from_edges(4, np.array([[2, 3], [0, 1], [2, 1]]))
    assert g != Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g != Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])

    empty = Graph.from_edges(3, [])
    assert empty.node_count == 3 and empty.edge_count == 0
    assert empty.edges().shape == (0, 2)
    assert np.array_equal(empty.adjacency.toarray(), np.zeros((3, 3)))


def _coo_reference(node_count, pairs):
    """The symmetric adjacency through scipy's COO to CSR conversion, which
    sums duplicates; every stored entry then counts a pair at least once."""
    rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
    reference = coo_array((np.ones(rows.size), (rows, cols)), shape=(node_count, node_count)).tocsr()
    reference.sum_duplicates()
    return reference


def test_graph_from_edges_matches_a_coo_reference():
    rng = np.random.default_rng(7)
    cases = [(1, np.empty((0, 2), dtype=np.int64)), (5, np.empty((0, 2), dtype=np.int64))]
    for node_count in (2, 3, 10, 50, 400):
        # Draws from the first half only, so the second half is isolated.
        pairs = rng.integers(0, max(2, node_count // 2), size=(3 * node_count, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # Every pair again, half of them reversed: duplicates in both directions.
        again = pairs.copy()
        again[::2] = again[::2, ::-1]
        cases.append((node_count, rng.permutation(np.concatenate([pairs, again]))))
    for node_count, pairs in cases:
        adjacency = Graph.from_edges(node_count, pairs).adjacency
        reference = _coo_reference(node_count, pairs)
        assert np.array_equal(adjacency.indptr, reference.indptr), node_count
        assert np.array_equal(adjacency.indices, reference.indices), node_count
        assert np.all(reference.data >= 1.0)
        assert np.array_equal(adjacency.data, np.ones(reference.nnz)), node_count
        assert adjacency.indptr.dtype == adjacency.indices.dtype == np.int32
        assert adjacency.has_canonical_format
    # The random lists did hold duplicates.
    assert _coo_reference(*cases[-1]).data.max() > 1.0


def test_graph_from_edges_peaks_near_its_sorted_keys():
    rng = np.random.default_rng(3)
    node_count = 50_000
    pairs = rng.integers(0, node_count, size=(1_000_000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    key_bytes = 2 * pairs.shape[0] * np.dtype(np.int64).itemsize
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        graph = Graph.from_edges(node_count, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.edge_count > 0.99 * pairs.shape[0]
    assert peak - start <= 2.2 * key_bytes


def test_graph_validation():
    with pytest.raises(InvalidParameterError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InvalidParameterError, match="outside node range"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidParameterError, match="outside node range"):
        Graph.from_edges(3, [(0, 1), (-1, 2)])
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(0, [])


def test_adjacency_mask_roundtrip_ignores_diagonal():
    mask = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    off_diagonal = np.argwhere(np.triu(mask, k=1))
    g = Graph.from_edges(3, off_diagonal)
    dense = g.adjacency.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)
    expected = mask.astype(float)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(dense, expected)
    assert g == Graph.from_edges(3, np.argwhere(np.triu(dense.astype(bool), k=1)))


def test_eps_graph_exact_thresholds_on_the_unit_square():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    config = LatentConfiguration(
        xs=corners[:2], ys=corners[2:], zs=np.empty((0, 2)), manifold=UnitSquare()
    )
    g = eps_graph(config, h=1.0)
    # sides are edges at exactly h; the diagonal sqrt(2) is not
    assert g.edges().tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    with pytest.raises(InvalidParameterError):
        eps_graph(config, h=0.0)


def test_eps_graph_matches_brute_force():
    scheduled = [(m, 700, h_schedule(700, m.intrinsic_dim, 2.0)) for m in (Sphere(), UnitSquare(), Circle())]
    for manifold, total, h in [(Sphere(), 30, 0.9)] + scheduled:
        config = sample_latents(manifold, Density(), 10, 10, total, RngSeed(7))
        g = eps_graph(config, h)
        points = config.all_points()
        indptr, indices = g.adjacency.indptr, g.adjacency.indices
        for i in range(total):
            within = np.flatnonzero(np.linalg.norm(points - points[i], axis=1) <= h).tolist()
            neighbors = indices[indptr[i] : indptr[i + 1]].tolist()
            assert neighbors == [j for j in within if j != i], (manifold.kind, total, i)


def _scalar_pair_uniform(seed: RngSeed, i: int, j: int) -> float:
    """SplitMix64's output at counter (i << 32) | j, written out in Python ints."""
    counter = (i << 32) | j
    z = (seed.value + (counter + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def test_sample_kernel_graph_replays_the_documented_stream(monkeypatch):
    config = sample_latents(Sphere(), Density(), 5, 5, 14, RngSeed(40))
    kernel = NonlocalKernel(rho=0.6, form=GaussianPowerKernel(p=2.0, sigma=1.0))
    seed = RngSeed(41)
    g = sample_kernel_graph(config, kernel, seed)
    points = config.all_points()
    probs = 0.6 * kernel.form.evaluate(points, points)
    expected_edges = [
        (i, j)
        for i in range(14)
        for j in range(i + 1, 14)
        if _scalar_pair_uniform(seed, i, j) < probs[i, j]
    ]
    assert g == Graph.from_edges(14, expected_edges)
    assert g == sample_kernel_graph(config, kernel, seed)
    assert g != sample_kernel_graph(config, kernel, RngSeed(42))
    # Rows 0-12 have partners.  Blocks of one, two, three, six and eleven
    # rows (a last block of one row, or of the two-row corner 11-12), and
    # one block of more than N^2 pairs, draw the same graph.
    for block_pairs in (1, 28, 42, 84, 154, 1000):
        monkeypatch.setattr(latent_models, "_GRAPH_BLOCK_PAIRS", block_pairs)
        assert sample_kernel_graph(config, kernel, seed) == g


def test_bernoulli_block_replays_the_scalar_pair_hash(monkeypatch):
    seed = RngSeed(61)
    # Interleaved index vectors, where some pairs have rows[r] >= cols[c],
    # and a cross rectangle, where none do.
    cases = [(np.array([2, 5, 7, 9]), np.array([3, 5, 8, 9, 12])), (np.arange(6), np.arange(6, 11))]
    for rows, cols in cases:
        probs = CounterStream(RngSeed(60)).uniforms(rows.size * cols.size).reshape(rows.size, cols.size)
        # A pair with rows[r] >= cols[c] would always be an edge if drawn.
        probs[rows[:, None] >= cols[None, :]] = 1.0
        expected = csr_array(
            [
                [float(i < j and _scalar_pair_uniform(seed, i, j) < probs[r, c]) for c, j in enumerate(cols.tolist())]
                for r, i in enumerate(rows.tolist())
            ]
        )
        assert 0 < expected.nnz < rows.size * cols.size
        # Blocks of one row, two rows, three rows, and one block of all rows.
        for block_pairs in (1, 10, 15, 1000):
            monkeypatch.setattr(latent_models, "_GRAPH_BLOCK_PAIRS", block_pairs)
            block = bernoulli_block(seed, rows, cols, lambda r, c: probs[r, c])
            assert block.shape == expected.shape and block.has_canonical_format
            assert np.array_equal(block.indptr, expected.indptr), (rows.tolist(), block_pairs)
            assert np.array_equal(block.indices, expected.indices), (rows.tolist(), block_pairs)
            assert np.array_equal(block.data, np.ones(expected.nnz))
        with pytest.raises(InvalidParameterError, match="exceeds 1"):
            bernoulli_block(seed, rows, cols, lambda r, c: 2.0 * probs[r, c])


def test_bernoulli_block_draws_a_cross_rectangle_in_a_few_megabytes():
    n = m = 3000
    rows, cols = np.arange(n), np.arange(n, n + m)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        block = bernoulli_block(
            RngSeed(70), rows, cols, lambda r, c: np.full((r.stop - r.start, c.stop - c.start), 0.001)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(block.nnz - 0.001 * n * m) <= 4.0 * math.sqrt(0.001 * n * m)
    # One dense n x m float64 array would take 72 MB.
    assert peak - start <= 8 * 2**20


def test_sample_kernel_graph_edge_frequency():
    xs = np.array([[1.0, 0.0, 0.0]])
    ys = np.array([[0.0, 1.0, 0.0]])
    zs = np.array([[0.0, 0.0, 1.0]])
    config = LatentConfiguration(xs=xs, ys=ys, zs=zs, manifold=Sphere())
    kernel = NonlocalKernel(rho=0.8, form=GaussianPowerKernel(p=2.0, sigma=2.0))
    probs = 0.8 * kernel.form.evaluate(config.all_points(), config.all_points())
    trials = 1500
    base = RngSeed(77)
    counts = np.zeros(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for t in range(trials):
        g = sample_kernel_graph(config, kernel, base.derive("trial", t))
        for k, (i, j) in enumerate(pairs):
            counts[k] += g.adjacency[i, j]
    for k, (i, j) in enumerate(pairs):
        p = probs[i, j]
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[k] / trials - p) <= 4.0 * se, (i, j)


def test_rho_zero_gives_empty_graph():
    config = sample_latents(Sphere(), Density(), 3, 3, 8, RngSeed(50))
    kernel = NonlocalKernel(rho=0.0, form=GaussianPowerKernel())
    assert sample_kernel_graph(config, kernel, RngSeed(51)).edge_count == 0


def test_h_schedule_formula_and_validation():
    total, k, c0 = 100, 2, 2.0
    assert h_schedule(total, k, c0) == pytest.approx(
        (c0 * math.log(total) ** 2 / total) ** 0.5, abs=1e-15
    )
    assert h_schedule(1000, 1, 0.5) == pytest.approx(0.5 * math.log(1000) ** 2 / 1000)
    with pytest.raises(InvalidParameterError):
        h_schedule(1, 2, 1.0)
    with pytest.raises(InvalidParameterError):
        h_schedule(100, 0, 1.0)
    with pytest.raises(InvalidParameterError):
        h_schedule(100, 2, 0.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_edgelist_roundtrip():
    g = Graph.from_edges(5, [(0, 4), (1, 2), (0, 1)])
    text = graph_to_edgelist(g)
    assert text.splitlines()[0] == "5 3"
    assert text.splitlines()[1:] == ["0 1", "0 4", "1 2"]
