"""Latent-position models and random graph generators.

Latent points live on a compact manifold (the unit sphere, square or circle)
and are drawn i.i.d. from a uniform or tilted density.  Graphs over the
points come in two flavors: deterministic connectivity graphs with edges
between points within a radius, and Bernoulli graphs where each pair is an
independent edge with probability ``rho * w(z_i, z_j)`` for a bounded
kernel w.  Everything is a pure function of (configuration, seed).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DensityMisconfiguredError, InvalidParameterError
from .rng import CounterStream, RngSeed, pair_uniforms

_REJECTION_ATTEMPT_CAP = 1_000_000
# Pairs per row block of the Bernoulli graph sampler: few enough that a
# block's 1 MB arrays stay in cache through the pair hash's passes.
_GRAPH_BLOCK_PAIRS = 1 << 17
_ON_MANIFOLD_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Manifolds
# ---------------------------------------------------------------------------


class Manifold(abc.ABC):
    """A compact homogeneous submanifold with closed-form geodesics.

    Every manifold has one fixed size, so its dimensions and extents are
    class constants: ``diameter`` is the largest geodesic distance between
    two points, ``euclidean_diameter`` the largest ambient (chordal) one,
    and ``coordinate_range`` the range of every ambient coordinate.
    """

    kind: str
    ambient_dim: int
    intrinsic_dim: int
    diameter: float
    euclidean_diameter: float
    coordinate_range: tuple[float, float]

    @abc.abstractmethod
    def sample_uniform(self, rng: CounterStream, count: int) -> np.ndarray:
        """Up to ``count`` uniform points, one row each; a draw that cannot be
        mapped onto the manifold is dropped, so fewer may come back."""

    @abc.abstractmethod
    def geodesic_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def on_manifold(self, points: np.ndarray) -> bool: ...

    @abc.abstractmethod
    def region_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Two well-separated reference points for two-region placement."""


class _RoundManifold(Manifold):
    """A unit sphere centred at the origin; geodesics are great-circle arcs.
    Subclasses fix the dimensions, the uniform sampler and the region
    anchors."""

    diameter = math.pi
    euclidean_diameter = 2.0
    coordinate_range = (-1.0, 1.0)

    def geodesic_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.arccos(np.clip(xs @ ys.T, -1.0, 1.0))

    def on_manifold(self, points: np.ndarray) -> bool:
        norms = np.linalg.norm(np.atleast_2d(points), axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= _ON_MANIFOLD_TOLERANCE))


@dataclass(frozen=True)
class Sphere(_RoundManifold):
    """The unit sphere embedded in R^3."""

    kind = "sphere"
    ambient_dim = 3
    intrinsic_dim = 2

    def sample_uniform(self, rng: CounterStream, count: int) -> np.ndarray:
        draws = rng.normals(3 * count).reshape(count, 3)
        norms = np.linalg.norm(draws, axis=1)
        good = norms > 1e-12
        return draws[good] / norms[good, None]

    def region_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))


@dataclass(frozen=True)
class UnitSquare(Manifold):
    """The unit square [0,1]^2 with straight-line geodesics."""

    kind = "unit_square"
    ambient_dim = 2
    intrinsic_dim = 2
    diameter = math.sqrt(2.0)
    euclidean_diameter = math.sqrt(2.0)
    coordinate_range = (0.0, 1.0)

    def sample_uniform(self, rng: CounterStream, count: int) -> np.ndarray:
        return rng.uniforms(2 * count).reshape(count, 2)

    def geodesic_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.sqrt(pairwise_squared_distances(xs, ys))

    def on_manifold(self, points: np.ndarray) -> bool:
        pts = np.atleast_2d(points)
        return bool(np.all(pts >= -_ON_MANIFOLD_TOLERANCE) and np.all(pts <= 1.0 + _ON_MANIFOLD_TOLERANCE))

    def region_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([0.25, 0.25]), np.array([0.75, 0.75]))


@dataclass(frozen=True)
class Circle(_RoundManifold):
    """The unit circle embedded in R^2; geodesics are arcs."""

    kind = "circle"
    ambient_dim = 2
    intrinsic_dim = 1

    def sample_uniform(self, rng: CounterStream, count: int) -> np.ndarray:
        angles = 2.0 * math.pi * rng.uniforms(count)
        return np.column_stack([np.cos(angles), np.sin(angles)])

    def region_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([1.0, 0.0]), np.array([-1.0, 0.0]))


_MANIFOLDS = {manifold.kind: manifold for manifold in (Sphere, UnitSquare, Circle)}


def make_manifold(kind: str) -> Manifold:
    """Build a manifold by kind name: sphere, unit_square, or circle."""
    if kind not in _MANIFOLDS:
        raise InvalidParameterError(f"unknown manifold kind: {kind!r}")
    return _MANIFOLDS[kind]()


def pairwise_squared_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two point sets, from ``cdist``;
    exactly symmetric when both sets are the same."""
    return cdist(np.atleast_2d(xs), np.atleast_2d(ys), "sqeuclidean")


# ---------------------------------------------------------------------------
# Densities and placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """Sampling density over a manifold, relative to the uniform measure.

    ``uniform`` has relative weight 1 everywhere.  ``tilted`` has relative
    weight 1 + strength * coordinate[axis], which must stay positive over
    the manifold; draws use rejection against the uniform proposal.
    """

    kind: str = "uniform"
    axis: int = 0
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "tilted"):
            raise InvalidParameterError(f"unknown density kind: {self.kind!r}")
        if self.kind == "uniform" and self.strength != 0.0:
            raise InvalidParameterError("uniform density takes no strength")

    def weight_bounds(self, manifold: Manifold) -> tuple[float, float]:
        """(lower, upper) bounds of the relative weight over the manifold."""
        if self.kind == "uniform":
            return (1.0, 1.0)
        if not 0 <= self.axis < manifold.ambient_dim:
            raise DensityMisconfiguredError(
                f"tilt axis {self.axis} outside ambient dimension {manifold.ambient_dim}"
            )
        lo, hi = manifold.coordinate_range
        candidates = (1.0 + self.strength * lo, 1.0 + self.strength * hi)
        bounds = (min(candidates), max(candidates))
        if bounds[0] <= 0.0:
            raise DensityMisconfiguredError(
                f"tilted density is not positive on the manifold: lower bound {bounds[0]}"
            )
        return bounds

    def relative_weight(self, points: np.ndarray) -> np.ndarray:
        if self.kind == "uniform":
            return np.ones(points.shape[0])
        return 1.0 + self.strength * points[:, self.axis]


@dataclass(frozen=True)
class Placement:
    """How target points are placed: i.i.d. from the density, or from two
    geodesic balls around fixed anchors (for figure-style layouts)."""

    mode: str = "iid"
    region_radius: float | None = None

    def __post_init__(self):
        if self.mode not in ("iid", "two_regions"):
            raise InvalidParameterError(f"unknown placement mode: {self.mode!r}")
        if self.region_radius is not None and self.region_radius <= 0:
            raise InvalidParameterError("region_radius must be positive when given")


@dataclass(frozen=True)
class LatentConfiguration:
    """Latent points split into two target groups and auxiliary points.

    Attributes:
        xs: First target group, shape (n, d).
        ys: Second target group, shape (m, d).
        zs: Auxiliary points, shape (N - n - m, d).
        manifold: The manifold all points lie on.
    """

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    manifold: Manifold

    def __post_init__(self):
        for name in ("xs", "ys", "zs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 and not (name == "zs" and arr.size == 0):
                raise InvalidParameterError(f"{name} must be a 2-d point array")
            arr = arr.reshape(-1, self.manifold.ambient_dim)
            if arr.size and not self.manifold.on_manifold(arr):
                raise InvalidParameterError(f"{name} contains points off the manifold")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.xs.shape[0] == 0 or self.ys.shape[0] == 0:
            raise InvalidParameterError("both target groups must be nonempty")

    def all_points(self) -> np.ndarray:
        """All points stacked with targets first: xs, then ys, then zs."""
        return np.vstack([self.xs, self.ys, self.zs])


def _sample_from_density(
    manifold: Manifold,
    density: Density,
    count: int,
    rng: CounterStream,
    region: tuple[np.ndarray, float] | None = None,
) -> np.ndarray:
    """Rejection sampling from the density, optionally restricted to a
    geodesic ball (anchor, radius).

    Each round proposes one uniform point for every point still missing and
    keeps the accepted ones in proposal order, so ``_REJECTION_ATTEMPT_CAP``
    rounds are that many attempts per point.
    """
    _, upper = density.weight_bounds(manifold)
    points = np.empty((count, manifold.ambient_dim))
    filled = 0
    for _ in range(_REJECTION_ATTEMPT_CAP):
        if filled == count:
            break
        proposals = manifold.sample_uniform(rng, count - filled)
        keep = np.ones(proposals.shape[0], dtype=bool)
        if density.kind != "uniform":
            keep &= rng.uniforms(proposals.shape[0]) * upper < density.relative_weight(proposals)
        if region is not None:
            anchor, radius = region
            keep &= manifold.geodesic_matrix(proposals, anchor[None, :])[:, 0] <= radius
        accepted = proposals[keep]
        points[filled : filled + accepted.shape[0]] = accepted
        filled += accepted.shape[0]
    if filled < count:
        raise DensityMisconfiguredError(
            f"rejection sampling exceeded {_REJECTION_ATTEMPT_CAP} attempts per point"
        )
    return points


def sample_latents(
    manifold: Manifold,
    density: Density,
    n: int,
    m: int,
    total: int,
    seed: RngSeed,
    placement: Placement = Placement(),
) -> LatentConfiguration:
    """Draw n + m target points and total - n - m auxiliary points.

    Consumes one stream seeded by ``seed`` in the fixed order xs, ys, zs, so
    the result is bit-reproducible.  Auxiliary points are always i.i.d. from
    the density; target points follow the placement.
    """
    if n < 1 or m < 1:
        raise InvalidParameterError(f"both target groups must be nonempty: n={n}, m={m}")
    if n + m > total:
        raise InvalidParameterError(f"n + m = {n + m} exceeds total point count {total}")
    rng = CounterStream(seed)
    if placement.mode == "two_regions":
        radius = placement.region_radius or manifold.diameter / 4.0
        anchor_a, anchor_b = manifold.region_anchors()
        xs = _sample_from_density(manifold, density, n, rng, region=(anchor_a, radius))
        ys = _sample_from_density(manifold, density, m, rng, region=(anchor_b, radius))
    else:
        xs = _sample_from_density(manifold, density, n, rng)
        ys = _sample_from_density(manifold, density, m, rng)
    zs = _sample_from_density(manifold, density, total - n - m, rng)
    return LatentConfiguration(xs=xs, ys=ys, zs=zs, manifold=manifold)


# ---------------------------------------------------------------------------
# Connectivity kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPowerKernel:
    """Kernel w(x, y) = exp(-||x - y||^p / sigma) on ambient distances.

    ``sigma`` divides the p-th power of the distance directly, so with
    p = 2 the kernel is exp(-squared_distance / sigma).
    """

    p: float = 2.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise InvalidParameterError(f"power must be >= 1: {self.p}")
        if not self.sigma > 0:
            raise InvalidParameterError(f"sigma must be positive: {self.sigma}")

    def distance_power(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Matrix of ||x - y||^p between two point sets."""
        squared = pairwise_squared_distances(xs, ys)
        if self.p == 2.0:
            return squared
        return np.sqrt(np.maximum(squared, 0.0)) ** self.p

    def evaluate(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.of_powers(self.distance_power(xs, ys))

    def of_powers(self, powers: np.ndarray) -> np.ndarray:
        """The kernel from distance powers already computed by
        :meth:`distance_power`."""
        out = np.divide(powers, -self.sigma)
        return np.exp(out, out=out)

    def max_distance_power(self, manifold: Manifold) -> float:
        """The largest ||x - y||^p over pairs of points of the manifold, diam^p:
        the adjacency route's largest cost."""
        return manifold.euclidean_diameter**self.p

    def bounds(self, manifold: Manifold) -> tuple[float, float]:
        """(w_min, w_max) over pairs of points of the manifold."""
        w_min = math.exp(-self.max_distance_power(manifold) / self.sigma)
        return (w_min, 1.0)


@dataclass(frozen=True)
class NonlocalKernel:
    """Bernoulli edge model: pair (i, j) is an edge w.p. rho * w(z_i, z_j).

    ``rho`` in [0, 1]; zero is allowed and produces an empty graph, though
    estimators that divide by rho require it positive.
    """

    rho: float
    form: GaussianPowerKernel

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in [0, 1]: {self.rho}")


def sparse_log_rho(c: float, total: int) -> float:
    """Relatively sparse preset: rho = min(1, c * log(N) / N)."""
    if c <= 0:
        raise InvalidParameterError(f"sparse rho coefficient must be positive: {c}")
    if total < 2:
        raise InvalidParameterError(f"total must be >= 2: {total}")
    return min(1.0, c * math.log(total) / total)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def _index_dtype(node_count: int, nnz: int) -> type:
    """int32 where every index and offset of an adjacency fits, else int64."""
    return np.int32 if max(node_count, nnz) <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph stored as its adjacency matrix: a symmetric
    CSR array in canonical format (sorted, duplicate-free indices), with unit
    entries, an empty diagonal and int32 index arrays, which
    ``scipy.sparse.csgraph`` reads without converting them."""

    adjacency: csr_array

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "Graph":
        """Build from an (E, 2) array-like of index pairs; direction and
        duplicates are ignored.

        Both directions of every pair become a key i * N + j.  One sort of
        the 2E keys puts them in CSR order (row-major, columns ascending);
        equal neighbours are the duplicates, the key's remainder mod N is
        the column, and each row's slice starts where its first key would.
        """
        if node_count < 1:
            raise InvalidParameterError(f"node_count must be positive: {node_count}")
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise InvalidParameterError(f"self-loop at node {pairs[loops[0], 0]}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= node_count):
            outside = np.flatnonzero(np.any((pairs < 0) | (pairs >= node_count), axis=1))
            raise InvalidParameterError(f"edge {tuple(pairs[outside[0]].tolist())} outside node range")
        first, second = pairs.T
        keys = np.concatenate([first * node_count + second, second * node_count + first])
        keys.sort()
        if keys.size:
            fresh = np.empty(keys.size, dtype=bool)
            fresh[0] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            keys = keys[fresh]
            del fresh
        index_dtype = _index_dtype(node_count, keys.size)
        row_starts = np.arange(node_count + 1, dtype=np.int64) * node_count
        indptr = np.searchsorted(keys, row_starts).astype(index_dtype)
        keys %= node_count
        indices = keys.astype(index_dtype, copy=False)
        # Drop the keys before the float64 data is allocated, so the call's
        # peak stays at the deduplication: sorted keys, mask and kept keys.
        del keys
        adjacency = csr_array((np.ones(indices.size), indices, indptr), shape=(node_count, node_count))
        adjacency.has_canonical_format = True
        return cls(adjacency)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz // 2

    def edges(self) -> np.ndarray:
        """Edges (i, j) with i < j as an (E, 2) array in ascending
        lexicographic order."""
        rows = np.repeat(np.arange(self.node_count), np.diff(self.adjacency.indptr))
        cols = self.adjacency.indices
        upper = rows < cols
        return np.column_stack([rows[upper], cols[upper]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and (self.adjacency != other.adjacency).nnz == 0


def eps_graph(latents: LatentConfiguration, h: float) -> Graph:
    """Connectivity graph with an edge iff ambient distance <= h (closed ball).

    Pairs come from a k-d tree, so no N x N distance matrix is formed, and
    :meth:`Graph.from_edges` sorts them straight into the CSR adjacency, so
    no COO copy of the E pairs is formed either.
    """
    if h <= 0:
        raise InvalidParameterError(f"connectivity radius must be positive: {h}")
    points = latents.all_points()
    pairs = cKDTree(points).query_pairs(h, output_type="ndarray")
    return Graph.from_edges(points.shape[0], pairs)


def bernoulli_block(seed: RngSeed, rows: np.ndarray, cols: np.ndarray, probabilities) -> csr_array:
    """The Bernoulli edges between the ascending index vectors ``rows`` and
    ``cols`` as a CSR block in canonical format.  Entry (r, c) is 1 iff
    rows[r] < cols[c] and the counter-based uniform
    :func:`~latent_ot.rng.pair_uniforms` of (seed, rows[r], cols[c]) is below
    the pair's probability; ``probabilities(row_slice, col_slice)`` returns
    those of one block of positions into ``rows`` and ``cols``.

    Every Bernoulli graph draw goes through here, so a caller that reads only
    some pairs gets the same edges as the whole graph has there.  The rows are
    walked in blocks of about ``_GRAPH_BLOCK_PAIRS`` pairs.  A block hashes
    only the columns after its first row and masks only its leading corner,
    the columns up to its last row, so no len(rows) x len(cols) array is
    formed.
    """
    count, width = rows.size, cols.size
    block_rows = max(1, _GRAPH_BLOCK_PAIRS // width)
    row_counts, picked_cols = [np.zeros(1, dtype=np.int64)], []
    for start in range(0, count, block_rows):
        stop = min(start + block_rows, count)
        first, last = np.searchsorted(cols, rows[[start, stop - 1]], side="right")
        block = probabilities(slice(start, stop), slice(first, width))
        if block.size and float(block.max()) > 1.0 + 1e-12:
            raise InvalidParameterError("edge probability rho * w exceeds 1")
        hit = pair_uniforms(seed, rows[start:stop, None], cols[None, first:]) < block
        hit[:, : last - first] &= rows[start:stop, None] < cols[None, first:last]
        # A row-major block's flat hits are in CSR order; one flat scan and a
        # divmod take about a third of the time of the 2-D np.nonzero.
        local_rows, local_cols = np.divmod(np.flatnonzero(hit), hit.shape[1])
        picked_cols.append(local_cols + first)
        row_counts.append(np.bincount(local_rows, minlength=stop - start))
    indices = np.concatenate(picked_cols)
    upper = csr_array((np.ones(indices.size), indices, np.cumsum(np.concatenate(row_counts))), shape=(count, width))
    upper.has_canonical_format = True
    return upper


def sample_kernel_graph(
    latents: LatentConfiguration, kernel: NonlocalKernel, seed: RngSeed
) -> Graph:
    """Draw each unordered pair as an independent Bernoulli edge.

    Pair (i, j) with i < j is an edge with probability rho * w(z_i, z_j),
    drawn by :func:`bernoulli_block` over all N points against all N, so
    memory does not grow as N x N.  The walker returns the canonical upper
    triangle, so the adjacency is that block plus its transpose, with no
    second sort; the sum carries the walker's int64 offsets, which are cast
    back to the graph's index type.
    """
    points = latents.all_points()
    index = np.arange(points.shape[0])

    def probabilities(rows: slice, cols: slice) -> np.ndarray:
        block = kernel.form.evaluate(points[rows], points[cols])
        block *= kernel.rho
        return block

    upper = bernoulli_block(seed, index, index, probabilities)
    adjacency = upper + upper.T
    index_dtype = _index_dtype(index.size, adjacency.nnz)
    adjacency.indptr = adjacency.indptr.astype(index_dtype)
    adjacency.indices = adjacency.indices.astype(index_dtype)
    adjacency.has_canonical_format = True
    return Graph(adjacency)


def h_schedule(total: int, k: int, c0: float) -> float:
    """Connectivity radius h = (c0 * (log N)^2 / N)^(1/k) for N points.

    Shrinks slowly enough that the expected neighborhood size N h^k keeps
    growing like log^2 N, which keeps the graph connected as N grows.
    """
    if total < 2:
        raise InvalidParameterError(f"total must be >= 2: {total}")
    if k < 1:
        raise InvalidParameterError(f"intrinsic dimension must be >= 1: {k}")
    if c0 <= 0:
        raise InvalidParameterError(f"c0 must be positive: {c0}")
    return float((c0 * math.log(total) ** 2 / total) ** (1.0 / k))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def graph_to_edgelist(graph: Graph) -> str:
    """Edge-list text: first line "N E", then one "i j" line per edge with
    0-based i < j in ascending lexicographic order."""
    lines = [f"{graph.node_count} {graph.edge_count}"]
    lines.extend(f"{i} {j}" for i, j in graph.edges().tolist())
    return "\n".join(lines) + "\n"
