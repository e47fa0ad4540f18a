"""Cost-matrix estimators from observed graphs.

Three routes produce an estimated cost block between the two target groups:

* shortest-path hop counts on a connectivity graph, scaled by the
  connectivity radius, approximate geodesic distances;
* a spectral hard-threshold estimate recovers the full kernel matrix from
  one Bernoulli adjacency matrix, and a cost map is applied to its
  cross-group block;
* the raw cross-group adjacency block divided by the sparsity level is an
  unbiased (if rough) kernel estimate consumed directly by the boxed dual
  solver.

Cost maps are monotone piecewise-linear functions with explicit Lipschitz
constants so estimation error transfers linearly to cost error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .errors import (
    InvalidParameterError,
    NumericFailureError,
    TargetsDisconnectedError,
)
from .latent_models import Graph
from .ot_core import CostMatrix

UNREACHABLE = -1
_DENSE_EIG_LIMIT = 4096


# ---------------------------------------------------------------------------
# Cost maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostMap:
    """Monotone piecewise-linear map from distances or kernel values to costs.

    Attributes:
        kind: "identity", "one_minus", or "piecewise".
        breakpoints: Ascending input grid; inputs are clamped to its span.
        values: Nonnegative outputs at the breakpoints, monotone in one
            direction.
    """

    kind: str
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if breakpoints.ndim != 1 or breakpoints.size < 2 or breakpoints.shape != values.shape:
            raise InvalidParameterError("cost map needs matching grids of >= 2 breakpoints")
        if not (np.all(np.isfinite(breakpoints)) and np.all(np.isfinite(values))):
            raise InvalidParameterError("cost map grids must be finite")
        if np.any(np.diff(breakpoints) <= 0):
            raise InvalidParameterError("breakpoints must be strictly ascending")
        steps = np.diff(values)
        if not (np.all(steps >= 0) or np.all(steps <= 0)):
            raise InvalidParameterError("cost map values must be monotone")
        if np.any(values < 0):
            raise InvalidParameterError("costs must be nonnegative")
        for name, arr in (("breakpoints", breakpoints), ("values", values)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def identity(cls, upper: float) -> "CostMap":
        """f(t) = t on [0, upper]."""
        if upper <= 0:
            raise InvalidParameterError(f"upper bound must be positive: {upper}")
        return cls("identity", np.array([0.0, upper]), np.array([0.0, upper]))

    @classmethod
    def one_minus(cls, lower: float = 0.0, upper: float = 1.0) -> "CostMap":
        """f(w) = 1 - w on [lower, upper] with 0 <= lower < upper <= 1."""
        if not 0.0 <= lower < upper <= 1.0:
            raise InvalidParameterError(f"need 0 <= lower < upper <= 1: ({lower}, {upper})")
        return cls("one_minus", np.array([lower, upper]), np.array([1.0 - lower, 1.0 - upper]))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "CostMap":
        return cls("piecewise", np.asarray(breakpoints), np.asarray(values))

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    @property
    def cost_range(self) -> tuple[float, float]:
        return (float(self.values.min()), float(self.values.max()))

    @property
    def lipschitz_constant(self) -> float:
        slopes = np.abs(np.diff(self.values) / np.diff(self.breakpoints))
        return float(slopes.max())

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """Clamp inputs to the domain and interpolate the table."""
        arr = np.asarray(inputs, dtype=np.float64)
        clamped = np.clip(arr, self.breakpoints[0], self.breakpoints[-1])
        return np.interp(clamped, self.breakpoints, self.values)


# ---------------------------------------------------------------------------
# Shortest-path route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopMatrix:
    """Cross-group shortest-path edge counts; -1 marks unreachable pairs."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        if entries.ndim != 2 or entries.size == 0:
            raise InvalidParameterError("hop entries must form a nonempty matrix")
        if np.any(entries < UNREACHABLE):
            raise InvalidParameterError("hop entries must be counts or the -1 marker")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def all_reachable(self) -> bool:
        return not np.any(self.entries == UNREACHABLE)

    def first_unreachable(self) -> tuple[int, int] | None:
        hits = np.argwhere(self.entries == UNREACHABLE)
        return None if hits.size == 0 else (int(hits[0, 0]), int(hits[0, 1]))


def hop_counts(graph: Graph, sources, targets) -> HopMatrix:
    """Shortest-path edge counts from each source to each target."""
    sources = [int(s) for s in sources]
    targets = [int(t) for t in targets]
    if not sources or not targets:
        raise InvalidParameterError("sources and targets must be nonempty")
    all_indices = sources + targets
    if any(not 0 <= idx < graph.node_count for idx in all_indices):
        raise InvalidParameterError("source/target index outside the graph")
    if set(sources) & set(targets):
        raise InvalidParameterError("sources and targets must be disjoint")
    if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
        raise InvalidParameterError("duplicate source or target index")
    # The adjacency is symmetric, so a directed search gives the undirected distances.
    dist = shortest_path(graph.adjacency, directed=True, unweighted=True, indices=sources)[:, targets]
    entries = np.where(np.isinf(dist), UNREACHABLE, dist).astype(np.int64)
    return HopMatrix(entries)


def geodesic_estimate(hops: HopMatrix, h: float) -> np.ndarray:
    """Distance estimate h * hop_count; every pair must be reachable.

    Each edge of the connectivity graph has length at most h, so h times
    the hop count upper-bounds the straight-line distance while tracking
    the geodesic as the graph densifies.
    """
    if h <= 0:
        raise InvalidParameterError(f"connectivity radius must be positive: {h}")
    pair = hops.first_unreachable()
    if pair is not None:
        raise TargetsDisconnectedError(pair[0], pair[1])
    return hops.entries.astype(np.float64) * h


def cost_from_distances(dhat: np.ndarray, cost_map: CostMap) -> CostMatrix:
    """Apply a cost map entrywise; bounds come from the map's range."""
    entries = cost_map.apply(np.asarray(dhat, dtype=np.float64))
    lo, hi = cost_map.cost_range
    return CostMatrix(entries=entries, c_min=lo, c_max=hi)


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Eigendecomposition:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.eigenvalues, dtype=np.float64)
        vectors = np.asarray(self.eigenvectors, dtype=np.float64)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.size:
            raise InvalidParameterError("eigenvalues and eigenvector columns must align")
        for name, arr in (("eigenvalues", values), ("eigenvectors", vectors)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_symmetric(cls, matrix: np.ndarray) -> "Eigendecomposition":
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise InvalidParameterError("eigendecomposition needs a square matrix")
        if mat.shape[0] > _DENSE_EIG_LIMIT:
            raise InvalidParameterError(
                f"dense eigendecomposition capped at {_DENSE_EIG_LIMIT} rows"
            )
        if not np.allclose(mat, mat.T, atol=1e-8):
            raise InvalidParameterError("matrix must be symmetric")
        try:
            values, vectors = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
        order = np.argsort(values)[::-1]
        return cls(eigenvalues=values[order], eigenvectors=vectors[:, order])

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


@dataclass(frozen=True)
class UsvtParams:
    """Spectral threshold settings.

    Attributes:
        gamma: Threshold multiplier; eigenpairs with eigenvalue below
            gamma * sqrt(rho * N) are dropped.
        rho: Known edge sparsity in (0, 1]; the kept spectrum is divided
            by it.
        clamp_range: Entry bounds [w_min, w_max] of the kernel being
            estimated; the output is clamped into them.
    """

    gamma: float
    rho: float
    clamp_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidParameterError(f"gamma must be positive: {self.gamma}")
        if not 0.0 < self.rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in (0, 1]: {self.rho}")
        lo, hi = self.clamp_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise InvalidParameterError(f"clamp range must satisfy 0 <= lo <= hi <= 1: {self.clamp_range}")
        object.__setattr__(self, "clamp_range", (float(lo), float(hi)))


def usvt(adjacency: Graph | np.ndarray, params: UsvtParams) -> np.ndarray:
    """Kernel matrix estimate by spectral hard thresholding.

    Keeps the eigenpairs of the adjacency matrix whose eigenvalue is at
    least gamma * sqrt(rho * N), rescales by 1/rho, and clamps entries into
    the kernel's known range.  Accepts a Graph or a dense symmetric matrix
    (so exact inputs can bypass sampling).
    """
    dense = adjacency.to_dense() if isinstance(adjacency, Graph) else np.asarray(adjacency, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.shape[0] < 2:
        raise InvalidParameterError("adjacency must be square with at least 2 nodes")
    decomposition = Eigendecomposition.from_symmetric(dense)
    return usvt_from_eigen(decomposition, dense.shape[0], params)


def usvt_from_eigen(
    decomposition: Eigendecomposition, node_count: int, params: UsvtParams
) -> np.ndarray:
    """Thresholding step of :func:`usvt`, reusing a precomputed spectrum.

    Splitting this out lets a threshold sweep factor one eigendecomposition
    across many gamma values.
    """
    threshold = params.gamma * math.sqrt(params.rho * node_count)
    keep = decomposition.eigenvalues >= threshold
    values = decomposition.eigenvalues[keep]
    vectors = decomposition.eigenvectors[:, keep]
    raw = (vectors * values) @ vectors.T / params.rho
    raw = 0.5 * (raw + raw.T)
    lo, hi = params.clamp_range
    return np.clip(raw, lo, hi)


def usvt_cost_block(estimate: np.ndarray, n: int, m: int, cost_map: CostMap) -> CostMatrix:
    """Cost matrix from the cross-group block of a full kernel estimate.

    Rows 0..n-1 index the first target group and columns n..n+m-1 the
    second, matching the stacking order of the latent configuration.
    """
    mat = np.asarray(estimate, dtype=np.float64)
    if n < 1 or m < 1:
        raise InvalidParameterError(f"block sizes must be positive: n={n}, m={m}")
    if mat.ndim != 2 or mat.shape != (n + m, n + m):
        raise InvalidParameterError(
            f"estimate must be ({n + m}, {n + m}) for n={n}, m={m}: got {mat.shape}"
        )
    block = mat[:n, n : n + m]
    return cost_from_distances(block, cost_map)


# ---------------------------------------------------------------------------
# Direct adjacency route
# ---------------------------------------------------------------------------


def fast_kernel_block(adjacency: Graph | np.ndarray, rho: float, n: int, m: int) -> np.ndarray:
    """Cross-group adjacency block divided by rho.

    The result has entries in {0, 1/rho} and estimates the kernel block
    w(x_i, y_j) without eigendecomposition; only cross-group edges are read.
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidParameterError(f"rho must lie in (0, 1]: {rho}")
    if n < 1 or m < 1:
        raise InvalidParameterError(f"block sizes must be positive: n={n}, m={m}")
    matrix = adjacency.adjacency if isinstance(adjacency, Graph) else np.asarray(adjacency, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape != (n + m, n + m):
        raise InvalidParameterError(
            f"adjacency must be ({n + m}, {n + m}) for n={n}, m={m}: got {matrix.shape}"
        )
    block = matrix[:n, n : n + m]
    return (block.toarray() if isinstance(adjacency, Graph) else block) / rho
