"""Cost-matrix estimators from observed graphs.

Three routes produce an estimated cost block between the two target groups:

* shortest-path hop counts on a connectivity graph, scaled by the
  connectivity radius, approximate geodesic distances;
* a spectral hard-threshold estimate keeps the top eigenpairs of one
  Bernoulli adjacency matrix, and a cost map is applied to the
  cross-group block they give;
* the raw cross-group adjacency block divided by the sparsity level is an
  unbiased (if rough) kernel estimate, kept as a CSR array and consumed
  directly by the boxed dual solver.

Cost maps are monotone piecewise-linear functions with explicit Lipschitz
constants so estimation error transfers linearly to cost error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_array, sparray
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import (
    InvalidParameterError,
    NumericFailureError,
    TargetsDisconnectedError,
)
from .latent_models import Graph
from .ot_core import CostMatrix, _owned

_FIRST_EIGENPAIRS = 6
# scipy >= 1.16 draws ARPACK's restart vectors (few distinct eigenvalues) from ``rng``.
_EIGSH_RNG = {"rng": 0} if "rng" in inspect.signature(eigsh).parameters else {}
# The Lanczos probe that sizes usvt's first ARPACK call: at most this many
# steps, stopping once its count has not grown for _PROBE_STALL of them.
_PROBE_STEPS = 30
_PROBE_STALL = 6
# Ritz values count only from this multiple of ||A||_F above the threshold,
# far above the rounding error of the probe's and ARPACK's eigenvalues.
_PROBE_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# Cost maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostMap:
    """Monotone piecewise-linear map from distances or kernel values to costs.

    Attributes:
        breakpoints: Ascending input grid; inputs are clamped to its span.
        values: Nonnegative outputs at the breakpoints, monotone in one
            direction.
    """

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
        return cls(np.array([0.0, upper]), np.array([0.0, upper]))

    @classmethod
    def one_minus(cls) -> "CostMap":
        """f(w) = 1 - w on [0, 1]."""
        return cls(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    @property
    def cost_range(self) -> tuple[float, float]:
        return (float(self.values.min()), float(self.values.max()))

    @property
    def lipschitz_constant(self) -> float:
        slopes = np.abs(np.diff(self.values) / np.diff(self.breakpoints))
        return float(slopes.max())

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """Interpolate the table into a new array; inputs outside the
        breakpoints take the end values."""
        return self.apply_in_place(np.array(inputs, dtype=np.float64))

    def apply_in_place(self, values: np.ndarray) -> np.ndarray:
        """Write the map of a float64 array into its own buffer; returns it.

        The bits are ``np.interp``'s.  A two-breakpoint map, from (x0, y0) to
        (x1, y1), clips into [x0, x1] and applies np.interp's own formula
        slope * (x - x0) + y0 one operation at a time, so no second array is
        formed.  np.interp gives y1 at and above x1; where the formula
        misses y1 at x1, those entries are set to it.  A longer table writes
        np.interp's result back into the buffer.
        """
        if self.breakpoints.size > 2:
            values[...] = np.interp(values, self.breakpoints, self.values)
            return values
        (x0, x1), (y0, y1) = self.breakpoints, self.values
        slope = (y1 - y0) / (x1 - x0)
        top = values >= x1 if slope * (x1 - x0) + y0 != y1 else None
        np.clip(values, x0, x1, out=values)
        values -= x0
        values *= slope
        values += y0
        if top is not None:
            values[top] = y1
        return values


# ---------------------------------------------------------------------------
# Shortest-path route
# ---------------------------------------------------------------------------


def _bfs_hops(adjacency: csr_array, source: int, targets: list[int]) -> np.ndarray:
    """Hop counts from ``source`` to ``targets``, ``inf`` where none.

    Along a breadth-first order the positions of the nodes' parents never
    decrease, so the level after the one ending at position ``end`` ends
    after the last node whose parent sits before ``end``: one
    ``searchsorted`` per level, and no Python loop over nodes.  A target's
    hop count is then the number of levels that end at or before its
    position.  scipy's ``shortest_path(unweighted=True)`` and ``dijkstra``
    give the same hops at about twice the time (20 sources, N = 6000).
    """
    # The adjacency is symmetric, so a directed search gives the undirected distances.
    order, parents = breadth_first_order(adjacency, source, directed=True, return_predecessors=True)
    # Unreached nodes sit after every level.
    position = np.full(adjacency.shape[0], order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    parent_positions = position[parents[order[1:]]]
    level_ends = [1]
    while level_ends[-1] < order.size:
        level_ends.append(1 + int(np.searchsorted(parent_positions, level_ends[-1])))
    target_positions = position[targets]
    hops = np.searchsorted(level_ends, target_positions, side="right").astype(np.float64)
    hops[target_positions == order.size] = np.inf
    return hops


def hop_counts(graph: Graph, sources, targets) -> np.ndarray:
    """Shortest-path edge counts from each source to each target, ``inf`` where none.

    Runs one breadth-first search per source (:func:`_bfs_hops`), so the
    cost is O(N + E) per source and no distance matrix wider than the
    targets is kept.
    """
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
    return np.stack([_bfs_hops(graph.adjacency, source, targets) for source in sources])


def geodesic_estimate(hops: np.ndarray, h: float) -> np.ndarray:
    """Distance estimate h * hop_count; every pair must be reachable.

    Each edge of the connectivity graph has length at most h, so h times
    the hop count upper-bounds the straight-line distance while tracking
    the geodesic as the graph densifies.
    """
    if h <= 0:
        raise InvalidParameterError(f"connectivity radius must be positive: {h}")
    unreachable = np.argwhere(np.isinf(hops))
    if unreachable.size:
        raise TargetsDisconnectedError(int(unreachable[0, 0]), int(unreachable[0, 1]))
    return hops * h


def cost_from_distances(dhat: np.ndarray, cost_map: CostMap) -> CostMatrix:
    """Apply a cost map entrywise; bounds come from the map's range.

    The costs are written into the buffer of a fresh float64 array, the kind
    a :class:`CostMatrix` keeps without a copy (:func:`CostMap.apply_in_place`),
    which then becomes the cost's frozen entries, so no second n x m array is
    formed.  A caller that still reads its distances must read them before
    this call.  A view, a read-only array or another dtype is copied first
    and stays as it was.
    """
    entries = cost_map.apply_in_place(_owned(np.asarray(dhat, dtype=np.float64)))
    lo, hi = cost_map.cost_range
    return CostMatrix(entries=entries, c_min=lo, c_max=hi)


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------


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

    def threshold(self, node_count: int) -> float:
        return self.gamma * math.sqrt(self.rho * node_count)


@dataclass(frozen=True)
class UsvtEstimate:
    """The kept eigenpairs of a spectral estimate: ``values`` descending and
    ``vectors`` (N, rank).  The N x N estimate itself is never formed."""

    values: np.ndarray
    vectors: np.ndarray
    params: UsvtParams

    @property
    def rank(self) -> int:
        return self.values.size

    def at_gamma(self, gamma: float) -> "UsvtEstimate":
        """The estimate at a gamma no smaller than this one's, from the same spectrum."""
        if gamma < self.params.gamma:
            raise InvalidParameterError(f"gamma {gamma} is below the decomposed {self.params.gamma}")
        params = replace(self.params, gamma=gamma)
        keep = self.values >= params.threshold(self.vectors.shape[0])
        return UsvtEstimate(self.values[keep], self.vectors[:, keep], params)

    def block(self, rows, cols) -> np.ndarray:
        """Entries (rows, cols) of V diag(values / rho) V^T, clamped into the
        kernel range: one BLAS gemm, on the one thread the package pins."""
        raw = (self.vectors[rows] * (self.values / self.params.rho)) @ self.vectors[cols].T
        return np.clip(raw, *self.params.clamp_range, out=raw)


def _probe_rank(matrix: csr_array, start: np.ndarray, threshold: float) -> int:
    """A lower bound on the number of eigenvalues of the symmetric ``matrix``
    at or above ``threshold``, from a short Lanczos run.

    Lanczos from ``start`` with full reorthogonalisation (two Gram-Schmidt
    passes per step) keeps an orthonormal basis Q of the Krylov space, and
    the tridiagonal T of its recurrence is Q^T A Q up to rounding.  By Cauchy
    interlacing, the i-th largest eigenvalue of Q^T A Q is at most A's i-th
    largest for any orthonormal Q (Rayleigh-Ritz; Parlett, The Symmetric
    Eigenvalue Problem, ch. 10-11), so T has no more eigenvalues at or above
    the threshold than A has.  T's eigenvalues are counted, not computed: by
    Sylvester's law of inertia, T - c I = L D L^T has as many positive
    pivots as T has eigenvalues above c, and each step adds one pivot.  The
    cutoff c sits ``_PROBE_MARGIN * ||A||_F`` above the threshold
    (||A||_F >= ||A||_2), far more than the rounding in T, so rounding can
    only lower the count.  The run stops after ``_PROBE_STEPS`` steps, once
    its count has not grown for ``_PROBE_STALL`` of them, or when the Krylov
    space is invariant (a breakdown, as on a rank-one matrix); any stop
    gives a valid bound.
    """
    count = matrix.shape[0]
    steps = min(_PROBE_STEPS, count)
    basis = np.empty((steps, count))
    scale = math.sqrt(float(matrix.data @ matrix.data))
    cutoff = threshold + _PROBE_MARGIN * scale
    vector = start / np.linalg.norm(start)
    found = stalled = 0
    pivot = residual = 0.0
    for step in range(steps):
        basis[step] = vector
        kept = basis[: step + 1]
        image = matrix @ vector
        coefficients = kept @ image
        image -= coefficients @ kept
        image -= (kept @ image) @ kept
        # The next pivot of T - c I = L D L^T.
        pivot = float(coefficients[step]) - cutoff - (residual * residual / pivot if step else 0.0)
        if pivot == 0.0:  # Lowering T's diagonal entry keeps the bound.
            pivot = -_PROBE_MARGIN * scale
        if pivot > 0.0:
            found, stalled = found + 1, 0
        else:
            stalled += 1
        residual = float(np.linalg.norm(image))
        if stalled == _PROBE_STALL or residual <= _PROBE_MARGIN * scale:
            break
        vector = image / residual
    return found


def usvt(adjacency: Graph | np.ndarray, params: UsvtParams) -> UsvtEstimate:
    """Kernel estimate by spectral hard thresholding (Chatterjee's USVT).

    Keeps the eigenpairs with eigenvalue at least gamma * sqrt(rho * N);
    Chatterjee thresholds |eigenvalue|, which agrees while no negative
    eigenvalue reaches -threshold.  ARPACK computes the top k, k doubling
    along 6, 12, 24, ... (capped at N - 1) until the smallest falls below
    the threshold; it needs k < N, so if all N - 1 pass, the smallest
    eigenpair decides the last.  A call that fails with an ARPACK error
    other than non-convergence, such as error 3 (no shifts could be applied)
    on a small graph's repeated eigenvalues, is retried once at the same k
    with ncv = min(N, 2 (2k + 1)) Lanczos vectors (scipy's default is
    max(2k + 1, 20)); a second failure, or non-convergence, is a numeric
    failure.

    Before any ARPACK call, :func:`_probe_rank` gives a lower bound L
    on the number of eigenvalues at or above the threshold (Cauchy
    interlacing; its Ritz values count only from a margin of 1e-8 ||A||_F
    above the threshold, so rounding can only lower L).  Every k <= L of the
    sequence has all of its top k eigenvalues above the threshold, so its
    call could not end the loop; the loop starts at the first k above L.
    The call that ends it has the same k and start as without the probe, so
    the result keeps its bits, and a graph whose rank the probe sees takes
    one call.  A dense symmetric input is converted to CSR, so it gives the
    same bits as its Graph.  A graph with no edge has rank 0, and no ARPACK
    call is made: its zero start vector would be an ARPACK error.
    """
    if isinstance(adjacency, Graph):
        matrix = adjacency.adjacency
    else:
        dense = np.asarray(adjacency, dtype=np.float64)
        if dense.ndim != 2 or dense.shape != dense.T.shape or not np.allclose(dense, dense.T, atol=1e-8):
            raise InvalidParameterError("adjacency must be a symmetric matrix")
        matrix = csr_array(dense)
    count = matrix.shape[0]
    if count < 2:
        raise InvalidParameterError("adjacency must have at least 2 nodes")
    if matrix.nnz == 0:  # No eigenvalue of the zero matrix reaches the positive threshold.
        return UsvtEstimate(np.empty(0), np.empty((count, 0)), params)
    threshold = params.threshold(count)
    # A fixed start (and restart seed) gives the same bits for the same matrix.
    start = np.cos(np.arange(count, dtype=np.float64))

    def eigenpairs(k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
        try:
            return eigsh(matrix, k, which=which, v0=start, **_EIGSH_RNG)
        except ArpackNoConvergence:
            raise
        except ArpackError:
            return eigsh(matrix, k, which=which, v0=start, ncv=min(count, 2 * (2 * k + 1)), **_EIGSH_RNG)

    k, lower_bound = _FIRST_EIGENPAIRS, _probe_rank(matrix, start, threshold)
    while k <= lower_bound:
        k *= 2
    k = min(k, count - 1)
    try:
        values, vectors = eigenpairs(k, which="LA")  # ascending
        while values[0] >= threshold and k < count - 1:
            k = min(2 * k, count - 1)
            values, vectors = eigenpairs(k, which="LA")
        if values[0] >= threshold:
            last_value, last_vector = eigenpairs(1, which="SA")
            values, vectors = np.append(last_value, values), np.hstack([last_vector, vectors])
    except ArpackError as exc:
        raise NumericFailureError(f"ARPACK failed on the top eigenpairs: {exc}") from exc
    keep = np.flatnonzero(values >= threshold)[::-1]
    return UsvtEstimate(values[keep], vectors[:, keep], params)


# ---------------------------------------------------------------------------
# Direct adjacency route
# ---------------------------------------------------------------------------


def fast_kernel_block(block: np.ndarray | sparray, rho: float) -> csr_array:
    """The n x m cross-group adjacency block, dense or sparse, divided by
    rho, as a CSR array in canonical format.

    The result stores 1/rho at each cross edge and estimates the kernel
    block w(x_i, y_j) without eigendecomposition; no n x m array is formed
    from a sparse block.
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidParameterError(f"rho must lie in (0, 1]: {rho}")
    if len(np.shape(block)) != 2 or 0 in np.shape(block):
        raise InvalidParameterError(f"adjacency block must be a nonempty matrix: got shape {np.shape(block)}")
    kernel = csr_array(block, dtype=np.float64, copy=True)
    kernel.sum_duplicates()
    kernel.data /= rho
    return kernel
