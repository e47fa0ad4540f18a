"""Experiment cells: one (N, seed) pair per cell, merged into result tables.

One table maps each experiment to its estimator label and its route, the
function that turns a cell into result rows.  A cell reads its group sizes
and its graph scale (the radius h or the edge density rho) from the grid
N's :class:`~latent_ot.harness.config.GridPoint`, resolved at load.  A graph
route runs one pipeline: :func:`sample_cell_latents` draws the latents,
then the route estimates a cost or kernel block, solves, and reports.  On
every route the two groups are nodes [0, n) and [n, n + m) of the N-node
graph; the other N - n - m nodes are auxiliary.  The shortest_path and
usvt routes read the whole observed graph from :func:`sample_cell`.  The
fast_adjacency route runs the pair walker that draws that graph,
:func:`~latent_ot.latent_models.bernoulli_block`, over the cross-group pairs
alone, so it gets the graph's edges there.  The perturbation_pair route
draws random cost pairs instead and shares the stability-report rows.

Every random draw inside a cell comes from a stream derived from the cell's
seed and N alone, so a cell's rows do not depend on which other cells run,
on their order, or on the worker count.  Wall-clock timings go to a second
table so the results file stays byte-reproducible: each cell's
``wall_seconds`` and one ``stage_<name>_seconds`` row per stage it ran.  The
stages are latents, graph, estimate, solve_true, solve_est and bounds.  The
perturbation_pair route draws its cost pair in the estimate stage; each solve
runs in its own stage, and the bounds stage holds the stability report of the
two finished solves and every error diagnostic.
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .. import diagnostics
from ..cost_estimators import (
    UsvtEstimate,
    UsvtParams,
    cost_from_distances,
    fast_kernel_block,
    geodesic_estimate,
    hop_counts,
    usvt,
)
from ..errors import InvalidParameterError
from ..latent_models import (
    _GRAPH_BLOCK_PAIRS,
    GaussianPowerKernel,
    Graph,
    LatentConfiguration,
    NonlocalKernel,
    bernoulli_block,
    eps_graph,
    sample_kernel_graph,
    sample_latents,
)
from ..ot_core import (
    BoxedResult,
    CostMatrix,
    DiscreteDistribution,
    OtResult,
    StabilityReport,
    dual_ascent_boxed,
    report_from_solves,
    sinkhorn,
)
from ..rng import CounterStream, RngSeed
from .config import ExperimentConfig
from .results import ResultRow, ResultTable


@dataclass(frozen=True)
class ExperimentTables:
    """Measured metrics plus per-cell wall-clock timings."""

    results: ResultTable
    timings: ResultTable


class _Cell:
    """One (N, seed) cell of a config, with the fields all its rows share and
    the seconds spent in each stage so far."""

    def __init__(self, config: ExperimentConfig, total: int, seed: int):
        self.config = config
        self.total = total
        self.seed = seed
        point = config.points[total]
        self.n, self.m, self.graph_scale = point.n, point.m, point.graph_scale
        self.eps = config.solver.epsilon
        self.stage_seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Charge the wall-clock time of the block to the named stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + time.perf_counter() - start

    def row(self, estimator: str, metric: str, value: float) -> ResultRow:
        return ResultRow(
            experiment=self.config.experiment,
            seed=self.seed,
            total=self.total,
            n=self.n,
            m=self.m,
            eps=self.eps,
            estimator=estimator,
            metric=metric,
            value=value,
        )


def _normalized_gap(value_true: float, value_est: float) -> float:
    if value_true == 0.0:
        return 0.0 if value_est == 0.0 else math.inf
    return abs(1.0 - value_est / value_true)


def _uniform_marginals(cell: _Cell) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    return DiscreteDistribution.uniform(cell.n), DiscreteDistribution.uniform(cell.m)


@dataclass(frozen=True)
class _SolveEnd:
    """How a finished solve ended: the scalars its value rows read, without
    the reference to its n x m cost that an :class:`OtResult` keeps for its
    plan."""

    value: float
    iterations: int
    converged: bool
    marginal_residual: float

    @classmethod
    def of(cls, solve: OtResult) -> "_SolveEnd":
        return cls(solve.value, solve.iterations, solve.converged, solve.marginal_residual)


def _value_rows(
    cell: _Cell, label: str, true: OtResult | _SolveEnd, est: OtResult | BoxedResult
) -> list[ResultRow]:
    """The transport values of the solves on the true and the estimated side,
    their gap, and how each solve ended."""
    rows = [
        cell.row(label, "ot_value_true", true.value),
        cell.row(label, "ot_value_est", est.value),
        cell.row(label, "ot_error_abs", abs(true.value - est.value)),
    ]
    for side, solve in (("true", true), ("est", est)):
        rows.append(cell.row(label, f"solver_iterations_{side}", float(solve.iterations)))
        rows.append(cell.row(label, f"solver_converged_{side}", 1.0 if solve.converged else 0.0))
        rows.append(cell.row(label, f"solver_marginal_residual_{side}", solve.marginal_residual))
    return rows


def _report_rows(cell: _Cell, label: str, true: OtResult, est: OtResult, report: StabilityReport) -> list[ResultRow]:
    """The value rows of two finished solves, then their stability report:
    cost gaps and every bound's ceiling and slack."""
    rows = _value_rows(cell, label, true, est) + [
        cell.row(label, "cost_sup_err", report.cost_sup_gap),
        cell.row(label, "cost_frobenius_err", report.cost_frobenius_gap),
        cell.row(label, "kl_plans", report.plan_divergence),
        cell.row(label, "kernel_operator_gap", report.kernel_operator_gap),
    ]
    for check in report.checks:
        rows.append(cell.row(label, f"bound_{check.name}_rhs", check.rhs))
        rows.append(cell.row(label, f"slack_{check.name}", check.slack))
    rows.append(cell.row(label, "slack_min", min(check.slack for check in report.checks)))
    rows.append(cell.row(label, "all_bounds_hold", 1.0 if report.all_passed else 0.0))
    return rows


def _cost_block_rows(cell: _Cell, label: str, true: OtResult, cost_est: CostMatrix) -> list[ResultRow]:
    """Solve on the estimated cost block under the marginals of the finished
    solve on the true block, and report the one against the other, with
    the block's normalized value gap."""
    with cell.stage("solve_est"):
        est = sinkhorn(cost_est, true.alpha, true.beta, cell.config.solver)
    with cell.stage("bounds"):
        report = report_from_solves(true, est)
        rows = _report_rows(cell, label, true, est, report)
        rows.append(cell.row(label, "ot_error_normalized", _normalized_gap(true.value, est.value)))
    return rows


def sample_cell_latents(config: ExperimentConfig, total: int, seed: int) -> LatentConfiguration:
    """The latent points of one (N, seed) cell, from a stream derived from
    the seed and N."""
    point = config.points[total]
    stream = RngSeed(seed).derive("latents", total)
    return sample_latents(config.manifold, config.density, point.n, point.m, total, stream, config.placement)


def _graph_seed(seed: int, total: int) -> RngSeed:
    """The Bernoulli graph's stream, separate from the latents'."""
    return RngSeed(seed).derive("graph", total)


def _cell_graph(config: ExperimentConfig, total: int, seed: int, latents: LatentConfiguration) -> Graph:
    """The observed graph over a cell's latents at the grid N's resolved
    scale: the epsilon-graph of radius h for a local kernel, which has no
    form, and the Bernoulli graph of edge density rho for a nonlocal one."""
    scale = config.points[total].graph_scale
    if config.form is None:
        return eps_graph(latents, scale)
    return sample_kernel_graph(latents, NonlocalKernel(rho=scale, form=config.form), _graph_seed(seed, total))


def sample_cell(config: ExperimentConfig, total: int, seed: int) -> tuple[LatentConfiguration, Graph]:
    """The latent points and the observed graph of one (N, seed) cell."""
    latents = sample_cell_latents(config, total, seed)
    return latents, _cell_graph(config, total, seed, latents)


def _timed_latents(cell: _Cell) -> LatentConfiguration:
    """The cell's latents, drawn in the latents stage."""
    with cell.stage("latents"):
        return sample_cell_latents(cell.config, cell.total, cell.seed)


def _timed_latents_and_graph(cell: _Cell) -> tuple[LatentConfiguration, Graph]:
    """The cell's latents and observed graph, each drawn in its own stage."""
    latents = _timed_latents(cell)
    with cell.stage("graph"):
        return latents, _cell_graph(cell.config, cell.total, cell.seed, latents)


# ---------------------------------------------------------------------------
# Routes: from a cell to its result rows
# ---------------------------------------------------------------------------


def _shortest_path_rows(cell: _Cell, label: str) -> list[ResultRow]:
    config = cell.config
    latents, graph = _timed_latents_and_graph(cell)
    with cell.stage("estimate"):
        hops = hop_counts(graph, range(cell.n), range(cell.n, cell.n + cell.m))
        if np.isinf(hops).any():
            return [cell.row(label, "failed_disconnected", 1.0)]
        d_est = geodesic_estimate(hops, cell.graph_scale)
        d_true = config.manifold.geodesic_matrix(latents.xs, latents.ys)
    # Read before the cost map writes the costs into the distances' buffers.
    with cell.stage("bounds"):
        sup_err = float(np.abs(d_est - d_true).max())
    with cell.stage("estimate"):
        cost_true = cost_from_distances(d_true, config.cost_map)
        cost_est = cost_from_distances(d_est, config.cost_map)
    with cell.stage("solve_true"):
        true = sinkhorn(cost_true, *_uniform_marginals(cell), config.solver)
    rows = [
        cell.row(label, "graph_h", cell.graph_scale),
        cell.row(label, "graph_edges", float(graph.edge_count)),
        cell.row(label, "sp_sup_err", sup_err),
    ]
    return rows + _cost_block_rows(cell, label, true, cost_est)


def _kernel_frobenius_normalized(
    points: np.ndarray, form: GaussianPowerKernel, estimates: list[UsvtEstimate], n: int, m: int
) -> tuple[list[float], np.ndarray]:
    """||W - W_est||_F / N for each of ``estimates``, and the cross block
    W[:n, n:n + m] = w(xs, ys) of the two groups, nodes [0, n) and
    [n, n + m) of ``points``.

    The norms run over the upper triangle, since both matrices are
    symmetric: the diagonal once, the pairs j > i twice.  Summed over row
    blocks [start, stop) x [start, N) of about ``_GRAPH_BLOCK_PAIRS``
    entries, the pair walker's block size, so that neither N x N matrix is
    formed, a block's arrays stay near 1 MB, and the share of each block
    below the diagonal, which is evaluated and then masked, stays small.
    One walk serves every estimate: each block of W is evaluated once, and
    each estimate's block is subtracted from it.  The rows of a block below
    n hold a piece of the cross block, which is copied out: the kernel is
    evaluated entry by entry, so the block has the bits of
    ``form.evaluate(xs, ys)``."""
    count = points.shape[0]
    step = max(1, _GRAPH_BLOCK_PAIRS // count)
    squared = [0.0] * len(estimates)
    cross = np.empty((n, m))
    for start in range(0, count, step):
        rows, cols = slice(start, start + step), slice(start, None)
        kernel = form.evaluate(points[rows], points[cols])
        if start < n:
            cross[rows] = kernel[: n - start, n - start : n - start + m]
        lower = np.tri(kernel.shape[0], dtype=bool)
        for index, estimate in enumerate(estimates):
            gap = kernel - estimate.block(rows, cols)
            corner = gap[:, : gap.shape[0]]
            diagonal = np.diagonal(corner)
            squared[index] += float(np.einsum("i,i->", diagonal, diagonal))
            corner[lower] = 0.0
            squared[index] += 2.0 * float(np.einsum("ij,ij->", gap, gap))
    return [math.sqrt(total) / count for total in squared], cross


def _usvt_rows(cell: _Cell, gammas: dict[str, float]) -> list[ResultRow]:
    """One USVT estimate per entry of ``gammas``, which maps each estimate's
    label to its threshold scale."""
    config = cell.config
    form, rho = config.form, cell.graph_scale
    latents, graph = _timed_latents_and_graph(cell)
    with cell.stage("estimate"):
        # One decomposition at the lowest threshold serves every gamma.
        spectrum = usvt(graph, UsvtParams(min(gammas.values()), rho, form.bounds(config.manifold)))
        estimates = {label: spectrum.at_gamma(gamma) for label, gamma in gammas.items()}
    rows: list[ResultRow] = []
    # The kernel errors' walk evaluates every block of the kernel once, the
    # cross block w(xs, ys) included, and the true cost is mapped into the
    # buffer of that block.
    with cell.stage("bounds"):
        frobenius, cross_kernel = _kernel_frobenius_normalized(
            latents.all_points(), form, list(estimates.values()), cell.n, cell.m
        )
        for (label, estimate), value in zip(estimates.items(), frobenius):
            rows.append(cell.row(label, "kernel_frobenius_normalized", value))
            rows.append(cell.row(label, "rho_used", rho))
            rows.append(cell.row(label, "usvt_rank", float(estimate.rank)))
    with cell.stage("estimate"):
        cost_true = cost_from_distances(cross_kernel, config.cost_map)
    # One solve on the true cost serves every gamma too.
    with cell.stage("solve_true"):
        true = sinkhorn(cost_true, *_uniform_marginals(cell), config.solver)
    xs, ys = slice(0, cell.n), slice(cell.n, cell.n + cell.m)
    for label, estimate in estimates.items():
        with cell.stage("estimate"):
            cost_est = cost_from_distances(estimate.block(xs, ys), config.cost_map)
        rows.extend(_cost_block_rows(cell, label, true, cost_est))
    return rows


def _fast_adjacency_rows(cell: _Cell, label: str) -> list[ResultRow]:
    """The boxed dual on the raw cross-group adjacency block.  The walker
    that draws :func:`sample_cell`'s graph walks only the n x m cross pairs
    (i, n + j), so they get that graph's edges.  Each row block reads its
    probabilities from its block of the distance powers, which the true cost
    holds too, so no n x m block of rho * w is formed, and the edges stay
    sparse from the draw to the solve.  The kernel block the gap norms read
    is formed after the true solve, so that solve holds only the distance
    powers and its own kernel."""
    config = cell.config
    form, rho = config.form, cell.graph_scale
    latents = _timed_latents(cell)
    alpha, beta = _uniform_marginals(cell)
    with cell.stage("graph"):
        powers = form.distance_power(latents.xs, latents.ys)

        def probabilities(rows: slice, cols: slice) -> np.ndarray:
            block = form.of_powers(powers[rows, cols])
            block *= rho
            return block

        xs_index, ys_index = np.arange(cell.n), np.arange(cell.n, cell.n + cell.m)
        cross_edges = bernoulli_block(_graph_seed(cell.seed, cell.total), xs_index, ys_index, probabilities)
    with cell.stage("solve_true"):
        cost_true = CostMatrix(entries=powers, c_min=0.0, c_max=form.max_distance_power(config.manifold))
        true = _SolveEnd.of(sinkhorn(cost_true, alpha, beta, config.solver))
    with cell.stage("bounds"):
        weights = form.of_powers(powers)
    # No row reads the distance powers, which the true cost holds, or the
    # true plan: only the solve's scalars and the kernel block formed from
    # the powers outlive the solve, so the powers and the cost go too.
    del powers, cost_true
    with cell.stage("estimate"):
        k_block = fast_kernel_block(cross_edges, rho)
    with cell.stage("solve_est"):
        est = dual_ascent_boxed(k_block, alpha, beta, config.solver)
    with cell.stage("bounds"):
        # W - K in place in W, which no row reads as it is: the CSR's
        # entries are subtracted at their own positions.
        # Its operator norm then scales it in place, so it goes last.
        kernel_gap = weights
        kernel_gap[np.repeat(np.arange(cell.n), np.diff(k_block.indptr)), k_block.indices] -= k_block.data
        frobenius = diagnostics.frobenius_norm(kernel_gap) / math.sqrt(cell.n * cell.m)
        operator_gap = diagnostics._operator_norm_in_place(kernel_gap)

    return _value_rows(cell, label, true, est) + [
        cell.row(label, "ot_error_normalized", _normalized_gap(true.value, est.value)),
        cell.row(label, "kernel_operator_gap", operator_gap),
        cell.row(label, "kernel_frobenius_normalized", frobenius),
        cell.row(label, "eta_used", config.solver.eta),
        cell.row(label, "rho_used", rho),
        cell.row(label, "solver_pinned_fraction_est", est.pinned_fraction),
    ]


def _perturbation_pair_rows(cell: _Cell, label: str) -> list[ResultRow]:
    """Random costs in [cost_low, 1] and marginals; this route samples no latents or graph."""
    config = cell.config
    lo, hi = config.cost_low, 1.0
    side = cell.total
    with cell.stage("estimate"):
        rng = CounterStream(RngSeed(cell.seed).derive("stability", cell.total))
        entries_true = lo + (hi - lo) * rng.uniforms(side * side).reshape(side, side)
        entries_est = lo + (hi - lo) * rng.uniforms(side * side).reshape(side, side)
        alpha = DiscreteDistribution.dirichlet(rng, side)
        beta = DiscreteDistribution.dirichlet(rng, side)
        cost_true = CostMatrix(entries=entries_true, c_min=lo, c_max=hi)
        cost_est = CostMatrix(entries=entries_est, c_min=lo, c_max=hi)
    with cell.stage("solve_true"):
        true = sinkhorn(cost_true, alpha, beta, config.solver)
    with cell.stage("solve_est"):
        est = sinkhorn(cost_est, alpha, beta, config.solver)
    with cell.stage("bounds"):
        report = report_from_solves(true, est)
        return _report_rows(cell, label, true, est, report)


# Each experiment's estimator label, which names its timing rows, and its
# route, which returns a cell's result rows given that label.  A gamma sweep
# labels its result rows by threshold instead.
_ROUTES = {
    "local_geodesic": ("shortest_path", _shortest_path_rows),
    "usvt_nonlocal": ("usvt", lambda cell, label: _usvt_rows(cell, {label: cell.config.gammas[0]})),
    "fast_nonlocal": ("fast_adjacency", _fast_adjacency_rows),
    "gamma_sweep": (
        "gamma_sweep",
        lambda cell, _: _usvt_rows(cell, {f"usvt@gamma={gamma:g}": gamma for gamma in cell.config.gammas}),
    ),
    "stability_suite": ("perturbation_pair", _perturbation_pair_rows),
}


def _run_cell(args: tuple[ExperimentConfig, int, int]) -> tuple[list[ResultRow], list[ResultRow]]:
    """One cell's result rows and its timing rows: ``wall_seconds`` and the
    seconds of each stage it ran."""
    config, total, seed = args
    cell = _Cell(config, total, seed)
    label, route = _ROUTES[config.experiment]
    start = time.perf_counter()
    rows = route(cell, label)
    elapsed = time.perf_counter() - start
    timings = [cell.row(label, "wall_seconds", elapsed)]
    timings += [cell.row(label, f"stage_{name}_seconds", seconds) for name, seconds in cell.stage_seconds.items()]
    return rows, timings


# glibc's mallopt parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed blocks in this process's heap for the next allocation.

    Under glibc's default policy every n x m temporary of a cell is mapped
    afresh and unmapped when freed, and the heap top is trimmed back to the
    kernel, so each later allocation zero-fills the same pages again: several
    thousand minor page faults per nonlocal cell.  Blocks below 32 MiB (the
    largest mmap threshold glibc accepts) come from the heap, and the heap is
    trimmed only past 1 GiB of free top; either setting alone raises the
    fault count.  Does nothing where libc has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentTables:
    """Run every (N, seed) cell of the config and merge the rows.

    ``workers`` > 1 runs cells in separate processes; rows are merged by the
    parent in a canonical order either way, so the result table is
    independent of scheduling.

    Every process that runs cells keeps the memory it frees for reuse, on
    glibc (:func:`_keep_freed_memory`): otherwise each cell's n x m
    temporaries cost thousands of minor page faults.  There is no switch; the
    policy changes no value, and a plain ``import latent_ot`` leaves the
    allocator as it is.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be at least 1: {workers}")
    _keep_freed_memory()
    # Largest N first, so no worker is left with a large cell at the end.
    cells = [(config, total, seed) for total in sorted(config.grid, reverse=True) for seed in config.seeds]
    if workers == 1 or len(cells) == 1:
        outcomes = [_run_cell(cell) for cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(cells)), initializer=_keep_freed_memory) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    result_rows: list[ResultRow] = []
    timing_rows: list[ResultRow] = []
    for rows, timings in outcomes:
        result_rows.extend(rows)
        timing_rows.extend(timings)
    return ExperimentTables(
        results=ResultTable(rows=tuple(result_rows)),
        timings=ResultTable(rows=tuple(timing_rows)),
    )
