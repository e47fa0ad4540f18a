"""Experiment cells: one (N, seed) pair per cell, merged into result tables.

A graph cell runs one pipeline: :func:`sample_cell_latents` draws the
latents, then the experiment's route estimates a cost or kernel block,
solves, and reports.  The shortest_path and usvt routes read the whole
observed graph from :func:`sample_cell`; the fast_adjacency route draws only
the cross-group pairs it reads, with the same per-pair draws as that graph.
The perturbation_pair route draws random cost pairs instead and shares the
stability-report rows.

Every random draw inside a cell comes from a stream derived from the cell's
seed and N alone, so a cell's rows do not depend on which other cells run,
on their order, or on the worker count.  Wall-clock timings go to a second
table so the results file stays byte-reproducible: each cell's
``wall_seconds`` and one ``stage_<name>_seconds`` row per stage it ran.  The
stages are latents, graph, estimate, solve_true, solve_est and bounds.  The
perturbation_pair route draws its cost pair in the estimate stage; the bounds
stage holds the stability report's ceilings and every error diagnostic.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
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
    GaussianPowerKernel,
    Graph,
    LatentConfiguration,
    NonlocalKernel,
    bernoulli_pairs,
    eps_graph,
    sample_kernel_graph,
    sample_latents,
)
from ..ot_core import (
    CostMatrix,
    DiscreteDistribution,
    SolveStatus,
    StabilityReport,
    dual_ascent_boxed,
    sinkhorn,
    stability_report,
)
from ..rng import CounterStream, RngSeed
from .config import ExperimentConfig
from .results import ResultRow, ResultTable

ESTIMATOR_LABELS = {
    "local_geodesic": "shortest_path",
    "usvt_nonlocal": "usvt",
    "fast_nonlocal": "fast_adjacency",
    "gamma_sweep": "gamma_sweep",
    "stability_suite": "perturbation_pair",
}


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
        self.n, self.m = config.sizes_at(total)
        self.eps = config.solver.epsilon
        self.stage_seconds: dict[str, float] = {}

    def add_seconds(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @contextmanager
    def stage(self, name: str):
        """Charge the wall-clock time of the block to the named stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - start)

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


def _solve_rows(cell: _Cell, label: str, side: str, solve: SolveStatus) -> list[ResultRow]:
    """How the solve on the ``side`` ("true" or "est") cost ended."""
    return [
        cell.row(label, f"solver_iterations_{side}", float(solve.iterations)),
        cell.row(label, f"solver_converged_{side}", 1.0 if solve.converged else 0.0),
        cell.row(label, f"solver_marginal_residual_{side}", solve.marginal_residual),
    ]


def _report_rows(cell: _Cell, label: str, report: StabilityReport) -> list[ResultRow]:
    """Transport values, cost gaps, every bound's ceiling and slack, and how
    both solves ended."""
    rows = [
        cell.row(label, "cost_sup_err", report.cost_sup_gap),
        cell.row(label, "cost_frobenius_err", report.cost_frobenius_gap),
        cell.row(label, "ot_value_true", report.value_true),
        cell.row(label, "ot_value_est", report.value_est),
        cell.row(label, "ot_error_abs", report.value_gap),
        cell.row(label, "kl_plans", report.plan_divergence),
        cell.row(label, "kernel_operator_gap", report.kernel_operator_gap),
    ]
    for check in report.checks:
        rows.append(cell.row(label, f"bound_{check.name}_rhs", check.rhs))
        rows.append(cell.row(label, f"slack_{check.name}", check.slack))
    rows.append(cell.row(label, "slack_min", min(check.slack for check in report.checks)))
    rows.append(cell.row(label, "all_bounds_hold", 1.0 if report.all_passed else 0.0))
    rows += _solve_rows(cell, label, "true", report.solve_true)
    return rows + _solve_rows(cell, label, "est", report.solve_est)


def _timed_report(
    cell: _Cell, cost_true: CostMatrix, cost_est: CostMatrix, alpha: DiscreteDistribution, beta: DiscreteDistribution
) -> StabilityReport:
    """The stability report, its two solves charged to their own stages and
    the rest to the bounds stage."""
    with cell.stage("bounds"):
        report = stability_report(cost_true, cost_est, alpha, beta, cell.config.solver)
    for side, solve in (("true", report.solve_true), ("est", report.solve_est)):
        cell.add_seconds(f"solve_{side}", solve.seconds)
        cell.add_seconds("bounds", -solve.seconds)
    return report


def _cost_block_rows(cell: _Cell, label: str, cost_true: CostMatrix, cost_est: CostMatrix) -> list[ResultRow]:
    """Solve on the true and on the estimated cost block and report the gaps."""
    alpha = DiscreteDistribution.uniform(cell.n)
    beta = DiscreteDistribution.uniform(cell.m)
    report = _timed_report(cell, cost_true, cost_est, alpha, beta)
    with cell.stage("bounds"):
        cost_operator_gap = diagnostics.operator_norm(cost_true.entries - cost_est.entries)
        rows = _report_rows(cell, label, report)
        rows.append(cell.row(label, "cost_operator_err", cost_operator_gap))
        rows.append(cell.row(label, "ot_error_normalized", _normalized_gap(report.value_true, report.value_est)))
    return rows


def sample_cell_latents(config: ExperimentConfig, total: int, seed: int) -> LatentConfiguration:
    """The latent points of one (N, seed) cell, from a stream derived from
    the seed and N."""
    assert config.manifold is not None
    n, m = config.sizes_at(total)
    stream = RngSeed(seed).derive("latents", total)
    return sample_latents(config.manifold, config.density, n, m, total, stream, config.placement)


def _graph_seed(seed: int, total: int) -> RngSeed:
    """The Bernoulli graph's stream, separate from the latents'."""
    return RngSeed(seed).derive("graph", total)


def _cell_graph(config: ExperimentConfig, total: int, seed: int, latents: LatentConfiguration) -> Graph:
    """The observed graph over a cell's latents: the Bernoulli graph for a
    nonlocal kernel, the epsilon-graph at the scheduled radius for a local one."""
    assert config.manifold is not None and config.kernel is not None
    if config.kernel.kind == "local":
        return eps_graph(latents, config.kernel.radius_at(total, config.manifold.intrinsic_dim))
    assert config.kernel.form is not None
    model = NonlocalKernel(rho=config.kernel.rho_at(total), form=config.kernel.form)
    return sample_kernel_graph(latents, model, _graph_seed(seed, total))


def sample_cell(config: ExperimentConfig, total: int, seed: int) -> tuple[LatentConfiguration, Graph]:
    """The latent points and the observed graph of one (N, seed) cell."""
    latents = sample_cell_latents(config, total, seed)
    return latents, _cell_graph(config, total, seed, latents)


# ---------------------------------------------------------------------------
# Routes: from a sampled cell to its result rows
# ---------------------------------------------------------------------------


def _shortest_path_rows(cell: _Cell, latents: LatentConfiguration, graph: Graph) -> list[ResultRow]:
    config = cell.config
    assert config.manifold is not None and config.kernel is not None and config.cost_map is not None
    label = ESTIMATOR_LABELS["local_geodesic"]
    with cell.stage("estimate"):
        hops = hop_counts(graph, range(cell.n), range(cell.n, cell.n + cell.m))
        if not hops.all_reachable:
            return [cell.row(label, "failed_disconnected", 1.0)]
        h = config.kernel.radius_at(cell.total, config.manifold.intrinsic_dim)
        d_est = geodesic_estimate(hops, h)
        d_true = config.manifold.geodesic_matrix(latents.xs, latents.ys)
        cost_true = cost_from_distances(d_true, config.cost_map)
        cost_est = cost_from_distances(d_est, config.cost_map)
    with cell.stage("bounds"):
        rows = [
            cell.row(label, "graph_h", h),
            cell.row(label, "graph_edges", float(graph.edge_count)),
            cell.row(label, "sp_sup_err", float(np.abs(d_est - d_true).max())),
        ]
    return rows + _cost_block_rows(cell, label, cost_true, cost_est)


def _kernel_frobenius_normalized(points: np.ndarray, form: GaussianPowerKernel, estimate: UsvtEstimate) -> float:
    """||W - W_est||_F / N, summed over row blocks of about 2^20 entries so
    that neither N x N matrix is formed."""
    count = points.shape[0]
    step = max(1, (1 << 20) // count)
    squared = 0.0
    for start in range(0, count, step):
        rows = slice(start, start + step)
        gap = form.evaluate(points[rows], points) - estimate.block(rows, slice(None))
        squared += float(np.einsum("ij,ij->", gap, gap))
    return math.sqrt(squared) / count


def _usvt_rows(cell: _Cell, latents: LatentConfiguration, graph: Graph) -> list[ResultRow]:
    config = cell.config
    assert config.manifold is not None and config.kernel is not None and config.cost_map is not None
    assert config.kernel.form is not None
    form, rho = config.kernel.form, config.kernel.rho_at(cell.total)
    if config.experiment == "gamma_sweep":
        gammas = {f"usvt@gamma={gamma:g}": gamma for gamma in config.gammas}
    else:
        gammas = {ESTIMATOR_LABELS["usvt_nonlocal"]: config.gamma}
    with cell.stage("estimate"):
        # One decomposition at the lowest threshold serves every gamma.
        spectrum = usvt(graph, UsvtParams(min(gammas.values()), rho, form.bounds(config.manifold)))
        cost_true = cost_from_distances(form.evaluate(latents.xs, latents.ys), config.cost_map)
    rows: list[ResultRow] = []
    for label, gamma in gammas.items():
        with cell.stage("estimate"):
            estimate = spectrum.at_gamma(gamma)
            block = estimate.block(slice(0, cell.n), slice(cell.n, cell.total))
            cost_est = cost_from_distances(block, config.cost_map)
        rows.extend(_cost_block_rows(cell, label, cost_true, cost_est))
        with cell.stage("bounds"):
            frobenius = _kernel_frobenius_normalized(latents.all_points(), form, estimate)
            rows.append(cell.row(label, "kernel_frobenius_normalized", frobenius))
            rows.append(cell.row(label, "rho_used", rho))
            rows.append(cell.row(label, "usvt_rank", float(estimate.rank)))
    return rows


def _fast_adjacency_rows(cell: _Cell, latents: LatentConfiguration) -> list[ResultRow]:
    """The boxed dual on the raw cross-group adjacency block.  Only the n x m
    cross pairs (i, n + j) are drawn, from the kernel block the discrepancy
    reads too; they are the edges :func:`sample_cell`'s graph has there."""
    config = cell.config
    assert config.manifold is not None and config.kernel is not None and config.kernel.form is not None
    form = config.kernel.form
    rho = config.kernel.rho_at(cell.total)
    alpha = DiscreteDistribution.uniform(cell.n)
    beta = DiscreteDistribution.uniform(cell.m)
    with cell.stage("graph"):
        powers = form.distance_power(latents.xs, latents.ys)
        weights = form.of_powers(powers)
    # The true solve runs before the cross block is drawn, so its n x m
    # temporaries are freed before the block's are made.
    with cell.stage("solve_true"):
        cost_true = CostMatrix(entries=powers, c_min=0.0, c_max=config.manifold.euclidean_diameter**form.p)
        solve_true = sinkhorn(cost_true, alpha, beta, config.solver)
    with cell.stage("graph"):
        xs_index, ys_index = np.arange(cell.n)[:, None], np.arange(cell.n, cell.n + cell.m)[None, :]
        cross_edges = bernoulli_pairs(_graph_seed(cell.seed, cell.total), xs_index, ys_index, rho * weights)
    with cell.stage("estimate"):
        k_block = fast_kernel_block(cross_edges, rho, cell.n, cell.m)
    with cell.stage("solve_est"):
        solve_est = dual_ascent_boxed(k_block, alpha, beta, config.solver)
    with cell.stage("bounds"):
        kernel_disc = diagnostics.discrepancy(weights, k_block)
    value_true, value_est = solve_true.value, solve_est.value

    label = ESTIMATOR_LABELS["fast_nonlocal"]
    return [
        cell.row(label, "ot_value_true", value_true),
        cell.row(label, "ot_value_est", value_est),
        cell.row(label, "ot_error_abs", abs(value_true - value_est)),
        cell.row(label, "ot_error_normalized", _normalized_gap(value_true, value_est)),
        cell.row(label, "kernel_operator_gap", kernel_disc.operator),
        cell.row(label, "kernel_frobenius_normalized", kernel_disc.frobenius_normalized),
        cell.row(label, "eta_used", config.solver.eta),
        cell.row(label, "rho_used", rho),
        *_solve_rows(cell, label, "true", solve_true.status),
        *_solve_rows(cell, label, "est", solve_est.status),
        cell.row(label, "solver_pinned_fraction_est", solve_est.pinned_fraction),
    ]


def _simplex_point(rng: CounterStream, size: int) -> DiscreteDistribution:
    exponentials = -np.log(1.0 - rng.uniforms(size))
    weights = exponentials / exponentials.sum()
    return DiscreteDistribution(weights=weights / weights.sum())


def _perturbation_pair_rows(cell: _Cell) -> list[ResultRow]:
    """Random cost pairs and marginals; this route samples no latents or graph."""
    config = cell.config
    lo, hi = config.cost_low, config.cost_high
    side = cell.total
    with cell.stage("estimate"):
        rng = CounterStream(RngSeed(cell.seed).derive("stability", cell.total))
        entries_true = lo + (hi - lo) * rng.uniforms(side * side).reshape(side, side)
        entries_est = lo + (hi - lo) * rng.uniforms(side * side).reshape(side, side)
        alpha = _simplex_point(rng, side)
        beta = _simplex_point(rng, side)
        cost_true = CostMatrix(entries=entries_true, c_min=lo, c_max=hi)
        cost_est = CostMatrix(entries=entries_est, c_min=lo, c_max=hi)
    report = _timed_report(cell, cost_true, cost_est, alpha, beta)
    with cell.stage("bounds"):
        return _report_rows(cell, ESTIMATOR_LABELS["stability_suite"], report)


_GRAPH_ROUTES = {
    "local_geodesic": _shortest_path_rows,
    "usvt_nonlocal": _usvt_rows,
    "gamma_sweep": _usvt_rows,
}


def _run_cell(args: tuple[ExperimentConfig, int, int]) -> tuple[list[ResultRow], list[ResultRow]]:
    """One cell's result rows and its timing rows: ``wall_seconds`` and the
    seconds of each stage it ran."""
    config, total, seed = args
    cell = _Cell(config, total, seed)
    start = time.perf_counter()
    if config.experiment == "stability_suite":
        rows = _perturbation_pair_rows(cell)
    else:
        with cell.stage("latents"):
            latents = sample_cell_latents(config, total, seed)
        if config.experiment == "fast_nonlocal":
            rows = _fast_adjacency_rows(cell, latents)
        else:
            with cell.stage("graph"):
                graph = _cell_graph(config, total, seed, latents)
            rows = _GRAPH_ROUTES[config.experiment](cell, latents, graph)
    elapsed = time.perf_counter() - start
    label = ESTIMATOR_LABELS[config.experiment]
    timings = [cell.row(label, "wall_seconds", elapsed)]
    timings += [cell.row(label, f"stage_{name}_seconds", seconds) for name, seconds in cell.stage_seconds.items()]
    return rows, timings


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentTables:
    """Run every (N, seed) cell of the config and merge the rows.

    ``workers`` > 1 runs cells in separate processes; rows are merged by the
    parent in a canonical order either way, so the result table is
    independent of scheduling.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be at least 1: {workers}")
    cells = [(config, total, seed) for total in config.grid for seed in config.seeds]
    if workers == 1 or len(cells) == 1:
        outcomes = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
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
