"""Experiment cells: one (N, seed) pair per cell, merged into result tables.

Every random draw inside a cell comes from a stream derived from the cell's
seed and N alone, so a cell's rows do not depend on which other cells run,
on their order, or on the worker count.  Wall-clock timings go to a second
table so the results file stays byte-reproducible.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import diagnostics
from ..cost_estimators import (
    Eigendecomposition,
    UsvtParams,
    cost_from_distances,
    fast_kernel_block,
    geodesic_estimate,
    hop_counts,
    usvt,
    usvt_cost_block,
    usvt_from_eigen,
)
from ..errors import InvalidParameterError
from ..latent_models import (
    NonlocalKernel,
    eps_graph,
    pairwise_squared_distances,
    sample_kernel_graph,
    sample_latents,
    true_kernel_matrix,
)
from ..ot_core import (
    CostMatrix,
    DiscreteDistribution,
    StabilityReport,
    dual_ascent_boxed,
    sinkhorn,
    stability_report,
)
from ..rng import RngSeed, Xoshiro256StarStar
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


class _RowMaker:
    """Binds the invariant row fields of one cell."""

    def __init__(self, config: ExperimentConfig, total: int, seed: int):
        n, m = config.sizes_at(total)
        self.experiment = config.experiment
        self.seed = seed
        self.total = total
        self.n = n
        self.m = m
        self.eps = config.epsilon_at()

    def __call__(self, estimator: str, metric: str, value: float) -> ResultRow:
        return ResultRow(
            experiment=self.experiment,
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


def _report_rows(
    make: _RowMaker,
    estimator: str,
    report: StabilityReport,
    cost_operator_gap: float,
) -> list[ResultRow]:
    rows = [
        make(estimator, "cost_sup_err", report.cost_sup_gap),
        make(estimator, "cost_frobenius_err", report.cost_frobenius_gap),
        make(estimator, "cost_operator_err", cost_operator_gap),
        make(estimator, "ot_value_true", report.value_true),
        make(estimator, "ot_value_est", report.value_est),
        make(estimator, "ot_error_abs", report.value_gap),
        make(estimator, "ot_error_normalized", _normalized_gap(report.value_true, report.value_est)),
        make(estimator, "kl_plans", report.plan_divergence),
        make(estimator, "kernel_operator_gap", report.kernel_operator_gap),
    ]
    for check in report.checks:
        rows.append(make(estimator, f"bound_{check.name}_rhs", check.rhs))
        rows.append(make(estimator, f"slack_{check.name}", check.slack))
    rows.append(make(estimator, "slack_min", min(check.slack for check in report.checks)))
    rows.append(make(estimator, "all_bounds_hold", 1.0 if report.all_passed else 0.0))
    return rows


def _local_cell(config: ExperimentConfig, total: int, seed: int) -> list[ResultRow]:
    assert config.manifold is not None and config.kernel is not None and config.cost_map is not None
    make = _RowMaker(config, total, seed)
    n, m = make.n, make.m
    base = RngSeed(seed)
    latents = sample_latents(
        config.manifold, config.density, n, m, total, base.derive("latents", total), config.placement
    )
    h = config.kernel.radius_at(total, config.manifold.intrinsic_dim)
    graph = eps_graph(latents, h)
    label = ESTIMATOR_LABELS["local_geodesic"]

    hops = hop_counts(graph, range(n), range(n, n + m))
    if not hops.all_reachable:
        return [make(label, "failed_disconnected", 1.0)]

    d_est = geodesic_estimate(hops, h)
    d_true = config.manifold.geodesic_matrix(latents.xs, latents.ys)
    cost_true = cost_from_distances(d_true, config.cost_map)
    cost_est = cost_from_distances(d_est, config.cost_map)
    eps = config.epsilon_at()
    report = stability_report(
        cost_true, cost_est, DiscreteDistribution.uniform(n), DiscreteDistribution.uniform(m), eps, config.solver.build(eps)
    )
    cost_disc = diagnostics.discrepancy(cost_true.entries, cost_est.entries)

    rows = [
        make(label, "graph_h", h),
        make(label, "graph_edges", float(graph.edge_count)),
        make(label, "sp_sup_err", float(np.abs(d_est - d_true).max())),
    ]
    rows.extend(_report_rows(make, label, report, cost_disc.operator))
    return rows


def _usvt_cell(config: ExperimentConfig, total: int, seed: int) -> list[ResultRow]:
    assert config.manifold is not None and config.kernel is not None and config.cost_map is not None
    assert config.kernel.form is not None
    make = _RowMaker(config, total, seed)
    n, m = make.n, make.m
    base = RngSeed(seed)
    latents = sample_latents(
        config.manifold, config.density, n, m, total, base.derive("latents", total), config.placement
    )
    rho = config.kernel.rho_at(total)
    model = NonlocalKernel(rho=rho, form=config.kernel.form)
    graph = sample_kernel_graph(latents, model, base.derive("graph", total))
    w_true = true_kernel_matrix(latents, model)
    clamp = config.kernel.form.bounds(config.manifold)
    cost_true = usvt_cost_block(w_true, n, m, config.cost_map)
    eps = config.epsilon_at()
    solver = config.solver.build(eps)

    if config.experiment == "gamma_sweep":
        spectrum = Eigendecomposition.from_symmetric(graph.to_dense())
        estimates = [
            (f"usvt@gamma={gamma:g}", usvt_from_eigen(spectrum, total, UsvtParams(gamma=gamma, rho=rho, clamp_range=clamp)))
            for gamma in config.gammas
        ]
    else:
        params = UsvtParams(gamma=config.gamma, rho=rho, clamp_range=clamp)
        estimates = [(ESTIMATOR_LABELS["usvt_nonlocal"], usvt(graph, params))]

    rows: list[ResultRow] = []
    for label, w_est in estimates:
        cost_est = usvt_cost_block(w_est, n, m, config.cost_map)
        report = stability_report(
            cost_true, cost_est, DiscreteDistribution.uniform(n), DiscreteDistribution.uniform(m), eps, solver
        )
        cost_disc = diagnostics.discrepancy(cost_true.entries, cost_est.entries)
        kernel_disc = diagnostics.discrepancy(w_true, w_est)
        rows.append(make(label, "kernel_frobenius_normalized", kernel_disc.frobenius_normalized))
        rows.append(make(label, "rho_used", rho))
        rows.extend(_report_rows(make, label, report, cost_disc.operator))
    return rows


def _fast_cell(config: ExperimentConfig, total: int, seed: int) -> list[ResultRow]:
    assert config.manifold is not None and config.kernel is not None
    assert config.kernel.form is not None
    make = _RowMaker(config, total, seed)
    n, m = make.n, make.m
    base = RngSeed(seed)
    latents = sample_latents(
        config.manifold, config.density, n, m, total, base.derive("latents", total), config.placement
    )
    rho = config.kernel.rho_at(total)
    model = NonlocalKernel(rho=rho, form=config.kernel.form)
    graph = sample_kernel_graph(latents, model, base.derive("graph", total))

    form = config.kernel.form
    squared = pairwise_squared_distances(latents.xs, latents.ys)
    if form.p == 2.0:
        cost_entries = squared
    else:
        cost_entries = np.sqrt(np.maximum(squared, 0.0)) ** form.p
    c_max = config.manifold.euclidean_diameter**form.p
    cost_true = CostMatrix(entries=cost_entries, c_min=0.0, c_max=c_max)

    eps = form.sigma
    alpha = DiscreteDistribution.uniform(n)
    beta = DiscreteDistribution.uniform(m)
    result_true = sinkhorn(cost_true, alpha, beta, config.solver.build(eps))

    k_block = fast_kernel_block(graph, rho, n, m)
    eta = config.eta if config.eta is not None else math.exp(c_max / eps)
    value_est = dual_ascent_boxed(k_block, alpha, beta, config.solver.build(eps, eta)).value

    k_true = form.evaluate(latents.xs, latents.ys)
    kernel_disc = diagnostics.discrepancy(k_true, k_block)

    label = ESTIMATOR_LABELS["fast_nonlocal"]
    return [
        make(label, "ot_value_true", result_true.value),
        make(label, "ot_value_est", value_est),
        make(label, "ot_error_abs", abs(result_true.value - value_est)),
        make(label, "ot_error_normalized", _normalized_gap(result_true.value, value_est)),
        make(label, "kernel_operator_gap", kernel_disc.operator),
        make(label, "kernel_frobenius_normalized", kernel_disc.frobenius_normalized),
        make(label, "eta_used", eta),
        make(label, "rho_used", rho),
    ]


def _simplex_point(rng: Xoshiro256StarStar, size: int) -> DiscreteDistribution:
    exponentials = -np.log(1.0 - rng.uniforms(size))
    weights = exponentials / exponentials.sum()
    return DiscreteDistribution(weights=weights / weights.sum())


def _stability_cell(config: ExperimentConfig, total: int, seed: int) -> list[ResultRow]:
    make = _RowMaker(config, total, seed)
    rng = Xoshiro256StarStar(RngSeed(seed).derive("stability", total))
    lo, hi = config.cost_low, config.cost_high
    span = hi - lo
    entries_true = lo + span * rng.uniforms(total * total).reshape(total, total)
    entries_est = lo + span * rng.uniforms(total * total).reshape(total, total)
    alpha = _simplex_point(rng, total)
    beta = _simplex_point(rng, total)
    eps = config.epsilon_at()
    report = stability_report(
        CostMatrix(entries=entries_true, c_min=lo, c_max=hi),
        CostMatrix(entries=entries_est, c_min=lo, c_max=hi),
        alpha,
        beta,
        eps,
        config.solver.build(eps),
    )
    label = ESTIMATOR_LABELS["stability_suite"]
    rows = [
        make(label, "ot_value_true", report.value_true),
        make(label, "ot_value_est", report.value_est),
        make(label, "ot_error_abs", report.value_gap),
        make(label, "kl_plans", report.plan_divergence),
        make(label, "cost_sup_err", report.cost_sup_gap),
        make(label, "cost_frobenius_err", report.cost_frobenius_gap),
        make(label, "kernel_operator_gap", report.kernel_operator_gap),
    ]
    for check in report.checks:
        rows.append(make(label, f"bound_{check.name}_rhs", check.rhs))
        rows.append(make(label, f"slack_{check.name}", check.slack))
    rows.append(make(label, "slack_min", min(check.slack for check in report.checks)))
    rows.append(make(label, "all_bounds_hold", 1.0 if report.all_passed else 0.0))
    return rows


_CELL_RUNNERS = {
    "local_geodesic": _local_cell,
    "usvt_nonlocal": _usvt_cell,
    "gamma_sweep": _usvt_cell,
    "fast_nonlocal": _fast_cell,
    "stability_suite": _stability_cell,
}


def _run_cell(args: tuple[ExperimentConfig, int, int]) -> tuple[list[ResultRow], ResultRow]:
    config, total, seed = args
    runner = _CELL_RUNNERS[config.experiment]
    start = time.perf_counter()
    rows = runner(config, total, seed)
    elapsed = time.perf_counter() - start
    make = _RowMaker(config, total, seed)
    timing = make(ESTIMATOR_LABELS[config.experiment], "wall_seconds", elapsed)
    return rows, timing


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
    for rows, timing in outcomes:
        result_rows.extend(rows)
        timing_rows.append(timing)
    return ExperimentTables(
        results=ResultTable(rows=tuple(result_rows)),
        timings=ResultTable(rows=tuple(timing_rows)),
    )
