"""Acceptance gate: nine end-to-end checks at their stated tolerances.

Each test covers one numbered criterion, prints exactly one PASS/FAIL
line (visible with ``pytest -s`` or in failure output), and enforces the
criterion's runtime budget where one is stated.  Rate criteria reuse one
spectral-pipeline run through a module-scoped fixture.
"""

import json
import math
import time

import numpy as np
import pytest

import latent_ot.harness.cli as cli
from latent_ot.diagnostics import fit_rate
from latent_ot.harness.config import config_from_dict
from latent_ot.harness.experiments import run_experiment
from latent_ot.latent_models import (
    Density,
    GaussianPowerKernel,
    NonlocalKernel,
    Sphere,
    sample_kernel_graph,
    sample_latents,
)
from latent_ot.cost_estimators import fast_kernel_block
from latent_ot.ot_core import (
    CostMatrix,
    DiscreteDistribution,
    DualPotentials,
    SolverConfig,
    dual_ascent_boxed,
    dual_value,
    exact_ot_assignment,
    min_box_radius,
    sinkhorn,
    stability_report,
)
from latent_ot.rng import CounterStream, RngSeed


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _random_cost(rng: CounterStream, n: int, m: int) -> CostMatrix:
    entries = 0.1 + 0.9 * rng.uniforms(n * m).reshape(n, m)
    return CostMatrix(entries=entries, c_min=0.1, c_max=1.0)


def _mixed_weights(rng: CounterStream, size: int) -> DiscreteDistribution:
    if rng.uniform() < 0.5:
        return DiscreteDistribution.uniform(size)
    exponentials = -np.log(1.0 - rng.uniforms(size))
    weights = exponentials / exponentials.sum()
    return DiscreteDistribution(weights=weights / weights.sum())


def _dim(rng: CounterStream) -> int:
    return 2 + min(int(rng.uniform() * 5), 4)


EPS_CHOICES = (0.1, 0.5, 1.0)


# ---------------------------------------------------------------------------
# 1. Stability-bound suite
# ---------------------------------------------------------------------------


def test_criterion_1_stability_bounds():
    rng = CounterStream(RngSeed(1))
    start = time.perf_counter()
    worst = math.inf
    for trial in range(1000):
        n, m = _dim(rng), _dim(rng)
        cost_true = _random_cost(rng, n, m)
        cost_est = _random_cost(rng, n, m)
        alpha = _mixed_weights(rng, n)
        beta = _mixed_weights(rng, m)
        eps = EPS_CHOICES[trial % 3]
        report = stability_report(cost_true, cost_est, alpha, beta, SolverConfig(epsilon=eps))
        worst = min(worst, min(check.slack for check in report.checks))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst >= -1e-9 and elapsed < 60.0,
        f"1000 instances, 4 bounds each, min slack {worst:.3e}, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. Oracle equivalence
# ---------------------------------------------------------------------------


def _symmetric_family_oracle(off_cost: float, eps: float) -> float:
    """Brute-force minimum over couplings [[t, .5-t], [.5-t, t]] of the
    symmetric two-atom family, refined to a grid step below 1e-8."""

    def objective(ts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(ts > 0, 2 * ts * np.log(4 * ts), 0.0)
            ent = ent + np.where(
                0.5 - ts > 0, 2 * (0.5 - ts) * np.log(4 * (0.5 - ts)), 0.0
            )
        return off_cost * (1.0 - 2.0 * ts) + eps * ent

    lo, hi, step = 0.0, 0.5, 1e-4
    best = 0.25
    while step >= 1e-9:
        ts = np.clip(np.arange(lo, hi + step, step), 0.0, 0.5)
        best = float(ts[int(np.argmin(objective(ts)))])
        lo, hi = max(0.0, best - 2 * step), min(0.5, best + 2 * step)
        step /= 100.0
    return float(objective(np.array([best]))[0])


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    uniform2 = DiscreteDistribution.uniform(2)
    worst_family = 0.0
    for off_cost in (0.3, 1.0):
        for eps in (0.25, 1.0):
            cost = CostMatrix(
                np.array([[0.0, off_cost], [off_cost, 0.0]]), 0.0, off_cost
            )
            result = sinkhorn(cost, uniform2, uniform2, SolverConfig(epsilon=eps))
            gap = abs(result.value - _symmetric_family_oracle(off_cost, eps))
            worst_family = max(worst_family, gap)

    rng = CounterStream(RngSeed(2))
    eps = 1e-3
    worst_excess = -math.inf
    for trial in range(14):
        n = 2 + trial % 7
        cost = _random_cost(rng, n, n)
        uniform = DiscreteDistribution.uniform(n)
        result = sinkhorn(
            cost, uniform, uniform, SolverConfig(epsilon=eps, max_iterations=500_000)
        )
        assert result.converged
        gap = abs(result.value - exact_ot_assignment(cost))
        worst_excess = max(worst_excess, gap - (eps * math.log(n) + 1e-6))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst_family <= 1e-6 and worst_excess <= 0.0 and elapsed < 10.0,
        f"family oracle gap {worst_family:.3e} <= 1e-6, small-eps bias excess "
        f"{worst_excess:.3e} <= 0, {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 3. Boxed-dual consistency
# ---------------------------------------------------------------------------


def test_criterion_3_boxed_dual_consistency():
    rng = CounterStream(RngSeed(3))
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        cost = _random_cost(rng, 5, 4)
        alpha = _mixed_weights(rng, 5)
        beta = _mixed_weights(rng, 4)
        eps = EPS_CHOICES[trial % 3]
        eta = math.exp((cost.c_max - cost.c_min / 2.0) / eps)
        reference = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))
        boxed = dual_ascent_boxed(
            np.exp(-cost.entries / eps), alpha, beta, SolverConfig(epsilon=eps, eta=eta)
        ).value
        worst = max(worst, abs(boxed - reference.value) / abs(reference.value))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        worst <= 1e-6 and elapsed < 30.0,
        f"100 5x4 instances, worst relative gap {worst:.3e} <= 1e-6, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 4. Potential box and quadratic growth
# ---------------------------------------------------------------------------


def test_criterion_4_potential_box_and_quadratic_growth():
    rng = CounterStream(RngSeed(4))
    start = time.perf_counter()
    worst_box = -math.inf
    worst_growth = -math.inf
    for trial in range(200):
        n, m = _dim(rng), _dim(rng)
        eps = EPS_CHOICES[trial % 3]
        alpha = _mixed_weights(rng, n)
        beta = _mixed_weights(rng, m)

        # box check: converged potentials admit a shift into the radius
        # c_max - c_min / 2 implied by the cost bounds
        cost = _random_cost(rng, n, m)
        result = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))
        ceiling = cost.c_max - cost.c_min / 2.0
        worst_box = max(worst_box, min_box_radius(result.potentials) - ceiling - 1e-6)

        # growth check: costs shifted to [0, c_bar]; kernel-weighted square
        # spread of feasible potentials is controlled by their dual drop
        shifted = CostMatrix(cost.entries - cost.c_min, 0.0, cost.c_max - cost.c_min)
        c_bar = shifted.c_max
        result_s = sinkhorn(shifted, alpha, beta, SolverConfig(epsilon=eps))
        best = dual_value(result_s.potentials, shifted, alpha, beta, eps)
        mass = alpha.weights[:, None] * beta.weights[None, :] * np.exp(-shifted.entries / eps)
        f_star, g_star = result_s.potentials.f, result_s.potentials.g
        factor = 0.5 * eps * math.exp(2.0 * c_bar / eps)
        for _ in range(100):
            f = c_bar * (2.0 * rng.uniforms(n) - 1.0)
            g = c_bar * (2.0 * rng.uniforms(m) - 1.0)
            drop = best - dual_value(DualPotentials(f=f, g=g), shifted, alpha, beta, eps)
            spread = (f[:, None] + g[None, :]) - (f_star[:, None] + g_star[None, :])
            lhs = float((mass * spread**2).sum())
            worst_growth = max(worst_growth, lhs - (factor * drop + 1e-8))
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        worst_box <= 0.0 and worst_growth <= 0.0 and elapsed < 60.0,
        f"200 instances, box excess {worst_box:.3e} <= 0, growth excess "
        f"{worst_growth:.3e} <= 0, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 5. Local pipeline trend
# ---------------------------------------------------------------------------


def test_criterion_5_local_pipeline_trend():
    sphere_eps = 0.1 * math.pi
    config = config_from_dict(
        {
            "experiment": "local_geodesic",
            "grid": [300, 1000, 3000],
            "seeds": list(range(10)),
            "manifold": {"kind": "sphere"},
            "kernel": {"kind": "local", "c0": 2.0},
            "cost_map": {"kind": "identity"},
            "n": 20,
            "m": 20,
            "epsilon": sphere_eps,
        }
    )
    start = time.perf_counter()
    tables = run_experiment(config, workers=4)
    elapsed = time.perf_counter() - start
    disconnected = [r for r in tables.results.rows if r.metric == "failed_disconnected"]
    decreasing = {}
    for metric in ("cost_sup_err", "ot_error_normalized", "kl_plans"):
        series = tables.results.median_series(metric, "shortest_path")
        totals = [t for t, _ in series]
        medians = [v for _, v in series]
        decreasing[metric] = totals == [300, 1000, 3000] and all(
            b < a for a, b in zip(medians, medians[1:])
        )
    ok = not disconnected and all(decreasing.values()) and elapsed < 600.0
    _verdict(
        5,
        ok,
        f"medians strictly decrease for {sorted(k for k, v in decreasing.items() if v)}, "
        f"{len(disconnected)} disconnected cells, {elapsed:.0f}s < 600s (4 workers)",
    )


# ---------------------------------------------------------------------------
# 6 and 7. Spectral rate and adjacency-route ordering
# ---------------------------------------------------------------------------

RATE_GRID = [200, 400, 800, 1600]
RATE_KERNEL = {
    "kind": "nonlocal",
    "rho": 1.0,
    "form": {"kind": "gaussian_power", "p": 2, "sigma": 0.15},
}


@pytest.fixture(scope="module")
def usvt_rate_run():
    config = config_from_dict(
        {
            "experiment": "usvt_nonlocal",
            "grid": RATE_GRID,
            "seeds": list(range(10)),
            "manifold": {"kind": "sphere"},
            "kernel": dict(RATE_KERNEL),
            "gamma": 1.0,
            "epsilon": 0.5,
        }
    )
    start = time.perf_counter()
    tables = run_experiment(config, workers=4)
    elapsed = time.perf_counter() - start
    series = tables.results.median_series("kernel_frobenius_normalized", "usvt")
    fit = fit_rate([(float(total), median) for total, median in series])
    return fit, elapsed


def test_criterion_6_spectral_estimator_rate(usvt_rate_run):
    fit, elapsed = usvt_rate_run
    ok = -0.45 <= fit.slope <= -0.10 and elapsed < 600.0
    _verdict(
        6,
        ok,
        f"normalized kernel error slope {fit.slope:.3f} in [-0.45, -0.10], "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_7_adjacency_route_converges_at_least_as_fast(usvt_rate_run):
    usvt_fit, _ = usvt_rate_run
    config = config_from_dict(
        {
            "experiment": "fast_nonlocal",
            "grid": RATE_GRID,
            "seeds": list(range(10)),
            "manifold": {"kind": "sphere"},
            "kernel": dict(RATE_KERNEL),
            "eta": 1000000.0,
        }
    )
    tables = run_experiment(config, workers=4)
    series = tables.results.median_series("ot_error_normalized", "fast_adjacency")
    fast_fit = fit_rate([(float(total), median) for total, median in series])
    ok = fast_fit.slope <= usvt_fit.slope + 0.05
    _verdict(
        7,
        ok,
        f"fast slope {fast_fit.slope:.3f} <= spectral slope {usvt_fit.slope:.3f} + 0.05",
    )


# ---------------------------------------------------------------------------
# 8. Unbiasedness of the adjacency-block estimator
# ---------------------------------------------------------------------------


def test_criterion_8_adjacency_block_unbiasedness():
    start = time.perf_counter()
    n = m = 10
    rho = 0.7
    draws = 2000
    form = GaussianPowerKernel(p=2.0, sigma=1.0)
    latents = sample_latents(Sphere(), Density(), n, m, n + m, RngSeed(123))
    model = NonlocalKernel(rho=rho, form=form)
    w_true = form.evaluate(latents.xs, latents.ys)
    base = RngSeed(123)
    total = np.zeros((n, m))
    for d in range(draws):
        graph = sample_kernel_graph(latents, model, base.derive("graph", d))
        total += fast_kernel_block(graph, rho, n, m)
    mean = total / draws
    p = rho * w_true
    std_err = np.sqrt(p * (1.0 - p) / draws) / rho
    within = np.abs(mean - w_true) <= 4.0 * std_err
    fraction = float(within.mean())
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        fraction >= 0.99 and elapsed < 120.0,
        f"{fraction:.1%} of {n * m} entries within 4 standard errors of the kernel "
        f"over {draws} draws, {elapsed:.0f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------


def test_criterion_9_byte_identical_results(tmp_path, capsys):
    config = {
        "experiment": "usvt_nonlocal",
        "grid": [24, 32],
        "seeds": [3, 4],
        "manifold": {"kind": "sphere"},
        "kernel": {
            "kind": "nonlocal",
            "rho": 1.0,
            "form": {"kind": "gaussian_power", "p": 2, "sigma": 0.5},
        },
        "epsilon": 0.5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    first = tmp_path / "first"
    second = tmp_path / "second"
    code_a = cli.main(["run", "--config", str(config_path), "--out-dir", str(first)])
    code_b = cli.main(["run", "--config", str(config_path), "--out-dir", str(second)])
    capsys.readouterr()
    bytes_a = (first / "results.csv").read_bytes()
    bytes_b = (second / "results.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    _verdict(
        9,
        ok,
        f"two consecutive runs wrote {len(bytes_a)} identical result bytes",
    )
