"""Randomized self-checks of the solver and estimator invariants.

Each check draws fresh random instances and verifies one inequality or
identity, reporting the worst slack seen.  ``rhs_scale`` multiplies the
right-hand side of every comparison before the slack is taken; running the
suite with a scale below 1 must therefore produce failures, which is the
negative control proving the checks can actually fail.

The shift check is exactly tight (adding a constant to the cost moves the
value by that constant), so any ``rhs_scale`` < 1 fails it deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..cost_estimators import (
    UsvtParams,
    cost_from_distances,
    fast_kernel_block,
    geodesic_estimate,
    hop_counts,
    usvt,
    CostMap,
)
from ..errors import InvalidParameterError
from ..latent_models import (
    GaussianPowerKernel,
    LatentConfiguration,
    NonlocalKernel,
    Sphere,
    eps_graph,
    pairwise_squared_distances,
    sample_kernel_graph,
    sample_latents,
    Density,
)
from ..ot_core import (
    CostMatrix,
    DiscreteDistribution,
    DualPotentials,
    SolverConfig,
    dual_ascent_boxed,
    dual_value,
    exact_ot_assignment,
    min_box_radius,
    primal_value,
    report_from_solves,
    sinkhorn,
)
from ..rng import CounterStream, RngSeed

_EPS_CHOICES = (0.1, 0.5, 1.0)


def _pick(rng: CounterStream, options) -> float:
    return options[min(int(rng.uniform() * len(options)), len(options) - 1)]


def _random_dim(rng: CounterStream, low: int = 2, high: int = 6) -> int:
    return low + min(int(rng.uniform() * (high - low + 1)), high - low)


def _random_cost(rng: CounterStream, n: int, m: int, lo: float = 0.1, hi: float = 1.0) -> CostMatrix:
    entries = lo + (hi - lo) * rng.uniforms(n * m).reshape(n, m)
    return CostMatrix(entries=entries, c_min=lo, c_max=hi)


def _random_weights(rng: CounterStream, size: int) -> DiscreteDistribution:
    if rng.uniform() < 0.5:
        return DiscreteDistribution.uniform(size)
    return DiscreteDistribution.dirichlet(rng, size)


def _random_problem(rng: CounterStream) -> tuple[CostMatrix, DiscreteDistribution, DiscreteDistribution, float]:
    """A random transport problem: sizes, cost, marginals and epsilon, drawn
    in that order."""
    n, m = _random_dim(rng), _random_dim(rng)
    cost = _random_cost(rng, n, m)
    alpha, beta = _random_weights(rng, n), _random_weights(rng, m)
    return cost, alpha, beta, _pick(rng, _EPS_CHOICES)


def _solve(cost, alpha, beta, eps):
    return sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))


# --- individual checks -----------------------------------------------------
# Every check returns a slack; the trial passes iff slack >= 0.


def _check_plan_marginals(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    result = _solve(cost, alpha, beta, eps)
    plan = result.plan.entries
    gap = max(
        float(np.abs(plan.sum(axis=1) - alpha.weights).sum()),
        float(np.abs(plan.sum(axis=0) - beta.weights).sum()),
    )
    return 2e-9 * scale - gap


def _check_plan_factorization(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    result = _solve(cost, alpha, beta, eps)
    f, g = result.potentials.f, result.potentials.g
    rebuilt = (
        alpha.weights[:, None]
        * beta.weights[None, :]
        * np.exp((f[:, None] + g[None, :] - cost.entries) / eps)
    )
    gap = float(np.abs(rebuilt - result.plan.entries).max())
    return 1e-10 * scale - gap


def _check_strong_duality(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    result = _solve(cost, alpha, beta, eps)
    dual = dual_value(result.potentials, cost, alpha, beta, eps)
    primal = primal_value(result.plan, cost, alpha, beta, eps)
    gap = abs(dual - primal)
    return 1e-8 * max(1.0, abs(primal)) * scale - gap


def _check_value_matches_primal(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    result = _solve(cost, alpha, beta, eps)
    primal = primal_value(result.plan, cost, alpha, beta, eps)
    return 1e-8 * max(1.0, abs(primal)) * scale - abs(result.value - primal)


def _check_transpose_symmetry(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    forward = _solve(cost, alpha, beta, eps)
    transposed = CostMatrix(entries=cost.entries.T, c_min=cost.c_min, c_max=cost.c_max)
    backward = _solve(transposed, beta, alpha, eps)
    return 1e-8 * scale - abs(forward.value - backward.value)


def _check_shift_tightness(rng: CounterStream, scale: float) -> float:
    """W(C + t) - W(C) equals t exactly, so the sup-norm ceiling is tight."""
    cost, alpha, beta, eps = _random_problem(rng)
    shift = 0.2 + 0.3 * rng.uniform()
    shifted = CostMatrix(entries=cost.entries + shift, c_min=cost.c_min + shift, c_max=cost.c_max + shift)
    base = _solve(cost, alpha, beta, eps)
    moved = _solve(shifted, alpha, beta, eps)
    gap = abs(moved.value - base.value)
    return shift * scale + 1e-8 - gap


def _check_entropic_bias(rng: CounterStream, scale: float) -> float:
    n = _random_dim(rng)
    cost = _random_cost(rng, n, n)
    uniform = DiscreteDistribution.uniform(n)
    eps = 0.05
    result = _solve(cost, uniform, uniform, eps)
    anchor = exact_ot_assignment(cost)
    gap = abs(result.value - anchor)
    return (eps * math.log(n) + 1e-6) * scale - gap


def _check_potential_box(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    result = _solve(cost, alpha, beta, eps)
    radius = min_box_radius(result.potentials)
    ceiling = cost.c_max - cost.c_min / 2.0
    return ceiling * scale + 1e-6 - radius


def _check_quadratic_growth(rng: CounterStream, scale: float) -> float:
    n, m = _random_dim(rng), _random_dim(rng)
    span = 0.9
    entries = span * rng.uniforms(n * m).reshape(n, m)
    cost = CostMatrix(entries=entries, c_min=0.0, c_max=span)
    alpha, beta = _random_weights(rng, n), _random_weights(rng, m)
    eps = _pick(rng, _EPS_CHOICES)
    result = _solve(cost, alpha, beta, eps)
    best = dual_value(result.potentials, cost, alpha, beta, eps)
    f_star, g_star = result.potentials.f, result.potentials.g
    mass = alpha.weights[:, None] * beta.weights[None, :] * np.exp(-cost.entries / eps)
    factor = 0.5 * eps * math.exp(2.0 * span / eps)
    worst = math.inf
    for _ in range(10):
        f = span * (2.0 * rng.uniforms(n) - 1.0)
        g = span * (2.0 * rng.uniforms(m) - 1.0)
        candidate = dual_value(DualPotentials(f=f, g=g), cost, alpha, beta, eps)
        drop = best - candidate
        spread = (f[:, None] + g[None, :]) - (f_star[:, None] + g_star[None, :])
        lhs = float((mass * spread**2).sum())
        worst = min(worst, (factor * drop + 1e-8) * scale - lhs)
    return worst


def _check_stability_bound(rng: CounterStream, scale: float, name: str) -> float:
    n, m = _random_dim(rng), _random_dim(rng)
    cost_true = _random_cost(rng, n, m)
    cost_est = _random_cost(rng, n, m)
    alpha, beta = _random_weights(rng, n), _random_weights(rng, m)
    eps = _pick(rng, _EPS_CHOICES)
    check = report_from_solves(_solve(cost_true, alpha, beta, eps), _solve(cost_est, alpha, beta, eps)).check(name)
    return check.rhs * scale + 1e-9 - check.lhs


def _check_boxed_matches_sinkhorn(rng: CounterStream, scale: float) -> float:
    cost, alpha, beta, eps = _random_problem(rng)
    reference = _solve(cost, alpha, beta, eps)
    eta = math.exp((cost.c_max - cost.c_min / 2.0) / eps)
    kernel = np.exp(-cost.entries / eps)
    boxed = dual_ascent_boxed(kernel, alpha, beta, SolverConfig(epsilon=eps, eta=eta))
    gap = abs(boxed.value - reference.value) / max(1.0, abs(reference.value))
    return 1e-6 * scale - gap


def _sphere_latents(rng: CounterStream, n: int, m: int, total: int) -> tuple[LatentConfiguration, RngSeed]:
    """Uniform latents on the unit sphere from a seed drawn off ``rng``
    (one word), and that seed."""
    seed = RngSeed(rng.word())
    return sample_latents(Sphere(), Density(kind="uniform"), n, m, total, seed), seed


def _check_hop_distance_dominates(rng: CounterStream, scale: float) -> float:
    latents, _ = _sphere_latents(rng, 6, 6, 80)
    h = 0.9
    graph = eps_graph(latents, h)
    hops = hop_counts(graph, range(6), range(6, 12))
    if np.isinf(hops).any():
        return -1.0
    estimate = geodesic_estimate(hops, h)
    ambient = np.sqrt(pairwise_squared_distances(latents.xs, latents.ys))
    connected = hops > 0
    gap = float((estimate[connected] * scale - ambient[connected]).min()) if connected.any() else 0.0
    return gap + 1e-12


def _check_hop_transpose(rng: CounterStream, scale: float) -> float:
    latents, _ = _sphere_latents(rng, 5, 7, 40)
    graph = eps_graph(latents, 1.1)
    forward = hop_counts(graph, range(5), range(5, 12))
    backward = hop_counts(graph, range(5, 12), range(5))
    # Compared by equality: where both directions are inf, their difference is NaN.
    return 0.5 * scale if np.array_equal(forward, backward.T) else -1.0


def _check_usvt_output_range(rng: CounterStream, scale: float) -> float:
    size = 24
    mask = rng.uniforms(size * size).reshape(size, size) < 0.4
    mask = np.triu(mask, k=1)
    adjacency = (mask | mask.T).astype(np.float64)
    params = UsvtParams(gamma=1.0, rho=1.0, clamp_range=(0.05, 0.95))
    estimate = usvt(adjacency, params).block(slice(None), slice(None))
    range_gap = max(float((0.05 - estimate).max()), float((estimate - 0.95).max()))
    symmetry_gap = float(np.abs(estimate - estimate.T).max())
    return 1e-10 * scale - max(range_gap, symmetry_gap, 0.0)


def _check_usvt_idempotent(rng: CounterStream, scale: float) -> float:
    size = 150
    profile = 0.3 + 0.6 * rng.uniforms(size)
    exact = np.outer(profile, profile)
    params = UsvtParams(gamma=1.0, rho=1.0, clamp_range=(0.0, 1.0))
    estimate = usvt(exact, params).block(slice(None), slice(None))
    gap = float(np.abs(estimate - exact).max())
    return 1e-8 * scale - gap


def _check_fast_block_binary(rng: CounterStream, scale: float) -> float:
    latents, seed = _sphere_latents(rng, 8, 8, 16)
    rho = 0.25 + 0.7 * rng.uniform()
    model = NonlocalKernel(rho=rho, form=GaussianPowerKernel(p=2.0, sigma=1.0))
    graph = sample_kernel_graph(latents, model, seed.derive("graph"))
    block = fast_kernel_block(graph.adjacency[:8, 8:16], rho).toarray()
    distance = np.minimum(np.abs(block), np.abs(block - 1.0 / rho))
    return 1e-12 * scale - float(distance.max())


def _check_local_pipeline_sup_bound(rng: CounterStream, scale: float) -> float:
    latents, _ = _sphere_latents(rng, 8, 8, 220)
    h = 0.55
    graph = eps_graph(latents, h)
    hops = hop_counts(graph, range(8), range(8, 16))
    if np.isinf(hops).any():
        return -1.0
    cost_map = CostMap.identity(Sphere.diameter)
    d_est = geodesic_estimate(hops, h)
    d_true = latents.manifold.geodesic_matrix(latents.xs, latents.ys)
    # Read before the cost map writes the costs into the distances' buffers.
    sup_gap = float(np.abs(d_est - d_true).max())
    cost_true = cost_from_distances(d_true, cost_map)
    cost_est = cost_from_distances(d_est, cost_map)
    uniform = DiscreteDistribution.uniform(8)
    eps = 0.1 * Sphere.diameter
    result_true = _solve(cost_true, uniform, uniform, eps)
    result_est = _solve(cost_est, uniform, uniform, eps)
    lhs = abs(result_true.value - result_est.value)
    return (cost_map.lipschitz_constant * sup_gap + 1e-9) * scale - lhs


@dataclass(frozen=True)
class _Check:
    name: str
    run: object
    expensive: bool = False


_CHECKS: tuple[_Check, ...] = (
    _Check("plan_marginals", _check_plan_marginals),
    _Check("plan_factorization", _check_plan_factorization),
    _Check("strong_duality", _check_strong_duality),
    _Check("value_matches_primal", _check_value_matches_primal),
    _Check("transpose_symmetry", _check_transpose_symmetry),
    _Check("shift_tightness", _check_shift_tightness),
    _Check("entropic_bias", _check_entropic_bias),
    _Check("potential_box", _check_potential_box),
    _Check("quadratic_growth", _check_quadratic_growth),
    _Check("sup_bound", partial(_check_stability_bound, name="sup_norm")),
    _Check("spectral_bound", partial(_check_stability_bound, name="kernel_spectral")),
    _Check("plan_kl_bound", partial(_check_stability_bound, name="plan_kl")),
    _Check("frobenius_domination", partial(_check_stability_bound, name="kernel_frobenius")),
    _Check("boxed_matches_sinkhorn", _check_boxed_matches_sinkhorn),
    _Check("hop_distance_dominates", _check_hop_distance_dominates),
    _Check("hop_transpose", _check_hop_transpose),
    _Check("usvt_output_range", _check_usvt_output_range),
    _Check("usvt_idempotent", _check_usvt_idempotent),
    _Check("fast_block_binary", _check_fast_block_binary),
    _Check("local_pipeline_sup_bound", _check_local_pipeline_sup_bound, expensive=True),
)

CHECK_NAMES = tuple(check.name for check in _CHECKS)


@dataclass(frozen=True)
class CheckOutcome:
    """Aggregate of one check across its trials."""

    name: str
    trials: int
    failures: int
    min_slack: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    trials: int
    rhs_scale: float
    outcomes: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def format_lines(self) -> list[str]:
        lines = []
        for outcome in self.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            lines.append(
                f"{status} {outcome.name}: trials={outcome.trials} "
                f"failures={outcome.failures} min_slack={outcome.min_slack:.3e}"
            )
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"{overall} property suite: {len(self.outcomes)} checks, rhs_scale={self.rhs_scale:g}")
        return lines


def run_property_suite(trials: int, seed: int, rhs_scale: float = 1.0) -> PropertyReport:
    """Run every registered check ``trials`` times (fewer for expensive ones).

    Each check consumes its own stream derived from (seed, check name), so
    outcomes do not depend on the order checks run in.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be at least 1: {trials}")
    if rhs_scale <= 0.0:
        raise InvalidParameterError(f"rhs_scale must be positive: {rhs_scale}")
    base = RngSeed(seed)
    outcomes = []
    for check in _CHECKS:
        count = max(1, trials // 10) if check.expensive else trials
        rng = CounterStream(base.derive("props", check.name))
        failures = 0
        min_slack = math.inf
        for _ in range(count):
            slack = check.run(rng, rhs_scale)
            min_slack = min(min_slack, slack)
            if slack < 0.0:
                failures += 1
        outcomes.append(CheckOutcome(name=check.name, trials=count, failures=failures, min_slack=min_slack))
    return PropertyReport(seed=seed, trials=trials, rhs_scale=rhs_scale, outcomes=tuple(outcomes))
