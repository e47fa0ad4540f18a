"""Solver and stability-bound tests.

Derived values are checked against oracles implemented in this file:
a one-parameter brute-force minimization for the symmetric 2x2 family,
plain log-domain Sinkhorn (values and sweep counts) and clipped log-domain
ascent for the scaling solver, permutation enumeration for the assignment reference, a scan
oracle for the minimal potential box, and direct inequality evaluation
for the perturbation bounds.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from latent_ot.errors import InvalidParameterError, UnboundedDualError
from latent_ot.ot_core import (
    BOUND_SLACK_TOLERANCE,
    BoundCheck,
    CostMatrix,
    DiscreteDistribution,
    DualPotentials,
    OtResult,
    SolverConfig,
    TransportPlan,
    center_potentials,
    dual_ascent_boxed,
    dual_value,
    exact_ot_assignment,
    kl_plans,
    min_box_radius,
    primal_value,
    sinkhorn,
    stability_report,
)
from latent_ot.latent_models import Density, GaussianPowerKernel, Sphere, sample_latents
from latent_ot.rng import CounterStream, RngSeed


def uniform(size):
    return DiscreteDistribution.uniform(size)


def random_cost(rng, n, m, low=0.1, high=1.0):
    entries = low + (high - low) * rng.uniforms(n * m).reshape(n, m)
    return CostMatrix(entries, low, high)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def symmetric_2x2_oracle(off_cost, eps):
    """Brute-force the symmetric family C = [[0, c], [c, 0]], uniform halves.

    Couplings are P = [[t, 0.5 - t], [0.5 - t, t]]; the objective reduces to
    a scalar function of t minimized by successively refined grids down to
    1e-9 resolution.
    """

    def objective(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(t > 0, 2 * t * np.log(4 * t), 0.0)
            ent = ent + np.where(0.5 - t > 0, 2 * (0.5 - t) * np.log(4 * (0.5 - t)), 0.0)
        return off_cost * (1.0 - 2.0 * t) + eps * ent

    lo, hi = 0.0, 0.5
    step = 1e-3
    while step >= 1e-9:
        ts = np.arange(lo, hi + step, step)
        ts = np.clip(ts, 0.0, 0.5)
        best = ts[int(np.argmin(objective(ts)))]
        lo, hi = max(0.0, best - 2 * step), min(0.5, best + 2 * step)
        step /= 1000.0
    return float(objective(np.array([best]))[0])


def log_domain_sinkhorn(cost, a, b, eps, tolerance=1e-13, max_sweeps=200_000):
    """Plain log-domain Sinkhorn: no relaxation, no absorption.

    Returns the value, the plan and the sweeps taken to bring the L1 row
    residual to ``tolerance`` (columns are exact after each sweep).
    """
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    f, g = np.zeros(a.size), np.zeros(b.size)
    for sweep in range(1, max_sweeps + 1):
        f = -eps * logsumexp((g[None, :] - cost) / eps + log_b[None, :], axis=1)
        g = -eps * logsumexp((f[:, None] - cost) / eps + log_a[:, None], axis=0)
        plan = np.exp((f[:, None] + g[None, :] - cost) / eps + log_a[:, None] + log_b[None, :])
        if np.abs(plan.sum(axis=1) - a).sum() <= tolerance:
            break
    return float(a @ f + b @ g), plan, sweep


def clipped_log_ascent(kernel, a, b, eps, radius, sweeps):
    """Block ascent of the boxed dual in the log domain, clipping each update."""
    with np.errstate(divide="ignore"):
        log_k, log_a, log_b = np.log(kernel), np.log(a), np.log(b)
        f, g = np.zeros(a.size), np.zeros(b.size)
        for _ in range(sweeps):
            f = -eps * logsumexp(log_k + (g / eps + log_b)[None, :], axis=1)
            f = np.clip(f, -radius, radius)
            g = -eps * logsumexp(log_k + (f / eps + log_a)[:, None], axis=0)
            g = np.clip(g, -radius, radius)
        log_mass = log_k + (f / eps + log_a)[:, None] + (g / eps + log_b)[None, :]
    return float(a @ f + b @ g - eps * np.exp(logsumexp(log_mass)) + eps), f, g


def assignment_oracle(entries):
    """Minimum mean cost over all permutations, by full enumeration."""
    n = entries.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(entries[i, perm[i]] for i in range(n)) / n)
    return best


def box_radius_oracle(f, g):
    """Scan the shift parameter for the smallest enclosing box."""
    shifts = np.linspace(-5, 5, 400_001)
    radii = np.maximum(
        np.abs(f[:, None] + shifts[None, :]).max(axis=0),
        np.abs(g[:, None] - shifts[None, :]).max(axis=0),
    )
    return float(radii.min())


# ---------------------------------------------------------------------------
# Types and validation
# ---------------------------------------------------------------------------


def test_cost_matrix_rejects_bounds_violations():
    with pytest.raises(InvalidParameterError):
        CostMatrix(np.array([[0.5]]), 0.6, 1.0)
    with pytest.raises(InvalidParameterError):
        CostMatrix(np.array([[0.5]]), 0.1, 0.4)
    with pytest.raises(InvalidParameterError):
        CostMatrix(np.array([[np.inf]]), 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        CostMatrix(np.array([[0.5]]), -1.0, 1.0)


def test_cost_matrix_from_entries_uses_realized_bounds():
    cost = CostMatrix.from_entries(np.array([[0.2, 0.7], [0.4, 0.3]]))
    assert cost.c_min == 0.2 and cost.c_max == 0.7
    assert cost.entries.flags.writeable is False


def test_distribution_validation():
    with pytest.raises(InvalidParameterError):
        DiscreteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(InvalidParameterError):
        DiscreteDistribution(np.array([1.5, -0.5]))
    with pytest.raises(InvalidParameterError):
        DiscreteDistribution(np.array([]))
    d = DiscreteDistribution(np.array([0.0, 1.0]))
    assert d.euclidean_norm == 1.0


def test_transport_plan_mass_check():
    with pytest.raises(InvalidParameterError):
        TransportPlan(np.array([[0.5, 0.5], [0.5, 0.5]]))
    TransportPlan(np.array([[0.25, 0.25], [0.25, 0.25]]))


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------


def test_single_cell_value_is_the_cost():
    res = sinkhorn(CostMatrix(np.array([[5.0]]), 5.0, 5.0), uniform(1), uniform(1), SolverConfig(epsilon=1.0))
    assert res.value == pytest.approx(5.0, abs=1e-12)
    assert res.plan.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert res.converged


def test_constant_cost_gives_product_plan():
    cost = CostMatrix(np.full((2, 2), 3.0), 3.0, 3.0)
    res = sinkhorn(cost, uniform(2), uniform(2), SolverConfig(epsilon=1.0))
    assert res.value == pytest.approx(3.0, abs=1e-10)
    assert np.allclose(res.plan.entries, 0.25, atol=1e-10)


def test_value_matches_symmetric_2x2_oracle():
    for off_cost, eps in ((1.0, 1.0), (0.3, 1.0), (1.0, 0.25), (0.6, 0.5)):
        cost = CostMatrix(np.array([[0.0, off_cost], [off_cost, 0.0]]), 0.0, off_cost)
        res = sinkhorn(cost, uniform(2), uniform(2), SolverConfig(epsilon=eps))
        assert res.value == pytest.approx(symmetric_2x2_oracle(off_cost, eps), abs=1e-6)


def test_marginals_and_factorization_on_random_instances():
    rng = CounterStream(RngSeed(21))
    for _ in range(20):
        n = 2 + int(rng.uniform() * 5)
        m = 2 + int(rng.uniform() * 5)
        cost = random_cost(rng, n, m)
        eps = 0.1 + 0.9 * rng.uniform()
        res = sinkhorn(cost, uniform(n), uniform(m), SolverConfig(epsilon=eps))
        assert res.converged
        p = res.plan.entries
        assert np.abs(p.sum(axis=1) - 1.0 / n).sum() <= 1e-9
        assert np.abs(p.sum(axis=0) - 1.0 / m).sum() <= 1e-9
        # plan factorizes through the returned potentials
        rebuilt = (
            np.outer(np.full(n, 1.0 / n), np.full(m, 1.0 / m))
            * np.exp((res.potentials.f[:, None] + res.potentials.g[None, :] - cost.entries) / eps)
        )
        assert np.allclose(p, rebuilt, rtol=1e-9, atol=1e-15)


def test_primal_and_dual_agree_when_converged():
    rng = CounterStream(RngSeed(33))
    cost = random_cost(rng, 4, 3)
    res = sinkhorn(cost, uniform(4), uniform(3), SolverConfig(epsilon=0.5))
    assert res.converged
    primal = primal_value(res.plan, cost, uniform(4), uniform(3), 0.5)
    dual = dual_value(res.potentials, cost, uniform(4), uniform(3), 0.5)
    assert primal == pytest.approx(res.value, rel=1e-6)
    assert dual == pytest.approx(res.value, rel=1e-6)


def test_transpose_symmetry():
    rng = CounterStream(RngSeed(8))
    cost = random_cost(rng, 5, 3)
    cfg = SolverConfig(epsilon=0.4)
    forward = sinkhorn(cost, uniform(5), uniform(3), cfg)
    backward = sinkhorn(
        CostMatrix(cost.entries.T.copy(), cost.c_min, cost.c_max), uniform(3), uniform(5), cfg
    )
    assert abs(forward.value - backward.value) <= 1e-9
    assert np.allclose(forward.plan.entries, backward.plan.entries.T, atol=1e-9)


def test_shift_equivariance():
    rng = CounterStream(RngSeed(13))
    cost = random_cost(rng, 4, 4)
    shift = 0.7
    shifted = CostMatrix(cost.entries + shift, cost.c_min + shift, cost.c_max + shift)
    cfg = SolverConfig(epsilon=0.3)
    base = sinkhorn(cost, uniform(4), uniform(4), cfg)
    moved = sinkhorn(shifted, uniform(4), uniform(4), cfg)
    assert moved.value - base.value == pytest.approx(shift, abs=1e-9)
    assert np.allclose(base.plan.entries, moved.plan.entries, atol=1e-9)


def test_zero_mass_atoms_are_stripped_and_scattered_back():
    cost = CostMatrix(np.array([[0.2, 0.9], [0.8, 0.3], [0.5, 0.5]]), 0.2, 0.9)
    alpha = DiscreteDistribution(np.array([0.5, 0.5, 0.0]))
    res = sinkhorn(cost, alpha, uniform(2), SolverConfig(epsilon=0.5))
    assert res.converged
    assert np.all(res.plan.entries[2] == 0.0)
    assert math.isfinite(res.potentials.f[2])
    sub = sinkhorn(
        CostMatrix(cost.entries[:2], 0.2, 0.9), uniform(2), uniform(2), SolverConfig(epsilon=0.5)
    )
    assert res.value == pytest.approx(sub.value, abs=1e-10)


def test_budget_exhaustion_reports_unconverged():
    cost = CostMatrix(np.array([[0.2, 0.9], [0.8, 0.3]]), 0.2, 0.9)
    res = sinkhorn(cost, uniform(2), uniform(2), SolverConfig(epsilon=0.5, max_iterations=2))
    assert not res.converged
    assert res.iterations == 2
    assert math.isfinite(res.value)


def test_marginal_residual_is_the_plan_residual():
    rng = CounterStream(RngSeed(61))
    cost = random_cost(rng, 5, 5)
    alpha, beta = uniform(5), uniform(5)
    res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=1e-3, max_iterations=500_000))
    p = res.plan.entries
    recomputed = (
        np.abs(p.sum(axis=1) - alpha.weights).sum() + np.abs(p.sum(axis=0) - beta.weights).sum()
    )
    assert res.marginal_residual == pytest.approx(recomputed, abs=1e-12)


def test_matches_plain_log_domain_sinkhorn_with_zero_mass_atoms():
    rng = CounterStream(RngSeed(67))
    for trial in range(12):
        n = 2 + int(rng.uniform() * 6)
        m = 2 + int(rng.uniform() * 6)
        cost = random_cost(rng, n, m)
        weights = []
        for size in (n, m):
            raw = rng.uniforms(size) + 0.1
            raw[int(rng.uniform() * size)] = 0.0
            weights.append(raw / raw.sum())
        alpha, beta = DiscreteDistribution(weights[0]), DiscreteDistribution(weights[1])
        eps = (1e-2, 0.15, 1.0)[trial % 3]
        res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))
        value, plan, _ = log_domain_sinkhorn(cost.entries, alpha.weights, beta.weights, eps)
        assert res.value == pytest.approx(value, rel=1e-8)
        assert np.allclose(res.plan.entries, plan, rtol=0.0, atol=1e-8)


def perturbation_pair_true_cost(seed, side, low=0.1, high=1.0):
    """The true cost and marginals the stability suite draws for one cell."""
    rng = CounterStream(RngSeed(seed).derive("stability", side))
    entries = low + (high - low) * rng.uniforms(side * side).reshape(side, side)
    rng.uniforms(side * side)  # the estimated cost
    marginals = []
    for _ in range(2):
        exponentials = -np.log(1.0 - rng.uniforms(side))
        weights = exponentials / exponentials.sum()
        marginals.append(DiscreteDistribution(weights / weights.sum()))
    return CostMatrix(entries, low, high), *marginals


def sphere_gaussian_cost(n, m, seed, sigma=0.15):
    latents = sample_latents(Sphere(), Density(), n, m, n + m, RngSeed(seed))
    return CostMatrix.from_entries(GaussianPowerKernel(p=2, sigma=sigma).distance_power(latents.xs, latents.ys))


def test_small_epsilon_stability_cost_matches_plain_log_domain_sinkhorn():
    # Seed 5 of the 4 x 4 stability suite at eps = 2e-4, the smallest eps
    # CI runs: most of its sweeps are relaxed, at the largest omega.
    cost, alpha, beta = perturbation_pair_true_cost(5, 4)
    eps = 2e-4
    res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))
    value, plan, _ = log_domain_sinkhorn(cost.entries, alpha.weights, beta.weights, eps, tolerance=1e-10)
    assert res.converged
    assert res.value == pytest.approx(value, rel=1e-8)
    assert np.allclose(res.plan.entries, plan, rtol=0.0, atol=1e-8)


def test_over_relaxation_at_least_halves_the_sweeps_of_plain_sinkhorn():
    cost = sphere_gaussian_cost(60, 90, 3)
    alpha, beta = uniform(60), uniform(90)
    eps, tolerance = 0.15, 1e-9
    res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps, marginal_tolerance=tolerance))
    value, _, sweeps = log_domain_sinkhorn(cost.entries, alpha.weights, beta.weights, eps, tolerance=tolerance)
    assert res.converged and res.marginal_residual <= 2 * tolerance
    assert res.value == pytest.approx(value, rel=1e-10)
    assert 2 * res.iterations <= sweeps


def test_every_budget_ends_on_a_plain_sweep():
    # Relaxation starts within the first ten sweeps here, so most budgets
    # run out during relaxed sweeps; the last one must still be plain.
    cost = sphere_gaussian_cost(60, 90, 3)
    alpha, beta = uniform(60), uniform(90)
    for budget in range(1, 61):
        res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=0.15, max_iterations=budget))
        assert res.plan.entries.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.abs(res.plan.entries.sum(axis=0) - beta.weights).max() <= 1e-15
        assert res.iterations <= budget


def test_row_whose_kernel_underflows_is_absorbed():
    # exp(-C/eps) is exactly zero along row 2, and column 4 underflows even
    # relative to the row minima, so both offsets have to be reset.
    eps = 1e-3
    rng = CounterStream(RngSeed(71))
    entries = 0.1 * rng.uniforms(36).reshape(6, 6)
    entries[2] = 0.8 + 0.05 * rng.uniforms(6)
    entries[:, 4] = 0.9 + 0.1 * rng.uniforms(6)
    entries[2, 4] = 1.7
    assert not np.exp(-entries[2] / eps).any()
    cost = CostMatrix.from_entries(entries)
    res = sinkhorn(cost, uniform(6), uniform(6), SolverConfig(epsilon=eps, max_iterations=500_000))
    assert res.converged and math.isfinite(res.value)
    assert abs(res.value - exact_ot_assignment(cost)) <= eps * math.log(6) + 1e-6


def test_dimension_mismatch_rejected():
    cost = CostMatrix(np.array([[0.5]]), 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        sinkhorn(cost, uniform(2), uniform(1), SolverConfig(epsilon=1.0))


def test_small_epsilon_value_stays_within_entropic_bias():
    rng = CounterStream(RngSeed(55))
    eps = 1e-3
    for _ in range(5):
        n = 3 + int(rng.uniform() * 4)
        cost = random_cost(rng, n, n)
        res = sinkhorn(cost, uniform(n), uniform(n), SolverConfig(epsilon=eps, max_iterations=500_000))
        assert res.converged
        anchor = exact_ot_assignment(cost)
        assert abs(res.value - anchor) <= eps * math.log(n) + 1e-6


# ---------------------------------------------------------------------------
# Assignment reference
# ---------------------------------------------------------------------------


def test_assignment_examples():
    assert exact_ot_assignment(CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0, 1.0)) == 0.0
    assert exact_ot_assignment(CostMatrix(np.full((3, 3), 0.4), 0.4, 0.4)) == pytest.approx(0.4)
    with pytest.raises(InvalidParameterError):
        exact_ot_assignment(CostMatrix(np.ones((2, 3)), 1.0, 1.0))


def test_assignment_matches_permutation_enumeration():
    rng = CounterStream(RngSeed(3))
    for n in (2, 3, 4, 5, 8):
        cost = random_cost(rng, n, n, low=0.0, high=1.0)
        assert exact_ot_assignment(cost) == pytest.approx(assignment_oracle(cost.entries), abs=1e-12)


# ---------------------------------------------------------------------------
# Dual side
# ---------------------------------------------------------------------------


def test_dual_value_zero_for_flat_potentials_on_ones_kernel():
    zero_cost = CostMatrix(np.zeros((3, 2)), 0.0, 0.0)
    pot = DualPotentials(np.zeros(3), np.zeros(2))
    alpha = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
    beta = DiscreteDistribution(np.array([0.6, 0.4]))
    assert dual_value(pot, zero_cost, alpha, beta, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_dual_value_saturated_single_cell():
    eps = 0.7
    c = 2.0
    cost = CostMatrix(np.array([[c]]), c, c)
    pot = DualPotentials(np.array([1.5]), np.array([c - 1.5]))
    assert dual_value(pot, cost, uniform(1), uniform(1), eps) == pytest.approx(c, abs=1e-12)


def test_center_potentials_balances_and_preserves_value():
    pot = DualPotentials(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))
    centered = center_potentials(pot, uniform(2), uniform(2))
    assert np.allclose(centered.f, 0.0) and np.allclose(centered.g, 0.0)
    rng = CounterStream(RngSeed(17))
    cost = random_cost(rng, 3, 4)
    alpha = uniform(3)
    beta = uniform(4)
    raw = DualPotentials(rng.uniforms(3), rng.uniforms(4))
    moved = center_potentials(raw, alpha, beta)
    assert float(alpha.weights @ moved.f) == pytest.approx(float(beta.weights @ moved.g), abs=1e-12)
    assert dual_value(raw, cost, alpha, beta, 0.5) == pytest.approx(
        dual_value(moved, cost, alpha, beta, 0.5), abs=1e-12
    )


def test_min_box_radius_matches_scan_oracle():
    rng = CounterStream(RngSeed(29))
    for _ in range(10):
        f = 4.0 * rng.uniforms(5) - 2.0
        g = 4.0 * rng.uniforms(3) - 2.0
        pot = DualPotentials(f, g)
        assert min_box_radius(pot) == pytest.approx(box_radius_oracle(f, g), abs=1e-4)


def test_potentials_fit_in_the_kernel_ratio_box():
    # converged potentials admit a shift into the radius c_max - c_min / 2
    rng = CounterStream(RngSeed(31))
    for _ in range(20):
        n = 2 + int(rng.uniform() * 5)
        m = 2 + int(rng.uniform() * 5)
        cost = random_cost(rng, n, m)
        eps = (0.1, 0.5, 1.0)[int(rng.uniform() * 3)]
        res = sinkhorn(cost, uniform(n), uniform(m), SolverConfig(epsilon=eps))
        assert res.converged
        assert min_box_radius(res.potentials) <= cost.c_max - cost.c_min / 2 + 1e-6


def test_quadratic_growth_of_the_dual_gap():
    # feasible potentials a bounded distance from optimum: the kernel-weighted
    # square spread is controlled by the dual drop
    rng = CounterStream(RngSeed(37))
    n, m = 4, 5
    entries = 0.9 * rng.uniforms(n * m).reshape(n, m)
    cost = CostMatrix(entries, 0.0, 0.9)
    eps = 0.6
    alpha, beta = uniform(n), uniform(m)
    res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))
    star = dual_value(res.potentials, cost, alpha, beta, eps)
    weights = np.exp(-cost.entries / eps) * np.outer(alpha.weights, beta.weights)
    c_bar = cost.c_max
    for _ in range(100):
        f = c_bar * (2.0 * rng.uniforms(n) - 1.0)
        g = c_bar * (2.0 * rng.uniforms(m) - 1.0)
        drop = star - dual_value(DualPotentials(f, g), cost, alpha, beta, eps)
        spread = (
            f[:, None] + g[None, :] - res.potentials.f[:, None] - res.potentials.g[None, :]
        )
        lhs = float(np.sum(weights * spread**2))
        assert lhs <= (eps / 2.0) * math.exp(2.0 * c_bar / eps) * drop + 1e-8


# ---------------------------------------------------------------------------
# Boxed ascent
# ---------------------------------------------------------------------------


def test_boxed_allones_kernel_is_zero():
    k = np.ones((2, 3))
    res = dual_ascent_boxed(k, uniform(2), uniform(3), SolverConfig(epsilon=1.0, eta=5.0))
    value, pot = res.value, res.potentials
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(pot.f, 0.0, atol=1e-9) and np.allclose(pot.g, 0.0, atol=1e-9)


def test_boxed_collapsed_box_forces_zero_potentials():
    rng = CounterStream(RngSeed(41))
    cost = random_cost(rng, 3, 3)
    eps = 0.8
    k = np.exp(-cost.entries / eps)
    alpha = DiscreteDistribution(np.array([0.2, 0.5, 0.3]))
    beta = uniform(3)
    res = dual_ascent_boxed(k, alpha, beta, SolverConfig(epsilon=eps, eta=1.0))
    value, pot = res.value, res.potentials
    coupling = float(alpha.weights @ k @ beta.weights)
    assert value == pytest.approx(eps * (1.0 - coupling), abs=1e-12)
    assert np.all(pot.f == 0.0) and np.all(pot.g == 0.0)


def test_boxed_matches_sinkhorn_with_sufficient_box():
    rng = CounterStream(RngSeed(43))
    for _ in range(10):
        cost = random_cost(rng, 5, 4)
        eps = 0.2 + 0.8 * rng.uniform()
        eta = math.exp((cost.c_max - cost.c_min / 2.0) / eps)
        full = sinkhorn(cost, uniform(5), uniform(4), SolverConfig(epsilon=eps))
        value = dual_ascent_boxed(
            np.exp(-cost.entries / eps), uniform(5), uniform(4), SolverConfig(epsilon=eps, eta=eta)
        ).value
        assert value == pytest.approx(full.value, rel=1e-6)


def test_boxed_matches_clipped_log_ascent_on_a_zero_one_kernel():
    rng = CounterStream(RngSeed(73))
    kernel = (rng.uniforms(7 * 9).reshape(7, 9) < 0.5).astype(float)
    kernel[3] = 0.0
    alpha = DiscreteDistribution(np.full(7, 1.0 / 7))
    beta = uniform(9)
    eps, eta = 0.5, 1e3
    radius = eps * math.log(eta)
    res = dual_ascent_boxed(kernel, alpha, beta, SolverConfig(epsilon=eps, eta=eta))
    value, f, g = clipped_log_ascent(kernel, alpha.weights, beta.weights, eps, radius, 2_000)
    assert res.converged
    assert res.value == pytest.approx(value, rel=1e-8)
    assert res.potentials.f[3] == pytest.approx(radius, abs=1e-12)
    assert res.pinned_fraction == pytest.approx(np.mean(np.abs(np.r_[f, g]) >= radius - 1e-9))


def test_boxed_budget_exhaustion_reports_unconverged():
    rng = CounterStream(RngSeed(79))
    cost = random_cost(rng, 4, 3)
    cfg = SolverConfig(epsilon=0.5, eta=10.0, max_iterations=1)
    res = dual_ascent_boxed(np.exp(-cost.entries / 0.5), uniform(4), uniform(3), cfg)
    assert not res.converged
    assert res.iterations == 1
    assert math.isfinite(res.value)


def test_boxed_zero_row_with_infinite_box_is_unbounded():
    k = np.array([[0.0, 0.0], [0.4, 0.5]])
    with pytest.raises(UnboundedDualError):
        dual_ascent_boxed(k, uniform(2), uniform(2), SolverConfig(epsilon=1.0, eta=math.inf))


def test_boxed_zero_row_with_finite_box_stays_finite():
    k = np.array([[0.0, 0.0], [0.4, 0.5]])
    res = dual_ascent_boxed(k, uniform(2), uniform(2), SolverConfig(epsilon=1.0, eta=50.0))
    value, pot = res.value, res.potentials
    assert math.isfinite(value)
    radius = 1.0 * math.log(50.0)
    assert np.all(np.abs(pot.f) <= radius + 1e-12)
    assert np.all(np.abs(pot.g) <= radius + 1e-12)


def test_boxed_requires_eta():
    k = np.ones((2, 2))
    with pytest.raises(InvalidParameterError):
        dual_ascent_boxed(k, uniform(2), uniform(2), SolverConfig(epsilon=1.0))
    with pytest.raises(InvalidParameterError):
        SolverConfig(epsilon=1.0, eta=0.5)


# ---------------------------------------------------------------------------
# Plan divergence
# ---------------------------------------------------------------------------


def test_kl_plans_examples():
    p = TransportPlan(np.array([[0.5, 0.0], [0.0, 0.5]]))
    q = TransportPlan(np.full((2, 2), 0.25))
    assert kl_plans(p, p) == 0.0
    assert kl_plans(p, q) == pytest.approx(math.log(2.0), abs=1e-12)
    assert kl_plans(q, p) == math.inf
    with pytest.raises(InvalidParameterError):
        kl_plans(p, TransportPlan(np.array([[1.0]])))


def test_primal_value_infinite_off_product_support():
    plan = TransportPlan(np.array([[0.5], [0.5]]))
    cost = CostMatrix(np.array([[0.1], [0.2]]), 0.1, 0.2)
    alpha = DiscreteDistribution(np.array([1.0, 0.0]))
    assert primal_value(plan, cost, alpha, uniform(1), 1.0) == math.inf


# ---------------------------------------------------------------------------
# Stability report
# ---------------------------------------------------------------------------


def test_identical_costs_give_zero_gaps():
    rng = CounterStream(RngSeed(47))
    cost = random_cost(rng, 3, 3)
    rep = stability_report(cost, cost, uniform(3), uniform(3), SolverConfig(epsilon=0.5))
    assert rep.value_gap <= 1e-12
    assert rep.plan_divergence <= 1e-12
    assert rep.cost_sup_gap == 0.0
    assert rep.kernel_operator_gap == 0.0
    assert rep.all_passed


def test_cost_shift_saturates_the_sup_bound():
    rng = CounterStream(RngSeed(53))
    base = random_cost(rng, 4, 4)
    shifted = CostMatrix(base.entries + 0.5, base.c_min + 0.5, base.c_max + 0.5)
    rep = stability_report(base, shifted, uniform(4), uniform(4), SolverConfig(epsilon=0.5))
    assert rep.value_gap == pytest.approx(0.5, abs=1e-9)
    assert rep.check("sup_norm").rhs == pytest.approx(0.5, abs=1e-12)
    assert rep.check("sup_norm").passed
    # plans are insensitive to a cost shift
    assert rep.plan_divergence <= 1e-9


def test_all_bounds_hold_on_random_instances():
    rng = CounterStream(RngSeed(59))
    for trial in range(60):
        n = 2 + int(rng.uniform() * 5)
        m = 2 + int(rng.uniform() * 5)
        a = random_cost(rng, n, m)
        b = random_cost(rng, n, m)
        eps = (0.1, 0.5, 1.0)[trial % 3]
        rep = stability_report(a, b, uniform(n), uniform(m), SolverConfig(epsilon=eps))
        for check in rep.checks:
            assert check.slack >= -BOUND_SLACK_TOLERANCE, (check.name, check.slack)
        assert {c.name for c in rep.checks} == {
            "sup_norm",
            "kernel_spectral",
            "plan_kl",
            "kernel_frobenius",
        }


def test_report_shape_and_epsilon_validation():
    cost = CostMatrix(np.array([[0.5]]), 0.5, 0.5)
    other = CostMatrix(np.array([[0.5, 0.5]]), 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        stability_report(cost, other, uniform(1), uniform(1), SolverConfig(epsilon=0.5))
    with pytest.raises(InvalidParameterError):
        stability_report(cost, cost, uniform(1), uniform(1), SolverConfig(epsilon=0.0))


def test_report_solves_under_the_whole_config():
    # The iteration budget and tolerances reach both solves, not just epsilon.
    rng = CounterStream(RngSeed(61))
    cost_true, cost_est = random_cost(rng, 4, 5), random_cost(rng, 4, 5)
    alpha, beta = uniform(4), uniform(5)
    cfg = SolverConfig(epsilon=0.5, max_iterations=3)
    rep = stability_report(cost_true, cost_est, alpha, beta, cfg)
    assert rep.value_true == sinkhorn(cost_true, alpha, beta, cfg).value
    assert rep.value_est == sinkhorn(cost_est, alpha, beta, cfg).value
    assert rep.value_true != sinkhorn(cost_true, alpha, beta, SolverConfig(epsilon=0.5)).value


def test_an_infinite_ceiling_holds_with_infinite_slack():
    check = BoundCheck("x", math.inf, math.inf)
    assert check.slack == math.inf
    assert check.passed
    assert BoundCheck("x", 1.0, math.inf).slack == math.inf
    assert BoundCheck("x", math.inf, 1.0).slack == -math.inf
    assert not BoundCheck("x", math.inf, 1.0).passed


def test_report_lookup_by_name():
    cost = CostMatrix(np.array([[0.5]]), 0.5, 0.5)
    rep = stability_report(cost, cost, uniform(1), uniform(1), SolverConfig(epsilon=0.5))
    assert rep.check("plan_kl").name == "plan_kl"
    with pytest.raises(KeyError):
        rep.check("nonexistent")


def test_ot_result_is_frozen():
    res = sinkhorn(
        CostMatrix(np.array([[0.5]]), 0.5, 0.5), uniform(1), uniform(1), SolverConfig(epsilon=1.0)
    )
    assert isinstance(res, OtResult)
    with pytest.raises(AttributeError):
        res.value = 0.0
