"""Solver and stability-bound tests.

Derived values are checked against oracles implemented in this file:
a one-parameter brute-force minimization for the symmetric 2x2 family,
plain log-domain Sinkhorn (values and sweep counts) and clipped log-domain
ascent for the scaling solver, permutation enumeration for the assignment reference, a scan
oracle for the minimal potential box, a 50-digit ``decimal`` evaluation of
the plans' generalised KL, and direct inequality evaluation for the
perturbation bounds.
"""

import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.special import logsumexp

from latent_ot import diagnostics, ot_core
from latent_ot.errors import InvalidParameterError
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
    report_from_solves,
    sinkhorn,
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
    # One non-finite entry inside a larger matrix, whatever its sign.
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.full((3, 4), 0.5)
        entries[1, 2] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            CostMatrix(entries, 0.0, 1.0)


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
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.full((3, 4), 1.0 / 12.0)
        entries[1, 2] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            TransportPlan(entries)
    # Total mass 1, one entry negative.
    entries = np.full((3, 4), 0.1)
    entries[1, 2] = -0.1
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        TransportPlan(entries)


def test_value_types_keep_a_fresh_array_and_freeze_it():
    entries = np.full((3, 4), 0.5)
    plan_entries = np.full((3, 4), 1.0 / 12.0)
    kept_arrays = (CostMatrix(entries, 0.0, 1.0).entries, TransportPlan(plan_entries).entries)
    for given, kept in zip((entries, plan_entries), kept_arrays):
        assert np.shares_memory(given, kept)
        with pytest.raises(ValueError):
            given[0, 0] = 0.25


def test_value_types_copy_views_transposes_and_other_dtypes():
    cost_inputs = (np.full((4, 6), 0.5).T, np.full((4, 6), 0.5)[:3], np.ones((3, 4), dtype=np.int64))
    plan_inputs = (np.full((6, 2), 1.0 / 12.0).T, np.full((4, 6), 1.0 / 12.0)[:2], np.array([[1, 0], [0, 0]]))
    for make, inputs in ((lambda x: CostMatrix(x, 0.0, 1.0), cost_inputs), (TransportPlan, plan_inputs)):
        for given in inputs:
            kept = make(given).entries
            before = kept[0, 0]
            assert not np.shares_memory(given, kept)
            assert not kept.flags.writeable
            given[0, 0] = 0
            assert kept[0, 0] == before


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


def test_sinkhorn_holds_one_n_by_m_array_beyond_its_cost():
    # The bench cells' block size.  The column of cost 1 underflows its
    # kernel column at eps = 0.01, so the solve absorbs and rebuilds its
    # kernel mid-solve as well as at the start.
    n, m = 533, 1067
    entries = 0.1 * CounterStream(RngSeed(89)).uniforms(n * m).reshape(n, m)
    entries[:, -1] = 1.0
    cost = CostMatrix(entries, 0.0, 1.0)
    tracemalloc.start()
    try:
        res = sinkhorn(cost, uniform(n), uniform(m), SolverConfig(epsilon=0.01))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    # The kernel and row-block temporaries.
    assert peak <= 1.25 * n * m * 8, f"traced peak {peak / (n * m * 8):.2f} n x m arrays"
    # The result holds its plan as n + m factors, and the kernel is freed.
    assert held <= 0.05 * n * m * 8, f"the result holds {held / (n * m * 8):.2f} n x m arrays"


def _mid_solve_absorb_cost(n, m):
    """A cost whose column of cost 1 underflows its kernel column at eps =
    0.01, so the solve rebuilds its kernel mid-solve."""
    entries = 0.1 * CounterStream(RngSeed(89)).uniforms(n * m).reshape(n, m)
    entries[:, -1] = 1.0
    return CostMatrix(entries, 0.0, 1.0)


def _zero_mass(size, seed, zeros):
    weights = CounterStream(RngSeed(seed)).uniforms(size) + 0.1
    weights[list(zeros)] = 0.0
    return DiscreteDistribution(weights / weights.sum())


def _shifted(cost):
    """``cost`` with each entry moved by at most 0.025, clipped to [0, 1]."""
    shift = CounterStream(RngSeed(97)).uniforms(cost.entries.size).reshape(cost.shape)
    entries = np.clip(cost.entries + 0.05 * (shift - 0.5), 0.0, 1.0)
    return CostMatrix(entries, float(entries.min()), float(entries.max()))


def _plan_case(cost, alpha, beta, eps):
    return cost, _shifted(cost), alpha, beta, eps


# (true cost, estimated cost, alpha, beta, eps) of the plans whose rows are
# rebuilt: a kernel from the start only, one rebuilt mid-solve, zero-mass
# atoms, and eps = 0.0002, where plan entries underflow to 0 and the two
# plans' supports differ.
PLAN_CASES = {
    "start_kernel": lambda: _plan_case(sphere_gaussian_cost(60, 90, 3), uniform(60), uniform(90), 0.15),
    "rebuilt_kernel": lambda: _plan_case(_mid_solve_absorb_cost(40, 60), uniform(40), uniform(60), 0.01),
    "zero_mass": lambda: _plan_case(
        _mid_solve_absorb_cost(40, 60), _zero_mass(40, 3, (0, 7, 8)), _zero_mass(60, 4, (59,)), 0.01
    ),
    "tiny_eps": lambda: (*perturbation_pair(5, 4), 2e-4),
}


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_rebuilt_from_factors_has_the_bits_of_the_solver_kernel(monkeypatch, case):
    # The eager plan: diag(a*u) K diag(b*v) formed in the buffer of the
    # solver's last kernel K, scattered to the full index set.
    states, run = [], ot_core._ScalingAscent.run

    def keeping_run(state, *args):
        states.append(state)
        return run(state, *args)

    monkeypatch.setattr(ot_core._ScalingAscent, "run", keeping_run)
    cost, _, alpha, beta, eps = PLAN_CASES[case]()
    res = sinkhorn(cost, alpha, beta, SolverConfig(epsilon=eps))
    (state,) = states
    eager = state.kernel
    eager *= (state.a * state.u)[:, None]
    eager *= (state.b * state.v)[None, :]
    rows, cols = np.flatnonzero(alpha.weights), np.flatnonzero(beta.weights)
    expected = np.zeros(cost.shape)
    expected[np.ix_(rows, cols)] = eager
    assert np.array_equal(res.plan.entries, expected)
    # Zero entries, from zero-mass atoms or from underflow, in those cases alone.
    assert (case in ("zero_mass", "tiny_eps")) == (not res.plan.entries.all())


def test_the_plan_check_runs_on_the_factors(monkeypatch):
    # A scaling that drifted off leaves a plan of mass other than one.
    run = ot_core._ScalingAscent.run

    def drifting_run(state, *args):
        done = run(state, *args)
        state.u = 2.0 * state.u
        return done

    monkeypatch.setattr(ot_core._ScalingAscent, "run", drifting_run)
    cost = _mid_solve_absorb_cost(4, 6)
    with pytest.raises(InvalidParameterError, match="plan mass"):
        sinkhorn(cost, uniform(4), uniform(6), SolverConfig(epsilon=0.5))

    def nan_run(state, *args):
        done = run(state, *args)
        state.row_sums = np.full_like(state.row_sums, np.nan)
        return done

    monkeypatch.setattr(ot_core._ScalingAscent, "run", nan_run)
    with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
        sinkhorn(cost, uniform(4), uniform(6), SolverConfig(epsilon=0.5))


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
    # At eps = 1e-3 the cheapest entry of every supported line sits at a
    # zero-mass atom, at least 900 eps below the rest of its line.
    cost = np.array([[0.5, 0.0, 0.0], [0.0, 0.9, 1.0], [0.0, 1.0, 0.95]])
    a, b = np.array([0.0, 0.5, 0.5]), np.array([0.0, 0.4, 0.6])
    alpha, beta = DiscreteDistribution(a), DiscreteDistribution(b)
    res = sinkhorn(CostMatrix(cost, 0.0, 1.0), alpha, beta, SolverConfig(epsilon=1e-3))
    value, plan, _ = log_domain_sinkhorn(cost, a, b, 1e-3)
    assert res.value == pytest.approx(value, rel=1e-8)
    assert np.allclose(res.plan.entries, plan, rtol=0.0, atol=1e-8)


def perturbation_pair(seed, side, low=0.1, high=1.0):
    """The true and estimated costs and the marginals the stability suite
    draws for one cell."""
    rng = CounterStream(RngSeed(seed).derive("stability", side))
    costs = [low + (high - low) * rng.uniforms(side * side).reshape(side, side) for _ in range(2)]
    marginals = []
    for _ in range(2):
        exponentials = -np.log(1.0 - rng.uniforms(side))
        weights = exponentials / exponentials.sum()
        marginals.append(DiscreteDistribution(weights / weights.sum()))
    return *(CostMatrix(entries, low, high) for entries in costs), *marginals


def sphere_gaussian_cost(n, m, seed, sigma=0.15):
    latents = sample_latents(Sphere(), Density(), n, m, n + m, RngSeed(seed))
    entries = GaussianPowerKernel(p=2, sigma=sigma).distance_power(latents.xs, latents.ys)
    return CostMatrix(entries, float(entries.min()), float(entries.max()))


def test_small_epsilon_stability_cost_matches_plain_log_domain_sinkhorn():
    # Seed 5 of the 4 x 4 stability suite at eps = 2e-4, the smallest eps
    # CI runs: most of its sweeps are relaxed, at the largest omega.
    cost, _, alpha, beta = perturbation_pair(5, 4)
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
    cost = CostMatrix(entries, float(entries.min()), float(entries.max()))
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
    kernel[:, 5] = 0.0
    alpha = DiscreteDistribution(np.full(7, 1.0 / 7))
    beta = uniform(9)
    eps, eta = 0.5, 1e3
    radius = eps * math.log(eta)
    value, f, g = clipped_log_ascent(kernel, alpha.weights, beta.weights, eps, radius, 2_000)
    results = []
    for given in (kernel, csr_array(kernel)):
        res = dual_ascent_boxed(given, alpha, beta, SolverConfig(epsilon=eps, eta=eta))
        assert res.converged
        assert res.value == pytest.approx(value, rel=1e-8)
        assert res.potentials.f[3] == pytest.approx(radius, abs=1e-12)
        assert res.potentials.g[5] == pytest.approx(radius, abs=1e-12)
        assert res.pinned_fraction == pytest.approx(np.mean(np.abs(np.r_[f, g]) >= radius - 1e-9))
        results.append(res)
    dense, sparse = results
    for name in ("value", "iterations", "converged", "pinned_fraction", "marginal_residual"):
        assert getattr(dense, name) == getattr(sparse, name), name
    assert np.array_equal(dense.potentials.f, sparse.potentials.f)
    assert np.array_equal(dense.potentials.g, sparse.potentials.g)


def test_boxed_memory_scales_with_the_stored_entries():
    # 3000 x 3000 at 0.1% density: one dense float64 copy would be 72 MB.
    size, stored = 3000, 9000
    rng = CounterStream(RngSeed(83))
    flat = np.unique((rng.uniforms(stored) * size * size).astype(np.int64))
    kernel = csr_array((rng.uniforms(flat.size) + 0.5, (flat // size, flat % size)), shape=(size, size))
    cfg = SolverConfig(epsilon=0.1, eta=1e4, max_iterations=200)
    tracemalloc.start()
    try:
        res = dual_ascent_boxed(kernel, uniform(size), uniform(size), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations >= 1 and math.isfinite(res.value)
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_boxed_budget_exhaustion_reports_unconverged():
    rng = CounterStream(RngSeed(79))
    cost = random_cost(rng, 4, 3)
    cfg = SolverConfig(epsilon=0.5, eta=10.0, max_iterations=1)
    res = dual_ascent_boxed(np.exp(-cost.entries / 0.5), uniform(4), uniform(3), cfg)
    assert not res.converged
    assert res.iterations == 1
    assert math.isfinite(res.value)


def test_boxed_zero_row_with_finite_box_stays_finite():
    k = np.array([[0.0, 0.0], [0.4, 0.5]])
    res = dual_ascent_boxed(k, uniform(2), uniform(2), SolverConfig(epsilon=1.0, eta=50.0))
    value, pot = res.value, res.potentials
    assert math.isfinite(value)
    radius = 1.0 * math.log(50.0)
    assert np.all(np.abs(pot.f) <= radius + 1e-12)
    assert np.all(np.abs(pot.g) <= radius + 1e-12)


def test_boxed_zero_mass_atoms_match_the_problem_without_them():
    # One zero-mass atom on each side, its kernel line zeroed on half the
    # trials.  Odd trials zero one supported row and column too, which pin
    # their potentials on the box face.
    rng = CounterStream(RngSeed(0))
    radius = 3.0
    for trial in range(12):
        n = 3 + int(rng.uniform() * 5)
        m = 3 + int(rng.uniform() * 5)
        eps = (0.05, 0.15, 1.0)[trial % 3]
        kernel = np.exp(-(0.1 + 0.9 * rng.uniforms(n * m).reshape(n, m)) / eps)
        i, j = int(rng.uniform() * n), int(rng.uniform() * m)
        if trial % 2:
            kernel[(i + 1) % n] = 0.0
            kernel[:, (j + 1) % m] = 0.0
        if trial % 4 < 2:
            kernel[i] = 0.0
            kernel[:, j] = 0.0
        weights = []
        for size, zero in ((n, i), (m, j)):
            raw = rng.uniforms(size) + 0.1
            raw[zero] = 0.0
            weights.append(raw / raw.sum())
        rows, cols = np.arange(n) != i, np.arange(m) != j
        sub_alpha = DiscreteDistribution(weights[0][rows])
        sub_beta = DiscreteDistribution(weights[1][cols])
        cfg = SolverConfig(epsilon=eps, eta=math.exp(radius / eps))
        full = dual_ascent_boxed(kernel, DiscreteDistribution(weights[0]), DiscreteDistribution(weights[1]), cfg)
        sub = dual_ascent_boxed(kernel[np.ix_(rows, cols)], sub_alpha, sub_beta, cfg)
        assert full.value == pytest.approx(sub.value, abs=1e-10)
        free = np.r_[full.potentials.f[i], full.potentials.g[j]]
        assert np.all(np.isfinite(free)) and np.all(np.abs(free) <= radius)


def test_boxed_requires_eta():
    k = np.ones((2, 2))
    with pytest.raises(InvalidParameterError):
        dual_ascent_boxed(k, uniform(2), uniform(2), SolverConfig(epsilon=1.0))
    with pytest.raises(InvalidParameterError):
        SolverConfig(epsilon=1.0, eta=0.5)
    with pytest.raises(InvalidParameterError):
        SolverConfig(epsilon=1.0, eta=math.inf)


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
    # A zero of P adds Q; a zero of Q under P's support gives inf.
    r = TransportPlan(np.array([[0.5, 0.0], [0.25, 0.25]]))
    assert kl_plans(r, q) == pytest.approx(0.5 * math.log(0.5 / 0.25), abs=1e-12)
    assert kl_plans(r, TransportPlan(np.array([[0.5, 0.5], [0.0, 0.0]]))) == math.inf
    assert kl_plans(q, TransportPlan(np.array([[0.25, 0.25], [0.5, 0.0]]))) == math.inf


def test_primal_value_infinite_off_product_support():
    plan = TransportPlan(np.array([[0.5], [0.5]]))
    cost = CostMatrix(np.array([[0.1], [0.2]]), 0.1, 0.2)
    alpha = DiscreteDistribution(np.array([1.0, 0.0]))
    assert primal_value(plan, cost, alpha, uniform(1), 1.0) == math.inf


def test_primal_value_forms_no_product_plan():
    # The KL against alpha x beta reads the product a row block at a time;
    # the one n x m temporary left is the transport cost's P * C.
    n, m = 600, 1200
    cost = _mid_solve_absorb_cost(n, m)
    plan = TransportPlan(np.full((n, m), 1.0 / (n * m)))
    tracemalloc.start()
    try:
        value = primal_value(plan, cost, uniform(n), uniform(m), 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(float(np.mean(cost.entries)), abs=1e-12)
    assert peak <= 1.25 * n * m * 8, f"traced peak {peak / (n * m * 8):.2f} n x m arrays"


def generalised_kl_oracle(p, q):
    """sum P log(P/Q) - P + Q over the exact values of the floats, at 50
    digits; an entry with P = 0 adds Q."""
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for a, b in zip(np.ravel(p).tolist(), np.ravel(q).tolist()):
            a, b = Decimal(a), Decimal(b)
            total += b if a == 0 else a * (a / b).ln() - a + b
    return total


def near_equal_plans(seed, spread, mass=1.0):
    """A 12 x 15 plan Q and a plan P within about ``spread`` of it entry by
    entry, P scaled to ``mass``."""
    rng = CounterStream(RngSeed(seed))
    q = rng.uniforms(180).reshape(12, 15) + 0.5
    q /= q.sum()
    p = q * (1.0 + spread * (rng.uniforms(180).reshape(12, 15) - 0.5))
    p *= mass / p.sum()
    return p, q


def test_kl_plans_matches_a_decimal_oracle_on_near_equal_plans():
    # The solves' plans are this close (KL near 1e-6 on the usvt_paths
    # cells), and their masses differ from 1 by rounding.
    with_zero, q = near_equal_plans(101, 1e-3)
    with_zero[3, 4] = 0.0
    with_zero /= with_zero.sum()
    pairs = [
        near_equal_plans(101, 1e-2),
        near_equal_plans(103, 1e-3),
        near_equal_plans(107, 1e-3, mass=1.0 + 1e-15),
        (with_zero, q),
    ]
    for p, q in pairs:
        exact = generalised_kl_oracle(p, q)
        kl = kl_plans(TransportPlan(p), TransportPlan(q))
        assert abs(Decimal(kl) - exact) <= Decimal(1e-13) * exact, (kl, exact)


def test_kl_plans_does_not_follow_the_reference_mass():
    # Sum P log(P/Q) alone moves by log(1 + c) when Q is scaled by 1 + c;
    # the -P + Q terms cancel that to first order.
    p, q = near_equal_plans(109, 1e-3)
    kl = kl_plans(TransportPlan(p), TransportPlan(q))
    assert 1e-8 < kl < 1e-6
    assert abs(kl_plans(TransportPlan(p), TransportPlan(q * (1.0 + 1e-12))) - kl) < 1e-18


def test_kl_plans_stays_finite_where_p_over_q_overflows():
    p, q = np.array([[0.5, 0.5]]), np.array([[1e-310, 1.0]])
    kl = kl_plans(TransportPlan(p), TransportPlan(q))
    assert math.isfinite(kl)
    assert abs(Decimal(kl) - generalised_kl_oracle(p, q)) <= Decimal(1e-14) * Decimal(kl)


# ---------------------------------------------------------------------------
# Stability report
# ---------------------------------------------------------------------------


def solve_and_report(cost_true, cost_est, alpha, beta, cfg):
    """Both solves under ``cfg`` and the report on them, as every cell runs them."""
    true, est = sinkhorn(cost_true, alpha, beta, cfg), sinkhorn(cost_est, alpha, beta, cfg)
    return true, est, report_from_solves(true, est)


def test_identical_costs_give_zero_gaps():
    rng = CounterStream(RngSeed(47))
    cost = random_cost(rng, 3, 3)
    true, est, rep = solve_and_report(cost, cost, uniform(3), uniform(3), SolverConfig(epsilon=0.5))
    assert abs(true.value - est.value) <= 1e-12
    assert rep.plan_divergence <= 1e-12
    assert rep.cost_sup_gap == 0.0
    assert rep.kernel_operator_gap == 0.0
    assert rep.all_passed


def test_cost_shift_saturates_the_sup_bound():
    rng = CounterStream(RngSeed(53))
    base = random_cost(rng, 4, 4)
    shifted = CostMatrix(base.entries + 0.5, base.c_min + 0.5, base.c_max + 0.5)
    true, est, rep = solve_and_report(base, shifted, uniform(4), uniform(4), SolverConfig(epsilon=0.5))
    assert abs(true.value - est.value) == pytest.approx(0.5, abs=1e-9)
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
        _, _, rep = solve_and_report(a, b, uniform(n), uniform(m), SolverConfig(epsilon=eps))
        for check in rep.checks:
            assert check.slack >= -BOUND_SLACK_TOLERANCE, (check.name, check.slack)
        assert {c.name for c in rep.checks} == {
            "sup_norm",
            "kernel_spectral",
            "plan_kl",
            "kernel_frobenius",
        }


def test_report_rejects_solves_of_different_problems():
    # The bounds hold at one eps under one pair of marginals, so the report
    # reads them from the solves and refuses two solves that disagree.
    rng = CounterStream(RngSeed(67))
    cost, other = random_cost(rng, 3, 4), random_cost(rng, 3, 4)
    alpha, beta = uniform(3), uniform(4)
    cfg = SolverConfig(epsilon=0.5)
    true = sinkhorn(cost, alpha, beta, cfg)
    assert report_from_solves(true, sinkhorn(other, alpha, beta, cfg)).all_passed
    wide = sinkhorn(random_cost(rng, 3, 5), alpha, uniform(5), cfg)
    with pytest.raises(InvalidParameterError, match="cost shapes differ"):
        report_from_solves(true, wide)
    coarse = sinkhorn(other, alpha, beta, SolverConfig(epsilon=0.05))
    with pytest.raises(InvalidParameterError, match="epsilons"):
        report_from_solves(true, coarse)
    weighted = DiscreteDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
    for a, b in ((alpha, weighted), (DiscreteDistribution(np.array([0.5, 0.25, 0.25])), beta)):
        with pytest.raises(InvalidParameterError, match="marginals"):
            report_from_solves(true, sinkhorn(other, a, b, cfg))


def test_report_reads_the_solves_it_is_given():
    # The report runs no solve: its plan divergence is that of the two
    # plans passed in, here from budget-capped solves.
    rng = CounterStream(RngSeed(61))
    cost_true, cost_est = random_cost(rng, 4, 5), random_cost(rng, 4, 5)
    alpha, beta = uniform(4), uniform(5)
    cfg = SolverConfig(epsilon=0.5, max_iterations=3)
    true, est, rep = solve_and_report(cost_true, cost_est, alpha, beta, cfg)
    assert rep.plan_divergence == kl_plans(true.plan, est.plan)
    converged = sinkhorn(cost_est, alpha, beta, SolverConfig(epsilon=0.5))
    assert rep.plan_divergence != kl_plans(true.plan, converged.plan)


def test_the_report_takes_one_operator_norm_that_of_the_kernel_gap(monkeypatch):
    # No check reads ||C - C_hat||_op, so the report takes no Gram of it:
    # its one operator norm is ||dK||_op, with the bits of operator_norm.
    calls, in_place = [], diagnostics._operator_norm_in_place

    def counting(mat):
        calls.append(mat.shape)
        return in_place(mat)

    monkeypatch.setattr(diagnostics, "_operator_norm_in_place", counting)
    rng = CounterStream(RngSeed(71))
    cost_true, cost_est = random_cost(rng, 6, 5), random_cost(rng, 6, 5)
    eps = 0.5
    _, _, rep = solve_and_report(cost_true, cost_est, uniform(6), uniform(5), SolverConfig(epsilon=eps))
    assert calls == [(6, 5)]
    kernel_diff = np.exp(-cost_true.entries / eps) - np.exp(-cost_est.entries / eps)
    assert rep.kernel_operator_gap == diagnostics.operator_norm(kernel_diff)
    assert not hasattr(rep, "cost_operator_gap")


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_report_kl_is_kl_plans_of_the_materialised_plans(case):
    # The report rebuilds both plans from their factors a row block at a
    # time; its KL must have the bits of kl_plans on the dense plans,
    # including the zero-support and the inf cases.
    cost_true, cost_est, alpha, beta, eps = PLAN_CASES[case]()
    true, est, rep = solve_and_report(cost_true, cost_est, alpha, beta, SolverConfig(epsilon=eps))
    expected = kl_plans(true.plan, est.plan)
    assert rep.plan_divergence == expected
    assert (expected == math.inf) == (case == "tiny_eps")


def test_report_kl_holds_no_n_by_m_array():
    # The report's KL rebuilds both plans a row block at a time and sums
    # each block's terms as it goes.
    n, m = 600, 1200
    cost = _mid_solve_absorb_cost(n, m)
    cfg = SolverConfig(epsilon=0.1)
    true, est = sinkhorn(cost, uniform(n), uniform(m), cfg), sinkhorn(_shifted(cost), uniform(n), uniform(m), cfg)
    tracemalloc.start()
    try:
        divergence = ot_core._kl_by_rows(cost.shape, true._plan_rows, est._plan_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert divergence == kl_plans(true.plan, est.plan)
    assert peak < n * m * 8, f"traced peak {peak / (n * m * 8):.2f} n x m arrays"


def test_an_infinite_ceiling_holds_with_infinite_slack():
    check = BoundCheck("x", math.inf, math.inf)
    assert check.slack == math.inf
    assert check.passed
    assert BoundCheck("x", 1.0, math.inf).slack == math.inf
    assert BoundCheck("x", math.inf, 1.0).slack == -math.inf
    assert not BoundCheck("x", math.inf, 1.0).passed


def test_report_lookup_by_name():
    cost = CostMatrix(np.array([[0.5]]), 0.5, 0.5)
    _, _, rep = solve_and_report(cost, cost, uniform(1), uniform(1), SolverConfig(epsilon=0.5))
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
