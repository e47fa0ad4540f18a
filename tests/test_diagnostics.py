"""Norm and rate-fit tests.

The ARPACK operator norm is checked against numpy's dense SVD to 1e-12
relative, and against itself at one and two BLAS threads, as are the
Frobenius norms of the discrepancy and stability reports; the rate fitter
is checked against synthetic power laws with known exponents.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import latent_ot
import latent_ot.diagnostics as diagnostics
from latent_ot.diagnostics import discrepancy, fit_rate, operator_norm
from latent_ot.errors import InvalidParameterError, NumericFailureError
from latent_ot.rng import CounterStream, RngSeed


# ---------------------------------------------------------------------------
# Operator norm
# ---------------------------------------------------------------------------


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-8)


def test_operator_norm_rank_one():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    mat = np.outer(u, v)
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert operator_norm(mat) == pytest.approx(expected, rel=1e-8)


def test_operator_norm_matches_svd_on_random_matrices():
    rng = CounterStream(RngSeed(14))
    for _ in range(10):
        mat = rng.uniforms(24).reshape(6, 4) - 0.5
        expected = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert operator_norm(mat) == pytest.approx(expected, rel=1e-12)


def test_operator_norm_of_one_row_or_one_column():
    row = np.array([[3.0, -4.0, 12.0]])
    for mat in (row, row.T, np.array([[-2.5]])):
        expected = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert operator_norm(mat) == pytest.approx(expected, rel=1e-12)
    assert operator_norm(row) == 13.0


def test_operator_norm_zero_and_nullspace_start():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    # all-ones and linspace(1, 2) start vectors lie in these null spaces
    for mat in (np.array([[1.0, -1.0], [1.0, -1.0]]), np.array([[2.0, -1.0], [4.0, -2.0]])):
        expected = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert operator_norm(mat) == pytest.approx(expected, rel=1e-12)


def test_operator_norm_of_tiny_and_huge_matrices():
    rng = CounterStream(RngSeed(17))
    mat = rng.uniforms(12).reshape(4, 3) - 0.5
    for scale in (1e-300, 1e300):
        expected = float(np.linalg.svd(scale * mat, compute_uv=False)[0])
        assert operator_norm(scale * mat) == pytest.approx(expected, rel=1e-12)
        assert operator_norm(scale * mat[:1]) == pytest.approx(scale * np.linalg.norm(mat[0]), rel=1e-12)


def test_operator_norm_transpose_invariance():
    rng = CounterStream(RngSeed(15))
    mat = rng.uniforms(15).reshape(3, 5)
    assert operator_norm(mat) == pytest.approx(operator_norm(mat.T), rel=1e-8)


def test_operator_norm_validation():
    with pytest.raises(InvalidParameterError):
        operator_norm(np.array([1.0, 2.0]))
    with pytest.raises(InvalidParameterError):
        operator_norm(np.array([[np.nan]]))
    with pytest.raises(InvalidParameterError):
        operator_norm(np.empty((0, 2)))


def test_operator_norm_reports_arpack_non_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((3, 0)))

    monkeypatch.setattr(diagnostics, "svds", no_convergence)
    with pytest.raises(NumericFailureError):
        operator_norm(np.arange(9.0).reshape(3, 3))


# The operator norms of three matrices w - Bernoulli(w), then the two
# Frobenius norms of w - 1/2: the discrepancy report's and the stability
# report's.
_THREADED_NORM_SCRIPT = """
import numpy as np
from latent_ot.diagnostics import discrepancy, operator_norm
from latent_ot.ot_core import CostMatrix, DiscreteDistribution, SolverConfig, stability_report
from latent_ot.rng import CounterStream, RngSeed, pair_uniforms
rows, cols = 533, 1067
w = CounterStream(RngSeed(7)).uniforms(rows * cols).reshape(rows, cols)
i, j = np.indices((rows, cols))
for seed in (7, 8, 9):
    edges = pair_uniforms(RngSeed(seed), i.ravel(), j.ravel()).reshape(rows, cols) < w
    print(operator_norm(w - edges).hex())
half = np.full((rows, cols), 0.5)
print(discrepancy(w, half).frobenius.hex())
report = stability_report(
    CostMatrix(entries=w, c_min=0.0, c_max=1.0),
    CostMatrix(entries=half, c_min=0.0, c_max=1.0),
    DiscreteDistribution.uniform(rows),
    DiscreteDistribution.uniform(cols),
    SolverConfig(epsilon=1.0),
)
print(report.cost_frobenius_gap.hex())
"""


def test_operator_norm_does_not_depend_on_the_blas_thread_count():
    # The thread count is set only in each child's environment.
    src = str(Path(latent_ot.__file__).resolve().parents[1])
    norms = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _THREADED_NORM_SCRIPT],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        norms.append(done.stdout.split())
    assert len(norms[0]) == 5
    assert norms[0] == norms[1]


# ---------------------------------------------------------------------------
# Discrepancy report
# ---------------------------------------------------------------------------


def test_discrepancy_identical_matrices():
    mat = np.arange(6.0).reshape(2, 3)
    rep = discrepancy(mat, mat)
    assert rep.sup_norm == 0.0
    assert rep.frobenius == 0.0
    assert rep.frobenius_normalized == 0.0
    assert rep.operator == 0.0
    assert (rep.rows, rep.cols) == (2, 3)


def test_discrepancy_single_entry_difference():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.zeros((2, 2))
    rep = discrepancy(a, b)
    assert rep.sup_norm == 1.0
    assert rep.frobenius == 1.0
    assert rep.frobenius_normalized == 0.5
    assert rep.operator == pytest.approx(1.0, rel=1e-8)


def test_discrepancy_symmetry_and_norm_ordering():
    rng = CounterStream(RngSeed(16))
    a = rng.uniforms(20).reshape(4, 5)
    b = rng.uniforms(20).reshape(4, 5)
    rep = discrepancy(a, b)
    rev = discrepancy(b, a)
    assert rep.sup_norm == rev.sup_norm
    assert rep.frobenius == rev.frobenius
    assert rep.operator == pytest.approx(rev.operator, rel=1e-8)
    assert rep.operator <= rep.frobenius + 1e-12
    assert rep.sup_norm <= rep.operator + 1e-8


def test_discrepancy_validation():
    with pytest.raises(InvalidParameterError):
        discrepancy(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(InvalidParameterError):
        discrepancy(np.array([1.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_exact_power_law():
    points = [(n, 2.0 * n**-0.25) for n in (100, 200, 400, 800)]
    fit = fit_rate(points)
    assert fit.slope == pytest.approx(-0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points == tuple((float(n), float(v)) for n, v in points)


def test_fit_rate_constant_values():
    fit = fit_rate([(10, 3.0), (100, 3.0), (1000, 3.0)])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_fit_rate_scale_invariance_of_slope():
    points = [(n, 0.7 * n**-0.4) for n in (50, 150, 450)]
    scaled = [(n, 100.0 * v) for n, v in points]
    assert fit_rate(points).slope == pytest.approx(fit_rate(scaled).slope, abs=1e-12)


def test_fit_rate_on_noisy_data():
    rng = CounterStream(RngSeed(18))
    grid = (100, 200, 400, 800, 1600)
    points = [(n, n**-0.5 * math.exp(0.05 * (rng.uniform() - 0.5))) for n in grid]
    fit = fit_rate(points)
    assert -0.55 < fit.slope < -0.45
    assert fit.r_squared > 0.99


def test_fit_rate_validation():
    with pytest.raises(InvalidParameterError):
        fit_rate([(10, 1.0), (20, 0.5)])
    with pytest.raises(InvalidParameterError):
        fit_rate([(10, 1.0), (20, 0.5), (30, -0.1)])
    with pytest.raises(InvalidParameterError):
        fit_rate([(0, 1.0), (20, 0.5), (30, 0.1)])
    with pytest.raises(InvalidParameterError):
        fit_rate([(10, 1.0), (10, 0.5), (10, 0.1)])
