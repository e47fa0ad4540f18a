"""Norm and rate-fit tests.

The operator norm, ARPACK on a Gram matrix, is checked against numpy's
dense SVD to 1e-12 relative, and against itself at one and two BLAS
threads, as are the einsum Frobenius norm and the stability report's; the rate fitter
is checked against synthetic power laws with known exponents.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import latent_ot
import latent_ot.diagnostics as diagnostics
from latent_ot.diagnostics import _operator_norm_in_place, fit_rate, frobenius_norm, operator_norm
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


def test_operator_norm_of_gram_shapes_matches_svd():
    # Two rows, two columns, tall and wide: the Gram matrix is formed on
    # either side, at 2 x 2 as well as at 60 x 60.  The public norm leaves
    # its argument as it was; the in-place one gives the same bits.
    rng = CounterStream(RngSeed(18))
    for rows, cols in ((2, 9), (9, 2), (2, 2), (150, 60), (60, 150)):
        mat = rng.uniforms(rows * cols).reshape(rows, cols) - 0.5
        given = mat.copy()
        expected = float(np.linalg.svd(mat, compute_uv=False)[0])
        value = operator_norm(mat)
        assert value == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(mat, given)
        assert _operator_norm_in_place(given) == value


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


def test_operator_norm_of_flat_topped_gaps_matches_svd():
    # A cell's kernel gap has a flat top: a constant kernel less an i.i.d.
    # Bernoulli block of its mean has sigma_2 / sigma_1 close to 1, where
    # ARPACK takes the most steps and a loose stopping tolerance shows.
    rng = np.random.default_rng(0)
    edges = (rng.random((533, 1067)) < 0.0375).astype(np.float64)
    bernoulli_gap = 0.0375 - edges
    # A repeated top singular value: U diag(s) V^T with s_1 = s_2.
    left, _ = np.linalg.qr(rng.standard_normal((120, 120)))
    right, _ = np.linalg.qr(rng.standard_normal((240, 120)))
    values = np.concatenate([[3.0, 3.0], np.linspace(2.9, 0.1, 118)])
    repeated = (left * values) @ right.T
    for mat in (bernoulli_gap, repeated):
        expected = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert operator_norm(mat) == pytest.approx(expected, rel=1e-12)


def test_operator_norm_validation():
    with pytest.raises(InvalidParameterError):
        operator_norm(np.array([1.0, 2.0]))
    with pytest.raises(InvalidParameterError):
        operator_norm(np.array([[np.nan]]))
    with pytest.raises(InvalidParameterError):
        operator_norm(np.empty((0, 2)))
    # One non-finite entry inside a larger matrix, whatever its sign.
    for bad in (np.inf, -np.inf, np.nan):
        matrix = np.arange(12.0).reshape(3, 4)
        matrix[1, 2] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            operator_norm(matrix)


def test_operator_norm_reports_arpack_non_convergence(monkeypatch):
    # Non-convergence and any other ARPACK error (3: no shifts could be
    # applied) are numeric failures, not tracebacks.
    for failure in (ArpackNoConvergence("no convergence", np.empty(0), np.empty((3, 0))), ArpackError(3)):

        def failing_eigsh(*args, failure=failure, **kwargs):
            raise failure

        monkeypatch.setattr(diagnostics, "eigsh", failing_eigsh)
        with pytest.raises(NumericFailureError):
            operator_norm(np.arange(9.0).reshape(3, 3))


# The operator norms of three matrices w - Bernoulli(w), then the two
# Frobenius norms of w - 1/2: the einsum norm's and the stability report's.
_THREADED_NORM_SCRIPT = """
import numpy as np
from latent_ot.diagnostics import frobenius_norm, operator_norm
from latent_ot.ot_core import CostMatrix, DiscreteDistribution, SolverConfig, report_from_solves, sinkhorn
from latent_ot.rng import CounterStream, RngSeed, pair_uniforms
rows, cols = 533, 1067
w = CounterStream(RngSeed(7)).uniforms(rows * cols).reshape(rows, cols)
i, j = np.indices((rows, cols))
for seed in (7, 8, 9):
    edges = pair_uniforms(RngSeed(seed), i.ravel(), j.ravel()).reshape(rows, cols) < w
    print(operator_norm(w - edges).hex())
half = np.full((rows, cols), 0.5)
print(frobenius_norm(w - half).hex())
cost_true = CostMatrix(entries=w, c_min=0.0, c_max=1.0)
cost_est = CostMatrix(entries=half, c_min=0.0, c_max=1.0)
alpha, beta = DiscreteDistribution.uniform(rows), DiscreteDistribution.uniform(cols)
cfg = SolverConfig(epsilon=1.0)
true, est = sinkhorn(cost_true, alpha, beta, cfg), sinkhorn(cost_est, alpha, beta, cfg)
report = report_from_solves(true, est)
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
# Norms of a discrepancy: the difference of a matrix and its estimate
# ---------------------------------------------------------------------------


def test_discrepancy_identical_matrices():
    mat = np.arange(6.0).reshape(2, 3)
    assert frobenius_norm(mat - mat) == 0.0
    assert operator_norm(mat - mat) == 0.0


def test_discrepancy_single_entry_difference():
    diff = np.array([[1.0, 0.0], [0.0, 0.0]]) - np.zeros((2, 2))
    assert frobenius_norm(diff) == 1.0
    assert operator_norm(diff) == pytest.approx(1.0, rel=1e-8)


def test_discrepancy_symmetry_and_norm_ordering():
    rng = CounterStream(RngSeed(16))
    a = rng.uniforms(20).reshape(4, 5)
    b = rng.uniforms(20).reshape(4, 5)
    frobenius, operator = frobenius_norm(a - b), operator_norm(a - b)
    assert frobenius == frobenius_norm(b - a)
    assert frobenius == pytest.approx(float(np.linalg.norm(a - b)), rel=1e-15)
    assert operator == pytest.approx(operator_norm(b - a), rel=1e-8)
    assert operator <= frobenius + 1e-12
    assert float(np.abs(a - b).max()) <= operator + 1e-8


def test_discrepancy_validation():
    # The "ij" subscripts accept a matrix only, not a vector's norm.
    with pytest.raises(ValueError):
        frobenius_norm(np.array([1.0, 2.0]))
    with pytest.raises(InvalidParameterError):
        operator_norm(np.ones((2, 2)) - np.array([[np.inf, 0.0], [0.0, 0.0]]))


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
