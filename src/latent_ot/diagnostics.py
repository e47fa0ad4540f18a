"""Matrix norms of perturbations and log-log rate fitting.

Operator norms come from ARPACK on the Gram matrix of the smaller side, one
BLAS product, which the package runs on one BLAS thread so the bits do not
depend on a thread count; a dense SVD is the test oracle.  The Gram route
stays, although products x -> A^T (A x) form no min(n, m)^2 array: the
cells' gap matrices have flat tops (sigma_2 / sigma_1 of 0.976-0.995 at
533 x 1067), where Lanczos needs 31-91 steps, and there one syrk plus steps
on the smaller Gram matrix cost less than two gemv per step.  Frobenius norms
are einsum sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import InvalidParameterError, NumericFailureError

# ARPACK stops once the top Ritz pair's residual is at most this share of its
# Ritz value.
_ARPACK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(value) against log(N).

    Attributes:
        points: The (N, value) pairs that were fitted.
        slope: Fitted exponent of the power law value ~ N^slope.
        intercept: Fitted log-scale offset.
        r_squared: Coefficient of determination; defined as 1.0 when the
            values are constant (the fit is then exact).
    """

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value: the square root of the top eigenvalue of the
    Gram matrix of the smaller side, from ARPACK (``eigsh``, k = 1).

    The matrix is scaled to a largest entry of 1, so the Gram matrix neither
    underflows nor overflows; it is one BLAS product (syrk) of min(n, m)^2
    entries, and the start vector is fixed.  One row or one column gives the
    Euclidean norm.  Raises :class:`NumericFailureError` if ARPACK does not
    converge.

    ARPACK stops at a residual ||r|| <= 1e-8 * theta of the Ritz value theta.
    The Kato-Temple bound |lambda - theta| <= ||r||^2 / delta, with delta the
    gap to the second eigenvalue, then leaves the top eigenvalue within 1e-14
    relative wherever sigma_2 / sigma_1 <= 0.995, and within 1e-12 down to a
    relative eigenvalue gap of 1e-4.  ARPACK's default, machine precision,
    takes about 10-30 more steps on the cells' gaps for no digit a report
    prints.

    Never writes to ``matrix``: it scales a copy, one more array of its
    size.  A caller that owns a float64 matrix it reads no more passes it to
    :func:`_operator_norm_in_place` instead, which scales it in place and
    returns the same bits.
    """
    return _operator_norm_in_place(np.array(matrix, dtype=np.float64))


def _operator_norm_in_place(mat: np.ndarray) -> float:
    """:func:`operator_norm` of the float64 ``mat``, which it overwrites
    with mat / max|mat_ij| rather than form that quotient in a new array."""
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidParameterError("operator_norm needs a nonempty matrix")
    # The largest magnitude, from the two extremes with no |mat| temporary; it
    # is NaN or inf wherever any entry is, so the same passes check both.
    scale = max(abs(float(mat.max())), abs(float(mat.min())))
    if not math.isfinite(scale):
        raise InvalidParameterError("operator_norm needs finite entries")
    if scale == 0.0:
        return 0.0
    unit = np.divide(mat, scale, out=mat)
    if min(mat.shape) == 1:
        return scale * float(np.linalg.norm(unit))

    gram = unit @ unit.T if mat.shape[0] <= mat.shape[1] else unit.T @ unit
    # Not linspace or all-ones: a small-integer matrix can annihilate a rational start.
    start = np.cos(np.arange(gram.shape[0], dtype=np.float64))
    try:
        top = float(
            eigsh(gram, k=1, which="LA", v0=start, tol=_ARPACK_TOLERANCE, return_eigenvectors=False)[0]
        )
    except ArpackError as exc:
        raise NumericFailureError(f"ARPACK failed on the operator norm: {exc}") from exc
    return scale * math.sqrt(top)


def frobenius_norm(matrix: np.ndarray) -> float:
    """Square root of the einsum sum of squares."""
    mat = np.asarray(matrix, dtype=np.float64)
    return math.sqrt(float(np.einsum("ij,ij->", mat, mat)))


def fit_rate(points: list[tuple[float, float]]) -> RateFit:
    """Fit log(value) = intercept + slope * log(N) by ordinary least squares."""
    if len(points) < 3:
        raise InvalidParameterError(f"need at least 3 points, got {len(points)}")
    scales = np.array([float(p[0]) for p in points])
    values = np.array([float(p[1]) for p in points])
    if np.any(scales <= 0) or np.any(values <= 0):
        raise InvalidParameterError("rate fitting needs positive scales and values")
    x = np.log(scales)
    y = np.log(values)
    x_center = x - x.mean()
    denom = float(x_center @ x_center)
    if denom == 0.0:
        raise InvalidParameterError("all scales are equal; slope is undefined")
    slope = float(x_center @ (y - y.mean())) / denom
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    total = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if total == 0.0 else 1.0 - float(residuals @ residuals) / total
    return RateFit(
        points=tuple((float(p[0]), float(p[1])) for p in points),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
    )
