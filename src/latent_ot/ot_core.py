"""Entropic optimal transport solvers and perturbation diagnostics.

This module solves the regularized transport problem

    value(C) = min_P  <P, C> + epsilon * KL(P | alpha x beta)

over couplings P of two discrete distributions.  :func:`sinkhorn` and the
box-constrained :func:`dual_ascent_boxed`, which stays finite when an
estimated kernel has zero entries and reports how it ended in a
:class:`BoxedResult`, share one stabilised scaling loop: each sweep is two
matrix-vector products with a kernel into which the potentials are absorbed
whenever a scaling drifts out of range, over-relaxed by a factor derived
from the contraction the sweeps measure as they go.  Sinkhorn's kernel
exp(-C/eps) has no zeros and stays a dense array.  The boxed ascent takes its
kernel as a nonnegative array, dense or sparse, since an estimated kernel
need not be exp(-C/eps) of any cost, and sweeps over the CSR of its nonzero
entries.  A Sinkhorn solve returns its plan diag(a*u) K diag(b*v) as n + m
factors, the scalings and the offsets of its last kernel, with a reference
to its cost, and frees its kernel: an :class:`OtResult` builds the dense
plan only when read.  An exact assignment solver is the unregularized
reference for uniform marginals.  :func:`report_from_solves` takes two
finished solves, one on a true cost and one on its estimate, and evaluates
how far the value and plan moved against the ceilings the perturbation
bounds give.  The module
keeps no clock: a caller times the solves and the report where it runs them.
Cost matrices carry explicit entry bounds ``c_min <= C_ij <= c_max`` because
the perturbation bounds depend on them.  The solvers read epsilon from their
:class:`SolverConfig`, the report from its two solves; only the standalone
objectives :func:`primal_value` and :func:`dual_value` take it as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.sparse import csr_array, issparse, sparray

from . import diagnostics
from .errors import InvalidParameterError, NumericFailureError
from .rng import CounterStream

# Bound checks tolerate this much numerical slack on the wrong side.
BOUND_SLACK_TOLERANCE = 1e-9

_WEIGHT_SUM_TOLERANCE = 1e-12
_PLAN_MASS_TOLERANCE = 1e-9

# Sinkhorn's plateau stop compares the marginal gap and the value this many
# sweeps apart.
_PLATEAU_BLOCK = 32

# Over-relaxation starts once two successive displacement ratios differ by at
# most _RATIO_SETTLED and show a contraction of at least _SLOW_CONTRACTION:
# faster plain sweeps end within a few sweeps, before relaxing could pay for
# the plain sweep that has to confirm its stop.  A drift (ratio 1, such as
# potentials moving towards a box face) reads as _CONTRACTION_CAP, which keeps
# omega at most 1.87, away from 2 where the sweeps stop contracting.
_RATIO_SETTLED = 0.01
_SLOW_CONTRACTION = 0.5
_CONTRACTION_CAP = 0.995

# A scaling leaving this range is absorbed and the stabilised kernel rebuilt.
_SCALING_RANGE = (math.exp(-50.0), math.exp(50.0))


# Row blocks of about this many entries (256 KB of float64) bound the
# temporaries of a pass that reads an n x m array a block at a time.
_BLOCK_ENTRIES = 1 << 15


def _owned(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when it is a fresh array: float64, C-contiguous,
    writeable and owner of its buffer.  Anything else (a view, a transpose,
    another dtype, a read-only array) is copied, so the caller's array stays
    as it was."""
    fresh = arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
    return arr if fresh else np.array(arr, dtype=np.float64, copy=True)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` frozen in place when it is fresh (see :func:`_owned`), else a
    frozen copy."""
    arr = _owned(arr)
    arr.setflags(write=False)
    return arr


def _row_blocks(shape: tuple[int, int]):
    """Slices of the first axis of an array of ``shape``, each of about
    _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // shape[1])
    return (slice(start, start + step) for start in range(0, shape[0], step))


def _gibbs(cost: np.ndarray, f_scaled: np.ndarray, g_scaled: np.ndarray, eps: float) -> np.ndarray:
    """exp(-cost_ij/eps + f_scaled_i + g_scaled_j), added in that order in one
    new buffer: every kernel rebuild and every rebuilt plan row goes through
    it, so both give an entry the same bits."""
    exponent = np.divide(cost, -eps)
    exponent += f_scaled[:, None]
    exponent += g_scaled[None, :]
    return np.exp(exponent, out=exponent)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability weights over a finite set of atoms.

    Attributes:
        weights: Nonnegative vector summing to one within 1e-12.  Zero-mass
            atoms are allowed; solvers strip them before iterating and
            scatter results back to the full index set.

    Like every value type here, it keeps a fresh float64 array it is given
    and freezes it in place, so a caller who passed one can no longer write
    to it; any other input is copied (see :class:`CostMatrix`).
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise InvalidParameterError("weights must be a nonempty vector")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise InvalidParameterError("weights must be finite and nonnegative")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise InvalidParameterError(
                f"weights must sum to 1 within {_WEIGHT_SUM_TOLERANCE}: sum={weights.sum()!r}"
            )
        object.__setattr__(self, "weights", _readonly(weights))

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        if size <= 0:
            raise InvalidParameterError(f"size must be positive: {size}")
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def dirichlet(cls, stream: CounterStream, size: int) -> "DiscreteDistribution":
        """A flat Dirichlet draw: ``size`` exponentials -log(1 - U) from
        ``stream``, normalized."""
        exponentials = -np.log(1.0 - stream.uniforms(size))
        weights = exponentials / exponentials.sum()
        return cls(weights / weights.sum())

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def euclidean_norm(self) -> float:
        return float(np.linalg.norm(self.weights))


@dataclass(frozen=True)
class CostMatrix:
    """A nonnegative cost matrix with explicit entry bounds.

    The value types own their arrays without copying what they need not.  A
    fresh array (float64, C-contiguous, writeable and owner of its buffer,
    such as ``cdist``, ``np.interp`` or ``np.exp`` return) becomes the stored
    array and is frozen in place: a caller who passed it can no longer write
    to it, and a write raises ``ValueError``.  A view, a transpose, a
    read-only array or another dtype is copied, and the caller's array stays
    writeable.  Views taken of a fresh array before it was passed keep their
    own write flag, so a caller must not hand over an array it still writes
    through a view.

    Attributes:
        entries: Matrix of pairwise costs, shape (n, m).
        c_min: Lower bound with 0 <= c_min <= min entry.
        c_max: Upper bound with max entry <= c_max.
    """

    entries: np.ndarray
    c_min: float
    c_max: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.size == 0:
            raise InvalidParameterError("cost entries must form a nonempty matrix")
        # NaN and +-inf reach the extremes, so they decide finiteness too.
        low, high = float(entries.min()), float(entries.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise InvalidParameterError("cost entries must be finite")
        if not (0.0 <= self.c_min <= self.c_max):
            raise InvalidParameterError(
                f"cost bounds must satisfy 0 <= c_min <= c_max: ({self.c_min}, {self.c_max})"
            )
        slack = 1e-12 * max(1.0, abs(self.c_max))
        if low < self.c_min - slack or high > self.c_max + slack:
            raise InvalidParameterError("cost entries violate the declared bounds")
        object.__setattr__(self, "entries", _readonly(entries))

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class DualPotentials:
    """Dual variables (f, g) in cost units.

    Fresh float64 vectors are kept and frozen in place, so a caller who
    passed one can no longer write to it; other inputs are copied (see
    :class:`CostMatrix`).
    """

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.float64)
        g = np.asarray(self.g, dtype=np.float64)
        if f.ndim != 1 or g.ndim != 1 or f.size == 0 or g.size == 0:
            raise InvalidParameterError("potentials must be nonempty vectors")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise InvalidParameterError("potentials must be finite")
        object.__setattr__(self, "f", _readonly(f))
        object.__setattr__(self, "g", _readonly(g))


@dataclass(frozen=True)
class TransportPlan:
    """A coupling matrix: nonnegative entries with total mass one.

    A fresh float64 array is kept and frozen in place, so a caller who passed
    one can no longer write to it; other inputs are copied (see
    :class:`CostMatrix`).  No solver keeps one: an :class:`OtResult` holds
    its plan as n + m factors and builds a TransportPlan only when its
    ``plan`` is read.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.size == 0:
            raise InvalidParameterError("plan entries must form a nonempty matrix")
        # NaN and +-inf reach the extremes, so they decide finiteness too.
        low, high = float(entries.min()), float(entries.max())
        if not (math.isfinite(low) and math.isfinite(high)) or low < 0:
            raise InvalidParameterError("plan entries must be finite and nonnegative")
        if abs(float(entries.sum()) - 1.0) > _PLAN_MASS_TOLERANCE:
            raise InvalidParameterError(
                f"plan mass must be 1 within {_PLAN_MASS_TOLERANCE}: {entries.sum()!r}"
            )
        object.__setattr__(self, "entries", _readonly(entries))


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and tolerances for the transport solvers.

    Attributes:
        epsilon: Regularization strength, > 0.
        eta: Optional bound factor for the boxed dual; potentials are kept
            inside [-epsilon * log(eta), epsilon * log(eta)].  Must be finite
            and >= 1 when given.
        max_iterations: Sweep budget for both solvers.
        marginal_tolerance: L1 marginal violation at which Sinkhorn stops.
        value_tolerance: Relative change of the dual value at which the
            boxed ascent stops.
    """

    epsilon: float
    eta: float | None = None
    max_iterations: int = 100_000
    marginal_tolerance: float = 1e-9
    value_tolerance: float = 1e-12

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise InvalidParameterError(f"epsilon must be positive and finite: {self.epsilon}")
        if self.eta is not None and not 1.0 <= self.eta < math.inf:
            raise InvalidParameterError(f"eta must be finite and >= 1 when present: {self.eta}")
        if self.max_iterations < 1:
            raise InvalidParameterError(f"max_iterations must be >= 1: {self.max_iterations}")
        if not (self.marginal_tolerance > 0 and self.value_tolerance > 0):
            raise InvalidParameterError("tolerances must be positive")


@dataclass(frozen=True)
class OtResult:
    """Converged (or budget-exhausted) output of the Sinkhorn solver.

    ``marginal_residual`` is the final L1 row plus column marginal violation;
    a plateau stop can set ``converged`` while it is above the tolerance.

    The plan diag(a*u) K diag(b*v), K = exp(-C/eps + fbar/eps + gbar/eps),
    is kept as its n + m factors, not as an n x m array: ``offsets`` holds
    fbar/eps and gbar/eps of the solver's last kernel rebuild and
    ``scalings`` holds a*u and b*v, each over the atoms of positive mass,
    whose indices ``support`` holds; ``cost``, ``alpha`` and ``beta``, the
    problem solved, are referenced, not copied.  :attr:`plan` builds the dense
    plan on each access, and the stability report rebuilds its rows a block
    at a time.  Both form each entry with the operations, in the order, that
    formed it in the solver's kernel buffer, so it keeps those bits.
    """

    value: float
    potentials: DualPotentials
    iterations: int
    converged: bool
    marginal_residual: float
    cost: CostMatrix
    alpha: DiscreteDistribution
    beta: DiscreteDistribution
    epsilon: float
    support: tuple[np.ndarray, np.ndarray]
    offsets: tuple[np.ndarray, np.ndarray]
    scalings: tuple[np.ndarray, np.ndarray]

    @property
    def plan(self) -> TransportPlan:
        """The n x m plan, built anew on each access; zero on zero-mass atoms."""
        entries = np.empty(self.cost.shape)
        for rows in _row_blocks(entries.shape):
            entries[rows] = self._plan_rows(rows)
        return TransportPlan(entries)

    def _plan_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the plan, in a new array."""
        n, m = self.cost.shape
        kept, cols = self.support
        f_scaled, g_scaled = self.offsets
        row_scaling, col_scaling = self.scalings
        # The supported rows among ``rows``: a run of ``kept``, which is sorted.
        local = slice(*np.searchsorted(kept, (rows.start, min(rows.stop, n))))
        full = kept.size == n and cols.size == m
        cost = self.cost.entries[rows] if full else self.cost.entries[np.ix_(kept[local], cols)]
        block = _gibbs(cost, f_scaled[local], g_scaled, self.epsilon)
        block *= row_scaling[local, None]
        block *= col_scaling[None, :]
        if full:
            return block
        scattered = np.zeros((min(rows.stop, n) - rows.start, m))
        scattered[np.ix_(kept[local] - rows.start, cols)] = block
        return scattered


@dataclass(frozen=True)
class BoxedResult:
    """Boxed ascent output; ``pinned_fraction`` is the share of all potentials on the box face.

    ``marginal_residual`` is the final L1 row plus column marginal violation
    of the supported atoms; a potential pinned on the box face keeps its
    marginal off.  When the dual leaves a shared shift of (f, g) free, the
    raw potentials and ``pinned_fraction`` depend on the sweep path: on 1200
    random instances two sweep paths agreed on the value within 2.8e-11,
    but 7 instances differed by one pinned potential.
    """

    value: float
    potentials: DualPotentials
    iterations: int
    converged: bool
    pinned_fraction: float
    marginal_residual: float


@dataclass(frozen=True)
class BoundCheck:
    """One inequality lhs <= rhs with its measured slack."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        # An infinite ceiling holds vacuously, even over an infinite lhs.
        if self.rhs == math.inf:
            return math.inf
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -BOUND_SLACK_TOLERANCE


@dataclass(frozen=True)
class StabilityReport:
    """Measured transport gaps against their theoretical ceilings.

    The four checks cover, in order: the sup-norm ceiling on the value gap,
    the spectral ceiling on the value gap, the ceiling on the KL divergence
    between the two optimal plans, and the Frobenius domination of the
    kernel operator gap.  Its one operator norm is the kernel gap's, ||dK||_op.
    """

    plan_divergence: float
    cost_sup_gap: float
    cost_frobenius_gap: float
    kernel_operator_gap: float
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str) -> BoundCheck:
        for entry in self.checks:
            if entry.name == name:
                return entry
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Potential utilities
# ---------------------------------------------------------------------------


def center_potentials(
    pot: DualPotentials, alpha: DiscreteDistribution, beta: DiscreteDistribution
) -> DualPotentials:
    """Shift (f, g) by the constant that makes alpha @ f == beta @ g.

    The transport objective only sees f_i + g_j, so this fixes the shared
    shift degree of freedom canonically.
    """
    _check_dims(pot.f.size, pot.g.size, alpha, beta)
    shift = 0.5 * (float(beta.weights @ pot.g) - float(alpha.weights @ pot.f))
    return DualPotentials(pot.f + shift, pot.g - shift)


def min_box_radius(pot: DualPotentials) -> float:
    """Smallest box radius containing some shifted copy of the potentials.

    Returns min over scalar c of max(sup|f + c|, sup|g - c|).  The objective
    is a maximum of four linear functions of c, so the minimum sits where the
    steepest increasing and decreasing envelopes cross.
    """
    f, g = pot.f, pot.g
    rising = max(float(f.max()), -float(g.min()))
    falling = max(float(g.max()), -float(f.min()))
    return 0.5 * (rising + falling)


def _check_dims(n: int, m: int, alpha: DiscreteDistribution, beta: DiscreteDistribution):
    if alpha.size != n or beta.size != m:
        raise InvalidParameterError(
            f"marginal sizes ({alpha.size}, {beta.size}) do not match matrix shape ({n}, {m})"
        )


# ---------------------------------------------------------------------------
# Primal objective and plan divergence
# ---------------------------------------------------------------------------


def kl_plans(plan: TransportPlan, reference: TransportPlan) -> float:
    """KL(P | Q) of two plans, in the generalised form of :func:`_kl_by_rows`."""
    p = plan.entries
    q = reference.entries
    if p.shape != q.shape:
        raise InvalidParameterError(f"plan shapes differ: {p.shape} vs {q.shape}")
    return _kl_by_rows(p.shape, p.__getitem__, q.__getitem__)


def _kl_by_rows(shape: tuple[int, int], plan_rows, reference_rows) -> float:
    """The generalised KL, sum P log(P/Q) - P + Q, of two nonnegative arrays
    of ``shape`` whose row block ``rows`` is ``plan_rows(rows)`` (P) and
    ``reference_rows(rows)`` (Q), summed a block at a time.  At unit masses
    it is KL(P | Q), and to first order it does not move with either mass.
    Each term is Q ((1 + r) log1p(r) - r) with 1 + r = P/Q, accurate where
    P is near Q; where that is not finite it is P (log P - log Q) - P + Q, or
    Q where P = 0, so the KL is +inf exactly when some Q = 0 < P."""
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in _row_blocks(shape):
            p, q = plan_rows(rows), reference_rows(rows)
            ratio = np.divide(p, q)
            r = ratio - 1.0
            terms = np.log1p(r)
            terms *= ratio
            terms -= r
            terms *= q
            block = float(np.sum(terms))
            if not math.isfinite(block):
                odd = ~np.isfinite(terms)
                p, q = p[odd], q[odd]
                terms[odd] = np.where(p > 0, p * (np.log(p) - np.log(q)) - p + q, q)
                block = float(np.sum(terms))
            total += block
    return total


def primal_value(
    plan: TransportPlan,
    cost: CostMatrix,
    alpha: DiscreteDistribution,
    beta: DiscreteDistribution,
    epsilon: float,
) -> float:
    """Transport cost plus epsilon times KL(P | alpha x beta)."""
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive: {epsilon}")
    p = plan.entries
    _check_dims(p.shape[0], p.shape[1], alpha, beta)
    divergence = _kl_by_rows(p.shape, p.__getitem__, lambda rows: np.outer(alpha.weights[rows], beta.weights))
    return float(np.sum(p * cost.entries)) + epsilon * divergence


# ---------------------------------------------------------------------------
# Solvers: one scaling-domain block ascent behind sinkhorn and the boxed ascent
# ---------------------------------------------------------------------------


def _in_range(scaling: np.ndarray) -> bool:
    return _SCALING_RANGE[0] <= scaling.min() and scaling.max() <= _SCALING_RANGE[1]


class _ScalingAscent:
    """Alternating block ascent of the entropic dual, in scaling form.

    f = fbar + eps*log(u), g = gbar + eps*log(v); the absorbed offsets define
    kernel = exp((fbar_i + gbar_j - C_ij)/eps), so the plan is diag(a*u)
    kernel diag(b*v) and an exact block update is one product:
    u = 1/(kernel (b*v)), v = 1/(kernel^T (a*u)), each clipped to the box;
    :meth:`run` over-relaxes them.  A scaling leaving _SCALING_RANGE resets
    its offset to the other side's hard c-transform (every kernel line then
    peaks at one) and rebuilds the kernel, the only exponential over the
    kernel's entries (Schmitzer 2019; Peyre & Cuturi 2019, section 4.4).
    Here the kernel is a dense array and the products are BLAS gemv, on the
    one thread the package pins; :class:`_SparseScalingAscent` holds it as CSR.
    The dense ascent reads the cost ``cost`` and never copies it.  No
    log-kernel -C/eps outlives a rebuild: each rebuild drops the old kernel,
    then forms -C/eps in the buffer that becomes the new one, and a
    mid-solve c-transform takes its max over row blocks of a few hundred KB.
    So a solve holds one n x m array beyond its cost.
    """

    def __init__(self, cost: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float, radius: float):
        self.cost = cost
        self._start(a, b, eps, radius)

    def _start(self, a: np.ndarray, b: np.ndarray, eps: float, radius: float) -> None:
        """Absorb the hard c-transform of g = 0 and take the first value."""
        self.a, self.b, self.eps, self.radius = a, b, eps, radius
        self._absorb_start()
        self.value = self._value(self.f, self.g, float(a @ self.row_sums))

    def _absorb_start(self) -> None:
        """Absorb the hard c-transform of g = 0, dividing the cost once:
        -C/eps, formed in the buffer that becomes the first kernel, gives the
        transform from its row maxima, then takes f/eps and is exponentiated
        in place.  A rebuild would also add g/eps = 0, which changes at most
        the sign of a zero exponent, and exp maps both zeros to 1, so the
        kernel has a rebuild's bits."""
        exponent = np.divide(self.cost, -self.eps)
        f = np.clip(-self.eps * exponent.max(axis=1), -self.radius, self.radius)
        f_scaled, zeros = f / self.eps, np.zeros(self.b.size)
        exponent += f_scaled[:, None]
        self._install(f, zeros, (f_scaled, zeros), np.exp(exponent, out=exponent))

    @property
    def f(self) -> np.ndarray:
        return self.fbar + self.eps * np.log(self.u)

    @property
    def g(self) -> np.ndarray:
        return self.gbar + self.eps * np.log(self.v)

    def run(self, max_iterations: int, stop) -> tuple[int, bool]:
        """Sweep until ``stop(iteration, previous_value, self)``; return (sweeps, stopped).

        Sweeps start plain (omega = 1).  Once the ratio mu of successive
        displacements settles, it gives the contraction of the slowest mode of
        plain sweeps, q = (mu + omega - 1)^2 / (omega^2 mu) (Young's relation;
        q = mu at omega = 1), and updates are over-relaxed to
        u^(1 - omega) * (1/(kernel (b*v)))^omega with the optimal
        omega = 2/(1 + sqrt(1 - q)), whose rate is omega - 1 (Thibault,
        Chizat, Dossal & Papadakis 2021; Lehmann et al. 2022).  A relaxed
        ratio settled above omega - 1 shows a slower mode than omega was set
        for, such as the drift of the potentials towards a box face, and
        raises omega again.  A relaxed sweep that lowers the dual value
        returns to plain sweeps, which measure q afresh.  Only a plain sweep
        ends a solve: a relaxed sweep that meets ``stop`` is followed by a
        plain one that must meet it too, and the budget's last sweep is
        plain, so every exit leaves exact column marginals and plan mass.
        """
        omega, confirm = 1.0, False
        potentials, step, ratio, last_used = (self.f, self.g), 0.0, math.nan, 1.0
        for iteration in range(1, max_iterations + 1):
            used = omega if not confirm and iteration < max_iterations else 1.0
            previous = self.value
            self._sweep(used)
            if math.isnan(self.value):
                raise NumericFailureError("dual objective became NaN")
            if used > 1.0 and self.value < previous:
                omega = 1.0
            elif stop(iteration, previous, self):
                if used == 1.0:
                    return iteration, True
                confirm = True
            else:
                confirm = False
            # Displacement ratios compare consecutive sweeps of one omega.
            f, g = self.f, self.g
            delta_f, delta_g = f - potentials[0], g - potentials[1]
            last_step = step if used == last_used else 0.0
            potentials, step, last_used = (f, g), float(delta_f @ delta_f + delta_g @ delta_g), used
            if not (step > 0.0 and last_step > 0.0):
                ratio = math.nan
                continue
            last_ratio, ratio = ratio, math.sqrt(step / last_step)
            if ratio < 0.5 * (used - 1.0):
                # Far below the relaxed rate: the mode omega was set for has
                # gone, say a drift reached the box face.
                omega = 1.0
            elif used == omega and used - 1.0 < ratio and abs(ratio - last_ratio) <= _RATIO_SETTLED:
                slow = min((ratio + used - 1.0) ** 2 / (used * used * ratio), _CONTRACTION_CAP)
                better = 2.0 / (1.0 + math.sqrt(1.0 - slow))
                if slow >= _SLOW_CONTRACTION and better > omega:
                    omega, ratio = better, math.nan
        return max_iterations, False

    def _sweep(self, omega: float) -> None:
        """Update f, then g, relaxed by ``omega``; refresh the value and marginal gaps.

        At omega = 1 each update is the exact block maximiser.  An update
        whose scaling leaves the range is redone plain after absorbing.
        """
        self.u = self._scaling(self.row_sums, self.u_box, self.u, omega)
        if not _in_range(self.u):
            self._absorb(self._c_transform(self.g, axis=1), self.g)
            self.u = self._scaling(self.row_sums, self.u_box)
        col_sums = self._col_sums(self.a * self.u)
        self.v = self._scaling(col_sums, self.v_box, self.v, omega)
        if not _in_range(self.v):
            self._absorb(self.f, self._c_transform(self.f, axis=0))
            col_sums = self._col_sums(self.a)
            self.v = self._scaling(col_sums, self.v_box)
        # The next sweep's first product is also this sweep's row marginal.
        self.row_sums = self.kernel @ (self.b * self.v)
        col_mass = self.b * self.v * col_sums
        self.row_gap = float(np.abs(self.a * self.u * self.row_sums - self.a).sum())
        self.col_gap = float(np.abs(col_mass - self.b).sum())
        self.value = self._value(self.f, self.g, float(col_mass.sum()))

    def _value(self, f: np.ndarray, g: np.ndarray, coupling: float) -> float:
        return float(self.a @ f + self.b @ g - self.eps * coupling + self.eps)

    @staticmethod
    def _scaling(
        sums: np.ndarray, box: tuple[np.ndarray, np.ndarray], old: np.ndarray | None = None, omega: float = 1.0
    ) -> np.ndarray:
        """clip(old^(1 - omega) * (1/sums)^omega, box); a zero kernel line goes to the box face."""
        with np.errstate(divide="ignore", over="ignore"):
            target = 1.0 / sums
            if omega != 1.0:
                target = old * (target / old) ** omega
            return np.clip(target, *box)

    def _absorb(self, f: np.ndarray, g: np.ndarray) -> None:
        # Dropped first, so a dense solve never holds the old and the new kernel at once.
        self.kernel = None
        offsets = (f / self.eps, g / self.eps)
        self._install(f, g, offsets, self._rebuild(*offsets))

    def _install(
        self, f: np.ndarray, g: np.ndarray, offsets: tuple[np.ndarray, np.ndarray], kernel: np.ndarray | csr_array
    ) -> None:
        """Take (f, g) as the absorbed offsets and ``kernel``, built from
        ``offsets`` = (f/eps, g/eps), as the kernel; the scalings restart at one."""
        eps, radius = self.eps, self.radius
        self.fbar, self.gbar, self.offsets, self.kernel = f, g, offsets, kernel
        self.u, self.v = np.ones(f.size), np.ones(g.size)
        self.row_sums = kernel @ self.b
        with np.errstate(over="ignore"):
            self.u_box = (np.exp((-radius - f) / eps), np.exp((radius - f) / eps))
            self.v_box = (np.exp((-radius - g) / eps), np.exp((radius - g) / eps))

    def _c_transform(self, other: np.ndarray, axis: int) -> np.ndarray:
        """Min over ``axis`` of cost minus ``other``, clipped to the box."""
        peak = self._peak(other / self.eps, axis)
        return np.clip(-self.eps * peak, -self.radius, self.radius)

    def _rebuild(self, f_scaled: np.ndarray, g_scaled: np.ndarray) -> np.ndarray:
        """The kernel exp(-C_ij/eps + f_scaled_i + g_scaled_j), in one new buffer."""
        return _gibbs(self.cost, f_scaled, g_scaled, self.eps)

    def _col_sums(self, weighted_rows: np.ndarray) -> np.ndarray:
        """kernel^T weighted_rows."""
        return weighted_rows @ self.kernel

    def _peak(self, scaled: np.ndarray, axis: int) -> np.ndarray:
        """Max over ``axis`` of -C/eps plus ``scaled`` along it, a row block at
        a time; a max is exact, so the blocks change no bit."""
        peak = np.full(self.cost.shape[1 - axis], -np.inf)
        for rows in _row_blocks(self.cost.shape):
            block = np.divide(self.cost[rows], -self.eps)
            if axis == 1:
                block += scaled[None, :]
                peak[rows] = block.max(axis=1)
            else:
                block += scaled[rows, None]
                np.maximum(peak, block.max(axis=0), out=peak)
        return peak


class _SparseScalingAscent(_ScalingAscent):
    """The same ascent on a kernel held as the CSR array ``log_k`` of the logs
    of its stored entries, so that a sweep costs O(nnz) (Schmitzer 2019).

    A rebuild exponentiates the stored entries alone; the products are CSR
    matvecs, those with kernel^T through its CSC view, which shares the
    kernel's buffers; a c-transform takes each line's maximum over its
    stored entries, and an empty line reads -inf, which the box clips.
    """

    def __init__(self, log_k: csr_array, a: np.ndarray, b: np.ndarray, eps: float, radius: float):
        self.log_k = log_k
        # The row and the column of each stored entry.
        self._lines = (np.repeat(np.arange(log_k.shape[0]), np.diff(log_k.indptr)), log_k.indices)
        self._start(a, b, eps, radius)

    def _absorb_start(self) -> None:
        zeros = np.zeros(self.b.size)
        self._absorb(self._c_transform(zeros, axis=1), zeros)

    def _rebuild(self, f_scaled: np.ndarray, g_scaled: np.ndarray) -> csr_array:
        log_k, (rows, cols) = self.log_k, self._lines
        exponent = log_k.data + f_scaled[rows]
        exponent += g_scaled[cols]
        kernel = csr_array((np.exp(exponent, out=exponent), log_k.indices, log_k.indptr), shape=log_k.shape)
        # A transpose stored once per rebuild: ``x @ kernel`` would build one per product.
        self._kernel_t = kernel.T
        return kernel

    def _col_sums(self, weighted_rows: np.ndarray) -> np.ndarray:
        return self._kernel_t @ weighted_rows

    def _peak(self, scaled: np.ndarray, axis: int) -> np.ndarray:
        peak = np.full(self.log_k.shape[1 - axis], -np.inf)
        np.maximum.at(peak, self._lines[1 - axis], self.log_k.data + scaled[self._lines[axis]])
        return peak


def _support(alpha: DiscreteDistribution, beta: DiscreteDistribution, matrix: np.ndarray | csr_array):
    """Indices and weights of the atoms with positive mass, and that block of
    ``matrix`` (dense or CSR): the matrix itself, not a copy, when every atom
    has mass."""
    rows = np.flatnonzero(alpha.weights > 0)
    cols = np.flatnonzero(beta.weights > 0)
    if rows.size < alpha.size or cols.size < beta.size:
        matrix = matrix[np.ix_(rows, cols)]
    return rows, cols, alpha.weights[rows], beta.weights[cols], matrix


def _scatter(values: np.ndarray, index, size) -> np.ndarray:
    """Values on the supported atoms, zero on the zero-mass ones."""
    full = np.zeros(size)
    full[index] = values
    return full


def sinkhorn(
    cost: CostMatrix,
    alpha: DiscreteDistribution,
    beta: DiscreteDistribution,
    cfg: SolverConfig,
) -> OtResult:
    """Solve the entropic transport problem with stabilised Sinkhorn sweeps.

    Each sweep updates f, then g, over-relaxed once the plain sweeps'
    contraction is known; the sweep that ends a solve, or its budget, is
    plain, so the returned plan has exact column marginals and mass one.
    Iteration stops (with ``converged`` set) when both L1 marginal residuals
    drop below ``marginal_tolerance``, or when their sum stalled (improved by
    less than 10% across a block of _PLATEAU_BLOCK sweeps) while the dual
    value gained at most ``value_tolerance`` relative per sweep of that
    block: small-eps residuals decay only harmonically although the value
    settles long before.  The value is the dual objective at the final
    potentials.  Returns centered potentials and the plan
    P_ij = alpha_i beta_j exp((f_i + g_j - C_ij) / epsilon).

    The solve reads ``cost.entries`` in place and holds one n x m array
    beyond it, the stabilised kernel, which it frees when it returns.  The
    returned :class:`OtResult` holds the plan as its n + m factors and
    references to ``cost``, ``alpha`` and ``beta``; the plan must be finite,
    nonnegative and of mass one, which is checked on those factors.
    """
    n, m = cost.shape
    _check_dims(n, m, alpha, beta)
    rows, cols, a, b, entries = _support(alpha, beta, cost.entries)
    block_start, block_gap, block_value = 0, math.inf, -math.inf

    def stop(iteration: int, previous: float, state: _ScalingAscent) -> bool:
        nonlocal block_start, block_gap, block_value
        if max(state.row_gap, state.col_gap) <= cfg.marginal_tolerance:
            return True
        if iteration - block_start < _PLATEAU_BLOCK:
            return False
        # Judged over a whole block so single flat sweeps inside an
        # otherwise geometric decay cannot trigger a premature stop.  A
        # plateau keeps its block, so the plain sweep that must confirm a
        # relaxed sweep's stop is judged against the same one.
        gap, value = state.row_gap + state.col_gap, state.value
        gain_floor = _PLATEAU_BLOCK * cfg.value_tolerance * max(1.0, abs(value))
        if gap >= 0.9 * block_gap and value - block_value <= gain_floor:
            return True
        block_start, block_gap, block_value = iteration, gap, value
        return False

    state = _ScalingAscent(entries, a, b, cfg.epsilon, math.inf)
    iterations, converged = state.run(cfg.max_iterations, stop)
    scalings = (a * state.u, b * state.v)
    _check_plan(*scalings, state.row_sums)
    potentials = DualPotentials(_scatter(state.f, rows, n), _scatter(state.g, cols, m))
    return OtResult(
        value=state.value,
        potentials=center_potentials(potentials, alpha, beta),
        iterations=iterations,
        converged=converged,
        marginal_residual=state.row_gap + state.col_gap,
        cost=cost,
        alpha=alpha,
        beta=beta,
        epsilon=cfg.epsilon,
        support=(rows, cols),
        offsets=state.offsets,
        scalings=scalings,
    )


def _check_plan(row_scaling: np.ndarray, col_scaling: np.ndarray, row_sums: np.ndarray) -> None:
    """Raise unless the plan diag(row_scaling) K diag(col_scaling) is finite,
    nonnegative and of mass one, judged on its factors in O(n + m): K is an
    exponential, so nonnegative, and ``row_sums`` = K col_scaling is finite
    only if every kernel entry a positive column scaling weighs is."""
    for factor in (row_scaling, col_scaling, row_sums):
        # NaN and +-inf reach the extremes, so they decide finiteness too.
        low, high = float(factor.min()), float(factor.max())
        if not (math.isfinite(low) and math.isfinite(high)) or low < 0:
            raise InvalidParameterError("plan entries must be finite and nonnegative")
    mass = float(row_scaling @ row_sums)
    if abs(mass - 1.0) > _PLAN_MASS_TOLERANCE:
        raise InvalidParameterError(f"plan mass must be 1 within {_PLAN_MASS_TOLERANCE}: {mass!r}")


def dual_ascent_boxed(
    kernel: np.ndarray | sparray,
    alpha: DiscreteDistribution,
    beta: DiscreteDistribution,
    cfg: SolverConfig,
) -> BoxedResult:
    """Maximize the dual objective over potentials confined to a box.

    The box is ||f||_inf, ||g||_inf <= epsilon * log(eta).  Each block update
    is the unconstrained maximizer clipped into the box, the exact block
    maximizer since the objective is concave and separable per coordinate,
    and is over-relaxed as in :func:`sinkhorn`.
    ``kernel`` is a nonnegative 2-D array, dense or ``scipy.sparse``, converted
    once to CSR: the sweeps read its nonzero entries alone, so an estimated
    kernel that is mostly zeros costs O(nnz) per sweep, and a sparse one is
    never expanded to n x m.  A zero row or column pins the matching
    potential at the box edge.  Iteration stops (``converged``) once a plain
    sweep moves the dual value by at most ``value_tolerance`` relative.
    Potentials are uncentered, 0 on zero-mass atoms.
    """
    if not issparse(kernel):
        kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or 0 in kernel.shape:
        raise InvalidParameterError("kernel entries must form a nonempty matrix")
    entries = csr_array(kernel, dtype=np.float64, copy=True)
    entries.sum_duplicates()
    if not np.all(np.isfinite(entries.data)) or np.any(entries.data < 0):
        raise InvalidParameterError("kernel entries must be finite and nonnegative")
    if cfg.eta is None:
        raise InvalidParameterError("boxed ascent needs cfg.eta")
    n, m = entries.shape
    _check_dims(n, m, alpha, beta)
    radius = cfg.epsilon * math.log(cfg.eta)
    rows, cols, a, b, log_k = _support(alpha, beta, entries)
    # A stored zero logs to -inf and weighs nothing, like an absent one.
    with np.errstate(divide="ignore"):
        np.log(log_k.data, out=log_k.data)

    def stop(iteration: int, previous: float, state: _ScalingAscent) -> bool:
        return abs(state.value - previous) <= cfg.value_tolerance * max(1.0, abs(state.value))

    state = _SparseScalingAscent(log_k, a, b, cfg.epsilon, radius)
    iterations, converged = state.run(cfg.max_iterations, stop)
    f = _scatter(np.clip(state.f, -radius, radius), rows, n)
    g = _scatter(np.clip(state.g, -radius, radius), cols, m)
    face = np.abs(np.concatenate([f, g])) >= radius * (1.0 - 1e-12)
    return BoxedResult(
        value=state.value,
        potentials=DualPotentials(f, g),
        iterations=iterations,
        converged=converged,
        pinned_fraction=float(np.count_nonzero(face)) / (n + m),
        marginal_residual=state.row_gap + state.col_gap,
    )


def exact_ot_assignment(cost: CostMatrix) -> float:
    """Unregularized transport value for uniform marginals on n = m atoms.

    With equal uniform marginals an optimal coupling is a permutation scaled
    by 1/n, so the value is the mean cost along a minimum-cost assignment.
    """
    n, m = cost.shape
    if n != m:
        raise InvalidParameterError(f"assignment needs a square cost matrix: ({n}, {m})")
    # Imported here: scipy.optimize costs 0.12 s and 10 MB that no experiment cell uses.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost.entries)
    return float(cost.entries[rows, cols].sum() / n)


def dual_value(
    pot: DualPotentials,
    cost: CostMatrix,
    alpha: DiscreteDistribution,
    beta: DiscreteDistribution,
    epsilon: float,
) -> float:
    """Dual objective alpha@f + beta@g - epsilon * s(f, g) + epsilon.

    Here s(f, g) = sum_ij alpha_i beta_j exp((f_i + g_j - C_ij) / epsilon),
    evaluated in log space so large potentials cannot overflow before
    cancellation.
    """
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive: {epsilon}")
    n, m = cost.shape
    _check_dims(n, m, alpha, beta)
    _check_dims(pot.f.size, pot.g.size, alpha, beta)
    exponents = (pot.f[:, None] + pot.g[None, :] - cost.entries) / epsilon
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(alpha.weights), np.log(beta.weights)
    log_total = float(special.logsumexp(exponents + log_a[:, None] + log_b[None, :]))
    if log_total > 700.0:  # exp would overflow; the objective is a huge negative
        return -math.inf
    return float(alpha.weights @ pot.f + beta.weights @ pot.g - epsilon * math.exp(log_total) + epsilon)


# ---------------------------------------------------------------------------
# Stability report
# ---------------------------------------------------------------------------


def _ceiling(prefactor: float, gap: float) -> float:
    """``prefactor * gap``, or +inf when the prefactor overflowed: the bound
    is then vacuous, even where the gap underflowed to 0 and the product
    would be inf * 0 = NaN."""
    return math.inf if prefactor == math.inf else float(prefactor * gap)


def report_from_solves(true: OtResult, est: OtResult) -> StabilityReport:
    """Compare a finished solve on a true cost C to one on its estimate C_hat.

    Runs no solve: C, C_hat, eps and the marginals come from the solves, which
    must agree on cost shape, eps and marginal weights (an O(n + m) check) or
    it raises :class:`InvalidParameterError`.  The shared cost bounds are the
    union of the two matrices' bounds.  The four recorded inequalities, with
    dC = C - C_hat and dK = exp(-C/eps) - exp(-C_hat/eps), formed in turn in
    one n x m buffer (exp(-C_hat/eps) is subtracted a row block at a time)
    that the report's one operator norm, ||dK||_op, scales in place:

    * ``sup_norm``:  |value gap| <= sup|dC|
    * ``kernel_spectral``:  |value gap| <=
      eps * e^{(2 c_max - c_min)/eps} ||alpha|| ||beta|| ||dK||_op
    * ``plan_kl``:  KL(P | P_hat) <=
      e^{2(c_max - c_min)/eps}/eps * ||alpha|| ||beta|| ||dC||_F
      + e^{(4 c_max - 3.5 c_min)/eps} * sqrt(||alpha|| ||beta|| ||dK||_op)
    * ``kernel_frobenius``:  ||dK||_op <= e^{-c_min/eps}/eps * ||dC||_F

    KL(P | P_hat) is taken from the two solves' factors: each row block of
    both plans is rebuilt with the solver's operations, so every entry and
    the KL keep the bits of :func:`kl_plans` on the dense plans, and no
    n x m plan is formed.
    """
    cost_true, cost_est = true.cost, est.cost
    alpha, beta, eps = true.alpha, true.beta, true.epsilon
    if cost_true.shape != cost_est.shape:
        raise InvalidParameterError(f"cost shapes differ: {cost_true.shape} and {cost_est.shape}")
    if est.epsilon != eps:
        raise InvalidParameterError(f"the solves ran at different epsilons: {eps} and {est.epsilon}")
    if not (np.array_equal(alpha.weights, est.alpha.weights) and np.array_equal(beta.weights, est.beta.weights)):
        raise InvalidParameterError("the solves ran under different marginals")
    c_min = min(cost_true.c_min, cost_est.c_min)
    c_max = max(cost_true.c_max, cost_est.c_max)

    value_gap = abs(true.value - est.value)
    divergence = _kl_by_rows(cost_true.shape, true._plan_rows, est._plan_rows)

    diff = cost_true.entries - cost_est.entries
    sup_gap = max(abs(float(diff.max())), abs(float(diff.min())))
    frobenius_gap = diagnostics.frobenius_norm(diff)
    # dC is read by now: its buffer takes exp(-C/eps), less exp(-C_hat/eps)
    # a row block at a time.
    kernel_diff = np.exp(np.divide(cost_true.entries, -eps, out=diff), out=diff)
    for rows in _row_blocks(kernel_diff.shape):
        kernel_est = np.divide(cost_est.entries[rows], -eps)
        kernel_diff[rows] -= np.exp(kernel_est, out=kernel_est)
    kernel_gap = diagnostics._operator_norm_in_place(kernel_diff)

    norm_a = alpha.euclidean_norm
    norm_b = beta.euclidean_norm
    with np.errstate(over="ignore"):
        spectral_rhs = _ceiling(eps * np.exp((2.0 * c_max - c_min) / eps) * norm_a * norm_b, kernel_gap)
        plan_rhs = _ceiling(
            np.exp(2.0 * (c_max - c_min) / eps) / eps * norm_a * norm_b, frobenius_gap
        ) + _ceiling(np.exp((4.0 * c_max - 3.5 * c_min) / eps), math.sqrt(norm_a * norm_b * kernel_gap))
        frobenius_rhs = _ceiling(np.exp(-c_min / eps) / eps, frobenius_gap)

    checks = (
        BoundCheck("sup_norm", value_gap, sup_gap),
        BoundCheck("kernel_spectral", value_gap, spectral_rhs),
        BoundCheck("plan_kl", divergence, plan_rhs),
        BoundCheck("kernel_frobenius", kernel_gap, frobenius_rhs),
    )
    return StabilityReport(
        plan_divergence=divergence,
        cost_sup_gap=sup_gap,
        cost_frobenius_gap=frobenius_gap,
        kernel_operator_gap=kernel_gap,
        checks=checks,
    )
