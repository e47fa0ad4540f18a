"""Experiment configuration: strict JSON parsing into frozen dataclasses.

Unknown keys are rejected at every nesting level so a typo cannot silently
fall back to a default.  Each experiment kind declares which top-level keys
it accepts; irrelevant keys are treated as errors rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from ..cost_estimators import CostMap
from ..errors import ConfigError
from ..latent_models import (
    Density,
    GaussianPowerKernel,
    Manifold,
    Placement,
    h_schedule,
    make_manifold,
    sparse_log_rho,
)
from ..ot_core import SolverConfig

SEED_LIMIT = 2**64

EXPERIMENT_KINDS = (
    "local_geodesic",
    "usvt_nonlocal",
    "fast_nonlocal",
    "gamma_sweep",
    "stability_suite",
)

_COMMON_KEYS = frozenset({"experiment", "grid", "seeds", "solver", "output"})

# Top-level keys each experiment accepts beyond the common set.
_EXPERIMENT_KEYS: dict[str, frozenset[str]] = {
    "local_geodesic": frozenset(
        {"manifold", "density", "placement", "kernel", "cost_map", "n", "m", "epsilon"}
    ),
    "usvt_nonlocal": frozenset(
        {"manifold", "density", "placement", "kernel", "cost_map", "n", "m", "m_ratio", "epsilon", "gamma"}
    ),
    "fast_nonlocal": frozenset(
        {"manifold", "density", "placement", "kernel", "n", "m", "m_ratio", "epsilon", "eta"}
    ),
    "gamma_sweep": frozenset(
        {"manifold", "density", "placement", "kernel", "cost_map", "n", "m", "m_ratio", "epsilon", "gammas"}
    ),
    "stability_suite": frozenset({"epsilon", "cost_low", "cost_high"}),
}


def _expect_mapping(value: object, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed: frozenset[str] | set[str], context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(repr(k) for k in unknown)}")


def _get_number(
    data: dict,
    key: str,
    context: str,
    *,
    default: float | None = None,
    required: bool = False,
) -> float | None:
    if key not in data:
        if required:
            raise ConfigError(f"{context}: missing required key '{key}'")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: '{key}' must be a number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{context}: '{key}' must be finite, got {out}")
    return out


def _get_int(
    data: dict,
    key: str,
    context: str,
    *,
    default: int | None = None,
    required: bool = False,
) -> int | None:
    if key not in data:
        if required:
            raise ConfigError(f"{context}: missing required key '{key}'")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: '{key}' must be an integer, got {value!r}")
    return value


def _get_string(data: dict, key: str, context: str, *, default: str | None = None) -> str | None:
    if key not in data:
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ConfigError(f"{context}: '{key}' must be a string, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class KernelSettings:
    """Connectivity rule applied to the sampled latent points.

    ``local`` builds a deterministic radius graph; the radius is either a
    fixed ``h`` or follows the shrinking schedule driven by ``c0``.
    ``nonlocal`` samples independent edges with probability ``rho * w``;
    the density is a fixed value or the ``c * log(N) / N`` preset.
    """

    kind: str
    c0: float | None = None
    fixed_h: float | None = None
    rho: float | None = None
    rho_log_coefficient: float | None = None
    form: GaussianPowerKernel | None = None

    def radius_at(self, total: int, intrinsic_dim: int) -> float:
        if self.kind != "local":
            raise ConfigError("radius_at is only defined for local kernels")
        if self.fixed_h is not None:
            return self.fixed_h
        return h_schedule(total, intrinsic_dim, self.c0 if self.c0 is not None else 2.0)

    def rho_at(self, total: int) -> float:
        if self.kind != "nonlocal":
            raise ConfigError("rho_at is only defined for nonlocal kernels")
        if self.rho is not None:
            return self.rho
        assert self.rho_log_coefficient is not None
        return sparse_log_rho(self.rho_log_coefficient, total)


def _parse_manifold(data: dict, context: str) -> Manifold:
    _reject_unknown(data, {"kind", "radius"}, context)
    kind = _get_string(data, "kind", context)
    if kind is None:
        raise ConfigError(f"{context}: missing required key 'kind'")
    if kind not in ("sphere", "unit_square", "circle"):
        raise ConfigError(f"{context}: unknown manifold kind '{kind}'")
    radius = _get_number(data, "radius", context, default=1.0)
    if kind == "unit_square" and "radius" in data:
        raise ConfigError(f"{context}: 'radius' does not apply to unit_square")
    if radius <= 0.0:
        raise ConfigError(f"{context}: 'radius' must be positive, got {radius}")
    return make_manifold(kind, radius=radius)


def _parse_density(data: dict, context: str) -> Density:
    _reject_unknown(data, {"kind", "axis", "strength"}, context)
    kind = _get_string(data, "kind", context)
    if kind is None:
        raise ConfigError(f"{context}: missing required key 'kind'")
    if kind == "uniform":
        _reject_unknown(data, {"kind"}, context)
        return Density(kind="uniform")
    if kind == "tilted":
        axis = _get_int(data, "axis", context, default=0)
        strength = _get_number(data, "strength", context, default=0.5)
        assert axis is not None and strength is not None
        if axis < 0:
            raise ConfigError(f"{context}: 'axis' must be nonnegative, got {axis}")
        return Density(kind="tilted", axis=axis, strength=strength)
    raise ConfigError(f"{context}: unknown density kind '{kind}'")


def _parse_placement(data: dict, context: str) -> Placement:
    _reject_unknown(data, {"mode", "region_radius"}, context)
    mode = _get_string(data, "mode", context)
    if mode is None:
        raise ConfigError(f"{context}: missing required key 'mode'")
    if mode == "iid":
        _reject_unknown(data, {"mode"}, context)
        return Placement(mode="iid")
    if mode == "two_regions":
        radius = _get_number(data, "region_radius", context)
        return Placement(mode="two_regions", region_radius=radius)
    raise ConfigError(f"{context}: unknown placement mode '{mode}'")


def _parse_kernel(data: dict, context: str, expected_kind: str) -> KernelSettings:
    kind = _get_string(data, "kind", context)
    if kind is None:
        raise ConfigError(f"{context}: missing required key 'kind'")
    if kind != expected_kind:
        raise ConfigError(f"{context}: this experiment requires a '{expected_kind}' kernel, got '{kind}'")
    if kind == "local":
        _reject_unknown(data, {"kind", "c0", "h"}, context)
        if "c0" in data and "h" in data:
            raise ConfigError(f"{context}: give either 'c0' or 'h', not both")
        fixed_h = _get_number(data, "h", context)
        c0 = _get_number(data, "c0", context)
        if fixed_h is not None and fixed_h <= 0.0:
            raise ConfigError(f"{context}: 'h' must be positive, got {fixed_h}")
        if c0 is not None and c0 <= 0.0:
            raise ConfigError(f"{context}: 'c0' must be positive, got {c0}")
        return KernelSettings(kind="local", c0=c0, fixed_h=fixed_h)
    _reject_unknown(data, {"kind", "rho", "rho_log_coefficient", "form"}, context)
    if "rho" in data and "rho_log_coefficient" in data:
        raise ConfigError(f"{context}: give either 'rho' or 'rho_log_coefficient', not both")
    rho = _get_number(data, "rho", context)
    rho_log = _get_number(data, "rho_log_coefficient", context)
    if rho is None and rho_log is None:
        raise ConfigError(f"{context}: a nonlocal kernel needs 'rho' or 'rho_log_coefficient'")
    if rho is not None and not 0.0 < rho <= 1.0:
        raise ConfigError(f"{context}: 'rho' must lie in (0, 1], got {rho}")
    if rho_log is not None and rho_log <= 0.0:
        raise ConfigError(f"{context}: 'rho_log_coefficient' must be positive, got {rho_log}")
    if "form" not in data:
        raise ConfigError(f"{context}: a nonlocal kernel needs a 'form' object")
    form_data = _expect_mapping(data["form"], f"{context}.form")
    _reject_unknown(form_data, {"kind", "p", "sigma"}, f"{context}.form")
    form_kind = _get_string(form_data, "kind", f"{context}.form")
    if form_kind != "gaussian_power":
        raise ConfigError(f"{context}.form: unknown form kind '{form_kind}'")
    p = _get_number(form_data, "p", f"{context}.form", default=2.0)
    sigma = _get_number(form_data, "sigma", f"{context}.form", required=True)
    assert p is not None and sigma is not None
    if p < 1.0:
        raise ConfigError(f"{context}.form: 'p' must be at least 1, got {p}")
    if sigma <= 0.0:
        raise ConfigError(f"{context}.form: 'sigma' must be positive, got {sigma}")
    return KernelSettings(kind="nonlocal", rho=rho, rho_log_coefficient=rho_log, form=GaussianPowerKernel(p=p, sigma=sigma))


def _parse_cost_map(data: dict, context: str, experiment: str, manifold: Manifold | None) -> CostMap:
    kind = _get_string(data, "kind", context)
    if kind is None:
        raise ConfigError(f"{context}: missing required key 'kind'")
    if kind == "identity":
        _reject_unknown(data, {"kind"}, context)
        if experiment != "local_geodesic":
            raise ConfigError(f"{context}: 'identity' maps distances; it needs the local pipeline")
        assert manifold is not None
        return CostMap.identity(manifold.diameter)
    if kind == "one_minus":
        _reject_unknown(data, {"kind"}, context)
        if experiment == "local_geodesic":
            raise ConfigError(f"{context}: 'one_minus' maps kernel values; it needs a nonlocal pipeline")
        return CostMap.one_minus()
    if kind == "piecewise":
        _reject_unknown(data, {"kind", "breakpoints", "values"}, context)
        for key in ("breakpoints", "values"):
            if key not in data:
                raise ConfigError(f"{context}: missing required key '{key}'")
            if not isinstance(data[key], list):
                raise ConfigError(f"{context}: '{key}' must be a list")
        try:
            return CostMap.piecewise(
                [float(t) for t in data["breakpoints"]],
                [float(v) for v in data["values"]],
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{context}: invalid piecewise map: {exc}") from exc
    raise ConfigError(f"{context}: unknown cost map kind '{kind}'")


@dataclass(frozen=True)
class SolverSettings:
    """Iteration and tolerance knobs shared by every OT solve in a run."""

    max_iterations: int = 100000
    marginal_tolerance: float = 1e-9
    value_tolerance: float = 1e-12

    def build(self, epsilon: float, eta: float | None = None) -> SolverConfig:
        return SolverConfig(
            epsilon=epsilon,
            eta=eta,
            max_iterations=self.max_iterations,
            marginal_tolerance=self.marginal_tolerance,
            value_tolerance=self.value_tolerance,
        )


def _parse_solver(data: dict, context: str) -> SolverSettings:
    _reject_unknown(data, {"max_iterations", "marginal_tolerance", "value_tolerance"}, context)
    max_iterations = _get_int(data, "max_iterations", context, default=100000)
    marginal = _get_number(data, "marginal_tolerance", context, default=1e-9)
    value = _get_number(data, "value_tolerance", context, default=1e-12)
    assert max_iterations is not None and marginal is not None and value is not None
    if max_iterations < 1:
        raise ConfigError(f"{context}: 'max_iterations' must be at least 1, got {max_iterations}")
    if marginal <= 0.0 or value <= 0.0:
        raise ConfigError(f"{context}: tolerances must be positive")
    return SolverSettings(max_iterations=max_iterations, marginal_tolerance=marginal, value_tolerance=value)


@dataclass(frozen=True)
class OutputSettings:
    """File names (relative to the run's output directory) for the tables."""

    results: str = "results.csv"
    timings: str = "timings.csv"


def _parse_output(data: dict, context: str) -> OutputSettings:
    _reject_unknown(data, {"results", "timings"}, context)
    results = _get_string(data, "results", context, default="results.csv")
    timings = _get_string(data, "timings", context, default="timings.csv")
    assert results is not None and timings is not None
    for name in (results, timings):
        if not name or Path(name).is_absolute() or ".." in Path(name).parts:
            raise ConfigError(f"{context}: output name {name!r} must be a plain relative path")
    if results == timings:
        raise ConfigError(f"{context}: results and timings must be distinct files")
    return OutputSettings(results=results, timings=timings)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description.

    ``grid`` holds the total node counts N (matrix side lengths for the
    stability suite).  One cell is run per (N, seed) pair; where a choice
    depends on N (graph radius, edge density, group sizes) it is resolved
    through the ``*_at`` helpers so workers need only the config itself.
    """

    experiment: str
    grid: tuple[int, ...]
    seeds: tuple[int, ...]
    manifold: Manifold | None = None
    density: Density = Density(kind="uniform")
    placement: Placement = Placement(mode="iid")
    kernel: KernelSettings | None = None
    cost_map: CostMap | None = None
    n: int | None = None
    m: int | None = None
    m_ratio: float = 2.0
    epsilon: float | None = None
    eta: float | None = None
    gamma: float = 1.0
    gammas: tuple[float, ...] = ()
    cost_low: float = 0.1
    cost_high: float = 1.0
    solver: SolverSettings = SolverSettings()
    output: OutputSettings = OutputSettings()

    def sizes_at(self, total: int) -> tuple[int, int]:
        """Group sizes (n, m) used for a cell with ``total`` nodes."""
        if self.experiment == "stability_suite":
            return total, total
        if self.n is not None:
            assert self.m is not None
            return self.n, self.m
        n = int(round(total / (1.0 + self.m_ratio)))
        n = max(1, min(total - 1, n))
        return n, total - n

    def epsilon_at(self) -> float:
        """Regularization actually used; the adjacency pipeline imposes sigma."""
        if self.experiment == "fast_nonlocal":
            assert self.kernel is not None and self.kernel.form is not None
            return self.kernel.form.sigma
        assert self.epsilon is not None
        return self.epsilon


def config_from_dict(raw: object) -> ExperimentConfig:
    data = _expect_mapping(raw, "config")
    experiment = _get_string(data, "experiment", "config")
    if experiment is None:
        raise ConfigError("config: missing required key 'experiment'")
    if experiment not in EXPERIMENT_KINDS:
        known = ", ".join(EXPERIMENT_KINDS)
        raise ConfigError(f"config: unknown experiment '{experiment}' (known: {known})")
    _reject_unknown(data, _COMMON_KEYS | _EXPERIMENT_KEYS[experiment], f"config[{experiment}]")

    if "grid" not in data or not isinstance(data["grid"], list) or not data["grid"]:
        raise ConfigError("config: 'grid' must be a nonempty list of integers")
    grid_values = []
    for i, entry in enumerate(data["grid"]):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise ConfigError(f"config: grid[{i}] must be an integer, got {entry!r}")
        if entry < 2:
            raise ConfigError(f"config: grid[{i}] must be at least 2, got {entry}")
        grid_values.append(entry)
    if any(b <= a for a, b in zip(grid_values, grid_values[1:])):
        raise ConfigError("config: 'grid' must be strictly increasing")
    grid = tuple(grid_values)

    if "seeds" not in data or not isinstance(data["seeds"], list) or not data["seeds"]:
        raise ConfigError("config: 'seeds' must be a nonempty list of integers")
    seed_values = []
    for i, entry in enumerate(data["seeds"]):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise ConfigError(f"config: seeds[{i}] must be an integer, got {entry!r}")
        if not 0 <= entry < SEED_LIMIT:
            raise ConfigError(f"config: seeds[{i}] must lie in [0, 2^64), got {entry}")
        seed_values.append(entry)
    if len(set(seed_values)) != len(seed_values):
        raise ConfigError("config: 'seeds' must not contain duplicates")
    seeds = tuple(seed_values)

    solver = _parse_solver(_expect_mapping(data["solver"], "config.solver"), "config.solver") if "solver" in data else SolverSettings()
    output = _parse_output(_expect_mapping(data["output"], "config.output"), "config.output") if "output" in data else OutputSettings()

    if experiment == "stability_suite":
        epsilon = _get_number(data, "epsilon", "config", required=True)
        assert epsilon is not None
        if epsilon <= 0.0:
            raise ConfigError(f"config: 'epsilon' must be positive, got {epsilon}")
        cost_low = _get_number(data, "cost_low", "config", default=0.1)
        cost_high = _get_number(data, "cost_high", "config", default=1.0)
        assert cost_low is not None and cost_high is not None
        if cost_low < 0.0 or cost_high <= cost_low:
            raise ConfigError(f"config: need 0 <= cost_low < cost_high, got [{cost_low}, {cost_high}]")
        return ExperimentConfig(
            experiment=experiment,
            grid=grid,
            seeds=seeds,
            epsilon=epsilon,
            cost_low=cost_low,
            cost_high=cost_high,
            solver=solver,
            output=output,
        )

    if "manifold" not in data:
        raise ConfigError("config: missing required key 'manifold'")
    manifold = _parse_manifold(_expect_mapping(data["manifold"], "config.manifold"), "config.manifold")
    density = _parse_density(_expect_mapping(data["density"], "config.density"), "config.density") if "density" in data else Density(kind="uniform")
    if density.kind == "tilted" and density.axis >= manifold.ambient_dim:
        raise ConfigError(
            f"config.density: axis {density.axis} is out of range for a manifold in R^{manifold.ambient_dim}"
        )
    density.weight_bounds(manifold)  # fail fast if the tilt makes weights nonpositive
    placement = _parse_placement(_expect_mapping(data["placement"], "config.placement"), "config.placement") if "placement" in data else Placement(mode="iid")

    if "kernel" not in data:
        raise ConfigError("config: missing required key 'kernel'")
    expected_kind = "local" if experiment == "local_geodesic" else "nonlocal"
    kernel = _parse_kernel(_expect_mapping(data["kernel"], "config.kernel"), "config.kernel", expected_kind)

    cost_map: CostMap | None = None
    if experiment != "fast_nonlocal":
        if "cost_map" in data:
            cost_map = _parse_cost_map(_expect_mapping(data["cost_map"], "config.cost_map"), "config.cost_map", experiment, manifold)
        elif experiment == "local_geodesic":
            cost_map = CostMap.identity(manifold.diameter)
        else:
            cost_map = CostMap.one_minus()

    n = _get_int(data, "n", "config")
    m = _get_int(data, "m", "config")
    if m is not None and n is None:
        raise ConfigError("config: 'm' requires 'n'")
    if "m_ratio" in data and n is not None:
        raise ConfigError("config: give either explicit sizes or 'm_ratio', not both")
    m_ratio = _get_number(data, "m_ratio", "config", default=2.0)
    assert m_ratio is not None
    if m_ratio <= 0.0:
        raise ConfigError(f"config: 'm_ratio' must be positive, got {m_ratio}")
    if n is not None:
        if n < 1:
            raise ConfigError(f"config: 'n' must be at least 1, got {n}")
        if m is None:
            m = 2 * n
        if m < 1:
            raise ConfigError(f"config: 'm' must be at least 1, got {m}")

    if experiment == "local_geodesic":
        if n is None:
            raise ConfigError("config: the local pipeline needs an explicit 'n'")
        assert m is not None
        if n + m > min(grid):
            raise ConfigError(
                f"config: n + m = {n + m} exceeds the smallest total node count {min(grid)}"
            )
    else:
        if n is not None:
            assert m is not None
            bad = [total for total in grid if n + m != total]
            if bad:
                raise ConfigError(
                    f"config: explicit sizes need n + m == N for every grid entry; fails at N={bad[0]}"
                )
        else:
            for total in grid:
                split = int(round(total / (1.0 + m_ratio)))
                if not 1 <= split <= total - 1:
                    raise ConfigError(f"config: 'm_ratio' {m_ratio} leaves an empty group at N={total}")

    epsilon = _get_number(data, "epsilon", "config")
    if experiment == "fast_nonlocal":
        assert kernel.form is not None
        if epsilon is not None and abs(epsilon - kernel.form.sigma) > 1e-12:
            raise ConfigError(
                f"config: the adjacency pipeline solves at epsilon = sigma = {kernel.form.sigma}; "
                f"drop 'epsilon' or set it to that value"
            )
    else:
        if epsilon is None:
            raise ConfigError("config: missing required key 'epsilon'")
        if epsilon <= 0.0:
            raise ConfigError(f"config: 'epsilon' must be positive, got {epsilon}")

    eta = _get_number(data, "eta", "config")
    if eta is not None and eta < 1.0:
        raise ConfigError(f"config: 'eta' must be at least 1, got {eta}")

    gamma = _get_number(data, "gamma", "config", default=1.0)
    assert gamma is not None
    if gamma <= 0.0:
        raise ConfigError(f"config: 'gamma' must be positive, got {gamma}")

    gammas: tuple[float, ...] = ()
    if experiment == "gamma_sweep":
        if "gammas" not in data or not isinstance(data["gammas"], list) or not data["gammas"]:
            raise ConfigError("config: 'gammas' must be a nonempty list of positive numbers")
        values = []
        for i, entry in enumerate(data["gammas"]):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ConfigError(f"config: gammas[{i}] must be a number, got {entry!r}")
            value = float(entry)
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"config: gammas[{i}] must be positive and finite, got {value}")
            values.append(value)
        if len(set(values)) != len(values):
            raise ConfigError("config: 'gammas' must not contain duplicates")
        gammas = tuple(values)

    return ExperimentConfig(
        experiment=experiment,
        grid=grid,
        seeds=seeds,
        manifold=manifold,
        density=density,
        placement=placement,
        kernel=kernel,
        cost_map=cost_map,
        n=n,
        m=m,
        m_ratio=m_ratio,
        epsilon=epsilon,
        eta=eta,
        gamma=gamma,
        gammas=gammas,
        solver=solver,
        output=output,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def apply_seed_override(config: ExperimentConfig, environ: os._Environ | dict = os.environ) -> ExperimentConfig:
    """Replace the seed list when LATENT_OT_SEED is set in the environment."""
    raw = environ.get("LATENT_OT_SEED")
    if raw is None:
        return config
    try:
        seed = int(raw, 10)
    except ValueError:
        raise ConfigError(f"LATENT_OT_SEED must be an integer, got {raw!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"LATENT_OT_SEED must lie in [0, 2^64), got {seed}")
    return dataclasses.replace(config, seeds=(seed,))
