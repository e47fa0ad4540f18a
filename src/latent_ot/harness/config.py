"""Experiment configuration: strict JSON parsing into frozen dataclasses.

Unknown keys are rejected at every nesting level so a typo cannot silently
fall back to a default.  Each experiment kind declares which top-level keys
it accepts; irrelevant keys are treated as errors rather than ignored.

This module checks keys, types and the rules that tie keys together.  The
domain types own their value checks: the parser builds each manifold,
density, placement, kernel form and the solver settings through
:func:`_build`, which reports their errors as a :class:`ConfigError` at the
key path.  The solver settings are resolved once, at load, into the one
:class:`~latent_ot.ot_core.SolverConfig` every solve of the run uses.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from ..cost_estimators import CostMap
from ..errors import ConfigError, DensityMisconfiguredError, InvalidParameterError
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


def _get_string(
    data: dict, key: str, context: str, *, default: str | None = None, required: bool = False
) -> str | None:
    if key not in data:
        if required:
            raise ConfigError(f"{context}: missing required key '{key}'")
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ConfigError(f"{context}: '{key}' must be a string, got {type(value).__name__}")
    return value


def _build(context: str, constructor, *args, **kwargs):
    """Call a domain constructor or check; its value errors become a
    :class:`ConfigError` prefixed with the key path ``context``."""
    try:
        return constructor(*args, **kwargs)
    except (InvalidParameterError, DensityMisconfiguredError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


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
    kind = _get_string(data, "kind", context, required=True)
    if kind == "unit_square" and "radius" in data:
        raise ConfigError(f"{context}: 'radius' does not apply to unit_square")
    return _build(context, make_manifold, kind, radius=_get_number(data, "radius", context, default=1.0))


def _parse_density(data: dict, context: str, manifold: Manifold) -> Density:
    _reject_unknown(data, {"kind", "axis", "strength"}, context)
    kind = _get_string(data, "kind", context, required=True)
    if kind != "tilted":
        _reject_unknown(data, {"kind"}, context)
        return _build(context, Density, kind=kind)
    axis = _get_int(data, "axis", context, default=0)
    strength = _get_number(data, "strength", context, default=0.5)
    density = _build(context, Density, kind=kind, axis=axis, strength=strength)
    _build(context, density.weight_bounds, manifold)
    return density


def _parse_placement(data: dict, context: str) -> Placement:
    _reject_unknown(data, {"mode", "region_radius"}, context)
    mode = _get_string(data, "mode", context, required=True)
    if mode != "two_regions":
        _reject_unknown(data, {"mode"}, context)
    return _build(context, Placement, mode=mode, region_radius=_get_number(data, "region_radius", context))


def _parse_kernel(data: dict, context: str, expected_kind: str) -> KernelSettings:
    kind = _get_string(data, "kind", context, required=True)
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
    form_context = f"{context}.form"
    form_data = _expect_mapping(data["form"], form_context)
    _reject_unknown(form_data, {"kind", "p", "sigma"}, form_context)
    form_kind = _get_string(form_data, "kind", form_context)
    if form_kind != "gaussian_power":
        raise ConfigError(f"{form_context}: unknown form kind '{form_kind}'")
    p = _get_number(form_data, "p", form_context, default=2.0)
    sigma = _get_number(form_data, "sigma", form_context, required=True)
    form = _build(form_context, GaussianPowerKernel, p=p, sigma=sigma)
    return KernelSettings(kind="nonlocal", rho=rho, rho_log_coefficient=rho_log, form=form)


def _parse_cost_map(data: dict, context: str, experiment: str, manifold: Manifold | None) -> CostMap:
    kind = _get_string(data, "kind", context, required=True)
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


def _parse_solver(data: dict, context: str) -> dict[str, float]:
    """The solver keys the file gives; :class:`SolverConfig` holds the defaults."""
    _reject_unknown(data, {"max_iterations", "marginal_tolerance", "value_tolerance"}, context)
    given = {key: _get_number(data, key, context) for key in ("marginal_tolerance", "value_tolerance") if key in data}
    if "max_iterations" in data:
        given["max_iterations"] = _get_int(data, "max_iterations", context)
    return given


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
    ``solver`` is the one solver configuration every solve of the run
    uses: its epsilon is sigma on the adjacency route, and its eta is set
    on that route only.
    """

    experiment: str
    grid: tuple[int, ...]
    seeds: tuple[int, ...]
    solver: SolverConfig
    manifold: Manifold | None = None
    density: Density = Density(kind="uniform")
    placement: Placement = Placement(mode="iid")
    kernel: KernelSettings | None = None
    cost_map: CostMap | None = None
    n: int | None = None
    m: int | None = None
    m_ratio: float = 2.0
    gamma: float = 1.0
    gammas: tuple[float, ...] = ()
    cost_low: float = 0.1
    cost_high: float = 1.0
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

    solver_keys = _parse_solver(_expect_mapping(data["solver"], "config.solver"), "config.solver") if "solver" in data else {}
    output = _parse_output(_expect_mapping(data["output"], "config.output"), "config.output") if "output" in data else OutputSettings()

    if experiment == "stability_suite":
        epsilon = _get_number(data, "epsilon", "config", required=True)
        cost_low = _get_number(data, "cost_low", "config", default=0.1)
        cost_high = _get_number(data, "cost_high", "config", default=1.0)
        assert cost_low is not None and cost_high is not None
        if cost_low < 0.0 or cost_high <= cost_low:
            raise ConfigError(f"config: need 0 <= cost_low < cost_high, got [{cost_low}, {cost_high}]")
        return ExperimentConfig(
            experiment=experiment,
            grid=grid,
            seeds=seeds,
            solver=_build("config", SolverConfig, epsilon=epsilon, **solver_keys),
            cost_low=cost_low,
            cost_high=cost_high,
            output=output,
        )

    if "manifold" not in data:
        raise ConfigError("config: missing required key 'manifold'")
    manifold = _parse_manifold(_expect_mapping(data["manifold"], "config.manifold"), "config.manifold")
    density = _parse_density(_expect_mapping(data["density"], "config.density"), "config.density", manifold) if "density" in data else Density(kind="uniform")
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

    epsilon = _get_number(data, "epsilon", "config", required=experiment != "fast_nonlocal")
    eta = None
    if experiment == "fast_nonlocal":
        assert kernel.form is not None
        sigma = kernel.form.sigma
        if epsilon is not None and abs(epsilon - sigma) > 1e-12:
            raise ConfigError(
                f"config: the adjacency pipeline solves at epsilon = sigma = {sigma}; "
                f"drop 'epsilon' or set it to that value"
            )
        epsilon = sigma
        eta = _get_number(data, "eta", "config")
        if eta is None:
            # The dual box exp(c_max / sigma), c_max the largest cost diam^p.
            c_max = manifold.euclidean_diameter**kernel.form.p
            try:
                eta = math.exp(c_max / sigma)
            except OverflowError:
                raise ConfigError(
                    f"config: the default 'eta' = exp(diam^p / sigma) = exp({c_max / sigma:g}) "
                    f"overflows a float; give 'eta'"
                ) from None
    solver = _build("config", SolverConfig, epsilon=epsilon, eta=eta, **solver_keys)

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
