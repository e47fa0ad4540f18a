"""Experiment configuration: strict JSON parsing into frozen dataclasses.

Unknown keys are rejected at every nesting level so a typo cannot silently
fall back to a default.  Each experiment kind declares which top-level keys
it accepts; irrelevant keys are treated as errors rather than ignored.

This module checks keys, types and the rules that tie keys together.  Two
readers own every type check: :func:`_get` reads one number, integer,
string or object, and :func:`_get_list` reads a nonempty list of them.  A
boolean is never a number, and a number must be finite.  The domain types
own their value checks: the parser builds each manifold, density,
placement, kernel form, cost map and the solver settings through
:func:`_build`, which reports their errors as a :class:`ConfigError` at the
key path.  Every value a cell reads is resolved once, at load: the solver
settings into the one :class:`~latent_ot.ot_core.SolverConfig` every solve
of the run uses, and the N-dependent values into one :class:`GridPoint` per
grid N, so a cell reads values and applies no rule.
"""

from __future__ import annotations

import json
import math
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

_COMMON_KEYS = frozenset({"experiment", "grid", "seeds", "solver", "output"})
_PIPELINE_KEYS = _COMMON_KEYS | {"manifold", "density", "placement", "kernel", "n", "m"}

# Top-level keys each experiment accepts.  The adjacency route solves at
# epsilon = sigma, so it takes no 'epsilon'.
_EXPERIMENT_KEYS: dict[str, frozenset[str]] = {
    "local_geodesic": _PIPELINE_KEYS | {"epsilon", "cost_map"},
    "usvt_nonlocal": _PIPELINE_KEYS | {"epsilon", "cost_map", "m_ratio", "gamma"},
    "fast_nonlocal": _PIPELINE_KEYS | {"m_ratio", "eta"},
    "gamma_sweep": _PIPELINE_KEYS | {"epsilon", "cost_map", "m_ratio", "gammas"},
    "stability_suite": _COMMON_KEYS | {"epsilon", "cost_low"},
}

EXPERIMENT_KINDS = tuple(_EXPERIMENT_KEYS)

# The JSON type each value kind accepts, and how errors name it.
_KINDS = {
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
    "string": (str, "a string"),
    "object": (dict, "an object"),
    "list": (list, "a list"),
}


def _typed(value: object, kind: str, where: str):
    """``value`` checked as a ``kind`` from :data:`_KINDS`; a number comes
    back as a finite float.  ``where`` opens every error message."""
    types, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    if kind == "number":
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value}")
    return value


def _get(data: dict, key: str, context: str, kind: str, *, default=None, required: bool = False):
    """``data[key]`` as a ``kind``, or ``default`` when the key is absent."""
    if key not in data:
        if required:
            raise ConfigError(f"{context}: missing required key '{key}'")
        return default
    return _typed(data[key], kind, f"{context}: '{key}'")


def _get_list(data: dict, key: str, context: str, kind: str, *, unique: bool = False) -> tuple:
    """The required nonempty list ``data[key]`` as a tuple of ``kind`` entries."""
    entries = _get(data, key, context, "list", required=True)
    if not entries:
        raise ConfigError(f"{context}: '{key}' must not be empty")
    values = tuple(_typed(entry, kind, f"{context}: {key}[{i}]") for i, entry in enumerate(entries))
    if unique and len(set(values)) != len(values):
        raise ConfigError(f"{context}: '{key}' must not contain duplicates")
    return values


def _section(data: dict, key: str, context: str, parse, *args, default=None, required: bool = False):
    """Parse the object ``data[key]`` as ``parse(object, key_path, *args)``,
    or return ``default`` when the key is absent."""
    section = _get(data, key, context, "object", required=required)
    if section is None:
        return default
    return parse(section, f"{context}.{key}", *args)


def _reject_unknown(data: dict, allowed: frozenset[str] | set[str], context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(repr(k) for k in unknown)}")


def _build(context: str, constructor, *args, **kwargs):
    """Call a domain constructor or check; its value errors become a
    :class:`ConfigError` prefixed with the key path ``context``."""
    try:
        return constructor(*args, **kwargs)
    except (InvalidParameterError, DensityMisconfiguredError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _ratio_split(total: int, m_ratio: float) -> int:
    """The first group's size n at N = ``total`` nodes when m is ``m_ratio`` n."""
    return int(round(total / (1.0 + m_ratio)))


@dataclass(frozen=True)
class GridPoint:
    """The values one grid N resolves to at load.

    ``n`` and ``m`` are the group sizes.  ``graph_scale`` is the
    epsilon-graph radius h on the local route and the edge density rho on
    the nonlocal ones; the stability suite samples no graph and has none.
    """

    n: int
    m: int
    graph_scale: float | None = None


def _parse_manifold(data: dict, context: str) -> Manifold:
    _reject_unknown(data, {"kind"}, context)
    return _build(context, make_manifold, _get(data, "kind", context, "string", required=True))


def _parse_density(data: dict, context: str, manifold: Manifold) -> Density:
    _reject_unknown(data, {"kind", "axis", "strength"}, context)
    kind = _get(data, "kind", context, "string", required=True)
    if kind != "tilted":
        _reject_unknown(data, {"kind"}, context)
        return _build(context, Density, kind=kind)
    axis = _get(data, "axis", context, "integer", default=0)
    strength = _get(data, "strength", context, "number", default=0.5)
    density = _build(context, Density, kind=kind, axis=axis, strength=strength)
    _build(context, density.weight_bounds, manifold)
    return density


def _parse_placement(data: dict, context: str) -> Placement:
    _reject_unknown(data, {"mode", "region_radius"}, context)
    mode = _get(data, "mode", context, "string", required=True)
    if mode != "two_regions":
        _reject_unknown(data, {"mode"}, context)
    return _build(context, Placement, mode=mode, region_radius=_get(data, "region_radius", context, "number"))


def _parse_form(data: dict, context: str) -> GaussianPowerKernel:
    _reject_unknown(data, {"kind", "p", "sigma"}, context)
    kind = _get(data, "kind", context, "string", required=True)
    if kind != "gaussian_power":
        raise ConfigError(f"{context}: unknown form kind '{kind}'")
    p = _get(data, "p", context, "number", default=2.0)
    sigma = _get(data, "sigma", context, "number", required=True)
    return _build(context, GaussianPowerKernel, p=p, sigma=sigma)


def _parse_kernel(
    data: dict, context: str, expected_kind: str, grid: tuple[int, ...], intrinsic_dim: int
) -> tuple[GaussianPowerKernel | None, tuple[float, ...]]:
    """The kernel's form (none for a local kernel) and its graph scale at each
    grid N.  A ``local`` kernel builds a radius graph: a fixed ``h``, or the
    shrinking :func:`h_schedule` radius driven by ``c0``.  A ``nonlocal``
    kernel samples edges with probability ``rho * w``: a fixed ``rho``, or
    the :func:`sparse_log_rho` density ``c * log(N) / N``."""
    kind = _get(data, "kind", context, "string", required=True)
    if kind != expected_kind:
        raise ConfigError(f"{context}: this experiment requires a '{expected_kind}' kernel, got '{kind}'")
    if kind == "local":
        _reject_unknown(data, {"kind", "c0", "h"}, context)
        if "c0" in data and "h" in data:
            raise ConfigError(f"{context}: give either 'c0' or 'h', not both")
        h = _get(data, "h", context, "number")
        if h is None:
            c0 = _get(data, "c0", context, "number", default=2.0)
            return None, tuple(_build(context, h_schedule, total, intrinsic_dim, c0) for total in grid)
        if h <= 0.0:
            raise ConfigError(f"{context}: 'h' must be positive, got {h}")
        return None, (h,) * len(grid)
    _reject_unknown(data, {"kind", "rho", "rho_log_coefficient", "form"}, context)
    if "rho" in data and "rho_log_coefficient" in data:
        raise ConfigError(f"{context}: give either 'rho' or 'rho_log_coefficient', not both")
    rho = _get(data, "rho", context, "number")
    rho_log = _get(data, "rho_log_coefficient", context, "number")
    if rho is not None:
        if not 0.0 < rho <= 1.0:
            raise ConfigError(f"{context}: 'rho' must lie in (0, 1], got {rho}")
        scales = (rho,) * len(grid)
    elif rho_log is not None:
        scales = tuple(_build(context, sparse_log_rho, rho_log, total) for total in grid)
    else:
        raise ConfigError(f"{context}: a nonlocal kernel needs 'rho' or 'rho_log_coefficient'")
    return _section(data, "form", context, _parse_form, required=True), scales


def _parse_cost_map(data: dict, context: str, experiment: str, manifold: Manifold) -> CostMap:
    kind = _get(data, "kind", context, "string", required=True)
    if kind == "identity":
        _reject_unknown(data, {"kind"}, context)
        if experiment != "local_geodesic":
            raise ConfigError(f"{context}: 'identity' maps distances; it needs the local pipeline")
        return CostMap.identity(manifold.diameter)
    if kind == "one_minus":
        _reject_unknown(data, {"kind"}, context)
        if experiment == "local_geodesic":
            raise ConfigError(f"{context}: 'one_minus' maps kernel values; it needs a nonlocal pipeline")
        return CostMap.one_minus()
    if kind == "piecewise":
        _reject_unknown(data, {"kind", "breakpoints", "values"}, context)
        breakpoints = _get_list(data, "breakpoints", context, "number")
        values = _get_list(data, "values", context, "number")
        return _build(context, CostMap, breakpoints, values)
    raise ConfigError(f"{context}: unknown cost map kind '{kind}'")


_SOLVER_KINDS = {"max_iterations": "integer", "marginal_tolerance": "number", "value_tolerance": "number"}


def _parse_solver(data: dict, context: str) -> dict:
    """The solver keys the file gives; :class:`SolverConfig` holds the defaults."""
    _reject_unknown(data, set(_SOLVER_KINDS), context)
    return {key: _get(data, key, context, _SOLVER_KINDS[key]) for key in data}


@dataclass(frozen=True)
class OutputSettings:
    """File names (relative to the run's output directory) for the tables."""

    results: str = "results.csv"
    timings: str = "timings.csv"


def _parse_output(data: dict, context: str) -> OutputSettings:
    _reject_unknown(data, {"results", "timings"}, context)
    output = OutputSettings(**{key: _get(data, key, context, "string") for key in data})
    for name in (output.results, output.timings):
        if not name or Path(name).is_absolute() or ".." in Path(name).parts:
            raise ConfigError(f"{context}: output name {name!r} must be a plain relative path")
    if output.results == output.timings:
        raise ConfigError(f"{context}: results and timings must be distinct files")
    return output


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description.

    ``grid`` holds the total node counts N (matrix side lengths for the
    stability suite).  One cell is run per (N, seed) pair; ``points`` maps
    each grid N to its :class:`GridPoint`, the group sizes and graph scale
    resolved at load, so workers need only the config itself.  ``form`` is
    the nonlocal kernel's form; a local kernel has none.  ``solver`` is the
    one solver configuration every solve of the run uses: its epsilon is
    sigma on the adjacency route, and its eta is set on that route only.
    ``gammas`` holds the USVT threshold scales: the one ``gamma`` of
    ``usvt_nonlocal`` (default 1.0), the ``gammas`` list of
    ``gamma_sweep``, and nothing for the other experiments.
    ``cost_low`` is the stability suite's least cost: it draws its costs in
    ``[cost_low, 1]``.
    """

    experiment: str
    grid: tuple[int, ...]
    seeds: tuple[int, ...]
    solver: SolverConfig
    points: dict[int, GridPoint]
    manifold: Manifold | None = None
    density: Density = Density(kind="uniform")
    placement: Placement = Placement(mode="iid")
    form: GaussianPowerKernel | None = None
    cost_map: CostMap | None = None
    gammas: tuple[float, ...] = ()
    cost_low: float = 0.1
    output: OutputSettings = OutputSettings()

    def sizes_at(self, total: int) -> tuple[int, int]:
        """The group sizes (n, m) resolved for grid N = ``total``; the
        benchmark worker reports them."""
        point = self.points[total]
        return point.n, point.m


def _grid_points(
    data: dict, experiment: str, grid: tuple[int, ...], scales: tuple[float, ...]
) -> dict[int, GridPoint]:
    """Each grid N's :class:`GridPoint`, from its graph scale and the
    group-size keys ``n``, ``m`` and ``m_ratio``.  On every route the groups
    are nodes [0, n) and [n, n + m) of the N-node graph, so explicit sizes
    need n + m <= N; ``m_ratio`` splits all N nodes between the two groups."""
    n = _get(data, "n", "config", "integer")
    m = _get(data, "m", "config", "integer")
    if m is not None and n is None:
        raise ConfigError("config: 'm' requires 'n'")
    if "m_ratio" in data and n is not None:
        raise ConfigError("config: give either explicit sizes or 'm_ratio', not both")
    m_ratio = _get(data, "m_ratio", "config", "number", default=2.0)
    if m_ratio <= 0.0:
        raise ConfigError(f"config: 'm_ratio' must be positive, got {m_ratio}")
    if n is None:
        if experiment == "local_geodesic":
            raise ConfigError("config: the local pipeline needs an explicit 'n'")
        points = {}
        for total, scale in zip(grid, scales):
            n_at = _ratio_split(total, m_ratio)
            if not 1 <= n_at <= total - 1:
                raise ConfigError(f"config: 'm_ratio' {m_ratio} leaves an empty group at N={total}")
            points[total] = GridPoint(n_at, total - n_at, scale)
        return points
    if n < 1:
        raise ConfigError(f"config: 'n' must be at least 1, got {n}")
    if m is None:
        m = 2 * n
    if m < 1:
        raise ConfigError(f"config: 'm' must be at least 1, got {m}")
    if n + m > grid[0]:
        raise ConfigError(f"config: n + m = {n + m} exceeds the smallest total node count {grid[0]}")
    return {total: GridPoint(n, m, scale) for total, scale in zip(grid, scales)}


def _default_eta(manifold: Manifold, form: GaussianPowerKernel) -> float:
    """The adjacency route's dual box exp(c_max / sigma), c_max = diam^p the
    largest cost."""
    c_max = form.max_distance_power(manifold)
    try:
        return math.exp(c_max / form.sigma)
    except OverflowError:
        raise ConfigError(
            f"config: the default 'eta' = exp(diam^p / sigma) = exp({c_max / form.sigma:g}) "
            f"overflows a float; give 'eta'"
        ) from None


def config_from_dict(raw: object) -> ExperimentConfig:
    data = _typed(raw, "object", "config")
    experiment = _get(data, "experiment", "config", "string", required=True)
    if experiment not in _EXPERIMENT_KEYS:
        known = ", ".join(EXPERIMENT_KINDS)
        raise ConfigError(f"config: unknown experiment '{experiment}' (known: {known})")
    _reject_unknown(data, _EXPERIMENT_KEYS[experiment], f"config[{experiment}]")

    grid = _get_list(data, "grid", "config", "integer")
    if grid[0] < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"config: 'grid' must be strictly increasing from at least 2, got {list(grid)}")
    seeds = _get_list(data, "seeds", "config", "integer", unique=True)
    for seed in seeds:
        if not 0 <= seed < SEED_LIMIT:
            raise ConfigError(f"config: seeds must lie in [0, 2^64), got {seed}")
    solver_keys = _section(data, "solver", "config", _parse_solver, default={})
    epsilon = _get(data, "epsilon", "config", "number", required=experiment != "fast_nonlocal")
    eta = None

    if experiment == "stability_suite":
        cost_low = _get(data, "cost_low", "config", "number", default=0.1)
        if not 0.0 <= cost_low < 1.0:
            raise ConfigError(f"config: need 0 <= cost_low < 1, got {cost_low}")
        points = {total: GridPoint(total, total) for total in grid}
        fields = {"cost_low": cost_low, "points": points}
    else:
        manifold = _section(data, "manifold", "config", _parse_manifold, required=True)
        expected_kind = "local" if experiment == "local_geodesic" else "nonlocal"
        form, scales = _section(
            data, "kernel", "config", _parse_kernel, expected_kind, grid, manifold.intrinsic_dim, required=True
        )
        if experiment == "local_geodesic":
            default_map = CostMap.identity(manifold.diameter)
        else:
            default_map = None if experiment == "fast_nonlocal" else CostMap.one_minus()
        gammas: tuple[float, ...] = ()
        if experiment == "usvt_nonlocal":
            gammas = (_get(data, "gamma", "config", "number", default=1.0),)
        elif experiment == "gamma_sweep":
            gammas = _get_list(data, "gammas", "config", "number", unique=True)
        if gammas and min(gammas) <= 0.0:
            raise ConfigError(f"config: gamma must be positive, got {min(gammas)}")
        fields = {
            "manifold": manifold,
            "density": _section(data, "density", "config", _parse_density, manifold, default=Density(kind="uniform")),
            "placement": _section(data, "placement", "config", _parse_placement, default=Placement(mode="iid")),
            "form": form,
            "cost_map": _section(data, "cost_map", "config", _parse_cost_map, experiment, manifold, default=default_map),
            "gammas": gammas,
            "points": _grid_points(data, experiment, grid, scales),
        }
        if experiment == "fast_nonlocal":
            epsilon = form.sigma
            eta = _get(data, "eta", "config", "number")
            if eta is None:
                eta = _default_eta(manifold, form)

    return ExperimentConfig(
        experiment=experiment,
        grid=grid,
        seeds=seeds,
        solver=_build("config", SolverConfig, epsilon=epsilon, eta=eta, **solver_keys),
        output=_section(data, "output", "config", _parse_output, default=OutputSettings()),
        **fields,
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
