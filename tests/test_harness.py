"""Harness tests: config parsing, result tables, plots, runners, CLI.

Runner determinism is exercised by comparing serialized tables across
worker counts, overlapping grids and BLAS thread counts; CLI exit codes are
checked end to end through ``main``.
"""

import copy
import ctypes
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latent_ot
import latent_ot.harness.cli as cli
from latent_ot import ot_core
from latent_ot.cost_estimators import UsvtParams, fast_kernel_block, usvt
from latent_ot.errors import ConfigError, InvalidParameterError, NumericFailureError
from latent_ot.harness import experiments
from latent_ot.harness.config import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    GridPoint,
    _ratio_split,
    config_from_dict,
    load_config,
)
from latent_ot.harness.experiments import run_experiment, sample_cell
from latent_ot.harness.plots import emit_plot
from latent_ot.harness.properties import (
    CHECK_NAMES,
    CheckOutcome,
    PropertyReport,
    run_property_suite,
)
from latent_ot.harness.results import (
    CSV_HEADER,
    ResultRow,
    ResultTable,
    emit_csv,
    parse_csv,
    table_to_csv_text,
)
from latent_ot.latent_models import (
    NonlocalKernel,
    graph_to_edgelist,
    h_schedule,
    sample_kernel_graph,
    sample_latents,
    sparse_log_rho,
)
from latent_ot.ot_core import SolverConfig
from latent_ot.rng import RngSeed

REPO_ROOT = Path(__file__).resolve().parents[1]


def local_config_dict():
    return {
        "experiment": "local_geodesic",
        "grid": [30],
        "seeds": [0],
        "manifold": {"kind": "sphere"},
        "kernel": {"kind": "local", "h": 1.2},
        "n": 4,
        "m": 4,
        "epsilon": 0.3,
    }


def usvt_config_dict():
    return {
        "experiment": "usvt_nonlocal",
        "grid": [24],
        "seeds": [0],
        "manifold": {"kind": "sphere"},
        "kernel": {
            "kind": "nonlocal",
            "rho": 1.0,
            "form": {"kind": "gaussian_power", "p": 2, "sigma": 0.5},
        },
        "epsilon": 0.5,
    }


def fast_config_dict():
    return {
        "experiment": "fast_nonlocal",
        "grid": [20],
        "seeds": [0],
        "manifold": {"kind": "sphere"},
        "kernel": {
            "kind": "nonlocal",
            "rho": 1.0,
            "form": {"kind": "gaussian_power", "p": 2, "sigma": 0.5},
        },
    }


def sweep_config_dict():
    data = usvt_config_dict()
    data["experiment"] = "gamma_sweep"
    data["gammas"] = [0.5, 1.0]
    return data


def stability_config_dict():
    return {
        "experiment": "stability_suite",
        "grid": [4],
        "seeds": [0],
        "epsilon": 0.5,
    }


ALL_CONFIG_DICTS = (
    local_config_dict,
    usvt_config_dict,
    fast_config_dict,
    sweep_config_dict,
    stability_config_dict,
)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_every_experiment_kind_parses():
    for build in ALL_CONFIG_DICTS:
        config = config_from_dict(build())
        assert isinstance(config, ExperimentConfig)


def test_config_rejects_unknown_keys_at_every_level():
    data = local_config_dict()
    data["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        config_from_dict(data)
    data = local_config_dict()
    data["manifold"]["extra"] = True
    with pytest.raises(ConfigError, match="extra"):
        config_from_dict(data)
    data = usvt_config_dict()
    data["kernel"]["form"]["oops"] = 2
    with pytest.raises(ConfigError, match="oops"):
        config_from_dict(data)
    # keys belonging to other experiment kinds are unknown here
    data = stability_config_dict()
    data["manifold"] = {"kind": "sphere"}
    with pytest.raises(ConfigError, match="manifold"):
        config_from_dict(data)
    # every manifold has one size, so none takes a radius, not even 1
    for kind in ("sphere", "circle", "unit_square"):
        data = local_config_dict()
        data["manifold"] = {"kind": kind, "radius": 1.0}
        with pytest.raises(ConfigError, match=r"^config\.manifold: unknown key\(s\) 'radius'$"):
            config_from_dict(data)


def test_config_top_level_validation():
    with pytest.raises(ConfigError):
        config_from_dict([])
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({"grid": [4], "seeds": [0]})
    data = local_config_dict()
    data["experiment"] = "mystery"
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(data)


def test_grid_and_seed_validation():
    for bad_grid in ([], [1], [30, 30], [30, 20], ["x"], [True]):
        data = stability_config_dict()
        data["grid"] = bad_grid
        with pytest.raises(ConfigError):
            config_from_dict(data)
    for bad_seeds in ([], [0, 0], [-1], [2**64], [1.5]):
        data = stability_config_dict()
        data["seeds"] = bad_seeds
        with pytest.raises(ConfigError):
            config_from_dict(data)


def test_kernel_validation():
    data = local_config_dict()
    data["kernel"] = {"kind": "local", "c0": 2.0, "h": 0.5}
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict(data)
    data = local_config_dict()
    data["kernel"] = {"kind": "nonlocal", "rho": 1.0}
    with pytest.raises(ConfigError, match="local"):
        config_from_dict(data)
    data = usvt_config_dict()
    del data["kernel"]["form"]
    with pytest.raises(ConfigError, match="form"):
        config_from_dict(data)
    data = usvt_config_dict()
    del data["kernel"]["rho"]
    with pytest.raises(ConfigError, match="rho"):
        config_from_dict(data)
    data = usvt_config_dict()
    del data["kernel"]["form"]["sigma"]
    with pytest.raises(ConfigError, match="sigma"):
        config_from_dict(data)


def test_scheduled_radius_and_rho():
    data = local_config_dict()
    data["grid"] = [30, 100]
    data["kernel"] = {"kind": "local", "c0": 2.0}
    config = config_from_dict(data)
    assert config.points[100].graph_scale == pytest.approx(
        (2.0 * math.log(100) ** 2 / 100) ** 0.5
    )
    data = usvt_config_dict()
    data["grid"] = [24, 1000]
    data["kernel"]["rho_log_coefficient"] = 50.0
    del data["kernel"]["rho"]
    config = config_from_dict(data)
    assert config.points[1000].graph_scale == pytest.approx(50.0 * math.log(1000) / 1000)
    # c log N / N is capped at 1
    assert config.points[24].graph_scale == 1.0


def test_nonpositive_kernel_scales_are_rejected_at_the_kernel():
    cases = [
        (local_config_dict, {"kind": "local", "c0": 0.0}, r"c0 must be positive"),
        (local_config_dict, {"kind": "local", "c0": -1.0}, r"c0 must be positive"),
        (local_config_dict, {"kind": "local", "h": 0.0}, r"'h' must be positive"),
        (local_config_dict, {"kind": "local", "h": -0.5}, r"'h' must be positive"),
        (usvt_config_dict, {"rho": 0.0}, r"'rho' must lie in \(0, 1\]"),
        (usvt_config_dict, {"rho": 1.5}, r"'rho' must lie in \(0, 1\]"),
        (usvt_config_dict, {"rho": -0.2}, r"'rho' must lie in \(0, 1\]"),
        (usvt_config_dict, {"rho_log_coefficient": 0.0}, r"coefficient must be positive"),
        (usvt_config_dict, {"rho_log_coefficient": -2.0}, r"coefficient must be positive"),
    ]
    for build, kernel, message in cases:
        data = build()
        if kernel.get("kind") == "local":
            data["kernel"] = kernel
        else:
            del data["kernel"]["rho"]
            data["kernel"].update(kernel)
        with pytest.raises(ConfigError, match=r"^config\.kernel: .*" + message):
            config_from_dict(data)


def test_each_grid_n_resolves_to_the_values_the_schedules_give():
    def read(pattern):
        paths = (REPO_ROOT / "configs").glob(pattern)
        return {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in paths}

    shipped, ci = read("*.json"), read("ci/*.json")
    # the CI configs reach the fixed h, c log N / N and m_ratio paths
    assert {"h", "rho_log_coefficient"} <= {key for data in ci.values() for key in data.get("kernel", {})}
    assert any("m_ratio" in data for data in ci.values())
    for name, data in {**shipped, **ci}.items():
        config = config_from_dict(data)
        assert sorted(config.points) == list(config.grid), name
        kernel = data.get("kernel", {})
        for total in config.grid:
            point = config.points[total]
            if config.experiment == "stability_suite":
                assert (point.n, point.m, point.graph_scale) == (total, total, None), name
                continue
            if "n" in data:
                assert (point.n, point.m) == (data["n"], data.get("m", 2 * data["n"])), name
            else:
                n = _ratio_split(total, data.get("m_ratio", 2.0))
                assert (point.n, point.m) == (n, total - n), name
            if "h" in kernel:
                scale = kernel["h"]
            elif kernel["kind"] == "local":
                scale = h_schedule(total, config.manifold.intrinsic_dim, kernel.get("c0", 2.0))
            elif "rho" in kernel:
                scale = kernel["rho"]
            else:
                scale = sparse_log_rho(kernel["rho_log_coefficient"], total)
            assert point.graph_scale == scale, (name, total)


def test_cost_map_pipeline_compatibility():
    data = usvt_config_dict()
    data["cost_map"] = {"kind": "identity"}
    with pytest.raises(ConfigError, match="identity"):
        config_from_dict(data)
    data = local_config_dict()
    data["cost_map"] = {"kind": "one_minus"}
    with pytest.raises(ConfigError, match="one_minus"):
        config_from_dict(data)
    # defaults: distances map through identity, kernel values through 1 - w
    local = config_from_dict(local_config_dict())
    assert local.cost_map is not None
    assert local.cost_map.breakpoints.tolist() == local.cost_map.values.tolist() == [0.0, math.pi]
    spectral = config_from_dict(usvt_config_dict())
    assert spectral.cost_map is not None
    assert spectral.cost_map.breakpoints.tolist() == [0.0, 1.0]
    assert spectral.cost_map.values.tolist() == [1.0, 0.0]


def test_piecewise_cost_map_takes_numbers_only():
    data = usvt_config_dict()
    data["cost_map"] = {"kind": "piecewise", "breakpoints": [0, 0.5, 1], "values": [1, 0.3, 0]}
    cost_map = config_from_dict(data).cost_map
    assert cost_map is not None
    assert cost_map.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert cost_map.values.tolist() == [1.0, 0.3, 0.0]
    for key, bad in (("values", [1, "0.5"]), ("breakpoints", [0, True]), ("breakpoints", [1, 0])):
        data = usvt_config_dict()
        data["cost_map"] = {"kind": "piecewise", "breakpoints": [0, 1], "values": [1, 0]}
        data["cost_map"][key] = bad
        with pytest.raises(ConfigError, match=r"^config\.cost_map: "):
            config_from_dict(data)


def test_kernel_form_without_kind_names_the_missing_key():
    data = usvt_config_dict()
    del data["kernel"]["form"]["kind"]
    with pytest.raises(ConfigError, match=r"^config\.kernel\.form: missing required key 'kind'$"):
        config_from_dict(data)


def test_every_shipped_config_loads():
    paths = sorted((REPO_ROOT / "configs").glob("*.json"))
    assert paths
    configs = {path.stem: load_config(path) for path in paths}
    assert configs["usvt_sphere"].gammas == (1.0,)
    assert configs["gamma_sweep"].gammas == (0.5, 1.0, 2.0)


def test_size_rules():
    data = local_config_dict()
    del data["n"]
    del data["m"]
    with pytest.raises(ConfigError, match="'n'"):
        config_from_dict(data)
    data = local_config_dict()
    data["n"] = 20
    data["m"] = 20
    with pytest.raises(ConfigError, match="exceeds"):
        config_from_dict(data)
    # the groups are nodes [0, n) and [n, n + m) of the N-node graph on
    # every route, so explicit nonlocal sizes may leave auxiliary nodes
    data = usvt_config_dict()
    data["n"] = 4
    data["m"] = 4
    assert config_from_dict(data).points[24] == GridPoint(4, 4, 1.0)
    data = fast_config_dict()
    data.update(grid=[20, 40], n=10, m=11)
    with pytest.raises(ConfigError, match="exceeds the smallest total node count 20"):
        config_from_dict(data)
    data = usvt_config_dict()
    data["n"] = 8
    data["m"] = 16
    assert config_from_dict(data).points[24] == GridPoint(8, 16, 1.0)
    data = usvt_config_dict()
    data["n"] = 8
    data["m_ratio"] = 1.0
    with pytest.raises(ConfigError, match="m_ratio"):
        config_from_dict(data)
    data = usvt_config_dict()
    data["m_ratio"] = 1e9
    with pytest.raises(ConfigError, match="empty group"):
        config_from_dict(data)
    # the local pipeline needs explicit sizes, so it takes no ratio at all
    data = local_config_dict()
    data["m_ratio"] = 1.0
    with pytest.raises(ConfigError, match="unknown key.*'m_ratio'"):
        config_from_dict(data)


def test_sizes_at_ratio_and_stability():
    data = usvt_config_dict()
    data["grid"] = [24, 300]
    config = config_from_dict(data)
    assert config.sizes_at(24) == (8, 16)
    assert config.sizes_at(300) == (100, 200)
    stability = config_from_dict(stability_config_dict())
    assert stability.sizes_at(4) == (4, 4)


def test_bench_workloads_parse_to_what_the_bench_worker_reads(monkeypatch):
    # perfbench/run.py puts its own directory on sys.path for its helpers.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", REPO_ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses resolve their module there
    spec.loader.exec_module(bench)
    expected_sizes = {"usvt_dense": (533, 1067), "fast_boxed": (533, 1067), "local_geodesic": (20, 20)}
    assert set(bench.WORKLOADS) == set(expected_sizes)
    for name, workload in bench.WORKLOADS.items():
        config = config_from_dict(bench.workload_config(name, 0))
        assert config.output.results == "results.csv", name
        assert config.sizes_at(config.grid[0]) == expected_sizes[name], name
        assert config.seeds == tuple(range(workload.cells)), name


def test_fast_pipeline_epsilon_is_pinned_to_sigma():
    config = config_from_dict(fast_config_dict())
    assert config.solver.epsilon == 0.5
    # The adjacency route takes no 'epsilon', not even sigma's own value.
    for epsilon in (0.5, 0.3):
        data = fast_config_dict()
        data["epsilon"] = epsilon
        with pytest.raises(ConfigError, match="unknown key.*epsilon"):
            config_from_dict(data)


def test_fast_pipeline_eta_is_resolved_at_load():
    # The default box is exp(diam^p / sigma), diam the unit sphere's chord 2.
    assert config_from_dict(fast_config_dict()).solver.eta == math.exp(2.0**2 / 0.5)
    data = fast_config_dict()
    data["eta"] = 1e6
    assert config_from_dict(data).solver.eta == 1e6
    for build in (local_config_dict, usvt_config_dict, sweep_config_dict, stability_config_dict):
        assert config_from_dict(build()).solver.eta is None


def test_fast_pipeline_eta_overflow_is_a_config_error():
    # exp(4 / 0.005) overflows a float; the default box must not crash a run.
    data = fast_config_dict()
    data["kernel"]["form"]["sigma"] = 0.005
    with pytest.raises(ConfigError, match="'eta'"):
        config_from_dict(data)
    data["eta"] = 1e6
    config = config_from_dict(data)
    assert config.solver.eta == 1e6 and config.solver.epsilon == 0.005


def test_domain_value_errors_are_config_errors_at_their_key_path():
    cases = [
        (local_config_dict, ("manifold",), {"kind": "circle", "radius": -1.0}, "config.manifold: unknown key.s. 'radius'"),
        (local_config_dict, ("manifold",), {"kind": "torus"}, "config.manifold: unknown manifold"),
        (usvt_config_dict, ("density",), {"kind": "tilted", "axis": -1}, "config.density: tilt axis"),
        (usvt_config_dict, ("density",), {"kind": "lumpy"}, "config.density: unknown density"),
        (usvt_config_dict, ("placement",), {"mode": "two_regions", "region_radius": 0.0}, "config.placement: region_radius"),
        (usvt_config_dict, ("placement",), {"mode": "scatter"}, "config.placement: unknown placement"),
        (usvt_config_dict, ("kernel", "form", "p"), 0.5, "config.kernel.form: power"),
        (usvt_config_dict, ("kernel", "form", "sigma"), 0.0, "config.kernel.form: sigma"),
        (usvt_config_dict, ("epsilon",), -1.0, "config: epsilon"),
        (fast_config_dict, ("eta",), 0.5, "config: eta"),
        (stability_config_dict, ("solver",), {"max_iterations": 0}, "config: max_iterations"),
        (stability_config_dict, ("solver",), {"value_tolerance": 0.0}, "config: tolerances"),
    ]
    for build, path, value, message in cases:
        data = build()
        holder = data
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)


def test_epsilon_required_elsewhere():
    data = usvt_config_dict()
    del data["epsilon"]
    with pytest.raises(ConfigError, match="epsilon"):
        config_from_dict(data)
    data = stability_config_dict()
    data["epsilon"] = -1.0
    with pytest.raises(ConfigError, match="positive"):
        config_from_dict(data)


def test_stability_costs_lie_between_cost_low_and_one():
    data = stability_config_dict()
    assert config_from_dict(data).cost_low == 0.1
    data["cost_low"] = 0.0
    assert config_from_dict(data).cost_low == 0.0
    for bad in (-0.1, 1.0, 1.5):
        data["cost_low"] = bad
        with pytest.raises(ConfigError, match="need 0 <= cost_low < 1"):
            config_from_dict(data)
    data = stability_config_dict()
    data["cost_high"] = 1.0
    with pytest.raises(ConfigError, match="unknown key.*'cost_high'"):
        config_from_dict(data)


def test_gamma_sweep_validation():
    data = sweep_config_dict()
    del data["gammas"]
    with pytest.raises(ConfigError, match="gammas"):
        config_from_dict(data)
    data = sweep_config_dict()
    data["gammas"] = [0.5, 0.5]
    with pytest.raises(ConfigError, match="duplicates"):
        config_from_dict(data)
    data = sweep_config_dict()
    data["gammas"] = [0.5, -1.0]
    with pytest.raises(ConfigError, match="positive"):
        config_from_dict(data)


def test_density_checks_against_the_manifold():
    data = usvt_config_dict()
    data["density"] = {"kind": "tilted", "axis": 5, "strength": 0.5}
    with pytest.raises(ConfigError, match="axis"):
        config_from_dict(data)
    data["density"] = {"kind": "tilted", "axis": 0, "strength": 0.5}
    config = config_from_dict(data)
    assert config.density.strength == 0.5
    data["density"] = {"kind": "tilted", "axis": 0, "strength": 2.0}
    with pytest.raises(ConfigError, match="config.density: tilted density is not positive"):
        config_from_dict(data)


def test_solver_and_output_settings():
    data = stability_config_dict()
    data["solver"] = {"max_iterations": 500, "marginal_tolerance": 1e-8}
    config = config_from_dict(data)
    assert config.solver.max_iterations == 500
    assert config.solver.marginal_tolerance == 1e-8
    assert config.solver.value_tolerance == SolverConfig(epsilon=0.5).value_tolerance
    data["solver"] = {"max_iterations": 0}
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = stability_config_dict()
    data["output"] = {"results": "a.csv", "timings": "a.csv"}
    with pytest.raises(ConfigError, match="distinct"):
        config_from_dict(data)
    data["output"] = {"results": "/abs.csv"}
    with pytest.raises(ConfigError, match="relative"):
        config_from_dict(data)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


# ---------------------------------------------------------------------------
# Result rows and tables
# ---------------------------------------------------------------------------


def row(**overrides):
    fields = dict(
        experiment="stability_suite",
        seed=0,
        total=4,
        n=4,
        m=4,
        eps=0.5,
        estimator="perturbation_pair",
        metric="ot_error_abs",
        value=1.0,
    )
    fields.update(overrides)
    return ResultRow(**fields)


def test_row_normalizes_to_twelve_digits():
    r = row(value=0.1234567890123456789)
    assert r.value == float("0.123456789012")
    assert r.to_csv_line().endswith(",0.123456789012")
    assert row(value=math.inf).to_csv_line().endswith(",inf")


def test_row_validation():
    with pytest.raises(InvalidParameterError):
        row(value=math.nan)
    with pytest.raises(InvalidParameterError):
        row(value=-math.inf)
    with pytest.raises(InvalidParameterError):
        row(eps=math.inf)
    with pytest.raises(InvalidParameterError):
        row(metric="a,b")
    with pytest.raises(InvalidParameterError):
        row(estimator="")
    with pytest.raises(InvalidParameterError):
        row(seed=-1)


def test_table_sorts_canonically_and_rejects_duplicates():
    rows = [
        row(total=8, seed=0, metric="z"),
        row(total=4, seed=1, metric="a"),
        row(total=4, seed=0, metric="a"),
        row(total=4, seed=0, metric="b"),
    ]
    table = ResultTable(rows=tuple(rows))
    keys = [(r.total, r.seed, r.metric) for r in table.rows]
    assert keys == [(4, 0, "a"), (4, 0, "b"), (4, 1, "a"), (8, 0, "z")]
    with pytest.raises(InvalidParameterError, match="duplicate"):
        ResultTable(rows=(row(), row()))


def test_csv_roundtrip_is_exact(tmp_path):
    table = ResultTable(
        rows=(
            row(metric="a", value=1.0 / 3.0),
            row(metric="b", value=math.inf),
            row(metric="c", value=3.0e-15),
        )
    )
    path = tmp_path / "results.csv"
    emit_csv(table, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    back = parse_csv(path)
    assert back == table
    emit_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_parse_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("wrong header\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match="first line"):
        parse_csv(path)
    path.write_text(CSV_HEADER + "\n\nstability_suite,0,4,4,4,0.5,e,m,1\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match=":2"):
        parse_csv(path)
    path.write_text(CSV_HEADER + "\na,b,c\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match="9 fields"):
        parse_csv(path)
    path.write_text(CSV_HEADER + "\nstability_suite,zero,4,4,4,0.5,e,m,1\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match=":2"):
        parse_csv(path)


def test_median_series():
    rows = [
        row(seed=s, total=t, metric="err", value=v)
        for (s, t, v) in [(0, 10, 1.0), (1, 10, 3.0), (2, 10, 2.0), (0, 20, 0.5), (1, 20, 0.7)]
    ]
    table = ResultTable(rows=tuple(rows))
    assert table.median_series("err", "perturbation_pair") == [(10, 2.0), (20, 0.6)]
    assert table.values("err", "perturbation_pair", 10) == [1.0, 3.0, 2.0]
    assert table.estimators_for("err") == ("perturbation_pair",)


# ---------------------------------------------------------------------------
# Plots
# ---------------------------------------------------------------------------


def plot_table():
    rows = []
    for total, value in ((10, 0.5), (100, 0.1), (1000, 0.02)):
        for seed in (0, 1):
            rows.append(row(seed=seed, total=total, metric="err", value=value))
            rows.append(
                row(seed=seed, total=total, metric="err", estimator="other<est>", value=2 * value)
            )
    return ResultTable(rows=tuple(rows))


def test_emit_plot_writes_svg(tmp_path):
    path = tmp_path / "plot.svg"
    emit_plot(plot_table(), "err", path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline ") == 2
    assert text.count("<circle ") == 6
    assert "other&lt;est&gt;" in text
    emit_plot(plot_table(), "err", tmp_path / "b.svg")
    assert (tmp_path / "b.svg").read_bytes() == path.read_bytes()


def test_emit_plot_errors(tmp_path):
    with pytest.raises(InvalidParameterError, match="does not appear"):
        emit_plot(plot_table(), "ghost", tmp_path / "x.svg")
    zero_rows = ResultTable(rows=(row(metric="flat", value=0.0),))
    with pytest.raises(InvalidParameterError, match="no positive finite"):
        emit_plot(zero_rows, "flat", tmp_path / "x.svg")


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def metrics_of(table, estimator=None):
    return {
        r.metric
        for r in table.rows
        if estimator is None or r.estimator == estimator
    }


BOUND_NAMES = ("sup_norm", "kernel_spectral", "plan_kl", "kernel_frobenius")
SOLVER_METRICS = {
    f"solver_{name}_{side}" for name in ("iterations", "converged", "marginal_residual") for side in ("true", "est")
}
REPORT_METRICS = {
    "cost_sup_err", "cost_frobenius_err", "ot_value_true", "ot_value_est", "ot_error_abs",
    "kl_plans", "kernel_operator_gap", "slack_min", "all_bounds_hold",
    *(f"bound_{name}_rhs" for name in BOUND_NAMES),
    *(f"slack_{name}" for name in BOUND_NAMES),
} | SOLVER_METRICS
COST_BLOCK_METRICS = REPORT_METRICS | {"ot_error_normalized"}
USVT_METRICS = COST_BLOCK_METRICS | {"kernel_frobenius_normalized", "rho_used", "usvt_rank"}
STAGES = ("latents", "graph", "estimate", "solve_true", "solve_est", "bounds")


def test_local_cell_produces_the_expected_metrics():
    tables = run_experiment(config_from_dict(local_config_dict()))
    names = metrics_of(tables.results, "shortest_path")
    assert names == COST_BLOCK_METRICS | {"graph_h", "graph_edges", "sp_sup_err"}
    assert metrics_of(tables.results) == names
    for r in tables.results.rows:
        if r.metric == "all_bounds_hold":
            assert r.value == 1.0
    stages = {f"stage_{name}_seconds" for name in STAGES}
    assert metrics_of(tables.timings) == {"wall_seconds"} | stages
    assert len(tables.timings) == 1 + len(stages)


@pytest.mark.parametrize("build", ALL_CONFIG_DICTS, ids=lambda build: build.__name__)
def test_stage_rows_split_each_cell_wall_time(build):
    tables = run_experiment(config_from_dict(build()))
    cells = {}
    for r in tables.timings.rows:
        cells.setdefault((r.seed, r.total), {})[r.metric] = r.value
    # The perturbation pair draws no latents and no graph.
    ran = STAGES[2:] if build is stability_config_dict else STAGES
    for timings in cells.values():
        assert set(timings) == {"wall_seconds"} | {f"stage_{name}_seconds" for name in ran}
        stage_seconds = [value for metric, value in timings.items() if metric.startswith("stage_")]
        assert min(stage_seconds) >= 0.0
        # The stages are disjoint spans inside the cell's span.
        assert sum(stage_seconds) <= timings["wall_seconds"] + 1e-9


def _wrap_sinkhorn(monkeypatch, before):
    """Patch one wrapper, which calls ``before`` and then solves, over
    sinkhorn under both names a cell can reach it by."""
    solve = ot_core.sinkhorn

    def wrapped(*args, **kwargs):
        before()
        return solve(*args, **kwargs)

    monkeypatch.setattr(ot_core, "sinkhorn", wrapped)
    monkeypatch.setattr(experiments, "sinkhorn", wrapped)


def test_solve_time_is_charged_to_the_solve_stages(monkeypatch):
    _wrap_sinkhorn(monkeypatch, lambda: time.sleep(0.05))
    tables = run_experiment(config_from_dict(stability_config_dict()))
    cells = {}
    for r in tables.timings.rows:
        cells.setdefault((r.seed, r.total), {})[r.metric] = r.value
    assert cells
    for timings in cells.values():
        assert timings["stage_solve_true_seconds"] >= 0.05
        assert timings["stage_solve_est_seconds"] >= 0.05
        assert timings["stage_bounds_seconds"] < 0.05


def test_local_cell_reports_disconnection():
    data = local_config_dict()
    data["kernel"] = {"kind": "local", "h": 0.01}
    tables = run_experiment(config_from_dict(data))
    assert [r.metric for r in tables.results.rows] == ["failed_disconnected"]
    assert tables.results.rows[0].value == 1.0


# A script's own peak RSS.  Not ru_maxrss: Linux carries a parent's peak
# across fork and exec, so a script started from a pytest process that has
# run large cells in-process would read that process's peak instead.
_PEAK_KB = """
def peak_kb():
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

_PEAK_RSS_SCRIPT = _PEAK_KB + """
import json, sys, time
from latent_ot.harness.config import config_from_dict
from latent_ot.harness.experiments import run_experiment
config = config_from_dict(json.loads(sys.argv[1]))
imported_kb = peak_kb()
start = time.perf_counter()
tables = run_experiment(config)
print(json.dumps({
    "seconds": time.perf_counter() - start,
    "metrics": {r.metric: r.value for r in tables.results.rows},
    "maxrss_kb": peak_kb(),
    "imported_kb": imported_kb,
}))
"""


def _run_json_script(script: str, *args: str) -> dict:
    """Run a script in a fresh interpreter on this package; parse its JSON output."""
    src = str(Path(latent_ot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_local_cell_at_thirty_thousand_points_holds_no_n_by_n_array():
    # One N x N boolean mask alone would take 900 MB at this size.
    data = local_config_dict()
    data.update(grid=[30000], n=20, m=20, kernel={"kind": "local", "c0": 2.0})
    report = _run_json_script(_PEAK_RSS_SCRIPT, json.dumps(data))
    assert report["metrics"]["all_bounds_hold"] == 1.0
    assert report["metrics"]["graph_edges"] > 30000
    assert report["maxrss_kb"] < 600 * 1024


def test_a_sparse_adjacency_cell_holds_two_n_by_m_arrays_at_its_peak():
    # CI's fast_log_sparse cell: n + m = N = 4000, one 1333 x 2667 float64
    # array is 27.1 MiB.  At its peak, inside the true solve, the cell holds
    # the distance powers (the true cost) and the solver's kernel; the kernel
    # block is formed from the powers after that solve.  Its peak rose
    # 60.1 MiB above import when this bound was set, 87.4 MiB when the kernel
    # block was held through the true solve, and 169 MiB when the value
    # types copied their arrays and the true plan was kept.  The bound
    # leaves 25% over the measured rise.
    data = json.loads((REPO_ROOT / "configs" / "ci" / "fast_log_sparse.json").read_text(encoding="utf-8"))
    report = _run_json_script(_PEAK_RSS_SCRIPT, json.dumps(data))
    assert report["metrics"]["solver_converged_true"] == report["metrics"]["solver_converged_est"] == 1.0
    assert report["maxrss_kb"] - report["imported_kb"] <= 75 * 1024


def test_an_adjacency_cell_traces_two_n_by_m_arrays_at_its_peak():
    # The bench's fast_boxed cell: n = 533, m = 1067.  The true solve holds
    # the distance powers (its cost) and its own kernel; the kernel block
    # the gap norms read is formed only after it, from the powers, which are
    # then freed.  The traced peak read 2.13 arrays when this bound was set,
    # and 3.13 when the kernel block was held through the true solve.
    data = fast_config_dict()
    data.update(grid=[1600], eta=1e6)
    data["kernel"]["form"]["sigma"] = 0.15
    config = config_from_dict(data)
    tracemalloc.start()
    try:
        rows = run_experiment(config).results.rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    metrics = {r.metric: r.value for r in rows}
    assert metrics["solver_converged_true"] == metrics["solver_converged_est"] == 1.0
    array = rows[0].n * rows[0].m * 8
    assert peak <= 2.5 * array, f"traced peak {peak / array:.2f} n x m arrays"


@pytest.mark.skipif(not os.environ.get("LATENT_OT_LARGE_CELLS"), reason="set LATENT_OT_LARGE_CELLS=1 to run")
def test_a_sixteen_thousand_node_adjacency_cell_rises_at_most_1_1_gib():
    # n + m = N = 16 000, where one 5333 x 10 667 float64 array is 434 MiB
    # and the bench's N = 1600 cells cannot see a change of that size.  The
    # true solve holds the distance powers and its own kernel; the kernel
    # block is formed after it.  The peak rose 872 MiB above import when
    # this bound was set, and 1306 MiB when the kernel block was held
    # through the true solve.  About 10 s and 1 GB, so CI runs it in a step
    # of its own.
    data = fast_config_dict()
    data["grid"] = [16000]
    data["kernel"] = {
        "kind": "nonlocal",
        "rho_log_coefficient": 2.0,
        "form": {"kind": "gaussian_power", "p": 2, "sigma": 1.0},
    }
    report = _run_json_script(_PEAK_RSS_SCRIPT, json.dumps(data))
    assert report["metrics"]["solver_converged_true"] == report["metrics"]["solver_converged_est"] == 1.0
    assert report["maxrss_kb"] - report["imported_kb"] <= 1.1 * 1024 * 1024


@pytest.mark.skipif(not os.environ.get("LATENT_OT_LARGE_CELLS"), reason="set LATENT_OT_LARGE_CELLS=1 to run")
def test_a_sixteen_thousand_node_usvt_cell_rises_at_most_1930_mib():
    # n + m = N = 16 000 at gamma = 1.25, where one 5333 x 10 667 float64
    # array is 434 MiB.  Each cost is formed once, in the buffer of its
    # block: the true cost in the kernel block the Frobenius walk copies
    # out, the estimated one in the USVT block.  The peak, in the stability
    # report, rose 1545 MiB above import when this bound was set, and as
    # much when each cost map wrote a new array; the bound leaves 25% over
    # it.  About 15 s and 1.6 GB, so CI runs it in a step of its own.
    data = usvt_config_dict()
    data.update(grid=[16000], gamma=1.25)
    data["kernel"] = {
        "kind": "nonlocal",
        "rho_log_coefficient": 2.0,
        "form": {"kind": "gaussian_power", "p": 2, "sigma": 1.0},
    }
    report = _run_json_script(_PEAK_RSS_SCRIPT, json.dumps(data))
    assert report["metrics"]["solver_converged_true"] == report["metrics"]["solver_converged_est"] == 1.0
    assert report["maxrss_kb"] - report["imported_kb"] <= 1930 * 1024


def test_a_sparse_usvt_cell_keeps_no_plan_beyond_its_solve():
    # CI's usvt_log_sparse cell: n + m = N = 4000, one 1333 x 2667 float64
    # array is 27.1 MiB.  Each solve returns its plan as n + m factors, so no
    # plan is held through the estimated solve and the bounds stage.  Its
    # peak rose 102 MiB above import when this bound was set, and 157 MiB
    # when each solve kept its n x m plan.
    data = json.loads((REPO_ROOT / "configs" / "ci" / "usvt_log_sparse.json").read_text(encoding="utf-8"))
    report = _run_json_script(_PEAK_RSS_SCRIPT, json.dumps(data))
    assert report["metrics"]["solver_converged_true"] == report["metrics"]["solver_converged_est"] == 1.0
    assert report["maxrss_kb"] - report["imported_kb"] <= 120 * 1024


_MINOR_FAULTS_SCRIPT = """
import json, resource, sys
from latent_ot.harness.config import config_from_dict
from latent_ot.harness.experiments import run_experiment
config = config_from_dict(json.loads(sys.argv[1]))
run_experiment(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print(json.dumps({"minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before}))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_a_second_run_reuses_the_memory_the_first_freed():
    # Under glibc's default policy the second run's two N = 1600 adjacency
    # cells zero-fill their freed n x m temporaries afresh: about 9,000 minor
    # page faults.  Kept in the heap, the first run's pages serve them all.
    data = fast_config_dict()
    data.update(grid=[1600], seeds=[0, 1])
    report = _run_json_script(_MINOR_FAULTS_SCRIPT, json.dumps(data))
    assert report["minor_faults"] < 1000


_KERNEL_GRAPH_RSS_SCRIPT = _PEAK_KB + """
import json
from latent_ot.latent_models import (
    Density, GaussianPowerKernel, NonlocalKernel, Sphere, sample_kernel_graph, sample_latents,
    sparse_log_rho,
)
from latent_ot.rng import RngSeed
total = 6000
latents = sample_latents(Sphere(), Density(), 20, 20, total, RngSeed(5))
kernel = NonlocalKernel(rho=sparse_log_rho(2.0, total), form=GaussianPowerKernel())
graph = sample_kernel_graph(latents, kernel, RngSeed(6))
print(json.dumps({
    "edges": graph.edge_count,
    "maxrss_kb": peak_kb(),
}))
"""


def test_kernel_graph_at_six_thousand_points_holds_no_n_by_n_array():
    # One N x N float64 array alone would take 288 MB at this size.
    report = _run_json_script(_KERNEL_GRAPH_RSS_SCRIPT)
    assert report["edges"] > 6000
    assert report["maxrss_kb"] < 6000 * 6000 * 8 // 1024


def test_usvt_cell_produces_the_expected_metrics():
    tables = run_experiment(config_from_dict(usvt_config_dict()))
    assert metrics_of(tables.results, "usvt") == USVT_METRICS
    assert metrics_of(tables.results) == USVT_METRICS
    rows = {r.metric: r for r in tables.results.rows}
    assert rows["rho_used"].value == 1.0
    assert rows["ot_value_true"].n == 8 and rows["ot_value_true"].m == 16


def test_a_fixed_group_usvt_cell_matches_a_dense_eigh_oracle():
    data = usvt_config_dict()
    data.update(grid=[240], n=30, m=30, gamma=1.0)
    config = config_from_dict(data)
    rows = {r.metric: r for r in run_experiment(config).results.rows}
    assert (rows["ot_value_est"].n, rows["ot_value_est"].m) == (30, 30)
    # The oracle: a dense eigh of the whole 240-node graph, the eigenpairs at
    # or above gamma sqrt(rho N), and the block of the two groups.
    _, graph = sample_cell(config, 240, 0)
    values, vectors = np.linalg.eigh(graph.adjacency.toarray())
    keep = values >= math.sqrt(240.0)
    estimate = (vectors[:, keep] * values[keep]) @ vectors[:, keep].T
    np.clip(estimate, math.exp(-(2.0**2) / 0.5), 1.0, out=estimate)
    cost = ot_core.CostMatrix(entries=1.0 - estimate[:30, 30:60], c_min=0.0, c_max=1.0)
    uniform = ot_core.DiscreteDistribution.uniform(30)
    expected = ot_core.sinkhorn(cost, uniform, uniform, SolverConfig(epsilon=0.5)).value
    assert rows["usvt_rank"].value == np.count_nonzero(keep) > 0
    assert abs(rows["ot_value_est"].value - expected) <= 1e-9 * abs(expected)


@pytest.mark.parametrize("block_pairs", [1, 7 * 60, 60 * 60])
def test_kernel_frobenius_walk_matches_a_dense_oracle(monkeypatch, block_pairs):
    # Row blocks of 1 row (60 blocks), of 7 rows (60 = 8 * 7 + 4, so the last
    # block is ragged) and of all 60 rows (one block); every block masks the
    # corner below the diagonal.  The groups split all 60 nodes 20 + 40, or
    # take 15 + 25 of them and leave 20 auxiliary nodes; at 7 rows a block
    # straddles row n either way.  The walk's cross block must have the bits
    # of the kernel evaluated on the two groups alone.
    monkeypatch.setattr(experiments, "_GRAPH_BLOCK_PAIRS", block_pairs)
    for groups in ({}, {"n": 15, "m": 25}):
        config = config_from_dict({**usvt_config_dict(), "grid": [60], **groups})
        latents, graph = sample_cell(config, 60, 0)
        n, m = latents.xs.shape[0], latents.ys.shape[0]
        assert (n, m) == ((groups["n"], groups["m"]) if groups else (20, 40))
        # One walk serves both gammas, as in a gamma sweep.
        spectrum = usvt(graph, UsvtParams(0.5, 1.0, config.form.bounds(config.manifold)))
        estimates = [spectrum, spectrum.at_gamma(1.0)]
        assert estimates[0].rank > estimates[1].rank > 0
        # The oracle: both 60 x 60 matrices, formed densely.
        points = latents.all_points()
        truth = config.form.evaluate(points, points)
        walked, cross = experiments._kernel_frobenius_normalized(points, config.form, estimates, n, m)
        assert np.array_equal(cross, config.form.evaluate(latents.xs, latents.ys))
        for each, value in zip(estimates, walked, strict=True):
            dense = np.clip((each.vectors * each.values) @ each.vectors.T, *each.params.clamp_range)
            assert value == pytest.approx(np.linalg.norm(truth - dense) / 60, rel=1e-12)


def test_a_fixed_group_usvt_cell_at_eight_thousand_nodes_stays_small():
    # One (N/3) x (2N/3) float64 array, the cross block of two groups that
    # split all N nodes, alone would take 114 MB at this size.
    data = usvt_config_dict()
    data.update(grid=[8000], n=50, m=50, gamma=1.25)
    data["kernel"] = {
        "kind": "nonlocal",
        "rho_log_coefficient": 2.0,
        "form": {"kind": "gaussian_power", "p": 2, "sigma": 1.0},
    }
    report = _run_json_script(_PEAK_RSS_SCRIPT, json.dumps(data))
    assert report["metrics"]["usvt_rank"] >= 1
    assert report["metrics"]["solver_converged_est"] == 1.0
    assert report["seconds"] < 5.0
    assert report["maxrss_kb"] - report["imported_kb"] <= 80 * 1024


def test_a_gamma_sweep_whose_first_arpack_call_fails_retries_it():
    # N = 40: the probe sizes the first call at k = 12, and ARPACK fails on
    # it at the default ncv = 25 with error 3 (no shifts could be applied)
    # on the graph's repeated eigenvalues 1, 0 and -1.  The retry at ncv = 40
    # succeeds, and the kept rank at gamma = 0.2 is the dense count.
    data = sweep_config_dict()
    data.update(grid=[40], seeds=[2], gammas=[0.2, 1.0])
    data["kernel"]["rho"] = 0.3
    config = config_from_dict(data)
    rows = run_experiment(config).results.rows
    assert len(rows) == 54
    ranks = {r.estimator: r.value for r in rows if r.metric == "usvt_rank"}
    _, graph = sample_cell(config, 40, 2)
    values = np.linalg.eigvalsh(graph.adjacency.toarray())
    assert ranks["usvt@gamma=0.2"] == np.count_nonzero(values >= 0.2 * math.sqrt(0.3 * 40)) == 14


def test_gamma_sweep_labels_each_threshold():
    tables = run_experiment(config_from_dict(sweep_config_dict()))
    estimators = {r.estimator for r in tables.results.rows}
    assert estimators == {"usvt@gamma=0.5", "usvt@gamma=1"}
    for estimator in estimators:
        assert metrics_of(tables.results, estimator) == USVT_METRICS


def test_a_gamma_sweep_cell_solves_the_true_cost_once(monkeypatch):
    calls = []
    _wrap_sinkhorn(monkeypatch, lambda: calls.append(None))
    data = sweep_config_dict()
    data["gammas"] = [0.5, 1.0, 2.0]
    tables = run_experiment(config_from_dict(data))
    assert {r.estimator for r in tables.results.rows} == {"usvt@gamma=0.5", "usvt@gamma=1", "usvt@gamma=2"}
    assert len(calls) == 1 + 3


def test_fast_cell_produces_the_expected_metrics():
    tables = run_experiment(config_from_dict(fast_config_dict()))
    names = metrics_of(tables.results, "fast_adjacency")
    assert names == {"ot_value_true", "ot_value_est", "ot_error_abs", "ot_error_normalized",
                     "kernel_operator_gap", "kernel_frobenius_normalized", "eta_used", "rho_used",
                     "solver_pinned_fraction_est"} | SOLVER_METRICS
    rows = {r.metric: r for r in tables.results.rows}
    # default box size covers the largest cost at the imposed epsilon
    assert rows["eta_used"].value == pytest.approx(float(f"{math.exp(4.0 / 0.5):.12g}"))
    assert rows["ot_value_true"].eps == 0.5
    assert rows["solver_converged_true"].value == rows["solver_converged_est"].value == 1.0
    assert rows["solver_iterations_true"].value >= 1 and rows["solver_iterations_est"].value >= 1
    assert rows["solver_marginal_residual_true"].value <= 1e-9
    assert 0.0 <= rows["solver_pinned_fraction_est"].value <= 1.0


@pytest.mark.parametrize("config_dict", [fast_config_dict, stability_config_dict], ids=["fast", "stability"])
def test_a_one_sweep_budget_is_reported_as_unconverged(tmp_path, capsys, config_dict):
    data = config_dict()
    data["solver"] = {"max_iterations": 1}
    path = write_config(tmp_path, data)
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    rows = parse_csv(tmp_path / "out" / "results.csv").rows
    status = {(r.seed, r.total, r.metric): r.value for r in rows if r.metric.startswith("solver_")}
    cells = {(r.seed, r.total) for r in rows}
    for cell in cells:
        assert status[(*cell, "solver_converged_true")] == status[(*cell, "solver_converged_est")] == 0.0
        assert status[(*cell, "solver_iterations_true")] == status[(*cell, "solver_iterations_est")] == 1.0
    assert f", {2 * len(cells)} unconverged solves)" in capsys.readouterr().out


def _tiny_config(experiment, total, seed, scale):
    """One cell of ``experiment`` at N = ``total`` on the unit square.
    ``scale`` is rho on the nonlocal routes, h on the local one and epsilon
    in the stability suite."""
    data = {"experiment": experiment, "grid": [total], "seeds": [seed]}
    if experiment == "stability_suite":
        return config_from_dict({**data, "epsilon": scale})
    data["manifold"] = {"kind": "unit_square"}
    if experiment == "local_geodesic":
        data.update(kernel={"kind": "local", "h": scale}, n=1, m=1, epsilon=0.4)
    else:
        form = {"kind": "gaussian_power", "p": 1, "sigma": 0.3}
        data["kernel"] = {"kind": "nonlocal", "rho": scale, "form": form}
        if experiment != "fast_nonlocal":
            data["epsilon"] = 0.4
        if experiment == "gamma_sweep":
            data["gammas"] = [0.5, 1.0]
    return config_from_dict(data)


def test_every_experiment_runs_on_tiny_and_edgeless_graphs():
    # At rho = 0.05 most of these graphs have no edge; a spectral estimate of
    # such a graph has rank 0, and the cell still writes its rows.
    edgeless = 0
    cases = itertools.product(EXPERIMENT_KINDS, (2, 3, 5, 12), range(3), (1.0, 0.05))
    for experiment, total, seed, scale in cases:
        config = _tiny_config(experiment, total, seed, scale)
        rows = run_experiment(config).results.rows
        assert rows, (experiment, total, seed, scale)
        if experiment in ("usvt_nonlocal", "gamma_sweep") and sample_cell(config, total, seed)[1].edge_count == 0:
            edgeless += 1
            ranks = [row.value for row in rows if row.metric == "usvt_rank"]
            assert ranks and set(ranks) == {0.0}, (experiment, total, seed, scale)
    assert edgeless > 0


def test_fast_route_draws_the_cross_block_of_the_cell_graph(monkeypatch):
    boxed_kernels = []
    solve = experiments.dual_ascent_boxed

    def recording_solve(kernel, *args):
        boxed_kernels.append(kernel)
        return solve(kernel, *args)

    monkeypatch.setattr(experiments, "dual_ascent_boxed", recording_solve)
    # the last case leaves 18 auxiliary nodes outside the two groups
    for rho, sizes in ((1.0, {"m_ratio": 2.0}), (0.7, {"m_ratio": 0.5}), (0.7, {"n": 5, "m": 7})):
        data = fast_config_dict()
        data.update(grid=[30], seeds=[3], **sizes)
        data["kernel"]["rho"] = rho
        config = config_from_dict(data)
        boxed_kernels.clear()
        run_experiment(config)
        _, graph = sample_cell(config, 30, 3)
        n, m = config.points[30].n, config.points[30].m
        expected = fast_kernel_block(graph.adjacency[:n, n : n + m], rho).toarray()
        assert expected.shape == (n, m) and n != m
        assert 0 < np.count_nonzero(expected) < n * m
        assert len(boxed_kernels) == 1 and np.array_equal(boxed_kernels[0].toarray(), expected)


def test_fast_route_rejects_edge_probabilities_above_one_and_rho_zero():
    def with_rho(data, rho):
        # a density no config can give, swapped in after load
        config = config_from_dict(data)
        points = {total: dataclasses.replace(point, graph_scale=rho) for total, point in config.points.items()}
        return dataclasses.replace(config, points=points)

    wide = fast_config_dict()
    wide["kernel"]["form"]["sigma"] = 100.0
    # every cross pair has w > 0.96 at this width
    with pytest.raises(InvalidParameterError, match="exceeds 1"):
        run_experiment(with_rho(wide, 1.5))
    with pytest.raises(InvalidParameterError, match=r"rho must lie in \(0, 1\]"):
        run_experiment(with_rho(fast_config_dict(), 0.0))


def test_stability_cells_hold_their_bounds():
    data = stability_config_dict()
    data["grid"] = [3, 4]
    data["seeds"] = [0, 1]
    tables = run_experiment(config_from_dict(data))
    assert metrics_of(tables.results, "perturbation_pair") == REPORT_METRICS
    assert metrics_of(tables.results) == REPORT_METRICS
    slack_rows = [r for r in tables.results.rows if r.metric == "slack_min"]
    assert len(slack_rows) == 4
    assert all(r.value >= -1e-9 for r in slack_rows)


def test_results_are_independent_of_worker_count():
    data = stability_config_dict()
    data["grid"] = [3, 4]
    data["seeds"] = [0, 1]
    config = config_from_dict(data)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    assert table_to_csv_text(serial.results) == table_to_csv_text(parallel.results)
    with pytest.raises(InvalidParameterError):
        run_experiment(config, workers=0)


def test_cells_are_independent_of_the_surrounding_grid():
    small = stability_config_dict()
    small["grid"] = [3]
    small["seeds"] = [0]
    large = stability_config_dict()
    large["grid"] = [3, 5]
    large["seeds"] = [0, 7]
    rows_small = run_experiment(config_from_dict(small)).results.rows
    rows_large = run_experiment(config_from_dict(large)).results.rows
    picked = tuple(r for r in rows_large if r.total == 3 and r.seed == 0)
    assert picked == rows_small


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


def test_property_suite_passes_and_is_deterministic():
    report = run_property_suite(trials=2, seed=0)
    assert report.passed
    assert {o.name for o in report.outcomes} == set(CHECK_NAMES)
    for outcome in report.outcomes:
        assert outcome.trials in (1, 2)  # expensive checks run fewer trials
        assert outcome.failures == 0
    again = run_property_suite(trials=2, seed=0)
    assert [o.min_slack for o in again.outcomes] == [o.min_slack for o in report.outcomes]
    lines = report.format_lines()
    assert lines[-1].startswith("PASS property suite:")


def test_property_suite_negative_control():
    report = run_property_suite(trials=2, seed=0, rhs_scale=0.5)
    assert not report.passed
    failed = {o.name for o in report.outcomes if not o.passed}
    # the shift check is exactly tight, so halving the ceiling must fail it
    assert "shift_tightness" in failed


def test_property_suite_validation():
    with pytest.raises(InvalidParameterError):
        run_property_suite(trials=0, seed=0)
    with pytest.raises(InvalidParameterError):
        run_property_suite(trials=1, seed=0, rhs_scale=0.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_cli_run_writes_tables(tmp_path, capsys):
    path = write_config(tmp_path, stability_config_dict())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "timings.csv").exists()
    assert "results.csv" in capsys.readouterr().out


def test_cli_run_totals_wall_seconds_and_summarizes_on_stderr(tmp_path, capsys, monkeypatch):
    data = local_config_dict()
    data["seeds"] = [0, 1]
    data["kernel"] = {"kind": "local", "h": 0.01}
    seconds = {"wall_seconds": 2.0, "stage_latents_seconds": 0.25, "stage_graph_seconds": 1.5}

    def fixed_timings(config, workers=1):
        tables = run_experiment(config, workers)
        rows = [
            dataclasses.replace(row, metric=metric, value=value)
            for row in tables.timings.rows
            if row.metric == "wall_seconds"
            for metric, value in seconds.items()
        ]
        return experiments.ExperimentTables(tables.results, ResultTable(rows=tuple(rows)))

    monkeypatch.setattr(cli, "run_experiment", fixed_timings)
    path = write_config(tmp_path, data)
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "(2 cells, 4.0s, 0 unconverged solves)" in captured.out
    assert captured.err == (
        "summary: 2 cells, 0 unconverged solves, 2 failed_disconnected cells, slowest stage graph (3.0s)\n"
    )


def test_cli_run_records_an_infinite_plan_kl_ceiling_as_holding(tmp_path, capsys):
    # At this epsilon the estimated plan has underflowed entries, so KL(P | P_hat)
    # is inf, and the plan_kl ceiling overflows to inf as well.
    path = write_config(tmp_path, {"experiment": "stability_suite", "grid": [4], "seeds": [1], "epsilon": 0.001})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert any(line.endswith(",kl_plans,inf") for line in lines)
    assert any(line.endswith(",slack_plan_kl,inf") for line in lines)
    assert any(line.endswith(",all_bounds_hold,1") for line in lines)


def test_cli_run_records_overflowed_kernel_ceilings_as_infinite(tmp_path, capsys):
    # With every cost at least 0.2, exp(-c/eps) < exp(-1000) underflows to 0
    # for every entry whatever the draws, so the kernel gap is 0, while the
    # kernel_spectral and plan_kl prefactors overflow to inf.
    config = {"experiment": "stability_suite", "grid": [4], "seeds": [0], "epsilon": 0.0002, "cost_low": 0.2}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    text = (out / "results.csv").read_text(encoding="utf-8")
    assert "nan" not in text.lower()
    lines = text.splitlines()
    assert any(line.endswith(",kernel_operator_gap,0") for line in lines)
    assert any(line.endswith(",slack_kernel_spectral,inf") for line in lines)
    assert any(line.endswith(",bound_plan_kl_rhs,inf") for line in lines)


def test_cli_seed_environment_override(tmp_path, monkeypatch, capsys):
    # The seeds come from the config alone; no environment variable replaces them.
    data = stability_config_dict()
    path = write_config(tmp_path, data)
    monkeypatch.setenv("LATENT_OT_SEED", "99")
    out = tmp_path / "seeded"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    table = parse_csv(out / "results.csv")
    assert {r.seed for r in table.rows} == set(data["seeds"])


def test_cli_config_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert cli.main(["run", "--config", str(missing), "--out-dir", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert cli.main(["run", "--config", str(bad)]) == 1  # missing required flag
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_rejects_a_density_that_is_not_positive_with_exit_one(tmp_path, capsys):
    data = usvt_config_dict()
    data["density"] = {"kind": "tilted", "axis": 0, "strength": 2.0}
    path = write_config(tmp_path, data)
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "density" in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_zero_workers_before_writing(tmp_path, capsys):
    path = write_config(tmp_path, stability_config_dict())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out), "--workers", "0"]) == 1
    assert "workers" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_cli_run_rejects_an_unwritable_out_dir_before_any_cell(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, usvt_config_dict())
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
    assert cli.main(["run", "--config", str(path), "--out-dir", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert calls == []


def test_cli_numeric_failures_exit_two(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, stability_config_dict())

    def explode(config, workers=1):
        raise NumericFailureError("did not converge")

    monkeypatch.setattr(cli, "run_experiment", explode)
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_props_pass_and_fail(monkeypatch, capsys):
    assert cli.main(["props", "--trials", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS property suite" in out
    assert cli.main(["props", "--trials", "0", "--seed", "0"]) == 1
    capsys.readouterr()
    failing = PropertyReport(
        seed=0,
        trials=1,
        rhs_scale=1.0,
        outcomes=(CheckOutcome(name="broken", trials=1, failures=1, min_slack=-1.0),),
    )
    monkeypatch.setattr("latent_ot.harness.properties.run_property_suite", lambda **kw: failing)
    assert cli.main(["props", "--trials", "1", "--seed", "0"]) == 3
    assert "FAIL" in capsys.readouterr().out


# Loads what the run path's scipy subpackages load, then runs the CLI and
# reports which watched modules each step added.  Modules the baseline
# already holds are left out, so a scipy that loads one itself cannot fail
# the check for a reason outside the package.
_RUN_IMPORTS_SCRIPT = """
import contextlib, json, os, sys
import numpy, scipy.linalg, scipy.sparse.linalg, scipy.sparse.csgraph, scipy.spatial
WATCHED = ("scipy.optimize", "ssl", "xml.sax", "concurrent.futures.process",
           "latent_ot.harness.properties", "latent_ot.harness.plots")
def loaded():
    return [name for name in WATCHED if name in sys.modules]
baseline = loaded()
from latent_ot.harness import cli
codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
        codes.append(cli.main(["run", "--config", config, "--out-dir", out, "--workers", "1"]))
    after_run = loaded()
    codes.append(cli.main(["props", "--trials", "1", "--seed", "0"]))
print(json.dumps({"baseline": baseline, "after_run": after_run, "after_props": loaded(), "codes": codes}))
"""


def test_cli_run_loads_only_what_its_cells_call(tmp_path):
    local = write_config(tmp_path, local_config_dict(), name="local.json")
    fast = write_config(tmp_path, fast_config_dict(), name="fast.json")
    report = _run_json_script(
        _RUN_IMPORTS_SCRIPT, str(local), str(tmp_path / "local"), str(fast), str(tmp_path / "fast")
    )
    assert report["codes"] == [0, 0, 0]
    assert set(report["after_run"]) - set(report["baseline"]) == set()
    assert "scipy.optimize" in report["after_props"]


def test_cli_plot(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    emit_csv(plot_table(), csv_path)
    out = tmp_path / "err.svg"
    assert cli.main(["plot", "--csv", str(csv_path), "--metric", "err", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("<svg ")
    assert cli.main(["plot", "--csv", str(csv_path), "--metric", "nope", "--out", str(out)]) == 1
    capsys.readouterr()


def test_cli_gen(tmp_path, capsys):
    path = write_config(tmp_path, local_config_dict())
    out = tmp_path / "graph.txt"
    assert cli.main(["gen", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    count_nodes, count_edges = (int(t) for t in lines[0].split())
    assert count_nodes == 30
    assert count_edges == len(lines) - 1
    # the same graph as the one the run cell reports on
    rows = run_experiment(config_from_dict(local_config_dict())).results.rows
    assert [r.value for r in rows if r.metric == "graph_edges"] == [count_edges]
    capsys.readouterr()
    stability = write_config(tmp_path, stability_config_dict(), name="s.json")
    assert cli.main(["gen", "--config", str(stability), "--out", str(out)]) == 1


def test_cli_gen_writes_the_graph_a_nonlocal_run_cell_sees(tmp_path, capsys):
    data = fast_config_dict()
    data["grid"] = [30]
    data["seeds"] = [5, 6]
    path = write_config(tmp_path, data)
    out = tmp_path / "graph.txt"
    assert cli.main(["gen", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()

    # the first cell's streams, derived as documented: latents then graph
    config = config_from_dict(data)
    n, m = config.points[30].n, config.points[30].m
    latents = sample_latents(config.manifold, config.density, n, m, 30, RngSeed(5).derive("latents", 30))
    model = NonlocalKernel(rho=1.0, form=config.form)
    graph = sample_kernel_graph(latents, model, RngSeed(5).derive("graph", 30))
    assert out.read_bytes() == graph_to_edgelist(graph).encode("utf-8")

    # and the run's kernel gaps at that cell are measured against this graph;
    # the dense SVD is independent of the ARPACK operator norm
    gap = config.form.evaluate(latents.xs, latents.ys) - graph.adjacency.toarray()[:n, n:]
    rows = {r.metric: r.value for r in run_experiment(config).results.rows if r.seed == 5}
    assert rows["kernel_frobenius_normalized"] == pytest.approx(np.linalg.norm(gap) / math.sqrt(n * m), rel=1e-10)
    assert rows["kernel_operator_gap"] == pytest.approx(np.linalg.svd(gap, compute_uv=False)[0], rel=1e-10)


def test_cli_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The thread count is set only in each child's environment.  A usvt
    # cell takes one operator norm, of its report's kernel gap.
    fast = fast_config_dict()
    fast["grid"] = [200]
    fast["seeds"] = [0, 1]
    usvt = usvt_config_dict()
    usvt["grid"] = [800]
    # The shipped sweep's seeds 2 and 3 differed between 1 and 2 threads
    # when its spectrum came from a dense eigh.
    sweep = json.loads((REPO_ROOT / "configs" / "gamma_sweep.json").read_text(encoding="utf-8"))
    sweep["seeds"] = [2, 3]
    src = str(Path(latent_ot.__file__).resolve().parents[1])
    for name, data in (("fast", fast), ("usvt", usvt), ("gamma_sweep", sweep)):
        path = write_config(tmp_path, data, name=f"{name}.json")
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            argv = ["run", "--config", str(path), "--out-dir", str(out)]
            subprocess.run(
                [sys.executable, "-m", "latent_ot.harness.cli", *argv],
                env=env, check=True, capture_output=True, timeout=300,
            )
            tables.append((out / "results.csv").read_bytes())
        assert tables[0] == tables[1], name


# Each pool worker of run_experiment reports its OpenBLAS thread counts from
# inside a cell, through a wrapped sample_cell_latents the forked worker
# inherits; the parent reports its own after importing the package.
_PINNED_THREADS_SCRIPT = """
import ctypes, json, os, sys
from latent_ot._blas import openblas_calls
from latent_ot.harness import experiments
from latent_ot.harness.config import config_from_dict

def report(where):
    # One write per line, so the workers' lines cannot interleave.
    line = json.dumps([where, [call() for call in openblas_calls("get_num_threads", [], ctypes.c_int)]]) + "\\n"
    os.write(sys.stdout.fileno(), line.encode())

sample = experiments.sample_cell_latents
def sample_and_report(*args):
    report("worker")
    return sample(*args)

experiments.sample_cell_latents = sample_and_report
report("parent")
experiments.run_experiment(config_from_dict(json.loads(sys.argv[1])), workers=2)
"""


# Imports one solver module and nothing else of the package, then reports
# whether that import alone loaded _blas (importing it afterwards to read
# the thread counts pins nothing new) and the counts, before and after a
# call to exact assignment, whose first call loads scipy.optimize after the
# pin.
_SOLVER_ONLY_SCRIPT = """
import ctypes, json, sys
import numpy as np
from latent_ot.ot_core import CostMatrix, exact_ot_assignment
loaded = "latent_ot._blas" in sys.modules
from latent_ot._blas import openblas_calls
def threads():
    return [call() for call in openblas_calls("get_num_threads", [], ctypes.c_int)]
before = threads()
exact_ot_assignment(CostMatrix(np.arange(9.0).reshape(3, 3) / 8, 0.0, 1.0))
print(json.dumps([loaded, before, threads()]))
"""


def test_importing_the_package_pins_every_openblas_to_one_thread():
    data = fast_config_dict()
    data["seeds"] = [0, 1]
    src = str(Path(latent_ot.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PINNED_THREADS_SCRIPT, json.dumps(data)],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    reports = [json.loads(line) for line in done.stdout.splitlines()]
    assert sorted(where for where, _ in reports) == ["parent", "worker", "worker"]
    solver_only = subprocess.run(
        [sys.executable, "-c", _SOLVER_ONLY_SCRIPT],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    loaded, before, after = json.loads(solver_only.stdout)
    assert loaded
    assert len(after) == len(before)
    reports += [["ot_core only", before], ["after exact assignment", after]]
    for where, threads in reports:
        # One entry per loaded OpenBLAS: numpy's and scipy's wheels bundle one each.
        assert threads and set(threads) == {1}, (where, threads)
