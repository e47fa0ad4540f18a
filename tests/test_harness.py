"""Harness tests: config parsing, result tables, plots, runners, CLI.

Runner determinism is exercised by comparing serialized tables across
worker counts, overlapping grids and BLAS thread counts; CLI exit codes are
checked end to end through ``main``.
"""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latent_ot
import latent_ot.harness.cli as cli
from latent_ot.cost_estimators import fast_kernel_block
from latent_ot.errors import ConfigError, InvalidParameterError, NumericFailureError
from latent_ot.harness import experiments
from latent_ot.harness.config import (
    ExperimentConfig,
    KernelSettings,
    apply_seed_override,
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
from latent_ot.latent_models import NonlocalKernel, graph_from_edgelist, sample_kernel_graph, sample_latents
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
    data["kernel"] = {"kind": "local", "c0": 2.0}
    config = config_from_dict(data)
    assert config.kernel is not None
    assert config.kernel.radius_at(100, 2) == pytest.approx(
        (2.0 * math.log(100) ** 2 / 100) ** 0.5
    )
    data = usvt_config_dict()
    data["kernel"]["rho_log_coefficient"] = 50.0
    del data["kernel"]["rho"]
    config = config_from_dict(data)
    assert config.kernel is not None
    assert config.kernel.rho_at(1000) == pytest.approx(50.0 * math.log(1000) / 1000)


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
    assert local.cost_map is not None and local.cost_map.kind == "identity"
    assert local.cost_map.domain[1] == pytest.approx(math.pi)
    spectral = config_from_dict(usvt_config_dict())
    assert spectral.cost_map is not None and spectral.cost_map.kind == "one_minus"


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
    data = usvt_config_dict()
    data["n"] = 4
    data["m"] = 4
    with pytest.raises(ConfigError, match="n \\+ m == N"):
        config_from_dict(data)
    data = usvt_config_dict()
    data["n"] = 8
    data["m"] = 16
    assert config_from_dict(data).sizes_at(24) == (8, 16)
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
    config = config_from_dict(usvt_config_dict())
    assert config.sizes_at(24) == (8, 16)
    assert config.sizes_at(300) == (100, 200)
    stability = config_from_dict(stability_config_dict())
    assert stability.sizes_at(4) == (4, 4)


def test_fast_pipeline_epsilon_is_pinned_to_sigma():
    config = config_from_dict(fast_config_dict())
    assert config.solver.epsilon == 0.5
    data = fast_config_dict()
    data["epsilon"] = 0.5
    assert config_from_dict(data).solver.epsilon == 0.5
    data["epsilon"] = 0.3
    with pytest.raises(ConfigError, match="sigma"):
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
        (local_config_dict, ("manifold",), {"kind": "circle", "radius": -1.0}, "config.manifold: radius"),
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


def test_seed_override():
    config = config_from_dict(stability_config_dict())
    assert apply_seed_override(config, {}) is config
    replaced = apply_seed_override(config, {"LATENT_OT_SEED": "99"})
    assert replaced.seeds == (99,)
    with pytest.raises(ConfigError):
        apply_seed_override(config, {"LATENT_OT_SEED": "pi"})
    with pytest.raises(ConfigError):
        apply_seed_override(config, {"LATENT_OT_SEED": str(2**64)})


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
    assert table.metrics() == ("err",)
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
COST_BLOCK_METRICS = REPORT_METRICS | {"cost_operator_err", "ot_error_normalized"}
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


def test_local_cell_reports_disconnection():
    data = local_config_dict()
    data["kernel"] = {"kind": "local", "h": 0.01}
    tables = run_experiment(config_from_dict(data))
    assert [r.metric for r in tables.results.rows] == ["failed_disconnected"]
    assert tables.results.rows[0].value == 1.0


_PEAK_RSS_SCRIPT = """
import json, resource, sys
from latent_ot.harness.config import config_from_dict
from latent_ot.harness.experiments import run_experiment
tables = run_experiment(config_from_dict(json.loads(sys.argv[1])))
print(json.dumps({
    "metrics": {r.metric: r.value for r in tables.results.rows},
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
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


_KERNEL_GRAPH_RSS_SCRIPT = """
import json, resource
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
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
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


def test_gamma_sweep_labels_each_threshold():
    tables = run_experiment(config_from_dict(sweep_config_dict()))
    estimators = {r.estimator for r in tables.results.rows}
    assert estimators == {"usvt@gamma=0.5", "usvt@gamma=1"}
    for estimator in estimators:
        assert metrics_of(tables.results, estimator) == USVT_METRICS


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


def test_fast_route_draws_the_cross_block_of_the_cell_graph(monkeypatch):
    boxed_kernels = []
    solve = experiments.dual_ascent_boxed

    def recording_solve(kernel, *args):
        boxed_kernels.append(kernel)
        return solve(kernel, *args)

    monkeypatch.setattr(experiments, "dual_ascent_boxed", recording_solve)
    for rho, m_ratio in ((1.0, 2.0), (0.7, 0.5)):
        data = fast_config_dict()
        data.update(grid=[30], seeds=[3], m_ratio=m_ratio)
        data["kernel"]["rho"] = rho
        config = config_from_dict(data)
        boxed_kernels.clear()
        run_experiment(config)
        _, graph = sample_cell(config, 30, 3)
        n, m = config.sizes_at(30)
        expected = fast_kernel_block(graph, rho, n, m)
        assert expected.shape == (n, m) and n != m
        assert 0 < np.count_nonzero(expected) < n * m
        assert len(boxed_kernels) == 1 and np.array_equal(boxed_kernels[0], expected)


def test_fast_route_rejects_edge_probabilities_above_one_and_rho_zero(monkeypatch):
    wide = fast_config_dict()
    wide["kernel"]["form"]["sigma"] = 100.0
    # every cross pair has w > 0.96 at this width
    monkeypatch.setattr(KernelSettings, "rho_at", lambda self, total: 1.5)
    with pytest.raises(InvalidParameterError, match="exceeds 1"):
        run_experiment(config_from_dict(wide))
    monkeypatch.setattr(KernelSettings, "rho_at", lambda self, total: 0.0)
    with pytest.raises(InvalidParameterError, match=r"rho must lie in \(0, 1\]"):
        run_experiment(config_from_dict(fast_config_dict()))


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
    path = write_config(tmp_path, stability_config_dict())
    monkeypatch.setenv("LATENT_OT_SEED", "99")
    out = tmp_path / "seeded"
    assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    table = parse_csv(out / "results.csv")
    assert {r.seed for r in table.rows} == {99}


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
    monkeypatch.setattr(cli, "run_property_suite", lambda **kw: failing)
    assert cli.main(["props", "--trials", "1", "--seed", "0"]) == 3
    assert "FAIL" in capsys.readouterr().out


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
    graph = graph_from_edgelist(out.read_text(encoding="utf-8"))

    # the first cell's streams, derived as documented: latents then graph
    config = config_from_dict(data)
    n, m = config.sizes_at(30)
    latents = sample_latents(config.manifold, config.density, n, m, 30, RngSeed(5).derive("latents", 30))
    model = NonlocalKernel(rho=1.0, form=config.kernel.form)
    assert graph == sample_kernel_graph(latents, model, RngSeed(5).derive("graph", 30))

    # and the run's kernel gap at that cell is measured against this graph
    block = graph.adjacency.toarray()[:n, n:]
    expected = np.linalg.norm(config.kernel.form.evaluate(latents.xs, latents.ys) - block) / math.sqrt(n * m)
    rows = run_experiment(config).results.rows
    (measured,) = [r.value for r in rows if r.seed == 5 and r.metric == "kernel_frobenius_normalized"]
    assert measured == pytest.approx(expected, rel=1e-10)


def test_cli_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The thread count is set only in each child's environment.  A usvt
    # cell takes two operator norms, of its kernel and its cost blocks.
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
