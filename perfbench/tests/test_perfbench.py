"""Tests of the benchmark's own arithmetic, failure rules, tracer and metronome."""

import json
import signal
import time

import pytest

import hostspeed
import run
import spans
import verdict
import worker
from spans import ABSENT, Span, Target, Tracer, layer_metrics, self_times

HEADER = "experiment,seed,N,n,m,eps,estimator,metric,value\n"


def _table(experiment: str, estimator: str, rows: list[tuple[int, str, str]]) -> str:
    return HEADER + "".join(
        f"{experiment},{seed},100,30,70,0.5,{estimator},{metric},{value}\n" for seed, metric, value in rows
    )


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span("harness.cell", 0.0, 10.0),
        Span("latent_models.sample_kernel_graph", 1.0, 5.0, parent=0),
        Span("rng.uniforms", 2.0, 4.5, parent=1),
        Span("ot_core.stability_report", 6.0, 9.0, parent=0),
        Span("ot_core.sinkhorn", 6.5, 7.5, parent=3),
        Span("ot_core.sinkhorn", 7.5, 8.5, parent=3),
        Span("harness.cell", 11.0, 12.0),
    ]
    assert self_times(tree) == pytest.approx([3.0, 1.5, 2.5, 1.0, 1.0, 1.0, 1.0])

    metrics = layer_metrics(tree, [], cells=2, block_entries=2100, overhead_ratio=0.01)
    # Per cell: two cells were traced.
    assert metrics["harness.self_s"] == pytest.approx((3.0 + 1.0) / 2)
    assert metrics["rng.uniforms.self_s"] == pytest.approx(2.5 / 2)
    assert metrics["ot_core.sinkhorn.calls"] == pytest.approx(1.0)
    assert metrics["harness.cell_s_p50"] == pytest.approx(5.5)
    assert set(metrics) == set(spans.LAYER_METRICS)


def test_classifier_flags_disconnected_broken_bounds_and_nan():
    rows = [
        (0, "all_bounds_hold", "1"),
        (0, "ot_value_true", "0.5"),
        (0, "ot_value_est", "0.51"),
        (0, "ot_error_normalized", "0.02"),
        (1, "failed_disconnected", "1"),
        (2, "all_bounds_hold", "0"),
        (2, "ot_value_true", "0.5"),
        (2, "ot_value_est", "0.51"),
        (2, "ot_error_normalized", "0.02"),
        (3, "all_bounds_hold", "1"),
        (3, "ot_value_true", "nan"),
        (3, "ot_value_est", "0.51"),
        (3, "ot_error_normalized", "inf"),
    ]
    text = _table("local_geodesic", "shortest_path", rows)
    expected = [(100, seed) for seed in range(5)]
    failed = verdict.failed_cells("local_geodesic", expected, 0, text)
    assert set(failed) == {(100, 1), (100, 2), (100, 3), (100, 4)}
    assert failed[(100, 1)] == ["failed_disconnected"]
    assert failed[(100, 2)] == ["all_bounds_hold=0 (shortest_path)"]
    assert len(failed[(100, 3)]) == 2
    assert failed[(100, 4)] == ["no rows"]

    assert set(verdict.failed_cells("local_geodesic", expected, 2, text)) == set(expected)


def test_classifier_applies_the_fast_route_tolerance():
    over = verdict.FAST_OT_ERROR_TOLERANCE * 2
    rows = [(s, m, v) for s, err in ((0, 0.005), (1, over)) for m, v in (
        ("ot_value_true", "1.0"), ("ot_value_est", "1.0"), ("ot_error_normalized", repr(err)),
    )]
    text = _table("fast_nonlocal", "fast_adjacency", rows)
    assert set(verdict.failed_cells("fast_nonlocal", [(100, 0), (100, 1)], 0, text)) == {(100, 1)}


def test_tally_fails_a_batch_whose_rows_differ(tmp_path):
    good = _table("fast_nonlocal", "fast_adjacency", [
        (s, m, "1.0") for s in (0, 1) for m in ("ot_value_true", "ot_value_est")
    ] + [(0, "ot_error_normalized", "0.001"), (1, "ot_error_normalized", "0.001")])
    changed = good.replace("0.001", "0.002", 1)
    paths = []
    for name, text in (("a", good), ("b", good), ("c", changed)):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(text)
    cells = [[100, 0], [100, 1]]
    tally = run.Tally("fast_nonlocal")
    for path in paths:
        tally.add_batch({"exit_code": 0, "results": str(path)}, cells, path.stem)
    assert tally.attempted == 6
    assert [f["batch"] for f in tally.failures] == ["c", "c"]


def test_one_sweep_solves_show_as_unconverged_and_fail_their_cell(tmp_path):
    config = {
        "experiment": "usvt_nonlocal",
        "manifold": {"kind": "sphere"},
        "kernel": {"kind": "nonlocal", "rho": 1.0, "form": {"kind": "gaussian_power", "p": 2, "sigma": 0.5}},
        "grid": [60],
        "seeds": [0],
        "epsilon": 0.5,
        "solver": {"max_iterations": 1},
    }
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "traced"
    argv = ["--config", str(config_path), "--out-dir", str(out), "--launched", repr(time.monotonic()), "--min-batches", "1", "--trace"]
    assert worker.main(argv) == 0

    report = json.loads((out / "worker.json").read_text())
    traced = [Span.from_json(s) for s in json.loads((out / "spans.json").read_text())]
    metrics = layer_metrics(traced, report["absent"], 1, 30 * 30, 0.0)
    assert metrics["ot_core.sinkhorn.unconverged"] > 0
    assert metrics["ot_core.sinkhorn.iterations"] == 2

    tally = run.Tally("usvt_nonlocal")
    tally.add_worker(report, "traced", run.group_by_batch(traced))
    assert tally.failed == 1
    assert any("converged=False" in reason for reason in tally.failures[0]["reasons"])


def test_tracer_restores_every_entry_point():
    import latent_ot.harness.experiments as experiments
    import latent_ot.ot_core as ot_core
    from latent_ot.rng import Xoshiro256StarStar

    before = (ot_core.sinkhorn, experiments.sinkhorn, experiments.eps_graph, vars(Xoshiro256StarStar)["uniforms"])
    with Tracer():
        assert ot_core.sinkhorn is not before[0]
        assert experiments.sinkhorn is ot_core.sinkhorn
    after = (ot_core.sinkhorn, experiments.sinkhorn, experiments.eps_graph, vars(Xoshiro256StarStar)["uniforms"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_entry_points_are_reported_absent():
    targets = (
        Target("latent_ot.ot_core", "dual_ascent_boxed_v2", "ot_core.dual_ascent_boxed"),
        Target("latent_ot.rng", "Philox.uniforms", "rng.uniforms"),
        Target("latent_ot.no_such_module", "solve", "ot_core.sinkhorn"),
    )
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["ot_core.dual_ascent_boxed", "rng.uniforms", "ot_core.sinkhorn"]

    metrics = layer_metrics([Span("harness.cell", 0.0, 1.0)], tracer.absent, 1, 100, 0.0)
    for name in ("ot_core.dual_ascent_boxed.self_s", "ot_core.dual_ascent_boxed.pinned_fraction",
                 "rng.uniforms.ns_per_draw", "ot_core.sinkhorn.unconverged"):
        assert metrics[name] == ABSENT
    assert metrics["latent_models.eps_graph.self_s"] == 0.0
    assert run.metric_entry(metrics["rng.uniforms.self_s"], "s") == {"value": 0.0, "unit": "s"}


def test_normalised_time_drops_the_slices_and_rescales_to_the_nominal_slice():
    # 10 s of wall time holding 40 slices of 20 ms: 9.2 s of work on a host
    # on which a slice is 1.25 times slower than nominal.
    assert hostspeed.normalised_s(10.0, 40, 0.8) == pytest.approx(9.2 * hostspeed.NOMINAL_SLICE_S / 0.02)
    batch = {"wall_s": 10.0, "reference": {"slices": 40, "slices_s": 0.8}}
    assert run.normalised_throughput({"cells": [[1600, 0], [1600, 1]], "batches": [batch]}) == pytest.approx(
        [2 / hostspeed.normalised_s(10.0, 40, 0.8)]
    )


def test_metronome_ticks_while_on_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    metronome = hostspeed.Metronome()
    began = time.perf_counter()
    metronome.start(0.01)
    while time.perf_counter() - began < 0.2:
        sum(range(1000))
    measured = metronome.stop()
    wall = time.perf_counter() - began
    assert measured["slices"] >= 2  # the one run at start, then at least one tick
    assert 0.0 < measured["slices_s"] < wall
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
