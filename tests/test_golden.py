"""Golden results: each config, run in-process, against its committed table.

The tables in ``tests/golden/`` were written by ``tests/golden/regenerate.py``
from the configs under ``configs/`` and ``configs/ci/``.  Row keys must
match exactly, and so must the integer and flag rows; every other value
must match to 1e-9 relative, where the last of the twelve printed digits
may move.

Dense Sinkhorn stops once its marginal residual reaches the tolerance, so
its sweep count and final residual follow the rounding path: the OpenBLAS
kernel set and numpy's SIMD dispatch (``exp``, ``log``) of the process.
One rule holds on every host: a solve whose golden and fresh residuals
both lie within twice the config's ``marginal_tolerance`` met the stop on
both sides, so its residual row passes and its iteration row is not
pinned.  Every other row keeps its check, ``solver_converged_*`` and the
boxed solves' rows included (their residuals are above 1e-7, so they
never qualify).  The rule has been run on one numpy and scipy build
(numpy 2.4, scipy 1.17) under the OpenBLAS kernel sets SkylakeX, Haswell,
Sandybridge and Prescott, and with numpy's dispatch cut to ``X86_V3`` and
to its ``X86_V2`` baseline (``NPY_DISABLE_CPU_FEATURES``).

The observed graphs must match their committed sha256 digests exactly: one
graph per config that builds one.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from latent_ot.harness.results import ResultRow, parse_csv

_GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

_EXACT_PREFIXES = ("solver_iterations_", "solver_converged_")
_EXACT_METRICS = {"usvt_rank", "graph_edges", "failed_disconnected", "all_bounds_hold"}
_RELATIVE_TOLERANCE = 1e-9
# A residual within this multiple of the marginal tolerance met the stop.
_STOP_SLACK = 2.0


def _is_exact(metric: str) -> bool:
    return metric in _EXACT_METRICS or metric.startswith(_EXACT_PREFIXES)


def _key(row) -> tuple:
    return (row.experiment, row.seed, row.total, row.n, row.m, row.eps, row.estimator, row.metric)


def _stopped_solves(fresh, golden, tolerance: float) -> set[tuple]:
    """Keys of the iteration and residual rows of each solve whose fresh and
    golden residuals both met the stop."""
    stop = _STOP_SLACK * tolerance
    keys = set()
    for row, want in zip(fresh, golden):
        if row.metric.startswith("solver_marginal_residual_") and max(row.value, want.value) <= stop:
            side = row.metric.removeprefix("solver_marginal_residual_")
            cell = _key(row)[:-1]
            keys |= {cell + (row.metric,), cell + (f"solver_iterations_{side}",)}
    return keys


@pytest.mark.parametrize("name", regenerate.config_names())
def test_results_match_golden(name):
    golden = parse_csv(_GOLDEN / f"{name}.csv").rows
    fresh = regenerate.golden_results(name).rows
    assert [_key(row) for row in fresh] == [_key(row) for row in golden]
    stopped = _stopped_solves(fresh, golden, regenerate.golden_config(name).solver.marginal_tolerance)
    moved = []
    for row, want in zip(fresh, golden):
        if _key(row) in stopped:
            continue
        if _is_exact(row.metric):
            same = row.value == want.value
        else:
            same = math.isclose(row.value, want.value, rel_tol=_RELATIVE_TOLERANCE, abs_tol=0.0)
        if not same:
            moved.append(f"{_key(row)}: {row.value!r} != golden {want.value!r}")
    assert not moved, f"{len(moved)} rows moved:\n" + "\n".join(moved[:20])


def _cell(true_residual: float, est_residual: float) -> list[ResultRow]:
    """A hand-built boxed-route cell: its solver rows and a ``kl_plans`` row."""
    values = {
        "kl_plans": 6.29336131e-07,
        "solver_converged_est": 1.0,
        "solver_converged_true": 1.0,
        "solver_iterations_est": 63.0,
        "solver_iterations_true": 26.0,
        "solver_marginal_residual_est": est_residual,
        "solver_marginal_residual_true": true_residual,
    }
    return [ResultRow("fast_nonlocal", 0, 150, 50, 100, 0.5, "fast_adjacency", *item) for item in values.items()]


def _exempt(fresh: list[ResultRow], golden: list[ResultRow]) -> set[str]:
    """The metrics of the rows that the stop rule exempts, at tolerance 1e-9."""
    return {key[-1] for key in _stopped_solves(fresh, golden, 1e-9)}


def test_stopped_solves_exempts_the_residual_and_iteration_rows_of_a_side_within_the_stop_on_both():
    fresh, golden = _cell(2e-9, 3e-9), _cell(1.4e-10, 1e-12)
    true_rows = {"solver_marginal_residual_true", "solver_iterations_true"}
    assert _stopped_solves(fresh, golden, 1e-9) == {_key(row) for row in fresh if row.metric in true_rows}
    both = true_rows | {"solver_marginal_residual_est", "solver_iterations_est"}
    assert _exempt(_cell(0.0, 2e-9), _cell(1e-12, 1.9e-9)) == both


def test_stopped_solves_exempts_nothing_when_one_residual_is_above_the_stop():
    # The true side's fresh residual and the est side's golden one are above 2e-9.
    assert _exempt(_cell(2.1e-9, 1e-10), _cell(1e-10, 2.1e-9)) == set()


def test_stopped_solves_never_exempts_a_boxed_solve_residual():
    # 1.09e-7 is the smallest boxed-solve residual in any table (fast_sparse, N = 150, seed 0).
    boxed = 1.0857291575e-07
    assert _exempt(_cell(1e-10, boxed), _cell(1e-10, boxed)) == {"solver_marginal_residual_true", "solver_iterations_true"}


def test_stopped_solves_never_exempts_a_converged_row():
    residuals = (0.0, 1e-10, 2e-9, 2.1e-9, 1e-7)
    for fresh in residuals:
        for golden in residuals:
            exempt = _exempt(_cell(fresh, golden), _cell(golden, fresh))
            assert not any(metric.startswith("solver_converged_") for metric in exempt)


_GRAPH_CELLS = regenerate.graph_cells()


@pytest.mark.parametrize("cell", _GRAPH_CELLS, ids=[name for name, *_ in _GRAPH_CELLS])
def test_graph_matches_golden_digest(cell):
    name, config, total, seed = cell
    lines = regenerate.GRAPH_DIGESTS.read_text(encoding="utf-8").splitlines()
    golden = dict(line.rsplit(" ", 1) for line in lines)
    assert regenerate.graph_digest(config, total, seed) == golden[f"{name} {total} {seed}"]


def test_regenerate_rejects_an_unknown_name_before_writing(capsys):
    known = regenerate.GOLDEN / "quick_local.csv"
    written = known.stat().st_mtime_ns
    assert regenerate.main(["quick_local", "no_such_config"]) == 2
    assert "no_such_config" in capsys.readouterr().err
    assert known.stat().st_mtime_ns == written
    assert not (regenerate.GOLDEN / "no_such_config.csv").exists()


def test_regenerate_rewrites_the_digest_lines_of_the_named_configs_alone(tmp_path, monkeypatch):
    # Two stale digests: the named config's line is rewritten, the other
    # stale line and every line of a config not named keep their bytes.
    lines = regenerate.GRAPH_DIGESTS.read_text(encoding="utf-8").splitlines(keepends=True)
    index = {line.split(" ", 1)[0]: at for at, line in enumerate(lines)}
    stale = list(lines)
    for name in ("quick_local", "fast_sparse"):
        line = lines[index[name]]
        stale[index[name]] = line[: line.rindex(" ") + 1] + "0" * 64 + "\n"
    golden = tmp_path / "tests" / "golden"
    golden.mkdir(parents=True)
    (golden / "graph_digests.txt").write_text("".join(stale), encoding="utf-8")
    monkeypatch.setattr(regenerate, "ROOT", tmp_path)
    monkeypatch.setattr(regenerate, "GOLDEN", golden)
    monkeypatch.setattr(regenerate, "GRAPH_DIGESTS", golden / "graph_digests.txt")
    assert regenerate.main(["quick_local"]) == 0
    expected = list(lines)
    expected[index["fast_sparse"]] = stale[index["fast_sparse"]]
    assert (golden / "graph_digests.txt").read_text(encoding="utf-8") == "".join(expected)
