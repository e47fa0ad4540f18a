"""Golden results: each config, run in-process, against its committed table.

The tables in ``tests/golden/`` were written by ``tests/golden/regenerate.py``
from the configs under ``configs/`` and ``configs/ci/``.  Row keys must
match exactly, and so must the integer and flag rows; every other value
must match to 1e-9 relative, where the last of the twelve printed digits
may move.  The check has been run on one numpy and scipy build (numpy 2.4,
scipy 1.17) under the OpenBLAS kernel sets SkylakeX, Haswell, Sandybridge
and Prescott; it is not known to hold under another numpy build, whose SIMD
``exp`` and ``log`` may round differently.

Dense Sinkhorn stops once its marginal residual reaches the tolerance, so
its sweep count and final residual follow the rounding path of the
OpenBLAS kernel set (``openblas_get_corename``) the process runs on.  On
the kernel set a table was recorded under, every row is checked.  On any
other, a solve whose golden and fresh residuals both lie within twice the
config's ``marginal_tolerance`` met the stop on both: its residual row
passes and its iteration row is not pinned.  Every other row keeps its
check, ``solver_converged_*`` and the boxed solves' rows included.

The observed graphs must match their committed sha256 digests exactly: one
graph per config that builds one.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from latent_ot.harness.results import parse_csv

_GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

_EXACT_PREFIXES = ("solver_iterations_", "solver_converged_")
_EXACT_METRICS = {"usvt_rank", "graph_edges", "failed_disconnected", "all_bounds_hold"}
_RELATIVE_TOLERANCE = 1e-9
# A residual within this multiple of the marginal tolerance met the stop.
_STOP_SLACK = 2.0
_CORE = regenerate.openblas_core()


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
    stopped = set()
    if regenerate.recorded_cores()[name] != _CORE:
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
    (golden / "openblas_cores.txt").write_bytes(regenerate.OPENBLAS_CORES.read_bytes())
    monkeypatch.setattr(regenerate, "ROOT", tmp_path)
    monkeypatch.setattr(regenerate, "GOLDEN", golden)
    monkeypatch.setattr(regenerate, "GRAPH_DIGESTS", golden / "graph_digests.txt")
    monkeypatch.setattr(regenerate, "OPENBLAS_CORES", golden / "openblas_cores.txt")
    assert regenerate.main(["quick_local"]) == 0
    expected = list(lines)
    expected[index["fast_sparse"]] = stale[index["fast_sparse"]]
    assert (golden / "graph_digests.txt").read_text(encoding="utf-8") == "".join(expected)
