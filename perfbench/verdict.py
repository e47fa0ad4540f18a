"""Which cells of a ``latent-ot run`` output count as failed.

A cell is one (N, seed) pair.  It fails when its rows in ``results.csv``
show any of:

* a ``failed_disconnected`` row;
* ``all_bounds_hold`` other than 1 on the usvt and local routes;
* a non-finite ``ot_value_*`` or ``ot_error_*``;
* on the adjacency route, ``ot_error_normalized`` above
  :data:`FAST_OT_ERROR_TOLERANCE`;
* no rows at all, or missing the metrics its route always reports.

A run whose CLI exit code is not 0, or whose ``results.csv`` differs from
the first run of the same config, fails every cell it was asked for.
"""

from __future__ import annotations

import csv
import io
import math

# Largest fast-route ot_error_normalized accepted for one cell at N=1600.
# Before any optimisation, cells at N=1600 with seeds 0-23 read between
# 0.0050 and 0.0105.  The tolerance, about twice the largest, leaves room
# for seeds outside that sample and still catches a solve that stops far
# from the optimum.
FAST_OT_ERROR_TOLERANCE = 0.02

BOUNDED_EXPERIMENTS = ("local_geodesic", "usvt_nonlocal")
REQUIRED_METRICS = {
    "local_geodesic": ("all_bounds_hold", "ot_value_true", "ot_value_est", "ot_error_normalized"),
    "usvt_nonlocal": ("all_bounds_hold", "ot_value_true", "ot_value_est", "ot_error_normalized"),
    "fast_nonlocal": ("ot_value_true", "ot_value_est", "ot_error_normalized"),
}


def parse_results(text: str) -> dict[tuple[int, int], list[dict]]:
    """Rows of a results table grouped by cell (N, seed)."""
    cells: dict[tuple[int, int], list[dict]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        cells.setdefault((int(row["N"]), int(row["seed"])), []).append(row)
    return cells


def cell_problems(experiment: str, rows: list[dict]) -> list[str]:
    """Reasons one cell's rows count as a failure (empty when it passed)."""
    problems = []
    values = {}
    for row in rows:
        value = float(row["value"])
        values.setdefault(row["metric"], []).append(value)
        metric = row["metric"]
        if metric == "failed_disconnected":
            problems.append("failed_disconnected")
        elif metric.startswith(("ot_value_", "ot_error_")) and not math.isfinite(value):
            problems.append(f"non-finite {metric} ({row['estimator']})")
        elif metric == "all_bounds_hold" and experiment in BOUNDED_EXPERIMENTS and value != 1.0:
            problems.append(f"all_bounds_hold={value:g} ({row['estimator']})")
        elif metric == "ot_error_normalized" and experiment == "fast_nonlocal" and value > FAST_OT_ERROR_TOLERANCE:
            problems.append(f"ot_error_normalized={value:g} above {FAST_OT_ERROR_TOLERANCE:g}")
    if "failed_disconnected" not in values:
        for metric in REQUIRED_METRICS.get(experiment, ()):
            if metric not in values:
                problems.append(f"missing {metric}")
    return problems


def failed_cells(
    experiment: str, expected: list[tuple[int, int]], exit_code: int, text: str | None
) -> dict[tuple[int, int], list[str]]:
    """Failed cells of one CLI run, each with its reasons.

    ``expected`` lists the (N, seed) cells the run was asked for; ``text`` is
    its ``results.csv`` (None if the file was not written).
    """
    if exit_code != 0 or text is None:
        reason = f"cli exit code {exit_code}" if exit_code != 0 else "no results.csv"
        return {cell: [reason] for cell in expected}
    cells = parse_results(text)
    out = {}
    for cell in expected:
        problems = cell_problems(experiment, cells[cell]) if cell in cells else ["no rows"]
        if problems:
            out[cell] = problems
    return out

