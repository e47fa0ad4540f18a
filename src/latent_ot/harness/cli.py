"""Command-line entry point.

Subcommands: ``run`` executes an experiment config and writes the result and
timing tables, ``props`` runs the randomized property suite, ``plot`` renders
one metric of a results file to SVG, and ``gen`` samples a single graph and
writes its edge list (which no subcommand reads back).  ``run`` creates its
output directories before the first cell runs.

Exit codes: 0 success, 1 invalid configuration or arguments, or an output
path that cannot be written, 2 numeric failure (including an ARPACK error),
3 property-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, InvalidParameterError, LatentOtError
from ..latent_models import graph_to_edgelist
from .config import load_config
from .experiments import ExperimentTables, run_experiment, sample_cell
from .results import emit_csv, parse_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_PROPERTIES = 3


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so bad arguments map to exit code 1."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="latent-ot", description="Transport estimation between node groups of latent-space graphs.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = commands.add_parser("run", help="run an experiment config and write CSV tables")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--out-dir", required=True, help="directory for the output tables")
    run.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")

    props = commands.add_parser("props", help="run the randomized property suite")
    props.add_argument("--trials", type=int, required=True, help="trials per check")
    props.add_argument("--seed", type=int, required=True, help="base seed for the suite")

    plot = commands.add_parser("plot", help="render one metric of a results CSV to SVG")
    plot.add_argument("--csv", required=True, help="path to a results CSV")
    plot.add_argument("--metric", required=True, help="metric name to plot")
    plot.add_argument("--out", required=True, help="output SVG path")

    gen = commands.add_parser("gen", help="sample one graph from a config and write its edge list")
    gen.add_argument("--config", required=True, help="path to a JSON experiment config")
    gen.add_argument("--out", required=True, help="output edge list path")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir)
    results_path = out_dir / config.output.results
    timings_path = out_dir / config.output.timings
    # An output path that cannot be written fails before any cell runs.
    for path in (results_path, timings_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    tables = run_experiment(config, workers=args.workers)
    emit_csv(tables.results, results_path)
    emit_csv(tables.timings, timings_path)
    cells = len(config.grid) * len(config.seeds)
    total_seconds = sum(row.value for row in tables.timings.rows if row.metric == "wall_seconds")
    unconverged = sum(
        1 for row in tables.results.rows if row.metric.startswith("solver_converged_") and row.value == 0.0
    )
    print(
        f"wrote {results_path} ({len(tables.results)} rows) and {timings_path} "
        f"({cells} cells, {total_seconds:.1f}s, {unconverged} unconverged solves)"
    )
    print(_run_summary(cells, unconverged, tables), file=sys.stderr)
    return EXIT_OK


def _run_summary(cells: int, unconverged: int, tables: ExperimentTables) -> str:
    """One line: cells, unconverged solves, disconnected cells and the stage
    with the largest summed seconds."""
    disconnected = sum(1 for row in tables.results.rows if row.metric == "failed_disconnected")
    stage_seconds: dict[str, float] = {}
    for row in tables.timings.rows:
        if row.metric.startswith("stage_"):
            stage = row.metric.removeprefix("stage_").removesuffix("_seconds")
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + row.value
    slowest = max(stage_seconds, key=stage_seconds.__getitem__)
    return (
        f"summary: {cells} cells, {unconverged} unconverged solves, {disconnected} failed_disconnected cells, "
        f"slowest stage {slowest} ({stage_seconds[slowest]:.1f}s)"
    )


def _cmd_props(args) -> int:
    from .properties import run_property_suite

    report = run_property_suite(trials=args.trials, seed=args.seed)
    for line in report.format_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_PROPERTIES


def _cmd_plot(args) -> int:
    from .plots import emit_plot

    table = parse_csv(args.csv)
    emit_plot(table, args.metric, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    config = load_config(args.config)
    if config.experiment == "stability_suite":
        raise ConfigError("the stability suite has no graph to generate")
    _, graph = sample_cell(config, config.grid[0], config.seeds[0])
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(graph_to_edgelist(graph))
    print(f"wrote {out} ({graph.node_count} nodes, {graph.edge_count} edges)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "props":
            return _cmd_props(args)
        if args.command == "plot":
            return _cmd_plot(args)
        return _cmd_gen(args)
    except (ConfigError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LatentOtError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
