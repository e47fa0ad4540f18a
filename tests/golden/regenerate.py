"""Regenerate the golden result tables of every config.

Run from anywhere:

    python tests/golden/regenerate.py              # every table and digest
    python tests/golden/regenerate.py NAME...      # the named tables and digests

Each config under ``configs/`` and ``configs/ci/`` runs in-process at one
worker, from the source tree of this checkout, and its result rows are
written to ``tests/golden/<config>.csv`` in the ``results.csv`` format.
The two largest configs run at their first three seeds only.  A change
that means to move rows regenerates these files; the diff of the golden
files is then the list of moved rows.  ``tests/test_golden.py`` compares a
fresh run of each config against its file.  Name the configs a change
means to move: a table written on another CPU or numpy build moves the
Sinkhorn iteration and residual rows of configs the change did not touch.
An unknown name exits with status 2 and writes nothing.

It also writes the named configs' lines of ``tests/golden/graph_digests.txt``
and leaves every other line as it was: the sha256 of the edge list
(:func:`~latent_ot.latent_models.graph_to_edgelist`) of one observed graph
per config that builds one, at its largest grid N and first seed.  The
result tables see a Bernoulli graph only through values compared to 1e-9
relative; the digests pin its edges byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent

# The two largest configs run at their first few seeds, to keep tier-1 short.
SEED_LIMITS = {"fast_sphere": 3, "usvt_sphere": 3}

GRAPH_DIGESTS = GOLDEN / "graph_digests.txt"

if __name__ == "__main__":
    # As a script, write the tables from this checkout's source tree.
    sys.path.insert(0, str(ROOT / "src"))

from latent_ot.harness.config import ExperimentConfig, load_config  # noqa: E402
from latent_ot.harness.experiments import run_experiment, sample_cell  # noqa: E402
from latent_ot.harness.results import ResultTable, emit_csv  # noqa: E402
from latent_ot.latent_models import graph_to_edgelist  # noqa: E402


def config_paths() -> dict[str, Path]:
    """Each config's file by name: the shipped configs, then CI's."""
    return {path.stem: path for path in sorted(CONFIGS.glob("*.json")) + sorted(CONFIGS.glob("ci/*.json"))}


def config_names() -> list[str]:
    return list(config_paths())


def golden_config(name: str) -> ExperimentConfig:
    """The config ``name``, cut to the seeds its golden file holds."""
    config = load_config(config_paths()[name])
    limit = SEED_LIMITS.get(name)
    return config if limit is None else dataclasses.replace(config, seeds=config.seeds[:limit])


def golden_results(name: str) -> ResultTable:
    return run_experiment(golden_config(name), workers=1).results


def recorded(path: Path) -> dict[str, str]:
    """What each config's line of ``path`` holds after the config's name."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines)


def write_recorded(path: Path, entries: dict[str, str]) -> None:
    """One ``name entry`` line per config of ``entries``, in config order."""
    lines = [f"{name} {entries[name]}\n" for name in config_names() if name in entries]
    path.write_text("".join(lines), encoding="utf-8")


def graph_cells() -> list[tuple[str, ExperimentConfig, int, int]]:
    """(name, config, N, seed) of each graph the digest file covers."""
    configs = [(name, load_config(path)) for name, path in config_paths().items()]
    return [(name, config, max(config.grid), config.seeds[0]) for name, config in configs if config.manifold]


def graph_digest(config: ExperimentConfig, total: int, seed: int) -> str:
    """The sha256 of the edge list of the (N, seed) cell's observed graph."""
    _, graph = sample_cell(config, total, seed)
    return hashlib.sha256(graph_to_edgelist(graph).encode("utf-8")).hexdigest()


def main(names: list[str]) -> int:
    """Write the named tables and digests, or every one if none is named."""
    unknown = sorted(set(names) - set(config_names()))
    if unknown:
        print(f"unknown config {', '.join(unknown)}; known: {', '.join(config_names())}", file=sys.stderr)
        return 2
    names = names or config_names()
    for name in names:
        path = GOLDEN / f"{name}.csv"
        emit_csv(golden_results(name), path)
        print(f"wrote {path.relative_to(ROOT)}")
    digests = {name: line for name, line in recorded(GRAPH_DIGESTS).items() if name not in names}
    for name, config, total, seed in graph_cells():
        if name in names:
            digests[name] = f"{total} {seed} {graph_digest(config, total, seed)}"
    write_recorded(GRAPH_DIGESTS, digests)
    print(f"wrote {GRAPH_DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
