"""Regenerate the golden result tables of the shipped configs.

Run from anywhere:

    python tests/golden/regenerate.py              # every table and the digests
    python tests/golden/regenerate.py NAME...      # only the named tables

Each config under ``configs/`` runs in-process at one worker, from the
source tree of this checkout, and its result rows are written to
``tests/golden/<config>.csv`` in the ``results.csv`` format.  The two
largest configs run at their first three seeds only.  A change that means
to move rows regenerates these files; the diff of the golden files is then
the list of moved rows.  ``tests/test_golden.py`` compares a fresh run of
each config against its file.  Name the configs a change means to move:
on some hosts a full regeneration moves the last digits of other configs'
solver residual rows, which would then show up in the diff too.  An
unknown name exits with status 2 and writes nothing.

Without names it also writes ``tests/golden/graph_digests.txt``: the sha256
of the edge list (:func:`~latent_ot.latent_models.graph_to_edgelist`) of one
observed graph per config that builds one, at its largest grid N and first
seed, and of the CI workflow's ``fast_groups`` graph at N = 1200, whose
rho < 1.  The result tables see a Bernoulli graph only through values
compared to 1e-9 relative; the digests pin its edges byte for byte.
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
# The CI workflow's fast_groups config: fixed groups n = m = 40 in graphs at
# a c log N / N sparsity.
FAST_GROUPS = {
    "experiment": "fast_nonlocal",
    "grid": [600, 1200],
    "seeds": [0, 1],
    "manifold": {"kind": "sphere"},
    "kernel": {
        "kind": "nonlocal",
        "rho_log_coefficient": 2.0,
        "form": {"kind": "gaussian_power", "p": 2, "sigma": 1.0},
    },
    "n": 40,
    "m": 40,
}

if __name__ == "__main__":
    # As a script, write the tables from this checkout's source tree.
    sys.path.insert(0, str(ROOT / "src"))

from latent_ot.harness.config import ExperimentConfig, config_from_dict, load_config  # noqa: E402
from latent_ot.harness.experiments import run_experiment, sample_cell  # noqa: E402
from latent_ot.harness.results import ResultTable, emit_csv  # noqa: E402
from latent_ot.latent_models import graph_to_edgelist  # noqa: E402


def config_names() -> list[str]:
    return sorted(path.stem for path in CONFIGS.glob("*.json"))


def golden_config(name: str) -> ExperimentConfig:
    """The shipped config ``name``, cut to the seeds its golden file holds."""
    config = load_config(CONFIGS / f"{name}.json")
    limit = SEED_LIMITS.get(name)
    return config if limit is None else dataclasses.replace(config, seeds=config.seeds[:limit])


def golden_results(name: str) -> ResultTable:
    return run_experiment(golden_config(name), workers=1).results


def graph_cells() -> list[tuple[str, ExperimentConfig, int, int]]:
    """(name, config, N, seed) of each graph the digest file covers."""
    configs = [(name, load_config(CONFIGS / f"{name}.json")) for name in config_names()]
    configs.append(("fast_groups", config_from_dict(FAST_GROUPS)))
    return [(name, config, max(config.grid), config.seeds[0]) for name, config in configs if config.manifold]


def graph_digest(config: ExperimentConfig, total: int, seed: int) -> str:
    """The sha256 of the edge list of the (N, seed) cell's observed graph."""
    _, graph = sample_cell(config, total, seed)
    return hashlib.sha256(graph_to_edgelist(graph).encode("utf-8")).hexdigest()


def main(names: list[str]) -> int:
    """Write the named tables, or every table and the digests if none is named."""
    unknown = sorted(set(names) - set(config_names()))
    if unknown:
        print(f"unknown config {', '.join(unknown)}; known: {', '.join(config_names())}", file=sys.stderr)
        return 2
    for name in names or config_names():
        path = GOLDEN / f"{name}.csv"
        emit_csv(golden_results(name), path)
        print(f"wrote {path.relative_to(ROOT)}")
    if names:
        return 0
    cells = graph_cells()
    lines = [f"{name} {total} {seed} {graph_digest(config, total, seed)}\n" for name, config, total, seed in cells]
    GRAPH_DIGESTS.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {GRAPH_DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
