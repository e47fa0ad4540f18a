"""Regenerate the golden result tables of the shipped configs.

Run from anywhere:

    python tests/golden/regenerate.py

Each config under ``configs/`` runs in-process at one worker, from the
source tree of this checkout, and its result rows are written to
``tests/golden/<config>.csv`` in the ``results.csv`` format.  The two
largest configs run at their first three seeds only.  A change that means
to move rows regenerates these files; the diff of the golden files is then
the list of moved rows.  ``tests/test_golden.py`` compares a fresh run of
each config against its file.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent

# The two largest configs run at their first few seeds, to keep tier-1 short.
SEED_LIMITS = {"fast_sphere": 3, "usvt_sphere": 3}

if __name__ == "__main__":
    # As a script, write the tables from this checkout's source tree.
    sys.path.insert(0, str(ROOT / "src"))

from latent_ot.harness.config import ExperimentConfig, load_config  # noqa: E402
from latent_ot.harness.experiments import run_experiment  # noqa: E402
from latent_ot.harness.results import ResultTable, emit_csv  # noqa: E402


def config_names() -> list[str]:
    return sorted(path.stem for path in CONFIGS.glob("*.json"))


def golden_config(name: str) -> ExperimentConfig:
    """The shipped config ``name``, cut to the seeds its golden file holds."""
    config = load_config(CONFIGS / f"{name}.json")
    limit = SEED_LIMITS.get(name)
    return config if limit is None else dataclasses.replace(config, seeds=config.seeds[:limit])


def golden_results(name: str) -> ResultTable:
    return run_experiment(golden_config(name), workers=1).results


def main() -> None:
    for name in config_names():
        path = GOLDEN / f"{name}.csv"
        emit_csv(golden_results(name), path)
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
