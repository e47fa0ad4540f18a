"""Cell-throughput benchmark for latent-ot.

Run from the root of a checkout:

    python3 perfbench/run.py --workload usvt_dense --seed 0 --seconds 30 --trace 0

Each workload is one experiment config at a fixed N whose cell seeds derive
from ``--seed``.  The config goes through the user's entry point,
``latent_ot.harness.cli.main(["run", ...])``, in a fresh interpreter
(``worker.py``) with one worker process, batch after batch for ``--seconds``.
Every batch's ``results.csv`` is checked (``verdict.py``) and compared
byte for byte with the first batch.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
cells per second, peak RSS, set-up time and the share of cells that passed.
The two timings are normalised by a host-speed reference measured during
the same seconds (``hostspeed.py``).
With ``--trace 1`` half the time runs untraced and half traced
(``spans.py``), and the last line reports the per-layer metrics.  Outputs,
spans and the run record go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import normalised_s  # noqa: E402
from spans import ABSENT, CLI_SPAN, LAYER_METRICS, Span, layer_metrics, solve_failures  # noqa: E402
from verdict import failed_cells  # noqa: E402

SPHERE_GAUSSIAN = {"kind": "nonlocal", "rho": 1.0, "form": {"kind": "gaussian_power", "p": 2, "sigma": 0.15}}


@dataclass(frozen=True)
class Workload:
    config: dict
    cells: int  # per batch; enough that the seed-to-seed variation of a cell's work averages out


# Route settings are those of the shipped configs; see README.md for why
# each workload exists.
WORKLOADS = {
    "usvt_dense": Workload(
        {
            "experiment": "usvt_nonlocal",
            "manifold": {"kind": "sphere"},
            "kernel": SPHERE_GAUSSIAN,
            "gamma": 1.0,
            "grid": [1600],
            "epsilon": 0.5,
        },
        cells=3,
    ),
    "fast_boxed": Workload(
        {
            "experiment": "fast_nonlocal",
            "manifold": {"kind": "sphere"},
            "kernel": SPHERE_GAUSSIAN,
            "grid": [1600],
            "eta": 1000000.0,
        },
        cells=2,
    ),
    "local_geodesic": Workload(
        {
            "experiment": "local_geodesic",
            "manifold": {"kind": "sphere"},
            "density": {"kind": "uniform"},
            "kernel": {"kind": "local", "c0": 2.0},
            "cost_map": {"kind": "identity"},
            "grid": [6000],
            "n": 20,
            "m": 20,
            "epsilon": 0.3141592653589793,
        },
        cells=2,
    ),
}

SETUP_PROBES = 6
# Host-speed metronome periods (hostspeed.py): set-up lasts under a second,
# so it is sampled more densely than a batch.
SETUP_PERIOD_S = 0.1
BATCH_PERIOD_S = 0.25
DEADLINE_S = 170.0
OUT_ROOT = ".perfbench-out"

END_TO_END_UNITS = {"cells_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s", "cell_pass_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark could not measure; it prints no result."""


def workload_config(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    first = seed * workload.cells
    return dict(workload.config, seeds=list(range(first, first + workload.cells)))


def percentile_summary(values: list[float]) -> dict:
    """Median and extremes of a sample, with its size."""
    ordered = sorted(values)
    return {"p50": statistics.median(ordered), "min": ordered[0], "max": ordered[-1], "samples": len(ordered)}


class Runner:
    """Launches worker interpreters within one overall deadline."""

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("LATENT_OT_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def worker(self, name: str, config: Path, *flags: str) -> dict:
        out = self.out_dir / name
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent before the workload finished")
        command = [sys.executable, str(HERE / "worker.py"), "--config", str(config), "--out-dir", str(out), *flags]
        with open(self.out_dir / f"{name}.log", "w", encoding="utf-8") as log:
            try:
                code = subprocess.run(
                    command + ["--launched", repr(time.monotonic())],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT, timeout=remaining,
                ).returncode
            except subprocess.TimeoutExpired:
                raise BenchError(f"{name} did not finish within the benchmark's {DEADLINE_S:.0f} s") from None
        report_path = out / ("probe.json" if "--probe" in flags else "worker.json")
        if code != 0 or not report_path.exists():
            tail = (self.out_dir / f"{name}.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{name} exited with code {code}:\n{tail}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        expected = (self.root / "src" / "latent_ot").resolve()
        if Path(report["package"]) != expected:
            raise BenchError(f"latent_ot was imported from {report['package']}, not from {expected}")
        return report


class Tally:
    """Cells attempted and failed, across every batch of one invocation.

    Every batch runs the same config, so every ``results.csv`` must equal the
    first one byte for byte.
    """

    def __init__(self, experiment: str):
        self.experiment = experiment
        self.attempted = 0
        self.failures: list[dict] = []
        self.reference: str | None = None

    def add_batch(self, batch: dict, cells: list, label: str, solves: list[dict] = ()) -> None:
        expected = [tuple(cell) for cell in cells]
        text = Path(batch["results"]).read_text(encoding="utf-8") if batch["results"] else None
        failed = failed_cells(self.experiment, expected, batch["exit_code"], text)
        if text is not None:
            if self.reference is None:
                self.reference = text
            elif text != self.reference:
                for cell in expected:
                    failed.setdefault(cell, []).append("results.csv differs from the first batch")
        for solve in solves:
            # A solve whose cell the trace could not name fails the whole batch.
            for cell in [solve["cell"]] if solve["cell"] in expected else expected:
                failed.setdefault(cell, []).append(
                    f"sinkhorn converged={solve['converged']} residual={solve['residual']:.3g}"
                    f" tolerance={solve['tolerance']:.3g}"
                )
        self.attempted += len(expected)
        for cell, reasons in failed.items():
            self.failures.append({"batch": label, "cell": list(cell), "reasons": reasons})

    def add_worker(self, report: dict, phase: str, solves_by_batch: dict | None = None) -> None:
        for index, batch in enumerate(report["batches"]):
            self.add_batch(batch, report["cells"], f"{phase}/{index}", (solves_by_batch or {}).get(index, ()))

    @property
    def failed(self) -> int:
        return len(self.failures)


def throughput(report: dict) -> list[float]:
    """Cells per second of each batch, in wall time."""
    cells = len(report["cells"])
    return [cells / batch["wall_s"] for batch in report["batches"]]


def normalised_throughput(report: dict) -> list[float]:
    """Cells per second of each batch, on the host-speed reference scale."""
    cells = len(report["cells"])
    return [cells / normalised_s(batch["wall_s"], **batch["reference"]) for batch in report["batches"]]


def normalised_setup(report: dict) -> float:
    return normalised_s(report["setup_s"], **report["setup_reference"])


def slice_ms(references: list[dict]) -> list[float]:
    return [1000.0 * ref["slices_s"] / ref["slices"] for ref in references]


def group_by_batch(spans: list[Span]) -> dict[int, list[dict]]:
    """Failed solves keyed by the position of their batch in the run."""
    batch_spans = [i for i, span in enumerate(spans) if span.name == CLI_SPAN]
    order = {span_index: position for position, span_index in enumerate(batch_spans)}
    out: dict[int, list[dict]] = {}
    for failure in solve_failures(spans):
        out.setdefault(order.get(failure["batch"], -1), []).append(failure)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    experiment = WORKLOADS[workload].config["experiment"]
    out_dir = root / OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    config = workload_config(workload, seed)
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    runner = Runner(root, out_dir)
    tally = Tally(experiment)
    record: dict = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "out_dir": str(out_dir.relative_to(root)),
    }

    if not trace:
        probe = ("--probe", "--setup-reference", repr(SETUP_PERIOD_S))
        runner.worker("warmup", config_path, *probe)  # compiles bytecode and warms the file cache; not counted
        setups = [runner.worker(f"probe{i}", config_path, *probe) for i in range(SETUP_PROBES)]
        plain = runner.worker(
            "plain", config_path, "--seconds", repr(seconds),
            "--reference", repr(BATCH_PERIOD_S), "--setup-reference", repr(SETUP_PERIOD_S),
        )
        setups.append(plain)
        tally.add_worker(plain, "plain")
        rates = normalised_throughput(plain)
        setup = [normalised_setup(report) for report in setups]
        metrics = {
            "cells_per_s": statistics.median(rates),
            "peak_rss_mb": plain["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "cell_pass_ratio": 1.0 - tally.failed / tally.attempted,
        }
        record["percentiles"] = {
            "cells_per_s": percentile_summary(rates),
            "cells_per_s_wall": percentile_summary(throughput(plain)),
            "setup_s": percentile_summary(setup),
            "setup_s_wall": percentile_summary([report["setup_s"] for report in setups]),
            "batch_wall_s": percentile_summary([b["wall_s"] for b in plain["batches"]]),
            "batch_slice_ms": percentile_summary(slice_ms([b["reference"] for b in plain["batches"]])),
            "setup_slice_ms": percentile_summary(slice_ms([report["setup_reference"] for report in setups])),
        }
    else:
        half = (config_path, "--seconds", repr(seconds / 2.0))
        plain = runner.worker("plain", *half)
        traced = runner.worker("traced", *half, "--trace")
        spans = [Span.from_json(s) for s in json.loads((out_dir / "traced" / "spans.json").read_text())]
        tally.add_worker(plain, "plain")
        tally.add_worker(traced, "traced", group_by_batch(spans))
        plain_rate = max(throughput(plain))
        traced_rate = max(throughput(traced))
        n, m = traced["sizes"]
        cells_traced = len(traced["cells"]) * len(traced["batches"])
        metrics = layer_metrics(spans, traced["absent"], cells_traced, n * m, plain_rate / traced_rate - 1.0)
        cells = [span.duration for span in spans if span.name == "harness.cell"]
        record["absent_entry_points"] = traced["absent"]
        record["percentiles"] = {
            "cells_per_s_untraced": percentile_summary(throughput(plain)),
            "cells_per_s_traced": percentile_summary(throughput(traced)),
            "harness.cell_s": percentile_summary(cells) if cells else ABSENT,
        }
    record.update(
        environment=plain["environment"],
        cells_per_batch=len(plain["cells"]),
        cell_seeds=[cell_seed for _total, cell_seed in plain["cells"]],
        N=plain["cells"][0][0],
        attempted=tally.attempted,
        failures=tally.failures,
    )
    units = LAYER_METRICS if trace else END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: metric_entry(value, units[name]) for name, value in metrics.items()},
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record, result


def metric_entry(value, unit: str) -> dict:
    # An absent entry point reads 0 here; the record and the
    # trace.absent_entry_points count say which ones were absent.
    return {"value": 0.0 if value == ABSENT else value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="latent-ot cell-throughput benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "latent_ot" / "__init__.py").is_file():
        print(f"error: no latent_ot sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "failures"}))
    for failure in record["failures"]:
        print("failed: " + json.dumps(failure))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
