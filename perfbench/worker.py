"""One fresh interpreter running one workload through ``latent-ot run``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the package, loads the workload config (that much is
the set-up time), then calls ``latent_ot.harness.cli.main(["run", ...])``
batch after batch, at least ``--min-batches`` times and then while the next
batch should still end within the time budget, and writes what it saw to
``<out-dir>/worker.json``.  With ``--trace`` the calls are traced and the
spans go to ``<out-dir>/spans.json``.  With ``--setup-reference PERIOD``
a host-speed metronome (``hostspeed.py``) runs a reference slice every
PERIOD seconds during set-up, and with ``--reference PERIOD`` during each
batch; the report says how many slices ran in each and how long they took.
With ``--probe`` it stops after set-up.

    python3 perfbench/worker.py --config CFG --out-dir DIR --seconds S \\
        --launched MONOTONIC [--min-batches K] [--setup-reference PERIOD] \\
        [--reference PERIOD] [--trace] [--probe]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return "unknown"


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() when the parent launched us")
    parser.add_argument("--min-batches", type=int, default=2)
    parser.add_argument("--setup-reference", type=float, default=0.0, help="set-up metronome period (s); 0: none")
    parser.add_argument("--reference", type=float, default=0.0, help="batch metronome period (s); 0: none")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    metronome = None
    if args.setup_reference > 0 or args.reference > 0:
        from hostspeed import Metronome

        metronome = Metronome()
    if args.setup_reference > 0:
        metronome.start(args.setup_reference)

    from latent_ot.harness import cli
    from latent_ot.harness.config import load_config

    config = load_config(args.config)
    setup_reference = metronome.stop() if args.setup_reference > 0 else None
    setup_s = time.monotonic() - args.launched
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "setup_s": setup_s,
        "setup_reference": setup_reference,
        "package": str(Path(cli.__file__).resolve().parents[1]),
    }
    if args.probe:
        (out_dir / "probe.json").write_text(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from spans import CLI_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    def batch(batch_dir: Path) -> dict:
        span = tracer.open(CLI_SPAN) if tracer else None
        began = time.perf_counter()
        if args.reference > 0:
            metronome.start(args.reference)  # its first slice runs now, inside the batch's wall time
        try:
            code = cli.main(["run", "--config", args.config, "--out-dir", str(batch_dir), "--workers", "1"])
        except Exception:
            # A crash fails the batch's cells; the traceback goes to the worker log.
            traceback.print_exc()
            code = -1
        reference = metronome.stop() if args.reference > 0 else None
        wall = time.perf_counter() - began
        if tracer:
            tracer.close(span)
        results = batch_dir / config.output.results
        return {
            "exit_code": code,
            "wall_s": wall,
            "reference": reference,
            "results": str(results) if results.exists() else None,
        }

    batches = []
    start = time.perf_counter()
    try:
        # Past the minimum, start another batch only if it should end within the budget.
        while len(batches) < args.min_batches or time.perf_counter() - start + batches[-1]["wall_s"] <= args.seconds:
            batches.append(batch(out_dir / f"batch{len(batches)}"))
    finally:
        if tracer:
            tracer.uninstall()

    report.update(
        batches=batches,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cells=[[total, seed] for total in config.grid for seed in config.seeds],
        sizes=list(config.sizes_at(config.grid[0])),
        environment=environment(),
    )
    if tracer:
        report["absent"] = tracer.absent
        (out_dir / "spans.json").write_text(json.dumps([span.to_json() for span in tracer.spans]))
    (out_dir / "worker.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
