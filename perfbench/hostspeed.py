"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed changes from
second to second: the same one-cell batch took 4.3 s in one minute and 8.1 s
in the next, with no steal time and CPU time equal to wall time.  A wall time
alone therefore measures the neighbours as much as the program.

A :class:`Metronome` measures the host during the very seconds the program
runs.  While it is on, a ``SIGALRM`` handler runs one fixed reference slice
(pure-Python integer mixing, like the package's scalar random-number draws,
and numpy exponentials, logs and a matrix-vector product on a 533 x 1067
block, like its solvers) every ``period`` seconds and times it.  Python runs
the handler between two bytecodes of the main thread, so slices land all
through the program's run without touching its data.  A timing is then
reported on the host's reference scale::

    normalised_s = (wall_s - slices_s) * NOMINAL_SLICE_S / mean slice time

that is, the time the program would have taken on a host on which one slice
takes ``NOMINAL_SLICE_S``.  On this benchmark's workloads the spread of the
per-batch time (interquartile range / median) drops from 0.17-0.25 in wall
time to 0.03-0.06 normalised.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# One slice's time on an unloaded 2-vCPU Intel Xeon host (Python 3.11,
# numpy 2.4).  It only sets the scale of the reported numbers.
NOMINAL_SLICE_S = 0.016

_MASK = 0xFFFFFFFFFFFFFFFF
_SCALAR_STEPS = 8000
_BLOCK_SWEEPS = 2


class Metronome:
    """Runs and times reference slices on ``SIGALRM`` while switched on."""

    def __init__(self):
        generator = np.random.default_rng(0)
        self._block = generator.random((533, 1067))
        self._vector = generator.random(1067)
        # Preallocated, so a slice allocates nothing: the metronome adds a
        # constant 9 MB to the worker's peak RSS instead of a varying amount.
        self._work = np.zeros_like(self._block)
        self.slices = 0
        self.slices_s = 0.0
        self._busy = False
        self._previous = None

    def reference_slice(self) -> float:
        """A fixed amount of work; the return value keeps it from being skipped."""
        s0, s1, s2, s3 = 1, 2, 3, 4
        total = 0.0
        for _ in range(_SCALAR_STEPS):
            word = (((((s1 * 5) & _MASK) << 7) | (((s1 * 5) & _MASK) >> 57)) * 9) & _MASK
            shifted = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= shifted
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
            total += (word >> 11) * 2.0**-53
        work = self._work
        for _ in range(_BLOCK_SWEEPS):
            np.multiply(self._block, -1.0 / 0.15, out=work)
            np.exp(work, out=work)
            total += float((work @ self._vector).sum())
            np.log1p(work, out=work)
            total += float(work.sum())
        return total

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return  # a slice outlasted the period; Python would nest the handler
        self._busy = True
        began = time.perf_counter()
        self.reference_slice()
        self.slices_s += time.perf_counter() - began
        self.slices += 1
        self._busy = False

    def start(self, period: float) -> None:
        """Runs one slice at once, so every timing holds at least one, then one per ``period`` s."""
        self.slices = 0
        self.slices_s = 0.0
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> dict:
        """Switches the metronome off; returns what it measured since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return {"slices": self.slices, "slices_s": self.slices_s}


def normalised_s(wall_s: float, slices: int, slices_s: float) -> float:
    """``wall_s`` minus the slices in it, on the host's reference scale."""
    if slices < 1:
        raise ValueError("no reference slice ran; the timing cannot be normalised")
    return (wall_s - slices_s) * NOMINAL_SLICE_S / (slices_s / slices)
