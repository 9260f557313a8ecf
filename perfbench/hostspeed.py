"""How fast the shared host runs right now, gauged by a fixed reference kernel.

The benchmark's host is a couple of cores of a machine shared with other
tenants.  Their load slows this process down -- in user time, not by
stealing the core -- by up to 2.5x, in spells from under a second to
minutes, far more than a change worth catching.  So the benchmark times
the program against a reference kernel that never changes with it: a
pure-Python loop, a loop of small-array numpy operations (the simulator's
batch-engine mix) and random gathers from a 16 MB table (cache and memory
pressure).  A host time is reported in *reference seconds*, the seconds it
would have taken at the host speed where the kernel takes its nominal
time::

    reference seconds = host seconds * nominal kernel time / kernel time now

``Gauge`` does this inside a timed run: a timer interrupts the program
every ``INTERVAL_S`` of host time and runs one short slice of the kernel,
and each stretch of program time is scaled by the slice that follows it,
so the gauge follows spells shorter than a run.  ``kernel_s`` times one
whole pass, for what cannot be interrupted (a child process).  The kernel
runs with the garbage collector off and allocates no Python containers, so
what the program leaves behind cannot change its cost.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from typing import Iterator

import numpy as np

#: Host seconds of one slice on a quiet 2-vCPU Intel Xeon VM.
SLICE_NOMINAL_S = 0.0015
#: Slices in one whole kernel pass (``kernel_s``).
PASS_SLICES = 60
#: Host seconds of program between two slices inside a ``Gauge``.
INTERVAL_S = 0.025

_LANES = np.arange(144, dtype=float) / 144.0
_TABLE = np.arange(4_000_000, dtype=np.float32)
_GATHER = np.random.default_rng(0).permutation(_TABLE.size)[:50_000].astype(np.int32)


def _slice() -> float:
    total = 0
    for i in range(4_000):
        total += i * i % 7
    x = _LANES
    for _ in range(100):
        y = np.exp(-x) * 0.5 + x
        x = np.minimum(np.where(y > 0.7, y, 0.0) + _LANES, 1.0)
    return total + float(x[0]) + float(_TABLE[_GATHER].sum())


def _timed_slices(count: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(count):
            _slice()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def kernel_s() -> float:
    """Host seconds one whole pass of the reference kernel takes now."""
    return _timed_slices(PASS_SLICES)


def scaled(measured_s: float, kernel: float) -> float:
    """``measured_s`` host seconds, beside a ``kernel_s()`` of ``kernel``,
    in reference seconds."""
    return measured_s * PASS_SLICES * SLICE_NOMINAL_S / kernel


class Gauge:
    """Reference seconds of the program run inside ``with gauge.running()``.

    The program's host seconds exclude the slices; ``host_s``,
    ``stretches`` and ``slices`` keep the raw figures.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.reference_s = 0.0
        self.stretches: list[float] = []
        self.slices: list[float] = []
        self._resumed = 0.0

    def _account(self) -> None:
        stretch = time.perf_counter() - self._resumed
        spent = _timed_slices(1)
        self.host_s += stretch
        self.reference_s += stretch * SLICE_NOMINAL_S / spent
        self.stretches.append(stretch)
        self.slices.append(spent)
        self._resumed = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        self._account()

    @contextlib.contextmanager
    def running(self) -> Iterator["Gauge"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._account()  # the last stretch, scaled by a slice timed now
