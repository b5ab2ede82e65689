"""Host speed, measured next to the work.

The benchmark host shares its cores with other tenants.  Its speed moves
by up to 2x over tens of seconds, the same for every kind of work, and the
guest sees no steal time (NOTES.md has the measurements).  A run therefore
times a fixed reference just before and just after each pass and scales
the pass's times by nominal / reference, so that runs made while the host
is slow and runs made while it is fast report the same number for the same
code.  The references never touch the package, so a change to the package
moves the scaled times exactly as it moves the raw ones.

Two references: a pure-Python exact elimination for work done in this
process, and a bare `python -c pass` for work done in fresh processes
(the cli ops), whose cost is process start rather than bytecode.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import subprocess
import sys
from time import perf_counter

# Medians of the references on the host the benchmark was defined on
# (2-vCPU x86-64 VM, Python 3.11.7) while it ran at full speed.
LOOP_NOMINAL_S = 0.0033
SPAWN_NOMINAL_S = 0.05
TICK_S = 1.0

_rng = random.Random(5)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]


def _eliminate() -> int:
    """Fraction-free elimination on a fixed 10x10 integer matrix, thirty
    times over rotated columns: list building and big-int row arithmetic,
    the same kind of work as the package's HNF."""
    m = _MATRIX
    digits = 0
    for _ in range(30):
        a = [row[:] for row in m]
        for k in range(9):
            for i in range(k + 1, 10):
                a[i] = [a[k][k] * x - a[i][k] * y for x, y in zip(a[i], a[k])]
        digits += len(str(a[9][9]))
        m = [row[1:] + row[:1] for row in m]
    return digits


def loop_timings(count: int = 5) -> list[float]:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        _eliminate()
        times.append(perf_counter() - t0)
    return times


def spawn_timings(count: int = 3) -> list[float]:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - t0)
    return times


@contextlib.contextmanager
def ticking(samples: list[float]):
    """Time the loop reference every TICK_S seconds from a SIGALRM
    handler while the block runs, so that a long op is scaled by the host
    speed during it, not only at its ends.  Each tick adds about 0.3 % to
    the time it lands in, the same on every commit."""
    def tick(signum, frame):
        samples.extend(loop_timings(1))

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def run_scaled(kind: str, fn):
    """Call fn between reference timings (and, for in-process work, with
    ticks during it); return fn's result and nominal / median reference
    time, the factor that scales fn's times to nominal host speed."""
    if kind == "spawn":
        samples = spawn_timings()
        result = fn()
        samples += spawn_timings()
        return result, SPAWN_NOMINAL_S / statistics.median(samples)
    samples = loop_timings()
    with ticking(samples):
        result = fn()
    samples += loop_timings()
    return result, LOOP_NOMINAL_S / statistics.median(samples)
