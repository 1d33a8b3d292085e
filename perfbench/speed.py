"""Wall time at a reference CPU speed.

A CPU of a shared host does not run at one speed: on a 2-vCPU virtual
machine, a fixed pure-Python loop on one CPU took 40% longer for spells
of a fraction of a second to several seconds, while the other CPU of the
same machine stayed fast.  A program's wall time then
moves with the host more than with the program.  ``SpeedClock`` times a
region and, every ``PERIOD_S`` seconds of it, interrupts the region's
own thread (``SIGALRM``) to run ``probe``, a fixed piece of work of the
kind the program does (integer arithmetic, ``gcd``, dict updates).
Each stretch of the region between two probes is rescaled by the CPU
speed the two probes saw, relative to ``NOMINAL_PROBE_S``; the probes'
own time is left out.  The result, ``ref_s``, is the region's wall time
on a CPU that always runs at the reference speed.  ``raw_s`` is the
plain wall time without the probes.

The probe never calls the program, so a change to the program moves
``ref_s`` as much as it moves the wall time.  The handler runs between
bytecodes: during one long call into C no probe runs, and that stretch
is rescaled by the probes on either side of it.
"""

from __future__ import annotations

import signal
from math import gcd
from time import perf_counter
from typing import List, Tuple

PERIOD_S = 0.1
PROBE_REPEATS = 3
# Median ``probe()`` time on the reference hardware (2 vCPUs, Python 3.11).
NOMINAL_PROBE_S = 0.0013


def _probe_once() -> int:
    # Integer, gcd and dict work on ints only: nothing the cyclic garbage
    # collector tracks is allocated, so the probe neither triggers nor
    # pays for a collection of the program's heap.
    table = {}
    acc = 1
    for i in range(1, 3000):
        n = acc * 3 + i
        d = gcd(n, i * 6)
        table[i * 8 + (n // d) % 8] = n % 1_000_003
        acc = n % 999_983
    return len(table)


def probe() -> float:
    """Median time of a few runs of the fixed probe work, in seconds; the
    median ignores a run that another process preempted."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        _probe_once()
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def rescale(start: float, end: float, probes: List[Tuple[float, float, float]]) -> Tuple[float, float]:
    """``(raw_s, ref_s)`` of the region ``[start, end]`` from its probes.

    ``probes`` holds ``(begin, elapsed, probe_s)`` per probe in time
    order: the first one ran just before ``start``, the last one just
    after ``end``, the rest inside the region.  A stretch between two
    probes counts at the mean of the two speed factors
    ``NOMINAL_PROBE_S / probe_s``.
    """
    if len(probes) < 2:
        raise ValueError("a region needs a probe before and after it")
    raw = ref = 0.0
    left = start
    for before, after in zip(probes, probes[1:]):
        right = end if after is probes[-1] else after[0]
        stretch = max(0.0, right - left)
        factor = (NOMINAL_PROBE_S / before[2] + NOMINAL_PROBE_S / after[2]) / 2
        raw += stretch
        ref += stretch * factor
        left = after[0] + after[1]
    return raw, ref


class SpeedClock:
    """Context manager that times its body; read ``raw_s`` and ``ref_s``
    after it exits.  Only for the main thread of a process that uses no
    other ``SIGALRM`` timer."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.probes: List[Tuple[float, float, float]] = []
        self.raw_s = self.ref_s = 0.0

    def _record(self) -> None:
        t0 = perf_counter()
        p = probe()
        self.probes.append((t0, perf_counter() - t0, p))

    def _on_alarm(self, signum, frame) -> None:
        self._record()

    def __enter__(self) -> "SpeedClock":
        self.probes = []
        self._record()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._record()
        self.raw_s, self.ref_s = rescale(self._start, end, self.probes)
