"""Host-speed calibration: timings at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed drifts with
the neighbours' load: the same request can take twice as long a few
seconds later, and whole minutes run fast or slow.  Between operations,
outside the timed region, the benchmark times a fixed reference job
that belongs to the benchmark, not to the program: a short run of
``Fraction`` sums and 1024-bit modular exponentiations, the two kinds of
work the program does most (the exact-rational solvers and the OT
layer).  Each operation's time is then scaled by ``REF_MS`` over the
job's time measured around it, on the same clock.  A change to the
program moves the scaled times; a change in the host's speed moves the
job too and cancels out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# 2**1024 - 105 is prime; the exponent has 256 bits, as OT exponents do.
MODULUS = (1 << 1024) - 105
EXPONENT = (1 << 256) - 189
REPS = 3
EVERY_S = 0.25
# About the job's median time, wall and CPU clock alike, on the 2-vCPU
# Xeon virtual machine of the README's baseline, so that scaled times
# read as milliseconds on that host.
REF_MS = 1.7


def reference_job() -> None:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    pow(3, EXPONENT, MODULUS)


def sample() -> tuple[float, float]:
    """(wall ms, CPU ms) of the reference job, medians of ``REPS`` runs."""
    walls, cpus = [], []
    for _ in range(REPS):
        c0, t0 = time.process_time(), time.perf_counter()
        reference_job()
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append((t1 - t0) * 1e3)
        cpus.append((c1 - c0) * 1e3)
    return statistics.median(walls), statistics.median(cpus)


class Calibration:
    """Samples of the reference job, each taken before a numbered item.

    ``before(i)`` samples ahead of item ``i`` when ``EVERY_S`` has passed
    since the last sample; ``close(n)`` samples after the last item.  An
    item's scale is ``REF_MS`` over the mean of the samples on each
    side of it.
    """

    def __init__(self) -> None:
        self.at: list[int] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._last = float("-inf")

    def before(self, index: int, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= EVERY_S:
            wall, cpu = sample()
            self.at.append(index)
            self.wall.append(wall)
            self.cpu.append(cpu)
            self._last = time.perf_counter()

    def close(self, count: int) -> None:
        self.before(count, force=True)

    def scales(self, index: int) -> tuple[float, float]:
        """(wall scale, CPU scale) for item ``index``."""
        hi = bisect.bisect_right(self.at, index)
        lo = hi - 1
        wall = (self.wall[lo] + self.wall[hi]) / 2
        cpu = (self.cpu[lo] + self.cpu[hi]) / 2
        return REF_MS / wall, REF_MS / max(cpu, 1e-3)

    def summary(self) -> dict:
        return {
            "ref_ms": REF_MS,
            "samples": len(self.wall),
            "wall_ms": {"median": statistics.median(self.wall),
                        "min": min(self.wall), "max": max(self.wall)},
            "cpu_ms": {"median": statistics.median(self.cpu),
                       "min": min(self.cpu), "max": max(self.cpu)},
        }
