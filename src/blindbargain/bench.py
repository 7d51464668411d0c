"""Loopback timing of the full settlement protocol.

Runs both parties in threads over 127.0.0.1 for every bit-width pair in
the standard grid and reports the median wall-clock time per session,
laid out as one row per (k_theta, k) cell.  Medians over a handful of
repetitions are stable enough to expose the expected growth with width;
absolute numbers are hardware-bound and not comparable across machines.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mechanism import p_bar_for
from .protocol import PiProfile, loopback_run

GRID = tuple((k_theta, k) for k_theta in (8, 16) for k in (8, 16, 32))

Q = Fraction(1, 4)


@dataclass(frozen=True)
class BenchCell:
    k_theta: int
    k: int
    median_ms: float
    times_ms: tuple[float, ...]


def time_one_session(pi: PiProfile, theta_v: int, theta_a: int, seed_tag: bytes) -> float:
    """Wall-clock milliseconds for one complete loopback settlement."""
    start = time.perf_counter()
    loopback_run(pi, theta_v, theta_a, b"v" + seed_tag, b"a" + seed_tag)
    return (time.perf_counter() - start) * 1000.0


def run_benchmark(
    reps: int = 7,
    warmup: int = 1,
    grid: Sequence[tuple[int, int]] = GRID,
) -> list[BenchCell]:
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    cells = []
    for k_theta, k in grid:
        pi = PiProfile(Q, p_bar_for(Q), k, k_theta, 0)
        # mid-range reports; timing is input-independent by construction
        theta_v = (1 << k_theta) * 3 // 4
        theta_a = (1 << k_theta) // 5
        times = []
        for rep in range(warmup + reps):
            tag = b"%d/%d/%d" % (k_theta, k, rep)
            elapsed = time_one_session(pi, theta_v, theta_a, tag)
            if rep >= warmup:
                times.append(elapsed)
        cells.append(BenchCell(k_theta, k, statistics.median(times), tuple(times)))
    return cells


def format_table(cells: Sequence[BenchCell]) -> str:
    lines = ["k_theta  k    time_ms"]
    for cell in cells:
        lines.append(f"{cell.k_theta:<8d} {cell.k:<4d} {cell.median_ms:.2f}")
    return "\n".join(lines)


def monotone_over_grid(cells: Sequence[BenchCell]) -> bool:
    """Median non-decreasing in each width, the other held fixed."""
    by_pair = {(c.k_theta, c.k): c.median_ms for c in cells}
    for (k_theta, k), ms in by_pair.items():
        for other_kt, other_k in by_pair:
            if other_kt >= k_theta and other_k >= k:
                if by_pair[(other_kt, other_k)] < ms:
                    return False
    return True
