"""Benchmark plumbing; the timing-trend claims live in the acceptance suite."""

import pytest

from blindbargain import bench
from blindbargain.bench import (
    GRID,
    BenchCell,
    format_table,
    monotone_over_grid,
    run_benchmark,
)


def test_grid_order_matches_report_layout():
    assert GRID == ((8, 8), (8, 16), (8, 32), (16, 8), (16, 16), (16, 32))


def test_small_benchmark_runs():
    cells = run_benchmark(reps=1, warmup=0, grid=[(8, 8), (8, 16)])
    assert [(c.k_theta, c.k) for c in cells] == [(8, 8), (8, 16)]
    assert all(c.median_ms > 0 for c in cells)
    assert all(len(c.times_ms) == 1 for c in cells)
    with pytest.raises(ValueError):
        run_benchmark(reps=0)


def test_negative_warmup_is_refused(monkeypatch):
    # a negative warmup used to shorten the timed reps, or leave none
    timed = []
    monkeypatch.setattr(bench, "time_one_session", lambda *args: timed.append(args) or 1.0)
    for reps, warmup in ((5, -1), (3, -5)):
        with pytest.raises(ValueError, match="warmup"):
            run_benchmark(reps=reps, warmup=warmup, grid=[(8, 8)])
    assert timed == []
    assert len(run_benchmark(reps=5, warmup=0, grid=[(8, 8)])[0].times_ms) == 5


def test_format_table_layout():
    cells = [BenchCell(8, 8, 18.96, (18.96,)), BenchCell(8, 16, 32.5, (32.5,))]
    lines = format_table(cells).splitlines()
    assert lines[0].split() == ["k_theta", "k", "time_ms"]
    assert lines[1].split() == ["8", "8", "18.96"]
    assert len(lines) == 3


def test_monotone_check_is_coordinatewise():
    good = [
        BenchCell(8, 8, 10.0, ()), BenchCell(8, 16, 20.0, ()),
        BenchCell(8, 32, 30.0, ()), BenchCell(16, 8, 25.0, ()),
        BenchCell(16, 16, 26.0, ()), BenchCell(16, 32, 40.0, ()),
    ]
    # (8,32) vs (16,8) are incomparable; 30 > 25 must not trip it
    assert monotone_over_grid(good)
    bad = [BenchCell(8, 8, 10.0, ()), BenchCell(16, 8, 5.0, ())]
    assert not monotone_over_grid(bad)
