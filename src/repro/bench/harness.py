"""Shared experiment-harness utilities for the figure/table benches.

Benches print the same *rows/series* the paper's figures plot (per
DESIGN.md §4); :class:`ExperimentTable` renders them alignment-stable for
``bench_output.txt``.  Simulated speedups come from the cost ledgers;
wall-clock comes from :func:`time_callable` (warmup + best-of-repeats).
End-to-end wall-time trajectories live in ``perfbench/``, not here.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


#: Optional context-manager factory installed by benchmarks/conftest.py
#: (pytest's capfd.disabled) so tables bypass pytest's fd-level capture.
_capture_disabler = None


def set_capture_disabler(factory) -> None:
    """Install (or clear, with None) a capture-disabling context factory."""
    global _capture_disabler
    _capture_disabler = factory


def bench_print(text: str) -> None:
    """Print to the *real* stdout, bypassing pytest's capture.

    Benchmark tables must land in ``bench_output.txt`` (the suite is run
    as ``pytest benchmarks/ --benchmark-only | tee ...``), and pytest
    captures prints of passing tests at the file-descriptor level.
    ``benchmarks/conftest.py`` installs capfd's disabler here.
    """
    if _capture_disabler is not None:
        with _capture_disabler():
            print(text, flush=True)
        return
    stream = getattr(sys, "__stdout__", None) or sys.stdout
    stream.write(text + "\n")
    stream.flush()


def bench_scale() -> float:
    """Global workload scale for benches.

    Set ``REPRO_BENCH_SCALE`` (e.g. ``2.0`` for a heavier run, ``0.25``
    for a quick smoke) — the default keeps the full suite laptop-sized.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_repeats(default: int = 3) -> int:
    """Number of seeds to average stochastic measurements over.

    The paper averages 10 runs; benches default to 3 for turnaround and
    honour ``REPRO_BENCH_REPEATS``; values below 1 raise ``ValueError``.
    """
    return _checked_repeats(
        int(os.environ.get("REPRO_BENCH_REPEATS", str(default)))
    )


def _checked_repeats(repeats: Optional[int]) -> int:
    reps = bench_repeats() if repeats is None else repeats
    if reps < 1:
        raise ValueError(f"repeats must be >= 1, got {reps}")
    return reps


def averaged(fn: Callable[[int], float], repeats: int | None = None) -> float:
    """Mean of ``fn(seed)`` over ``repeats`` seeds."""
    reps = _checked_repeats(repeats)
    values = [fn(seed) for seed in range(reps)]
    return sum(values) / len(values)


@dataclass
class TimingStats:
    """Wall-clock samples from :func:`time_callable`."""

    runs: List[float]

    @property
    def best(self) -> float:
        return min(self.runs)

    @property
    def mean(self) -> float:
        return sum(self.runs) / len(self.runs)

    @property
    def repeats(self) -> int:
        return len(self.runs)


def time_callable(
    fn: Callable[[], object],
    repeats: Optional[int] = None,
    warmup: int = 0,
) -> Tuple[object, TimingStats]:
    """Run ``fn`` ``warmup + repeats`` times; keep per-repeat wall times.

    Returns ``(last_result, stats)`` — the *best* (minimum) time is the
    standard low-noise estimator benches should report.
    """
    reps = _checked_repeats(repeats)
    result = None
    for _ in range(warmup):
        fn()
    runs: List[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - start)
    return result, TimingStats(runs=runs)


def speedup(baseline_seconds: float, subject_seconds: float) -> float:
    """``baseline / subject`` guarded against zero denominators."""
    if subject_seconds <= 0:
        return math.inf
    return baseline_seconds / subject_seconds


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class ExperimentTable:
    """A fixed-column text table printed into the bench output.

    Example::

        table = ExperimentTable("Figure 4", ["graph", "lambda", "speedup"])
        table.add_row("amazon", 0.01, 12.3)
        table.emit()
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.001:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-" * len(header)
        lines = [f"== {self.title} ==", header, rule]
        for row in self.rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def emit(self) -> None:
        """Print the table to the uncaptured stdout (tee'd bench logs)."""
        bench_print("\n" + self.render() + "\n")


def series_summary(label: str, pairs: Iterable[tuple]) -> str:
    """Compact 'x=y' series line for figure-style data."""
    body = ", ".join(f"{x:g}:{ExperimentTable._fmt(y)}" for x, y in pairs)
    return f"{label}: {body}"
