"""Regression compare: metric directions and baseline-vs-current reports.

Shared by ``repro obs diff`` (:func:`repro.obs.registry.diff_runs`) and
the trend rules in :mod:`repro.obs.health`:

* :func:`metric_direction` — lower-better for times/bytes, higher-better
  for objectives/speedups, informational otherwise;
* :func:`compare` — flags every directed metric that worsened beyond a
  relative tolerance, as a :class:`CompareReport`.

Payloads are ``{"name", "directions", "rows": [{"key", "metrics"}]}``
dicts.  Wall-time benchmarking lives in ``perfbench/`` and
:mod:`repro.bench.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Default regression tolerance: flag changes worse than 10%.
DEFAULT_TOLERANCE = 0.10

_LOWER_SUFFIXES = (
    "_seconds",
    "_time",
    "_bytes",
    "_slowdown",
    "_retries",
    "_overhead",
)
_HIGHER_SUFFIXES = ("objective", "modularity", "speedup", "quality", "f1")


def metric_direction(name: str) -> str:
    """``"lower"`` / ``"higher"`` (better) or ``"info"`` (never compared)."""
    if name.endswith(_LOWER_SUFFIXES) or name in ("slowdown", "sim_time"):
        return "lower"
    if name.endswith(_HIGHER_SUFFIXES):
        return "higher"
    return "info"


@dataclass
class Regression:
    """One metric that got worse than the tolerance allows."""

    key: str
    metric: str
    baseline: float
    current: float
    change: float  # signed relative change, positive = worse

    def describe(self) -> str:
        return (
            f"{self.key} :: {self.metric}: {self.baseline:g} -> "
            f"{self.current:g} ({self.change:+.1%} worse)"
        )


@dataclass
class CompareReport:
    """Outcome of :func:`compare` (empty ``regressions`` = pass)."""

    suite: str
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        lines = [
            f"compare[{self.suite}]: {self.compared} metrics compared, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        ]
        for regression in self.regressions:
            lines.append(f"  REGRESSION {regression.describe()}")
        for note in self.improvements:
            lines.append(f"  improved   {note}")
        for note in self.skipped:
            lines.append(f"  skipped    {note}")
        return "\n".join(lines)


def _relative_worsening(direction: str, baseline: float, current: float) -> float:
    """Signed relative change where positive means *worse*."""
    scale = max(abs(baseline), 1e-12)
    delta = (current - baseline) / scale
    return delta if direction == "lower" else -delta


def compare(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CompareReport:
    """Flag every comparable metric that regressed beyond ``tolerance``.

    Only metrics with a lower/higher-better direction participate;
    informational metrics (counts, sizes) never fail a compare.  Rows or
    metrics present in the baseline but missing from the current run are
    reported in ``skipped`` so silent coverage loss is visible.
    """
    report = CompareReport(suite=baseline.get("name", "?"))
    directions = dict(baseline.get("directions") or {})
    current_rows = {row["key"]: row for row in current.get("rows", [])}
    for row in baseline.get("rows", []):
        key = row["key"]
        other = current_rows.get(key)
        if other is None:
            report.skipped.append(f"{key}: row missing from current run")
            continue
        for metric, base_value in row.get("metrics", {}).items():
            direction = directions.get(metric) or metric_direction(metric)
            if direction == "info":
                continue
            if metric not in other.get("metrics", {}):
                report.skipped.append(
                    f"{key} :: {metric}: metric missing from current run"
                )
                continue
            cur_value = float(other["metrics"][metric])
            report.compared += 1
            worsening = _relative_worsening(
                direction, float(base_value), cur_value
            )
            if worsening > tolerance:
                report.regressions.append(
                    Regression(
                        key=key,
                        metric=metric,
                        baseline=float(base_value),
                        current=cur_value,
                        change=worsening,
                    )
                )
            elif worsening < -tolerance:
                report.improvements.append(
                    f"{key} :: {metric}: {base_value:g} -> {cur_value:g} "
                    f"({-worsening:+.1%} better)"
                )
    return report
