"""Cross-run regression registry: ``benchmarks/runs.jsonl``.

An append-only JSONL file of run records — one line per registered
clustering run — so regressions are caught *across* invocations, not just
within one process.  Each record carries the comparable metrics (wall
seconds, simulated seconds, the F objective, modularity) plus enough
workload identity (graph, engine, resolution, seed, workers) to know
when two runs are comparable at all.

:func:`diff_runs` reuses the :func:`repro.obs.bench.compare` gate, run
twice with different tolerances: timing metrics at the standard 10% and
quality metrics at 0.1% — a wall-clock wobble is noise, an objective
drop is a bug.

The CLI surface is ``repro cluster --register runs.jsonl [--run-id ID]``
to append and ``repro obs report`` / ``repro obs diff`` to read back.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import List, Optional

from repro.obs.bench import CompareReport, compare

RUNS_SCHEMA = "repro.obs.runs/v1"

#: Relative worsening on wall/simulated seconds that flags a regression.
WALL_TOLERANCE = 0.10

#: Relative worsening on objective/modularity that flags a regression.
OBJECTIVE_TOLERANCE = 0.001

#: Metrics compared at :data:`WALL_TOLERANCE` (lower is better).
TIMING_METRICS = ("wall_seconds", "sim_time_seconds")

#: Metrics compared at :data:`OBJECTIVE_TOLERANCE` (higher is better).
QUALITY_METRICS = ("f_objective", "modularity")

_REQUIRED_KEYS = ("schema", "run_id", "timestamp", "workload", "metrics")


class RunRegistryError(Exception):
    """A runs.jsonl record or lookup failed validation."""


def validate_run_record(record: dict) -> List[str]:
    """Schema problems in one run record (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    for key in _REQUIRED_KEYS:
        if key not in record:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if record["schema"] != RUNS_SCHEMA:
        problems.append(f"unsupported schema {record['schema']!r}")
    if not isinstance(record["run_id"], str) or not record["run_id"]:
        problems.append("run_id must be a non-empty string")
    if not isinstance(record["workload"], dict):
        problems.append("workload must be an object")
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for name in TIMING_METRICS + QUALITY_METRICS:
            if name not in metrics:
                problems.append(f"metrics missing {name!r}")
            elif not isinstance(metrics[name], (int, float)):
                problems.append(f"metrics[{name!r}] must be a number")
    return problems


def make_record(
    run_id: str,
    workload: dict,
    metrics: dict,
    info: Optional[dict] = None,
    timestamp: Optional[float] = None,
) -> dict:
    """Assemble and validate one registry record from its parts.

    ``workload`` may carry arbitrary extra identity keys beyond the
    standard ones — the dynamic subsystem tags its runs with a nested
    ``update_batch`` object (batches, updates per op, escalations) so
    ``repro obs diff`` only compares dynamic runs against dynamic runs.
    """
    record = {
        "schema": RUNS_SCHEMA,
        "run_id": run_id,
        "timestamp": float(time.time() if timestamp is None else timestamp),
        "workload": dict(workload),
        "metrics": dict(metrics),
        "info": dict(info or {}),
    }
    problems = validate_run_record(record)
    if problems:
        raise RunRegistryError("; ".join(problems))
    return record


def make_run_record(
    result,
    run_id: str,
    graph: str,
    engine: Optional[str] = None,
    timestamp: Optional[float] = None,
    workload_extra: Optional[dict] = None,
) -> dict:
    """Build a registry record from a :class:`~repro.core.result.
    ClusterResult`."""
    config = result.config
    workload = {
        "graph": graph,
        "engine": engine or ("relaxed" if config.parallel else "sequential"),
        "objective": config.objective.value,
        "resolution": float(result.resolution),
        "seed": config.seed,
        "workers": int(config.resolved_workers),
        "kernel": config.kernel,
    }
    if workload_extra:
        workload.update(workload_extra)
    return make_record(
        run_id,
        workload,
        metrics={
            "wall_seconds": float(result.wall_seconds),
            "sim_time_seconds": float(result.sim_time()),
            "f_objective": float(result.f_objective),
            "modularity": float(result.modularity),
        },
        info={
            "num_clusters": int(result.num_clusters),
            "rounds": int(result.rounds),
            "degraded": bool(result.degraded),
        },
        timestamp=timestamp,
    )


def append_run(path, record: dict) -> None:
    """Validate and append one record to the registry (append-only).

    The append is crash-safe: the new content is written to a temp file
    in the same directory, fsynced, and renamed over the registry, so a
    run killed mid-append can never leave a torn JSON line that poisons
    ``repro obs report``/``diff``.  A torn tail left by some *earlier*
    non-atomic writer (no trailing newline — the newline is the commit
    marker) is dropped rather than propagated.  Registries are small
    (one line per registered run), so the rewrite-on-append cost is noise
    next to the clustering run being registered.
    """
    problems = validate_run_record(record)
    if problems:
        raise RunRegistryError(
            f"refusing to register invalid run record: {'; '.join(problems)}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    try:
        existing = path.read_bytes()
    except FileNotFoundError:
        existing = b""
    if existing and not existing.endswith(b"\n"):
        existing = existing[: existing.rfind(b"\n") + 1]
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(existing + line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    try:
        # Persist the rename itself, not just the file contents.
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - directory fsync is best-effort
        pass


def load_runs(path) -> List[dict]:
    """All valid records in the registry, oldest first.

    Invalid lines raise — an append-only registry should never contain
    them, and silently dropping records would hide exactly the kind of
    corruption the schema exists to catch.
    """
    records: List[dict] = []
    with open(path) as handle:
        for index, line in enumerate(handle):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RunRegistryError(f"line {index}: invalid JSON ({exc})")
            problems = validate_run_record(record)
            if problems:
                raise RunRegistryError(f"line {index}: {'; '.join(problems)}")
            records.append(record)
    return records


def find_run(records: List[dict], run_id: str) -> dict:
    """The most recent record with ``run_id`` (latest wins on reuse)."""
    for record in reversed(records):
        if record["run_id"] == run_id:
            return record
    known = ", ".join(sorted({r["run_id"] for r in records})) or "<none>"
    raise RunRegistryError(f"run id {run_id!r} not in registry (have: {known})")


def _as_baseline(record: dict, metrics: tuple, direction: str) -> dict:
    """Shape one run record as a single-row compare payload."""
    return {
        "name": "runs",
        "directions": {name: direction for name in metrics},
        "rows": [
            {
                "key": record["run_id"],
                "metrics": {
                    name: record["metrics"][name]
                    for name in metrics
                    if name in record["metrics"]
                },
                "info": record.get("info", {}),
            }
        ],
    }


def diff_runs(
    baseline: dict,
    current: dict,
    wall_tolerance: float = WALL_TOLERANCE,
    objective_tolerance: float = OBJECTIVE_TOLERANCE,
) -> CompareReport:
    """Compare two run records; regressions fail (``report.ok``).

    The current record's row key is rewritten to the baseline's so the
    bench compare machinery pairs them up; workload mismatches are
    surfaced in ``skipped`` rather than silently compared.
    """
    report = CompareReport(suite="runs")
    if baseline.get("workload") != current.get("workload"):
        report.skipped.append(
            f"workloads differ: {baseline.get('workload')} vs "
            f"{current.get('workload')} (metrics compared anyway)"
        )
    current_aligned = dict(current, run_id=baseline["run_id"])
    for metrics, direction, tolerance in (
        (TIMING_METRICS, "lower", wall_tolerance),
        (QUALITY_METRICS, "higher", objective_tolerance),
    ):
        partial = compare(
            _as_baseline(baseline, metrics, direction),
            _as_baseline(current_aligned, metrics, direction),
            tolerance=tolerance,
        )
        report.regressions.extend(partial.regressions)
        report.improvements.extend(partial.improvements)
        report.skipped.extend(partial.skipped)
        report.compared += partial.compared
    return report
