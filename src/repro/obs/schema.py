"""Trace-JSONL schema validation (the CI smoke job's contract).

A trace file is valid when every line is a JSON object matching the span
or event record shape emitted by :mod:`repro.obs.tracer`, ids are unique,
parent/span references resolve, and the span tree nests consistently
(children start within their parent's interval and carry ``depth`` one
greater).  :func:`validate_trace_records` returns a list of human-readable
problems — empty means valid — and :func:`validate_trace_file` raises
:class:`TraceSchemaError` so ``repro obs validate-trace`` can gate CI on
it.
"""

from __future__ import annotations

import json
from typing import List

SPAN_REQUIRED_KEYS = {
    "type",
    "v",
    "name",
    "id",
    "parent",
    "depth",
    "start",
    "wall_seconds",
    "cpu_seconds",
    "peak_rss_bytes",
    "attrs",
}
EVENT_REQUIRED_KEYS = {"type", "v", "name", "id", "span", "t", "attrs"}
WORKER_REQUIRED_KEYS = {
    "type",
    "v",
    "id",
    "span",
    "worker",
    "start",
    "end",
    "label",
    "items",
    "wait",
}

#: Slack for float round-off when checking interval containment.
_EPS = 1e-9


class TraceSchemaError(Exception):
    """A trace file violated the schema; ``problems`` lists every issue."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = problems
        super().__init__(
            f"{len(problems)} trace schema problem(s): " + "; ".join(problems[:5])
        )


def _check_record_shape(index: int, record, problems: List[str]) -> bool:
    if not isinstance(record, dict):
        problems.append(f"line {index}: not a JSON object")
        return False
    kind = record.get("type")
    if kind == "span":
        missing = SPAN_REQUIRED_KEYS - record.keys()
    elif kind == "event":
        missing = EVENT_REQUIRED_KEYS - record.keys()
    elif kind == "worker":
        missing = WORKER_REQUIRED_KEYS - record.keys()
    else:
        problems.append(f"line {index}: unknown record type {kind!r}")
        return False
    if missing:
        problems.append(
            f"line {index}: {kind} record missing keys {sorted(missing)}"
        )
        return False
    if kind == "worker":
        if not isinstance(record["worker"], int) or record["worker"] < 0:
            problems.append(
                f"line {index}: worker must be a non-negative integer"
            )
            return False
        if record["end"] < record["start"] - _EPS:
            problems.append(f"line {index}: worker chunk ends before it starts")
            return False
        if record.get("clock", "sim") not in ("sim", "wall"):
            problems.append(
                f"line {index}: worker clock must be 'sim' or 'wall', "
                f"got {record.get('clock')!r}"
            )
            return False
        return True
    if not isinstance(record["name"], str) or not record["name"]:
        problems.append(f"line {index}: name must be a non-empty string")
        return False
    if not isinstance(record["attrs"], dict):
        problems.append(f"line {index}: attrs must be an object")
        return False
    return True


def validate_trace_records(records: List[dict]) -> List[str]:
    """All schema problems in ``records`` (empty list = valid trace)."""
    problems: List[str] = []
    spans = {}
    seen_ids = set()
    for index, record in enumerate(records):
        if not _check_record_shape(index, record, problems):
            continue
        rid = record["id"]
        if rid in seen_ids:
            problems.append(f"line {index}: duplicate record id {rid}")
            continue
        seen_ids.add(rid)
        if record["type"] == "span":
            spans[rid] = record

    for record in records:
        if not isinstance(record, dict):
            continue
        if record.get("type") == "span" and record.get("id") in spans:
            parent_id = record["parent"]
            if parent_id is None:
                if record["depth"] != 0:
                    problems.append(
                        f"span {record['id']}: root span has depth "
                        f"{record['depth']}, expected 0"
                    )
                continue
            parent = spans.get(parent_id)
            if parent is None:
                problems.append(
                    f"span {record['id']}: parent {parent_id} not in trace"
                )
                continue
            if record["depth"] != parent["depth"] + 1:
                problems.append(
                    f"span {record['id']}: depth {record['depth']} != "
                    f"parent depth {parent['depth']} + 1"
                )
            if record["start"] < parent["start"] - _EPS:
                problems.append(
                    f"span {record['id']}: starts before its parent"
                )
            child_end = record["start"] + (record["wall_seconds"] or 0.0)
            parent_end = parent["start"] + (parent["wall_seconds"] or 0.0)
            if child_end > parent_end + _EPS:
                problems.append(
                    f"span {record['id']}: ends after its parent"
                )
        elif record.get("type") == "event" and record.get("id") in seen_ids:
            span_id = record["span"]
            if span_id is not None and span_id not in spans:
                problems.append(
                    f"event {record['id']}: span {span_id} not in trace"
                )
        elif record.get("type") == "worker" and record.get("id") in seen_ids:
            span_id = record["span"]
            if span_id is not None and span_id not in spans:
                problems.append(
                    f"worker chunk {record['id']}: span {span_id} not in trace"
                )

    # Worker lanes model one core each, so chunks on the same lane must be
    # strictly sequential: sorted by start, each chunk may begin only once
    # its predecessor has ended.  Simulated lanes and real execution-
    # backend lanes (``clock: "wall"``) are distinct clock domains, so
    # lanes are keyed by (clock, worker): worker 0's simulated chunks and
    # worker 0's wall-clock chunks never constrain each other.
    lanes = {}
    for record in records:
        if (
            isinstance(record, dict)
            and record.get("type") == "worker"
            and record.get("id") in seen_ids
        ):
            key = (record.get("clock", "sim"), record["worker"])
            lanes.setdefault(key, []).append(record)
    for (clock, worker), chunks in sorted(lanes.items()):
        chunks.sort(key=lambda r: (r["start"], r["end"], r["id"]))
        for prev, nxt in zip(chunks, chunks[1:]):
            if nxt["start"] < prev["end"] - _EPS:
                problems.append(
                    f"worker {worker} ({clock}): chunk {nxt['id']} starts at "
                    f"{nxt['start']} before chunk {prev['id']} ends at "
                    f"{prev['end']}"
                )
    if not spans:
        problems.append("trace contains no spans")
    return problems


def validate_trace_text(text: str) -> List[str]:
    """Validate raw JSONL text; JSON parse errors become problems too."""
    records = []
    problems: List[str] = []
    for index, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"line {index}: invalid JSON ({exc})")
    return problems + validate_trace_records(records)


def validate_trace_file(path) -> None:
    """Raise :class:`TraceSchemaError` unless ``path`` is a valid trace."""
    with open(path) as handle:
        problems = validate_trace_text(handle.read())
    if problems:
        raise TraceSchemaError(problems)
