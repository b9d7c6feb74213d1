"""Observability subsystem: tracing, metrics, and run diagnostics.

Public surface (DESIGN.md §7):

* :class:`~repro.obs.instrument.Instrumentation` — the per-run context
  threaded through :func:`repro.core.api.cluster`, bundling a
  :class:`~repro.obs.tracer.Tracer` (nested ``run → level → phase →
  round`` spans) and a :class:`~repro.obs.metrics.MetricsRegistry`
  (moves, gains, frontier sizes, compression ratios, CAS retries);
* :mod:`repro.obs.schema` — trace JSONL validation (the CI smoke gate);
* :mod:`repro.obs.health` / :mod:`repro.obs.doctor` /
  :mod:`repro.obs.report` — the run doctor (DESIGN.md §12): declarative
  health rules + serving SLOs over the artifacts above, and the
  self-contained HTML report;
* :mod:`repro.obs.bench` — the direction-aware regression compare behind
  ``repro obs diff`` and the health-rule trends.

Wall-clock benchmarking is not part of this package: fixed workloads
are timed end to end and per layer by ``perfbench/`` (see
perfbench/README.md).
"""

from repro.obs.instrument import (
    M_ATOMIC_QUEUE,
    M_CAS_ATTEMPTS,
    M_CAS_INJECTED,
    M_CAS_RETRIES,
    M_COMPRESSION,
    M_DEDUP_HITS,
    M_DEDUP_RATE,
    M_HASH_PROBES,
    M_HASH_RESIZES,
    M_FRONTIER,
    M_LEVEL_SECONDS,
    M_MODULARITY,
    M_MOVES,
    M_OBJECTIVE,
    M_RESILIENCE_EVENTS,
    M_ROUND_GAIN,
    M_ROUNDS,
    NULL_INSTRUMENTATION,
    Instrumentation,
    instr_of,
)
from repro.obs.doctor import (
    DoctorInputs,
    DoctorResult,
    cluster_decomposition,
    collect_facts,
    diagnose,
    trace_series,
)
from repro.obs.health import (
    Finding,
    HealthReport,
    HealthRule,
    HealthRuleError,
    SLOSpec,
    default_rules,
    evaluate_rules,
    evaluate_slos,
    load_rules,
    load_slo,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    parse_prometheus_headers,
    sample_quantile,
    samples_from_prometheus,
)
from repro.obs.report import render_report, write_report
from repro.obs.registry import (
    RUNS_SCHEMA,
    RunRegistryError,
    append_run,
    diff_runs,
    find_run,
    load_runs,
    make_run_record,
    validate_run_record,
)
from repro.obs.timeline import chrome_trace, write_chrome_trace
from repro.obs.tracer import NULL_SPAN, Span, SpanNode, Tracer, span_tree

__all__ = [
    "Counter",
    "DoctorInputs",
    "DoctorResult",
    "Finding",
    "Gauge",
    "HealthReport",
    "HealthRule",
    "HealthRuleError",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "SLOSpec",
    "M_ATOMIC_QUEUE",
    "M_CAS_ATTEMPTS",
    "M_CAS_INJECTED",
    "M_CAS_RETRIES",
    "M_COMPRESSION",
    "M_DEDUP_HITS",
    "M_DEDUP_RATE",
    "M_FRONTIER",
    "M_HASH_PROBES",
    "M_HASH_RESIZES",
    "M_LEVEL_SECONDS",
    "M_MODULARITY",
    "M_MOVES",
    "M_OBJECTIVE",
    "M_RESILIENCE_EVENTS",
    "M_ROUND_GAIN",
    "M_ROUNDS",
    "NULL_INSTRUMENTATION",
    "NULL_SPAN",
    "RUNS_SCHEMA",
    "RunRegistryError",
    "Span",
    "SpanNode",
    "Tracer",
    "append_run",
    "chrome_trace",
    "cluster_decomposition",
    "collect_facts",
    "default_rules",
    "diagnose",
    "diff_runs",
    "evaluate_rules",
    "evaluate_slos",
    "find_run",
    "instr_of",
    "load_rules",
    "load_runs",
    "load_slo",
    "make_run_record",
    "parse_prometheus",
    "parse_prometheus_headers",
    "render_report",
    "sample_quantile",
    "samples_from_prometheus",
    "span_tree",
    "trace_series",
    "validate_run_record",
    "write_report",
]
