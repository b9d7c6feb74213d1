"""Bench harness: timing, the regression compare gate, trace validation."""

import pytest

from repro.bench.harness import time_callable
from repro.cli import main
from repro.obs.bench import compare, metric_direction


def test_metric_direction_heuristics():
    assert metric_direction("wall_seconds") == "lower"
    assert metric_direction("sim_time_seconds") == "lower"
    assert metric_direction("peak_bytes") == "lower"
    assert metric_direction("slowdown") == "lower"
    assert metric_direction("f_objective") == "higher"
    assert metric_direction("speedup") == "higher"
    assert metric_direction("quality") == "higher"
    assert metric_direction("rounds") == "info"


def test_time_callable_repeats_and_result():
    calls = []
    result, timing = time_callable(
        lambda: calls.append(1) or "out", repeats=3, warmup=2
    )
    assert result == "out"
    assert len(calls) == 5  # 2 warmups + 3 timed
    assert timing.repeats == 3
    assert timing.best <= timing.mean
    with pytest.raises(ValueError, match="repeats"):
        time_callable(lambda: None, repeats=0)


def test_time_callable_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "2")
    _, timing = time_callable(lambda: None)
    assert timing.repeats == 2


def _payload(metrics: dict) -> dict:
    return {"name": "demo", "rows": [{"key": "relaxed", "metrics": metrics}]}


def _suite(sim: float, objective: float) -> dict:
    return _payload({"sim_time_seconds": sim, "f_objective": objective})


def test_compare_flags_regressions_beyond_tolerance():
    baseline = _suite(1.0, 10.0)
    # 50% slower and 50% worse objective: both directions regress.
    current = _suite(1.5, 5.0)
    report = compare(baseline, current, tolerance=0.10)
    assert not report.ok
    flagged = {(r.metric, round(r.change, 2)) for r in report.regressions}
    assert ("sim_time_seconds", 0.5) in flagged
    assert ("f_objective", 0.5) in flagged
    assert report.compared == 2


def test_compare_within_tolerance_and_improvements_pass():
    baseline = _suite(1.0, 10.0)
    within = compare(baseline, _suite(1.05, 9.8), tolerance=0.10)
    assert within.ok and not within.improvements
    better = compare(baseline, _suite(0.5, 20.0), tolerance=0.10)
    assert better.ok
    assert len(better.improvements) == 2


def test_compare_reports_missing_rows_and_metrics():
    baseline = _suite(1.0, 10.0)
    empty = compare(baseline, {"name": "demo", "rows": []})
    assert empty.ok  # nothing compared, but coverage loss is surfaced
    assert empty.skipped == ["relaxed: row missing from current run"]

    stripped = _suite(1.0, 10.0)
    del stripped["rows"][0]["metrics"]["f_objective"]
    report = compare(baseline, stripped)
    assert any("f_objective" in note for note in report.skipped)


def test_info_metrics_never_fail_compare():
    baseline = _payload({"rounds": 10.0})
    assert compare(baseline, _payload({"rounds": 1000.0})).ok


def test_cli_validate_trace(tmp_path, capsys):
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    with tracer.span("run"):
        pass
    good = tmp_path / "good.jsonl"
    tracer.write_jsonl(good)
    assert main(["obs", "validate-trace", str(good)]) == 0

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "event", "name": "orphan"}\n')
    assert main(["obs", "validate-trace", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err
    assert main(["obs", "validate-trace", str(tmp_path / "missing.jsonl")]) == 2
