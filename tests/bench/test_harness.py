import math

import pytest

from repro.bench.harness import (
    ExperimentTable,
    averaged,
    bench_repeats,
    bench_scale,
    geometric_mean,
    series_summary,
    speedup,
    time_callable,
)


class TestEnvKnobs:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_scale_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5

    def test_repeats_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "7")
        assert bench_repeats() == 7

    def test_repeats_below_one_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "0")
        with pytest.raises(ValueError, match="repeats"):
            bench_repeats()
        with pytest.raises(ValueError, match="repeats"):
            averaged(lambda seed: 1.0)
        with pytest.raises(ValueError, match="repeats"):
            time_callable(lambda: None)


class TestAveraged:
    def test_mean_over_seeds(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "4")
        assert averaged(lambda seed: float(seed)) == pytest.approx(1.5)

    def test_explicit_repeats(self):
        assert averaged(lambda seed: 1.0, repeats=2) == 1.0


class TestSpeedup:
    def test_ratio(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_zero_guard(self):
        assert speedup(10.0, 0.0) == math.inf


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0


class TestExperimentTable:
    def test_render(self):
        table = ExperimentTable("Figure X", ["graph", "speedup"])
        table.add_row("amazon", 12.345)
        text = table.render()
        assert "Figure X" in text
        assert "amazon" in text
        assert "12.345" in text

    def test_row_arity_checked(self):
        table = ExperimentTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_float_formatting(self):
        assert ExperimentTable._fmt(0.000123) == "0.000123"
        assert ExperimentTable._fmt(123456.0) == "1.23e+05"
        assert ExperimentTable._fmt(1.5) == "1.5"
        assert ExperimentTable._fmt(0) == "0"

    def test_emit_prints(self, capfd):
        # emit() writes through pytest's sys-level capture to the real
        # stdout so bench tables reach tee'd logs; capture at the fd level.
        table = ExperimentTable("T", ["a"])
        table.add_row(1)
        table.emit()
        assert "== T ==" in capfd.readouterr().out


class TestSeriesSummary:
    def test_format(self):
        line = series_summary("speedup", [(1, 1.0), (2, 1.9)])
        assert line.startswith("speedup:")
        assert "2:1.9" in line
