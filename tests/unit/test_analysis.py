"""Tests for the analysis layer: stats, tables, series, reports."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import BenchmarkConfigResult, EvaluationResult
from repro.analysis.report import (
    headline_text,
    latency_table,
    paper_comparison_table,
    restoration_table,
    table3_rows,
    throughput_table,
)
from repro.analysis.series import Series, SweepResult
from repro.analysis.stats import (
    OverheadSummary,
    relative_overhead_percent,
    summarize_overheads,
)
from repro.analysis.tables import format_percent, format_rate, format_seconds, render_table
from repro.analysis.experiments import BreakdownRecord
from repro.faas.metrics import LatencyStats
from repro.workloads import find_benchmark


class TestStats:
    def test_relative_overhead(self):
        assert relative_overhead_percent(110, 100) == pytest.approx(10.0)
        assert relative_overhead_percent(90, 100) == pytest.approx(-10.0)

    def test_relative_overhead_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            relative_overhead_percent(1, 0)

    def test_summarize_overheads(self):
        summary = summarize_overheads([1.0, 2.0, 3.0, 50.0])
        assert summary.median_percent == pytest.approx(2.5)
        assert summary.maximum_percent == 50.0
        assert summary.count == 4
        assert "median" in summary.describe()

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_overheads([])


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "benchmark"], [["1", "pyaes"], ["22", "go"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_render_table_with_title(self):
        text = render_table(["x"], [["1"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_formatters(self):
        assert format_seconds(0.0015) == "1.50"
        assert format_seconds(None) == "-"
        assert format_seconds(1.5, unit="s") == "1.500"
        assert format_percent(3.21) == "+3.2%"
        assert format_percent(None) == "-"
        assert format_rate(1234.8) == "1235"
        assert format_rate(3.456) == "3.46"
        with pytest.raises(ValueError):
            format_seconds(1.0, unit="days")


class TestSeries:
    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("s", (1.0, 2.0), (1.0,))

    def test_from_points_and_lookup(self):
        series = Series.from_points("gh", [(1.0, 10.0), (2.0, 20.0)])
        assert series.y_at(2.0) == 20.0
        with pytest.raises(KeyError):
            series.y_at(3.0)

    def test_monotonicity_and_slope(self):
        increasing = Series.from_points("inc", [(1, 1), (2, 2), (3, 3)])
        assert increasing.is_nondecreasing
        assert increasing.slope() == pytest.approx(1.0)
        flat = Series.from_points("flat", [(1, 2), (2, 2)])
        assert flat.slope() == pytest.approx(0.0)

    def test_sweep_result_access(self):
        sweep = SweepResult(x_label="x", y_label="y")
        sweep.add(Series.from_points("base", [(1, 1)]))
        assert sweep.names() == ["base"]
        assert sweep.get("base").y == (1.0,)


def _stats(median_ms: float) -> LatencyStats:
    value = median_ms / 1000.0
    return LatencyStats.from_samples([value * 0.95, value, value * 1.05])


def _evaluation() -> EvaluationResult:
    result = EvaluationResult()
    result.add(BenchmarkConfigResult(
        benchmark="pyaes (p)", suite="pyperformance", config="base",
        e2e=_stats(100.0), invoker=_stats(60.0), throughput_rps=10.0,
        total_kpages=6.2,
    ))
    result.add(BenchmarkConfigResult(
        benchmark="pyaes (p)", suite="pyperformance", config="gh",
        e2e=_stats(103.0), invoker=_stats(62.0), throughput_rps=9.5,
        restore_ms_mean=4.0, restored_pages_mean=800, faults_mean=820,
        total_kpages=6.2, snapshot_ms=9.0,
    ))
    return result


class TestEvaluationResult:
    def test_relative_latency_and_throughput(self):
        result = _evaluation()
        rel = result.relative_latency("gh", metric="e2e")
        assert rel["pyaes (p)"] == pytest.approx(3.0, rel=0.01)
        ratios = result.relative_throughput("gh")
        assert ratios["pyaes (p)"] == pytest.approx(0.95)

    def test_merge_fills_missing_fields(self):
        latency = _evaluation()
        throughput = EvaluationResult()
        throughput.add(BenchmarkConfigResult(
            benchmark="pyaes (p)", suite="pyperformance", config="base",
            throughput_rps=11.0, total_kpages=6.2,
        ))
        merged = latency.merge(throughput)
        record = merged.record("pyaes (p)", "base")
        # Existing value wins; only missing fields are filled.
        assert record.throughput_rps == 10.0
        assert record.e2e is not None

    def test_lookup_errors(self):
        result = _evaluation()
        with pytest.raises(KeyError):
            result.record("missing", "gh")
        assert not result.has("missing", "gh")

    def test_benchmarks_and_configs_order(self):
        result = _evaluation()
        assert result.benchmarks() == ["pyaes (p)"]
        assert result.configs() == ["base", "gh"]


class TestReports:
    def test_latency_and_throughput_tables_render(self):
        result = _evaluation()
        latency_text = latency_table(result)
        assert "pyaes (p)" in latency_text and "1.03x" in latency_text
        throughput_text = throughput_table(result)
        assert "0.95x" in throughput_text

    def test_table3_sorted_by_restore_time(self):
        result = _evaluation()
        text = table3_rows(result)
        assert "4.00" in text

    def test_restoration_table(self):
        record = BreakdownRecord(
            benchmark="pyaes (p)", restore_ms=4.0,
            fractions={"restoring_memory": 0.6, "scanning_page_metadata": 0.4},
            snapshot_ms=9.0, total_kpages=6.2, restored_kpages=0.8,
        )
        text = restoration_table([record])
        assert "restoring_memory" in text

    def test_paper_comparison_table(self):
        result = _evaluation()
        spec = find_benchmark("pyaes")
        text = paper_comparison_table(result, [spec])
        assert "paper restore" in text.splitlines()[1] or "paper restore (ms)" in text

    def test_headline_text(self):
        summary = OverheadSummary(
            count=3, median_percent=1.5, p95_percent=7.0,
            maximum_percent=10.0, minimum_percent=0.0, mean_percent=2.0,
        )
        text = headline_text({"e2e_latency_overhead": summary})
        assert "End-to-end latency overhead" in text
        assert "+1.5%" in text
