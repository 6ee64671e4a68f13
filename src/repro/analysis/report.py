"""Report rendering: paper-vs-measured comparison text.

These helpers turn experiment results into the text blocks the benchmark
harness prints: per-benchmark tables in the style of the paper's Appendix A
and compact paper-vs-measured comparisons for the headline numbers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.experiments import BreakdownRecord, EvaluationResult
from repro.analysis.stats import OverheadSummary
from repro.analysis.tables import format_percent, format_rate, format_seconds, render_table
from repro.workloads.spec import BenchmarkSpec


def latency_table(result: EvaluationResult) -> str:
    """Render a Fig. 4 / Table 2 style relative-latency table against ``base``."""
    configs = [c for c in result.configs() if c != "base"]
    headers = ["benchmark", "base e2e (ms)", "base inv (ms)"]
    for config in configs:
        headers.extend([f"{config} e2e", f"{config} inv"])
    rows = []
    for benchmark in result.benchmarks():
        if not result.has(benchmark, "base"):
            continue
        base = result.record(benchmark, "base")
        row: List[str] = [
            benchmark,
            format_seconds(base.e2e.median if base.e2e else None),
            format_seconds(base.invoker.median if base.invoker else None),
        ]
        for config in configs:
            if result.has(benchmark, config):
                rec = result.record(benchmark, config)
                e2e_rel = (
                    rec.e2e.median / base.e2e.median if rec.e2e and base.e2e else None
                )
                inv_rel = (
                    rec.invoker.median / base.invoker.median
                    if rec.invoker and base.invoker
                    else None
                )
                row.append(f"{e2e_rel:.2f}x" if e2e_rel is not None else "-")
                row.append(f"{inv_rel:.2f}x" if inv_rel is not None else "-")
            else:
                row.extend(["n/a", "n/a"])
        rows.append(row)
    return render_table(headers, rows, title="Relative latency vs insecure baseline")


def throughput_table(result: EvaluationResult) -> str:
    """Render a Fig. 5 style relative-throughput table against ``base``."""
    configs = [c for c in result.configs() if c != "base"]
    headers = ["benchmark", "base (req/s)"] + [f"{c} rel" for c in configs]
    rows = []
    for benchmark in result.benchmarks():
        if not result.has(benchmark, "base"):
            continue
        base = result.record(benchmark, "base")
        row = [benchmark, format_rate(base.throughput_rps)]
        for config in configs:
            if result.has(benchmark, config):
                rec = result.record(benchmark, config)
                if rec.throughput_rps and base.throughput_rps:
                    row.append(f"{rec.throughput_rps / base.throughput_rps:.2f}x")
                else:
                    row.append("-")
            else:
                row.append("n/a")
        rows.append(row)
    return render_table(headers, rows, title="Relative throughput vs insecure baseline")


def restoration_table(records: Sequence[BreakdownRecord]) -> str:
    """Render the Fig. 8 restoration breakdown as a table."""
    headers = [
        "benchmark", "restore (ms)", "#pages (K)", "restored (K)", "snapshot (ms)",
        "top step", "top step share",
    ]
    rows = []
    for record in records:
        if record.fractions:
            top_step = max(record.fractions.items(), key=lambda kv: kv[1])
        else:
            top_step = ("-", 0.0)
        rows.append(
            [
                record.benchmark,
                f"{record.restore_ms:.2f}",
                f"{record.total_kpages:.2f}",
                f"{record.restored_kpages:.2f}",
                f"{record.snapshot_ms:.1f}",
                top_step[0],
                format_percent(top_step[1] * 100, signed=False),
            ]
        )
    return render_table(headers, rows, title="Restoration breakdown (Fig. 8)")


def table3_rows(result: EvaluationResult) -> str:
    """Render Table 3: ``gh`` restoration time vs pages, sorted by restore time."""
    headers = [
        "benchmark", "base inv (ms)", "gh inv (ms)", "restore (ms)",
        "#pages (K)", "#restored (K)", "#faults",
    ]
    rows = []
    for benchmark in result.benchmarks():
        if not (result.has(benchmark, "gh") and result.has(benchmark, "base")):
            continue
        rec = result.record(benchmark, "gh")
        base = result.record(benchmark, "base")
        rows.append(
            (
                rec.restore_ms_mean or 0.0,
                [
                    benchmark,
                    format_seconds(base.invoker.median if base.invoker else None),
                    format_seconds(rec.invoker.median if rec.invoker else None),
                    f"{rec.restore_ms_mean:.2f}" if rec.restore_ms_mean else "-",
                    f"{rec.total_kpages:.2f}",
                    f"{(rec.restored_pages_mean or 0) / 1000:.2f}",
                    f"{rec.faults_mean:.0f}" if rec.faults_mean is not None else "-",
                ],
            )
        )
    rows.sort(key=lambda pair: pair[0])
    return render_table(headers, [row for _, row in rows],
                        title="Restoration time vs pages (Table 3)")


def paper_comparison_table(
    result: EvaluationResult, benchmarks: Sequence[BenchmarkSpec]
) -> str:
    """Paper-vs-measured ``gh`` restore time and relative invoker latency."""
    by_name = {spec.qualified_name: spec for spec in benchmarks}
    headers = [
        "benchmark",
        "paper restore (ms)", "measured restore (ms)",
        "paper rel inv", "measured rel inv",
    ]
    rows = []
    for benchmark in result.benchmarks():
        spec = by_name.get(benchmark)
        if spec is None or not result.has(benchmark, "gh") or not result.has(benchmark, "base"):
            continue
        rec = result.record(benchmark, "gh")
        base = result.record(benchmark, "base")
        paper_rel = None
        if spec.paper.gh_invoker_ms and spec.paper.base_invoker_ms:
            paper_rel = spec.paper.gh_invoker_ms / spec.paper.base_invoker_ms
        measured_rel = None
        if rec.invoker and base.invoker:
            measured_rel = rec.invoker.median / base.invoker.median
        rows.append(
            [
                benchmark,
                f"{spec.paper.restore_ms:.2f}" if spec.paper.restore_ms else "-",
                f"{rec.restore_ms_mean:.2f}" if rec.restore_ms_mean else "-",
                f"{paper_rel:.2f}x" if paper_rel else "-",
                f"{measured_rel:.2f}x" if measured_rel else "-",
            ]
        )
    return render_table(headers, rows, title="Paper vs measured (gh)")


def headline_text(summaries: Dict[str, OverheadSummary]) -> str:
    """Render the headline overhead summary as text lines."""
    lines = []
    labels = {
        "e2e_latency_overhead": "End-to-end latency overhead",
        "invoker_latency_overhead": "Invoker latency overhead",
        "throughput_reduction": "Throughput reduction",
    }
    for key, summary in summaries.items():
        lines.append(summary.describe(labels.get(key, key)))
    return "\n".join(lines)
