"""Table 2 — relative overheads of every configuration vs the insecure baseline.

Regenerates the per-benchmark relative end-to-end latency, invoker latency
and throughput overheads of GH-NOP, GH, FORK and FAASM for the
representative subset, together with the paper-vs-measured comparison
columns.
"""

from __future__ import annotations

from repro.analysis.experiments import headline_summary, run_latency_suite, run_throughput_suite
from repro.analysis.report import headline_text, paper_comparison_table
from repro.analysis.tables import format_percent, render_table
from repro.workloads import representative_benchmarks

INVOCATIONS = 8
ROUNDS = 5
SMOKE_INVOCATIONS = 5
SMOKE_ROUNDS = 2


def test_table2_relative_overheads(benchmark, bench_once, bench_scale):
    benchmarks = representative_benchmarks()
    invocations = bench_scale(INVOCATIONS, SMOKE_INVOCATIONS)
    rounds = bench_scale(ROUNDS, SMOKE_ROUNDS)

    def run():
        latency = run_latency_suite(benchmarks, invocations=invocations)
        throughput = run_throughput_suite(benchmarks, rounds=rounds)
        return latency, throughput

    latency, throughput = bench_once(benchmark, run)

    headers = ["benchmark", "gh e2e", "gh inv", "gh xput", "gh-nop e2e", "fork inv"]
    gh_e2e = latency.relative_latency("gh", metric="e2e")
    gh_inv = latency.relative_latency("gh", metric="invoker")
    nop_e2e = latency.relative_latency("gh-nop", metric="e2e")
    fork_inv = latency.relative_latency("fork", metric="invoker")
    gh_xput = throughput.relative_throughput("gh")
    rows = []
    for name in latency.benchmarks():
        rows.append([
            name,
            format_percent(gh_e2e.get(name)),
            format_percent(gh_inv.get(name)),
            f"{gh_xput[name]:.2f}x" if name in gh_xput else "-",
            format_percent(nop_e2e.get(name)),
            format_percent(fork_inv.get(name)),
        ])
    print()
    print(render_table(headers, rows, title="Table 2 — overheads relative to BASE"))
    print()
    print(paper_comparison_table(latency, benchmarks))
    print()
    print(headline_text(headline_summary(latency, throughput)))

    summaries = headline_summary(latency, throughput)
    benchmark.extra_info["gh_e2e_median_pct"] = round(
        summaries["e2e_latency_overhead"].median_percent, 2
    )
    benchmark.extra_info["gh_xput_reduction_median_pct"] = round(
        summaries["throughput_reduction"].median_percent, 2
    )

    # Shape: end-to-end overheads stay modest even on this restore-heavy
    # subset; the GC-sensitive img-resize is the known outlier.
    assert summaries["e2e_latency_overhead"].median_percent < 15.0
    assert gh_e2e["img-resize (n)"] == max(gh_e2e.values())
