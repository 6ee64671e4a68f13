#!/usr/bin/env python3
"""Print the paper-vs-measured summary of every experiment.

Runs every experiment driver at the same reduced scale the benchmark harness
uses and prints a compact summary of the headline values.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    headline_summary,
    run_breakdown,
    run_coldstart_comparison,
    run_fig3_dirty_sweep,
    run_fig3_size_sweep,
    run_latency_suite,
    run_lifecycle,
    run_restoration_comparison,
    run_scaling,
    run_skip_rollback_ablation,
    run_throughput_suite,
    run_tracking_ablation,
)
from repro.analysis.stats import summarize_overheads
from repro.workloads import all_benchmarks, find_benchmark, representative_benchmarks, wasm_benchmarks


def main() -> None:
    print("== fig1 lifecycle (md2html)")
    for key, value in run_lifecycle(find_benchmark("md2html", "p").profile).items():
        print(f"  {key}: {value*1000:.2f} ms")

    print("== fig3 dirty sweep (20K pages)")
    low, high = run_fig3_dirty_sweep(invocations=3)
    for cfg in ("base", "gh", "gh-nop", "fork"):
        print(f"  low  {cfg}: 0%={low.get(cfg).y[0]*1000:.2f}ms 100%={low.get(cfg).y[-1]*1000:.2f}ms")
        print(f"  high {cfg}: 0%={high.get(cfg).y[0]*1000:.2f}ms 100%={high.get(cfg).y[-1]*1000:.2f}ms")
    print("== fig3 size sweep (1K dirtied)")
    low_s, high_s = run_fig3_size_sweep(invocations=3)
    for cfg in ("base", "gh", "fork"):
        print(f"  low  {cfg}: 1K={low_s.get(cfg).y[0]*1000:.2f}ms 40K={low_s.get(cfg).y[-1]*1000:.2f}ms")
        print(f"  high {cfg}: 1K={high_s.get(cfg).y[0]*1000:.2f}ms 40K={high_s.get(cfg).y[-1]*1000:.2f}ms")

    print("== fig4 latency suite (58 benchmarks)")
    latency = run_latency_suite(all_benchmarks(), invocations=8)
    summaries = headline_summary(latency)
    for key, summary in summaries.items():
        print(f"  {key}: median {summary.median_percent:+.2f}% p95 {summary.p95_percent:+.2f}% max {summary.maximum_percent:+.2f}%")
    for cfg in ("gh-nop", "fork", "faasm"):
        rel = latency.relative_latency(cfg, metric="e2e")
        if rel:
            s = summarize_overheads(list(rel.values()))
            print(f"  {cfg} e2e: median {s.median_percent:+.2f}% p95 {s.p95_percent:+.2f}%")
    # Table 3 style restore stats
    restores = [(b, latency.record(b, "gh").restore_ms_mean) for b in latency.benchmarks()
                if latency.has(b, "gh") and latency.record(b, "gh").restore_ms_mean]
    values = sorted(v for _, v in restores)
    print(f"  restore ms: min {values[0]:.2f} median {values[len(values)//2]:.2f} "
          f"p90 {values[int(len(values)*0.9)]:.2f} max {values[-1]:.2f}")
    for name in ("bicg (c)", "telco (p)", "pyflate (p)", "get-time (n)", "img-resize (n)", "base64 (n)", "heat-3d (c)"):
        rec = latency.record(name, "gh")
        print(f"  {name}: restore {rec.restore_ms_mean:.2f} ms, snapshot {rec.snapshot_ms:.1f} ms, "
              f"gh inv {rec.invoker.median*1000:.2f} ms vs base {latency.record(name,'base').invoker.median*1000:.2f} ms")

    print("== fig5 throughput suite (58 benchmarks, rounds=5)")
    throughput = run_throughput_suite(all_benchmarks(), rounds=5)
    ratios = throughput.relative_throughput("gh")
    reductions = summarize_overheads([(1 - r) * 100 for r in ratios.values()])
    print(f"  gh reduction: median {reductions.median_percent:+.2f}% p95 {reductions.p95_percent:+.2f}% max {reductions.maximum_percent:+.2f}%")
    for name in ("get-time (p)", "bicg (c)", "base64 (n)", "img-resize (n)"):
        base_rec = throughput.record(name, "base")
        gh_rec = throughput.record(name, "gh")
        print(f"  {name}: base {base_rec.throughput_rps:.2f} rps, gh {gh_rec.throughput_rps:.2f} rps")

    print("== fig6 restoration comparison (GH vs FAASM)")
    durations = run_restoration_comparison(wasm_benchmarks(), invocations=3)
    gh_vals, fa_vals = list(durations["gh"].values()), list(durations["faasm"].values())
    print(f"  gh: min {min(gh_vals):.2f} max {max(gh_vals):.2f} ms; faasm: min {min(fa_vals):.2f} max {max(fa_vals):.2f} ms")

    print("== fig7 scaling (4 representative)")
    subset = [find_benchmark("get-time", "p"), find_benchmark("telco", "p"),
              find_benchmark("bicg", "c"), find_benchmark("img-resize", "n")]
    sweeps = run_scaling(subset, rounds=4)
    for name, sweep in sweeps.items():
        gh = sweep.get("gh")
        print(f"  {name}: gh 1core {gh.y_at(1.0):.2f} -> 4core {gh.y_at(4.0):.2f} rps (x{gh.y_at(4.0)/max(gh.y_at(1.0),1e-9):.2f})")

    print("== fig8 breakdown (14 representative)")
    for record in run_breakdown(representative_benchmarks(), invocations=4):
        top = max(record.fractions, key=record.fractions.get)
        print(f"  {record.benchmark}: restore {record.restore_ms:.2f} ms, snapshot {record.snapshot_ms:.1f} ms, "
              f"pages {record.total_kpages:.2f}K restored {record.restored_kpages:.2f}K top={top}")

    print("== ablations")
    sweep = run_tracking_ablation(invocations=3)
    print(f"  tracking at 60% dirty: soft-dirty {sweep.get('soft-dirty').y[-1]:.2f} ms vs uffd {sweep.get('uffd').y[-1]:.2f} ms")
    print(f"  tracking at 0% dirty: soft-dirty {sweep.get('soft-dirty').y[0]:.2f} ms vs uffd {sweep.get('uffd').y[0]:.2f} ms")
    skip = run_skip_rollback_ablation(find_benchmark("md2html", "p"), invocations=12)
    print(f"  skip-rollback: always {skip['always-restore']*1000:.2f} ms vs skip {skip['skip-same-caller']*1000:.2f} ms per request")
    cold = run_coldstart_comparison([find_benchmark("bicg"), find_benchmark("md2html", "p")], invocations=2)
    for cfg, per in cold.items():
        print(f"  {cfg}: " + ", ".join(f"{k} {v*1000:.1f} ms" for k, v in per.items()))


if __name__ == "__main__":
    main()
