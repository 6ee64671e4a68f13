"""The million-request perf trace — the metrics bookkeeping replay.

:func:`run_perf_trace` replays a synthetic multi-day diurnal trace on a
warm 4 × 4-core cluster whose control plane scores a five-minute
per-tenant SLO window every tick, in its own child process.  The replay
measures what bookkeeping costs: wall-clock throughput and peak RSS with
the time-bucket metrics collector, which keeps nothing per invocation.

The committed full-scale numbers live in ``BENCH_perf.json`` at the repo
root (regenerate with ``python -m repro.cli perf-trace``); CI replays
the quick (10^5-invocation) variant on every push and fails if
throughput regresses by more than 25 % against that baseline (see
``scripts/check_perf_regression.py``).

By default this benchmark replays the quick trace; set
``REPRO_BENCH_FULL=1`` to replay the million-request trace here.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_perf_trace
from repro.analysis.tables import render_table

#: Full-scale replay on request only; see the module docstring.
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "").strip().lower() in (
    "1", "true", "yes", "on",
)


def _render(report):
    run = report["run"]
    print()
    print(render_table(
        ["arrivals", "wall (s)", "inv/s", "RSS (MB)", "goodput",
         "cold starts", "p99 (ms)"],
        [[
            f"{run['arrivals']:,}",
            f"{run['wall_seconds']:.1f}",
            f"{run['invocations_per_second']:,.0f}",
            f"{run['max_rss_mb']:.0f}",
            f"{run['goodput_fraction'] * 100:.1f}%",
            str(run["cold_starts"]),
            f"{run['p99_ms']:.2f}",
        ]],
        title=(
            f"Perf trace — {report['invocations_requested']:,} requested "
            "invocations"
        ),
    ))


def test_metrics_replay_records_every_arrival(benchmark, bench_once):
    invocations = 1_000_000 if BENCH_FULL else 100_000
    report = bench_once(
        benchmark, lambda: run_perf_trace(invocations=invocations)
    )
    _render(report)
    run = report["run"]

    # The trace is oversized to absorb burst-realisation variance, so a
    # "million-request" run really replays at least a million.
    assert run["arrivals"] >= invocations
    # Every arrival reaches the collector exactly once, whatever its
    # outcome.
    assert run["recorded"] == run["arrivals"]

    benchmark.extra_info.update(
        inv_per_s=run["invocations_per_second"],
        max_rss_mb=run["max_rss_mb"],
    )
