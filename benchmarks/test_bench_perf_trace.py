"""The perf-trace sections that replay one trace: metrics and cluster scale.

:func:`~repro.analysis.perf.run_section` replays a row of the section
table in its own child process:

* ``metrics`` replays a synthetic multi-day diurnal trace on a warm
  4 × 4-core cluster whose control plane scores a five-minute per-tenant
  SLO window every tick.  It measures what bookkeeping costs: wall-clock
  throughput and peak RSS with the time-bucket metrics collector, which
  keeps nothing per invocation.
* ``cluster_scale`` replays a warm-aware + work-stealing diurnal trace
  routed through the :class:`~repro.faas.index.ClusterIndex`.  That the
  index makes exactly the decisions of a full scan is checked by the
  tier-1 twin suites against the oracle in
  ``tests/property/reference_routing.py``; this benchmark measures the
  routing path's throughput.

The committed full-scale numbers live in ``BENCH_perf.json`` at the repo
root (regenerate with ``python -m repro.cli perf-trace --shape all``); CI
replays the quick variants on every push and fails if throughput
regresses by more than 25 % against that baseline (see
``scripts/check_perf_regression.py``).

By default this benchmark replays the quick metrics trace (10^5
arrivals) and the 16 x 128 point at reduced arrivals.  Set
``REPRO_BENCH_FULL=1`` to replay the million-request trace and the
32 x 256 point instead.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.perf import render_section, run_section

#: Full-scale replays on request only; see the module docstring.
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "").strip().lower() in (
    "1", "true", "yes", "on",
)

#: Section -> (variant, requested arrivals, arrivals at smoke scale).
CASES = {
    "metrics": (
        ("run", 1_000_000, 1_000_000) if BENCH_FULL
        else ("run", 100_000, 100_000)
    ),
    "cluster_scale": (
        ("32x256", 30_000, 30_000) if BENCH_FULL
        else ("16x128", 10_000, 5_000)
    ),
}


@pytest.mark.parametrize("key", list(CASES))
def test_section_replays(benchmark, bench_once, bench_scale, key):
    variant, full, smoke = CASES[key]
    invocations = bench_scale(full, smoke)
    report = bench_once(
        benchmark,
        lambda: run_section(key, variants=(variant,), invocations=invocations),
    )
    print()
    print(render_section(key, report))
    run = report["variants"][variant]

    # The trace is oversized to absorb burst-realisation variance, so a
    # "million-request" run really replays at least a million.
    assert run["arrivals"] >= invocations
    # Every arrival reaches the collector exactly once, whatever its
    # outcome.
    assert run["recorded"] == run["arrivals"]
    if key == "cluster_scale":
        # The shape genuinely exercises the steal machinery.
        assert run["steals"] > 0

    benchmark.extra_info.update(
        variant=variant,
        inv_per_s=run["invocations_per_second"],
        max_rss_mb=run["max_rss_mb"],
        steals=run["steals"],
    )
