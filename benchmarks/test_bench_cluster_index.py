"""The cluster-scale routing baseline: warm-aware routing with stealing.

:func:`run_cluster_scale` replays a warm-aware + work-stealing diurnal
trace per sweep point, routed through the
:class:`~repro.faas.index.ClusterIndex`.  That the index makes exactly
the decisions of a full scan is checked by the tier-1 twin suites
against the oracle in ``tests/property/reference_routing.py``; this
benchmark measures the routing path's throughput.

The committed full-scale numbers live under the ``cluster_scale`` key of
``BENCH_perf.json`` (regenerate with ``python -m repro.cli perf-trace
--shape cluster-scale``); CI replays the first sweep point at quick
scale on every push and fails if its throughput regresses by more than
25 % (see ``scripts/check_perf_regression.py``).

By default this benchmark runs the first sweep point (16 invokers x 128
actions) at reduced arrivals.  Set ``REPRO_BENCH_FULL=1`` to run the
32x256 point instead.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_cluster_scale
from repro.analysis.tables import render_table

#: Full-scale point on request only; see the module docstring.
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "").strip().lower() in (
    "1", "true", "yes", "on",
)


def _render(report):
    rows = [
        [
            key,
            f"{run['arrivals']:,}",
            f"{run['wall_seconds']:.1f}",
            f"{run['invocations_per_second']:,.0f}",
            str(run["steals"]),
            str(run["cold_starts"]),
            f"{run['goodput_fraction'] * 100:.1f}%",
        ]
        for key, run in report["points"].items()
    ]
    print()
    print(render_table(
        ["point", "arrivals", "wall (s)", "inv/s", "steals", "cold starts",
         "goodput"],
        rows,
        title=(
            f"Cluster-scale routing — "
            f"{report['invocations_requested']:,} requested invocations "
            f"per point"
        ),
    ))


def test_cluster_scale_point_replays_with_steals(benchmark, bench_once, bench_scale):
    point = (32, 256) if BENCH_FULL else (16, 128)
    invocations = 30_000 if BENCH_FULL else bench_scale(10_000, 5_000)
    report = bench_once(
        benchmark,
        lambda: run_cluster_scale(invocations=invocations, points=[point]),
    )
    _render(report)

    key = f"{point[0]}x{point[1]}"
    result = report["points"][key]
    assert result["arrivals"] >= invocations
    # The shape genuinely exercises the steal machinery.
    assert result["steals"] > 0

    benchmark.extra_info.update(
        point=key,
        inv_per_s=result["invocations_per_second"],
        steals=result["steals"],
    )
