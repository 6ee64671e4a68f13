#!/usr/bin/env python3
"""Print the paper-figure and cluster-driver results as exact reprs, one line each.

Usage::

    python scripts/paper_numbers.py > numbers.txt

A change that must not move the simulated numbers is checked by running
this at the parent commit and at the change and comparing the two outputs
with ``diff``: any difference, down to the last float bit, shows.  It
prints:

* ``measure_latency`` for the six Python functions the ``gh-tenants``
  benchmark workload deploys, under every applicable ``MAIN_CONFIGS``
  entry (Fig. 4's closed-loop setup);
* ``run_breakdown()`` (Fig. 8);
* ``run_fig3_dirty_sweep()`` and ``run_fig3_size_sweep()`` (Fig. 3);
* ``run_tracking_ablation()`` (§4.3);
* one line per cluster-driver run, at reduced scale:
  ``measure_latency_under_load`` (md2html, 300 req/s, 1 virtual s) under
  ``poisson``, ``azure`` and ``azure-diurnal`` arrivals, and once
  with the control plane's predictive planner and restorable snapshots
  at 100 req/s (at 300 req/s the control plane changes nothing);
  ``measure_cluster_throughput`` (pyaes, 2 invokers x 2 cores, 4
  actions, 3 rounds); ``run_tenant_fairness`` (get-time, 3 s with 1 s
  warm-up); and ``run_slo_control``'s quota (3 s / 1 s), capacity
  (2 s / 0.5 s) and forecast (4 s, 2 cycles) parts, the forecast part
  once more with restorable snapshots.  Tenant-mix scenarios print
  their fields, not their record's repr.

The output must not depend on the interpreter's string hashing: CI runs
it under ``PYTHONHASHSEED=1`` and ``=2`` and fails on any difference.
Like ``run_detlint.py`` it puts ``src/`` on ``sys.path``, so it needs no
install.  It runs in about six seconds.
"""

import pathlib
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.experiments import (  # noqa: E402
    MAIN_CONFIGS,
    measure_cluster_throughput,
    measure_latency,
    measure_latency_under_load,
    run_breakdown,
    run_fig3_dirty_sweep,
    run_fig3_size_sweep,
    run_slo_control,
    run_tenant_fairness,
    run_tracking_ablation,
)
from repro.baselines.registry import mechanism_class  # noqa: E402
from repro.workloads import find_benchmark  # noqa: E402

#: The Python functions the ``gh-tenants`` benchmark workload deploys.
LATENCY_FUNCTIONS = ("md2html", "json", "get-time", "version", "deltablue", "float")


def _scenarios(scenarios, *fields):
    """Tenant-mix scenarios as ``{label: (field values...)}``."""
    return {
        label: tuple(getattr(scenario, name) for name in fields)
        for label, scenario in scenarios.items()
    }


def cluster_lines():
    """One line per cluster-driver run, at reduced scale."""
    md2html = find_benchmark("md2html", "p")
    get_time = find_benchmark("get-time", "p")
    for arrivals in ("poisson", "azure", "azure-diurnal"):
        point = measure_latency_under_load(
            md2html, offered_rps=300.0, duration_seconds=1.0, arrivals=arrivals
        )
        yield f"latency-under-load {arrivals}: {point!r}"
    point = measure_latency_under_load(
        md2html, offered_rps=100.0, duration_seconds=1.0,
        arrivals="azure-diurnal", control_plane=True, planner="predictive",
        restorable_snapshots=True,
    )
    yield f"latency-under-load azure-diurnal predictive+snapshots: {point!r}"
    measurement = measure_cluster_throughput(
        find_benchmark("pyaes", "p"), "gh",
        invokers=2, cores=2, actions=4, rounds=3,
    )
    yield f"cluster throughput: {measurement!r}"
    fairness = run_tenant_fairness(
        get_time, duration_seconds=3.0, warmup_seconds=1.0
    )
    yield "tenant fairness: " + repr(_scenarios(
        fairness, "admission_policy", "tenant_quota_rps", "aggregate_rps", "tenants"
    ))
    quota = run_slo_control(
        get_time, parts=("quota",), duration_seconds=3.0, warmup_seconds=1.0
    )
    yield f"slo quota: {quota.polite_slo_p99_ms!r} " + repr(_scenarios(
        quota.quota,
        "admission_policy", "control", "aggregate_rps", "tenants", "control_stats",
    ))
    capacity = run_slo_control(
        get_time, parts=("capacity",),
        capacity_duration_seconds=2.0, capacity_warmup_seconds=0.5,
    )
    yield f"slo capacity: {capacity.capacity!r}"
    forecast = run_slo_control(
        get_time, parts=("forecast",),
        forecast_duration_seconds=4.0, forecast_cycles=2,
    )
    yield f"slo forecast: {forecast.forecast!r}"
    forecast = run_slo_control(
        get_time, parts=("forecast",),
        forecast_duration_seconds=4.0, forecast_cycles=2,
        restorable_snapshots=True,
    )
    yield f"slo forecast snapshots: {forecast.forecast!r}"


def main() -> None:
    for name in LATENCY_FUNCTIONS:
        spec = find_benchmark(name, "p")
        for config in MAIN_CONFIGS:
            if mechanism_class(config).supports(spec.profile):
                print(f"latency {name} {config}: {measure_latency(spec, config)!r}")
    for record in run_breakdown():
        print(f"breakdown: {record!r}")
    for label, sweep in zip(("low", "high"), run_fig3_dirty_sweep()):
        print(f"fig3 dirty {label}: {sweep!r}")
    for label, sweep in zip(("low", "high"), run_fig3_size_sweep()):
        print(f"fig3 size {label}: {sweep!r}")
    print(f"tracking ablation: {run_tracking_ablation()!r}")
    for line in cluster_lines():
        print(line)


if __name__ == "__main__":
    main()
