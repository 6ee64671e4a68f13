"""Integration tests for the experiment drivers (reduced-scale versions).

Each test runs the same driver the benchmark harness uses — at a much
smaller scale — and asserts the qualitative findings the paper reports
(who wins, what grows with what), not absolute numbers.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.experiments import (
    LOAD_CLUSTER,
    colliding_action_names,
    estimate_cluster_capacity_rps,
    headline_summary,
    measure_latency,
    measure_latency_under_load,
    measure_restores,
    measure_throughput,
    run_breakdown,
    run_cluster_scaling,
    run_coldstart_comparison,
    run_fig3_dirty_sweep,
    run_fig3_size_sweep,
    run_latency_suite,
    run_lifecycle,
    run_restoration_comparison,
    run_scaling,
    run_skip_rollback_ablation,
    run_slo_control,
    run_throughput_suite,
    run_tracking_ablation,
)
from repro.workloads import find_benchmark

SMALL_SET = [
    find_benchmark("fannkuch"),
    find_benchmark("bicg"),
    find_benchmark("md2html", "p"),
]


class TestLifecycle:
    def test_phases_match_paper_ordering(self):
        phases = run_lifecycle()
        # Environment instantiation is 100s of ms; runtime init and the
        # snapshot are much smaller; restoration is milliseconds.
        assert phases["environment_instantiation_seconds"] > 0.1
        assert phases["gh_restoration_seconds"] < 0.05
        assert phases["gh_restoration_seconds"] > 0
        assert phases["snapshot_seconds"] > 0


class TestFig3Microbenchmark:
    def test_dirty_sweep_shapes(self):
        low, high = run_fig3_dirty_sweep(
            mapped_pages=4000,
            dirty_fractions=(0.0, 0.5, 1.0),
            invocations=2,
        )
        # In-function overhead: GH grows with dirtied pages, GH-NOP tracks
        # the baseline, FORK grows faster than GH.
        gh_growth = low.get("gh").y[-1] - low.get("gh").y[0]
        base_growth = low.get("base").y[-1] - low.get("base").y[0]
        fork_growth = low.get("fork").y[-1] - low.get("fork").y[0]
        assert gh_growth > base_growth
        assert fork_growth > gh_growth
        # GH-NOP adds only the (fixed) interposition cost on top of the
        # baseline: its overhead must not grow with the dirtied fraction.
        nop_growth = low.get("gh-nop").y[-1] - low.get("gh-nop").y[0]
        assert abs(nop_growth - base_growth) < 0.3 * gh_growth + 1e-4
        # With restoration included, GH's latency exceeds its own low-load
        # latency and still grows with the write set.
        assert high.get("gh").y[-1] > low.get("gh").y[-1]
        assert high.get("gh").is_nondecreasing

    def test_size_sweep_shapes(self):
        low, high = run_fig3_size_sweep(
            sizes=(1000, 4000, 8000), dirtied_pages=500, invocations=2
        )
        # In-function GH overhead is flat w.r.t. address-space size...
        gh_low = low.get("gh")
        assert abs(gh_low.y[-1] - gh_low.y[0]) < 0.25 * gh_low.y[0]
        # ...but restoration grows with it (pagemap scan), and fork's
        # in-function cost grows with it too (cold TLB on every mapped page).
        assert high.get("gh").y[-1] > high.get("gh").y[0]
        assert low.get("fork").slope() > low.get("gh").slope()


class TestSuiteDrivers:
    def test_latency_suite_produces_records_for_applicable_configs(self):
        result = run_latency_suite(SMALL_SET, configs=("base", "gh"), invocations=4)
        assert len(result.records) == 6
        for benchmark in result.benchmarks():
            gh = result.record(benchmark, "gh")
            base = result.record(benchmark, "base")
            assert gh.e2e is not None and base.e2e is not None
            assert gh.restore_ms_mean is not None and gh.restore_ms_mean > 0
            # GH latency overhead stays modest for these benchmarks.
            assert gh.invoker.median < base.invoker.median * 2.0

    def test_throughput_suite_gh_close_to_base_for_long_functions(self):
        spec = find_benchmark("md2html", "p")
        result = run_throughput_suite([spec], configs=("base", "gh"), rounds=6)
        ratios = result.relative_throughput("gh")
        assert 0.7 <= ratios[spec.qualified_name] <= 1.1

    def test_headline_summary_from_suites(self):
        latency = run_latency_suite(SMALL_SET, configs=("base", "gh"), invocations=4)
        summary = headline_summary(latency)
        assert "e2e_latency_overhead" in summary
        assert summary["e2e_latency_overhead"].count == len(SMALL_SET)
        # End-to-end overhead stays modest (the paper reports median 1.5%).
        assert summary["e2e_latency_overhead"].median_percent < 20.0

    def test_restoration_comparison_gh_vs_faasm(self):
        durations = run_restoration_comparison(SMALL_SET[:2], invocations=3)
        assert set(durations) == {"gh", "faasm"}
        for config in durations.values():
            assert all(v > 0 for v in config.values())

    def test_breakdown_records_sorted_and_consistent(self):
        records = run_breakdown([find_benchmark("bicg"), find_benchmark("pyflate")],
                                invocations=3)
        assert records[0].restore_ms >= records[-1].restore_ms
        for record in records:
            assert record.fractions
            assert sum(record.fractions.values()) == pytest.approx(1.0, rel=0.01)
            assert record.snapshot_ms > 0

    def test_scaling_is_nearly_linear(self):
        sweeps = run_scaling([find_benchmark("telco")], configs=("base", "gh"),
                             cores=(1, 2, 4), rounds=4)
        sweep = sweeps["telco (p)"]
        for config in ("base", "gh"):
            series = sweep.get(config)
            assert series.is_nondecreasing
            assert series.y_at(4.0) > 2.5 * series.y_at(1.0)

    def test_cluster_scaling_reports_throughput_and_skew(self):
        spec = find_benchmark("md2html", "p")
        sweeps = run_cluster_scaling(
            [spec], invoker_counts=(1, 2),
            policies=("hash-affinity", "warm-aware"), rounds=2,
        )
        result = sweeps[spec.qualified_name]
        for policy in ("hash-affinity", "warm-aware"):
            throughput = result["throughput"].get(policy)
            assert throughput.y_at(2.0) >= throughput.y_at(1.0)
            skew = result["skew"].get(policy)
            assert skew.y_at(1.0) == 1.0  # one invoker is trivially even
            assert skew.y_at(2.0) >= 1.0

    def test_latency_under_load_sweeps_strategies(self):
        spec = find_benchmark("md2html", "p")
        capacity = estimate_cluster_capacity_rps(spec, invokers=4, cores=2)
        achieved = {}
        for policy, stealing in (("least-loaded", False), ("warm-aware", True)):
            for factor in (0.4, 0.8):
                point = measure_latency_under_load(
                    spec, offered_rps=capacity * factor,
                    cluster=dataclasses.replace(
                        LOAD_CLUSTER, scheduler_policy=policy, work_stealing=stealing
                    ),
                    duration_seconds=2.0, warmup_seconds=0.25,
                )
                assert point.achieved_rps > 0
                assert point.p95_ms > 0
                achieved[policy, factor] = point.achieved_rps
        # The headline shape at the higher offered load: pricing cold
        # starts into routing sustains more of the offered arrivals.
        assert achieved["warm-aware", 0.8] > achieved["least-loaded", 0.8]

    def test_colliding_action_names_share_one_home(self):
        names = colliding_action_names(5, invokers=4, home=2)
        assert len(names) == len(set(names)) == 5
        from repro.faas.scheduler import home_index
        assert {home_index(name, 4) for name in names} == {2}

    def test_slo_control_quota_loop_acts_without_configured_quotas(self):
        spec = find_benchmark("get-time", "p")
        result = run_slo_control(
            spec, parts=("quota",),
            duration_seconds=6.0, warmup_seconds=3.0,
        )
        assert set(result.quota) == {"solo", "static", "controlled"}
        assert result.capacity == {}
        assert result.polite_slo_p99_ms is not None
        controlled = result.quota["controlled"]
        # The loop ran and actuated knobs nobody configured by hand.
        assert controlled.control
        assert controlled.control_stats["ticks"] > 0
        assert controlled.control_stats["rate_cuts"] >= 1
        assert controlled.outcome("aggressive").throttled > 0
        # Qualitative shape: the controlled polite tenant clearly beats
        # its static-knob self on goodput.
        static_polite = result.quota["static"].outcome("polite")
        controlled_polite = controlled.outcome("polite")
        assert controlled_polite.achieved_rps > static_polite.achieved_rps

    def test_slo_control_capacity_loop_migrates_under_budget(self):
        spec = find_benchmark("md2html", "p")
        result = run_slo_control(
            spec, parts=("capacity",),
            capacity_duration_seconds=4.0, capacity_warmup_seconds=1.0,
        )
        assert result.quota == {}
        assert set(result.capacity) == {"reactive", "planned"}
        reactive = result.capacity["reactive"]
        planned = result.capacity["planned"]
        assert reactive.prewarms == 0 and reactive.migrations == ()
        assert planned.prewarms > 0
        assert planned.migrations
        budget = planned.control_stats["budget"]
        # The planner's bookkeeping: prewarm decisions are observable and
        # bounded by the global budget.
        prewarm_targets = [
            decision.target for decision in planned.migrations
            if decision.kind == "prewarm"
        ]
        assert prewarm_targets and all(
            target != "invoker-0" for target in prewarm_targets
        )
        assert planned.control_stats["prewarms"] <= budget

    def test_slo_control_forecast_loop_seeds_ahead_of_the_wave(self):
        spec = find_benchmark("md2html", "p")
        result = run_slo_control(
            spec, parts=("forecast",),
            forecast_duration_seconds=9.0,
        )
        assert result.quota == {} and result.capacity == {}
        assert set(result.forecast) == {"reactive", "predictive"}
        reactive = result.forecast["reactive"]
        predictive = result.forecast["predictive"]
        # Equal footing: identical trace and global budget.
        assert predictive.budget == reactive.budget
        assert predictive.offered_rps == reactive.offered_rps
        assert predictive.rising_windows == reactive.rising_windows
        # The forecaster became forecastable and drove real seeds the
        # reactive regime never placed.
        stats = predictive.control_stats
        assert stats["planner"] == "predictive"
        assert reactive.control_stats["planner"] == "reactive"
        assert stats["forecast_ready_actions"] > 0
        assert stats["predictive_seeds"] > 0
        assert predictive.prewarms > reactive.prewarms
        # Qualitative shape (the bench pins the margins): fewer rising-edge
        # cold starts, no goodput loss.
        assert predictive.rising_cold_starts < reactive.rising_cold_starts
        assert predictive.achieved_rps >= 0.95 * reactive.achieved_rps


class TestAblations:
    def test_tracking_ablation_uffd_loses_for_large_write_sets(self):
        sweep = run_tracking_ablation(
            mapped_pages=3000, dirty_fractions=(0.0, 0.3), invocations=2
        )
        soft = sweep.get("soft-dirty")
        uffd = sweep.get("uffd")
        assert uffd.y[-1] > soft.y[-1]

    def test_skip_rollback_reduces_post_work(self):
        spec = find_benchmark("bicg")
        results = run_skip_rollback_ablation(
            spec, invocations=8, callers=("alice", "alice", "alice", "bob")
        )
        assert results["skip-same-caller"] < results["always-restore"]

    def test_coldstart_and_criu_turnarounds_dwarf_gh(self):
        turnaround = run_coldstart_comparison(
            [find_benchmark("bicg")], configs=("gh", "cold", "criu"), invocations=2
        )
        bench = "bicg (c)"
        assert turnaround["cold"][bench] > 100 * turnaround["gh"][bench]
        assert turnaround["criu"][bench] > 20 * turnaround["gh"][bench]


class TestCalibrationAgainstPaper:
    """Order-of-magnitude checks of measured values against the paper."""

    def test_restore_time_in_paper_range_for_small_c_function(self):
        spec = find_benchmark("bicg")
        measurement = measure_restores(spec, "gh", invocations=3)
        assert 0.1 <= measurement.restore_ms_mean <= 5.0

    def test_restore_time_grows_with_footprint_and_write_set(self):
        small = measure_restores(find_benchmark("bicg"), "gh", invocations=3)
        medium = measure_restores(find_benchmark("pyflate"), "gh", invocations=3)
        assert medium.restore_ms_mean > small.restore_ms_mean

    def test_restores_track_paper_ordering_across_suites(self):
        ordered_specs = [find_benchmark("bicg"), find_benchmark("telco"),
                         find_benchmark("mdp")]
        measured = [
            measure_restores(spec, "gh", invocations=3).restore_ms_mean
            for spec in ordered_specs
        ]
        assert measured == sorted(measured)

    def test_throughput_short_function_magnitude(self):
        spec = find_benchmark("get-time", "p")
        base = measure_throughput(spec, "base", rounds=6)
        assert 500 <= base.throughput_rps <= 2000

    def test_latency_of_long_function_dominated_by_compute(self):
        spec = find_benchmark("fannkuch")
        base = measure_latency(spec, "base", invocations=4)
        gh = measure_latency(spec, "gh", invocations=4)
        assert gh.e2e.median < base.e2e.median * 1.5
