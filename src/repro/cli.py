"""Command-line interface for the Groundhog reproduction.

Usage (after installing the package)::

    python -m repro.cli list-benchmarks [--suite SUITE]
    python -m repro.cli demo-leak [--benchmark NAME] [--language p|c|n]
    python -m repro.cli restore-stats --benchmark NAME [--language p|c|n]
    python -m repro.cli lifecycle [--benchmark NAME] [--language p|c|n]
    python -m repro.cli cluster-scaling [--benchmark NAME] [--invokers 1 2 4]
                                        [--policies round-robin hash-affinity]
    python -m repro.cli latency-under-load [--benchmark NAME]
                                           [--load-factors 0.5 1.0 1.25]
                                           [--arrivals poisson|azure|azure-diurnal|azure-file]
                                           [--planner reactive|predictive]
    python -m repro.cli tenant-fairness [--benchmark NAME] [--quota-factor 1.2]
    python -m repro.cli slo-control [--benchmark NAME]
                                    [--parts quota capacity forecast]
    python -m repro.cli perf-trace [--shape metrics|cluster-scale|...]
                                   [--invocations N] [--quick]
                                   [--output BENCH_perf.json]
                                   [--trace-out trace.json]
    python -m repro.cli trace [--regime on|off] [--tracing sampled|full]
                              [--out trace.json]

The heavier experiment drivers (full latency/throughput suites, sweeps,
ablations) are exposed through the benchmark harness under ``benchmarks/``;
this CLI covers the quick, interactive entry points.

A flag that sets a :class:`~repro.config.SimulationConfig` field is
declared once, in :data:`CONFIG_FLAGS`.  A cluster command builds its
config from those flags before it runs anything and hands it whole to its
driver; ``perf-trace`` and ``trace`` pass them on as ``Shape`` overrides.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NoReturn, Optional, Tuple

from repro.analysis.experiments import (
    ARRIVAL_PROCESSES,
    LOAD_STRATEGIES,
    estimate_cluster_capacity_rps,
    measure_cluster_throughput,
    measure_latency_under_load,
    measure_restores,
    run_lifecycle,
    run_slo_control,
    run_tenant_fairness,
)
from repro.analysis.perf import SECTIONS, render_section, replay, run_section
from repro.analysis.tables import render_table
from repro.baselines.registry import create_mechanism
from repro.devtools.detlint.frontend import (
    EXIT_CODE_HELP,
    add_lint_arguments,
    run_lint,
)
from repro.sim.rng import fallback_stream
from repro.config import (
    ADMISSION_POLICIES,
    ISOLATION_MECHANISMS,
    PLANNER_KINDS,
    SCHEDULER_POLICIES,
    TRACING_MODES,
    SimulationConfig,
)
from repro.errors import ReproError
from repro.faas.obs import latency_decompose, render_decomposition, write_chrome_trace
from repro.workloads import all_benchmarks, benchmarks_by_suite, find_benchmark


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def _checked(convert: Callable, accept: Callable, refusal: str) -> Callable:
    """A ``type=`` check: ``convert(text)``, refused unless ``accept`` holds."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(refusal.format(text))
        return value

    return check


def _in_writable_directory(path: str) -> bool:
    directory = os.path.dirname(os.path.abspath(path))
    return bool(path) and not os.path.isdir(path) and os.access(directory, os.W_OK)


#: The shared ``type=`` checks: counts and sizes, durations and factors,
#: input files and output files (which they do not create).
positive_int = _checked(int, lambda n: n >= 1, "must be a positive integer (got {!r})")
positive_float = _checked(
    float, lambda x: 0 < x < math.inf, "must be a positive number (got {!r})"
)
non_negative_float = _checked(
    float, lambda x: 0 <= x < math.inf, "must be a non-negative number (got {!r})"
)
readable_file = _checked(
    str, lambda path: os.path.isfile(path) and os.access(path, os.R_OK),
    "cannot read {!r}: no such readable file",
)
trace_output = _checked(
    str, _in_writable_directory, "cannot write trace output to {!r}: no writable directory"
)
baseline_output = _checked(  # ``--output ''`` writes no baseline
    str, lambda path: not path or _in_writable_directory(path),
    "cannot write the perf baseline to {!r}: no writable directory",
)

#: The flags that set :class:`~repro.config.SimulationConfig` fields, each
#: declared once: flag -> (field, argparse keywords).  A command exposes
#: one with :func:`add_config_flags`; its default is the field's unless the
#: row or the command gives another.  ``--planner`` also turns
#: ``control_plane`` on; its default, ``None``, leaves the control plane off.
CONFIG_FLAGS: Mapping[str, Tuple[str, Mapping[str, object]]] = MappingProxyType({
    "--cores": ("cores", {"type": int, "help": "cores per invoker (default: %(default)s)"}),
    "--invokers": ("invokers", {
        "type": int, "help": "invokers in the cluster (default: %(default)s)"}),
    "--max-queue": ("max_queue_per_action", {
        "type": int, "metavar": "MAX_QUEUE", "help": "bound each per-action queue; overload "
        "is shed and shows up in the rejected column (default: unbounded, never rejects)"}),
    "--work-stealing": ("work_stealing", {"action": "store_true", "help": "let invokers "
        "with spare capacity pull queued invocations from saturated peers"}),
    "--admission": ("admission_policy", {"choices": ADMISSION_POLICIES,
        "help": "per-action admission queue policy (default: %(default)s)"}),
    "--autoscale": ("autoscale", {"action": "store_true", "help": "reactively raise/lower "
        "each action's container ceiling from queue depth and rejections instead of the "
        "static maximum"}),
    "--planner": ("planner", {"choices": PLANNER_KINDS, "default": None, "help": "run the "
        "SLO control plane with this capacity planner: 'reactive' shifts pre-warmed "
        "capacity toward observed backlog, 'predictive' pre-warms toward forecast "
        "per-action arrival rates one boot-time ahead (default: no control plane)"}),
    "--forecast-period": ("forecast_period_seconds", {
        "type": float, "metavar": "FORECAST_PERIOD", "help": "declared seasonal period "
        "(virtual seconds) for the predictive planner's forecaster, e.g. the diurnal cycle "
        "length under --arrivals azure-diurnal; requires --planner predictive (default: "
        "level+trend only)"}),
    "--restorable-snapshots": ("restorable_snapshots", {"action": "store_true",
        "help": "warmth spectrum: keep-alive eviction (and planner drains) demote "
        "containers to restorable snapshots instead of destroying them"}),
    "--snapshot-budget": ("snapshot_budget", {"type": int, "help": "held snapshots per "
        "invoker; requires --restorable-snapshots (LRU discard beyond it; default: "
        "unbounded)"}),
    "--isolation-mechanism": ("isolation_mechanism", {"choices": ISOLATION_MECHANISMS,
        "help": "mechanism whose cost model prices snapshot restores (default: %(default)s)"}),
    "--tracing": ("tracing", {"choices": TRACING_MODES, "help": "arm the flight recorder: "
        "'sampled' records 1 in 16 invocations, chosen deterministically, 'full' every one "
        "(default: %(default)s)"}),
    "--seed": ("seed", {"type": int, "help": "seed of every random stream (default: "
        "%(default)s)"}),
})


def add_config_flags(
    parser: argparse.ArgumentParser, *flags: str, **keywords: object
) -> None:
    """Declare ``flags`` from :data:`CONFIG_FLAGS`; ``keywords`` override a row's."""
    defaults = {field.name: field.default for field in dataclasses.fields(SimulationConfig)}
    for flag in flags:
        field, options = CONFIG_FLAGS[flag]
        parser.add_argument(
            flag, dest=field, **{"default": defaults[field], **options, **keywords}
        )


def config_fields(args: argparse.Namespace) -> Dict[str, object]:
    """The config fields the command's :data:`CONFIG_FLAGS` set, by name."""
    fields = {
        field: getattr(args, field)
        for field, _ in CONFIG_FLAGS.values()
        if hasattr(args, field)
    }
    planner = fields.pop("planner", None)
    if planner is not None:
        fields.update(control_plane=True, planner=planner)
    return fields


def _spec_from_args(args: argparse.Namespace):
    return find_benchmark(args.benchmark, args.language)


def cmd_list_benchmarks(args: argparse.Namespace) -> int:
    """Print the benchmark inventory."""
    specs = benchmarks_by_suite(args.suite) if args.suite else all_benchmarks()
    rows = [
        [
            spec.qualified_name,
            spec.suite,
            f"{spec.profile.exec_seconds * 1000:.1f}",
            f"{spec.profile.total_kpages:.2f}",
            f"{spec.profile.dirtied_kpages:.2f}",
        ]
        for spec in specs
    ]
    print(render_table(
        ["benchmark", "suite", "exec (ms)", "mapped (Kpages)", "dirtied (Kpages)"],
        rows,
        title=f"{len(rows)} benchmarks",
    ))
    return 0


def cmd_demo_leak(args: argparse.Namespace) -> int:
    """Show the leak under warm reuse and its absence under Groundhog."""
    spec = _spec_from_args(args)
    rows = []
    for config in ("base", "gh"):
        mechanism = create_mechanism(config, spec.profile, rng=fallback_stream("cli.demo-leak"))
        mechanism.initialize()
        mechanism.invoke(b"alice-secret-document", "r1", caller="alice")
        second = mechanism.invoke(b"bob-request", "r2", caller="bob")
        leaked = b"alice-secret" in second.result.residual
        rows.append([config, "YES" if leaked else "no",
                     f"{second.critical_seconds * 1000:.2f}",
                     f"{second.post_seconds * 1000:.2f}"])
    print(render_table(
        ["config", "alice's data visible to bob", "critical path (ms)", "post-request work (ms)"],
        rows,
        title=f"Sequential request isolation on {spec.qualified_name}",
    ))
    return 0


def cmd_restore_stats(args: argparse.Namespace) -> int:
    """Print snapshot/restore statistics for one benchmark under Groundhog."""
    spec = _spec_from_args(args)
    measurement = measure_restores(spec, "gh", invocations=args.invocations)
    rows = [
        ["mean restoration (ms)", f"{measurement.restore_ms_mean:.2f}"],
        ["median restoration (ms)", f"{measurement.restore_ms_median:.2f}"],
        ["one-time snapshot (ms)", f"{measurement.snapshot_ms:.1f}"],
        ["container initialisation (s)", f"{measurement.init_seconds:.3f}"],
        ["mapped pages", f"{measurement.total_mapped_pages}"],
        ["pages restored per request", f"{measurement.restored_pages_mean:.0f}"],
        ["in-function overhead per request (ms)", f"{measurement.in_function_overhead_ms_mean:.3f}"],
    ]
    if spec.paper.restore_ms is not None:
        rows.append(["paper-reported restoration (ms)", f"{spec.paper.restore_ms:.2f}"])
    print(render_table(["metric", "value"], rows,
                       title=f"Groundhog restore statistics — {spec.qualified_name}"))
    return 0


def cmd_lifecycle(args: argparse.Namespace) -> int:
    """Print the Fig. 1 life-cycle phases for one benchmark."""
    spec = _spec_from_args(args)
    phases = run_lifecycle(spec.profile)
    rows = [[name, f"{seconds * 1000:.2f}"] for name, seconds in phases.items()]
    print(render_table(["phase", "duration (ms)"], rows,
                       title=f"Container life cycle — {spec.qualified_name}"))
    return 0


def cmd_cluster_scaling(args: argparse.Namespace) -> int:
    """Sweep invoker count × scheduling policy and print aggregate throughput."""
    base = SimulationConfig(**config_fields(args))
    sweep = [
        dataclasses.replace(base, scheduler_policy=policy, invokers=invokers)
        for policy in args.policies
        for invokers in args.invoker_counts
    ]
    spec = _spec_from_args(args)
    rows = []
    for cluster in sweep:
        m = measure_cluster_throughput(
            spec, args.config,
            cluster=cluster,
            actions=args.actions, rounds=args.rounds,
            in_flight_per_action=args.in_flight,
        )
        rows.append([
            cluster.scheduler_policy,
            str(cluster.invokers),
            f"{m.throughput_rps:.1f}",
            f"{m.warm_hit_rate * 100:.0f}%",
            str(m.cold_starts),
            str(m.rejected),
            f"{m.routing_skew:.2f}",
            str(m.steals),
        ])
    print(render_table(
        ["policy", "invokers", "throughput (req/s)", "warm hits", "cold starts",
         "rejected", "skew (max/mean)", "steals"],
        rows,
        title=(
            f"Cluster scaling — {spec.qualified_name} under {args.config} "
            f"({args.actions} actions, {base.cores} cores/invoker)"
        ),
    ))
    return 0


def cmd_latency_under_load(args: argparse.Namespace) -> int:
    """Open-loop load sweep: achieved throughput and latency per strategy."""
    cluster = SimulationConfig(**config_fields(args))
    spec = _spec_from_args(args)
    capacity = estimate_cluster_capacity_rps(spec, invokers=cluster.invokers, cores=cluster.cores)
    # Warmup must fall inside the run whatever --duration was given.
    warmup = args.warmup if args.warmup is not None else min(0.5, args.duration / 8)
    rows = []
    points = [
        (policy, stealing, factor)
        for policy, stealing in LOAD_STRATEGIES
        for factor in args.load_factors
    ]
    for index, (policy, stealing, factor) in enumerate(points):
        point = measure_latency_under_load(
            spec, args.config,
            cluster=dataclasses.replace(
                cluster, scheduler_policy=policy, work_stealing=stealing
            ),
            offered_rps=capacity * factor,
            actions=args.actions,
            duration_seconds=args.duration,
            warmup_seconds=warmup,
            arrivals=args.arrivals,
            trace_file=args.trace_file,
            # Export the last point: the final strategy at the highest
            # load, where queueing makes the decomposition interesting.
            trace_out=(
                args.trace_out if index == len(points) - 1 else None
            ),
        )
        rows.append([
            point.strategy,
            f"{point.offered_rps:.1f}",
            f"{point.achieved_rps:.1f}",
            f"{point.goodput_fraction * 100:.0f}%",
            f"{point.p50_ms:.1f}" if point.p50_ms is not None else "-",
            f"{point.p95_ms:.1f}" if point.p95_ms is not None else "-",
            str(point.cold_starts),
            str(point.steals),
        ])
    print(render_table(
        ["strategy", "offered (req/s)", "achieved (req/s)", "goodput",
         "p50 (ms)", "p95 (ms)", "cold starts", "steals"],
        rows,
        title=(
            f"Latency under open-loop load — {spec.qualified_name} under "
            f"{args.config} ({cluster.invokers} invokers x {cluster.cores} cores, "
            f"{args.actions} actions, {args.arrivals} arrivals)"
        ),
    ))
    if args.trace_out is not None:
        print(f"wrote Chrome trace of the last point to {args.trace_out}")
    return 0


def _render_tenant_scenarios(scenarios: dict, title: str) -> str:
    """Tenant-mix scenarios as one table: a row per tenant, then the aggregate."""
    rows = []
    for label, scenario in scenarios.items():
        for tenant, outcome in scenario.tenants.items():
            rows.append([
                label,
                scenario.admission,
                tenant,
                f"{outcome.offered_rps:.1f}",
                f"{outcome.achieved_rps:.1f}",
                f"{outcome.goodput_fraction * 100:.0f}%",
                f"{outcome.p50_ms:.1f}" if outcome.p50_ms is not None else "-",
                f"{outcome.p99_ms:.1f}" if outcome.p99_ms is not None else "-",
                str(outcome.rejected),
                str(outcome.throttled),
            ])
        rows.append([
            label, "", "(aggregate)", "", f"{scenario.aggregate_rps:.1f}",
            "", "", "", "", "",
        ])
    return render_table(
        ["scenario", "admission", "tenant", "offered (req/s)", "achieved (req/s)",
         "goodput", "p50 (ms)", "p99 (ms)", "rejected", "throttled"],
        rows,
        title=title,
    )


def cmd_tenant_fairness(args: argparse.Namespace) -> int:
    """Tenant-fairness scenarios: FIFO collapse vs WFQ + quota protection."""
    cluster = SimulationConfig(**config_fields(args))
    spec = _spec_from_args(args)
    scenarios = run_tenant_fairness(
        spec,
        config=args.config,
        cluster=cluster,
        actions=args.actions,
        quota_factor=args.quota_factor,
        duration_seconds=args.duration,
        warmup_seconds=min(args.warmup, args.duration / 2),
    )
    print(_render_tenant_scenarios(
        scenarios,
        f"Tenant fairness — {spec.qualified_name} under {args.config} "
        f"({cluster.invokers} invokers x {cluster.cores} cores, "
        f"{args.actions} actions, quota factor {args.quota_factor})",
    ))
    return 0


def cmd_slo_control(args: argparse.Namespace) -> int:
    """Closed-loop control plane vs static knobs: quotas and capacity."""
    cluster = SimulationConfig(**config_fields(args))
    spec = _spec_from_args(args)
    result = run_slo_control(
        spec,
        config=args.config,
        cluster=cluster,
        parts=tuple(args.parts),
        duration_seconds=args.duration,
        warmup_seconds=min(args.warmup, args.duration / 2),
        capacity_duration_seconds=args.duration,
        capacity_warmup_seconds=min(args.warmup, args.duration / 2),
        forecast_duration_seconds=args.forecast_duration,
        forecast_cycles=args.forecast_cycles,
        trace_out=args.trace_out,
    )
    if result.quota:
        print(_render_tenant_scenarios(
            result.quota,
            f"SLO quota control — {spec.qualified_name} under "
            f"{args.config} (declared polite p99 target "
            f"{result.polite_slo_p99_ms:.1f} ms, no hand-set quotas)",
        ))
        controlled = result.quota["controlled"]
        stats = controlled.control_stats
        print(
            f"control loop: {stats['ticks']} ticks, "
            f"{stats['rate_cuts']} rate cuts, {stats['rate_raises']} raises, "
            f"{stats['weight_boosts']} weight boosts"
        )
    if result.capacity:
        rows = [
            [
                outcome.label,
                f"{outcome.offered_rps:.1f}",
                f"{outcome.achieved_rps:.1f}",
                f"{outcome.goodput_fraction * 100:.0f}%",
                f"{outcome.warm_hit_rate * 100:.1f}%",
                str(outcome.cold_starts),
                str(outcome.steals),
                str(outcome.prewarms),
                str(outcome.drains),
                f"{outcome.p95_ms:.1f}" if outcome.p95_ms is not None else "-",
            ]
            for outcome in result.capacity.values()
        ]
        print(render_table(
            ["regime", "offered (req/s)", "achieved (req/s)", "goodput",
             "warm hits", "cold starts", "steals", "prewarms", "drains",
             "p95 (ms)"],
            rows,
            title=(
                f"Capacity planning — {spec.qualified_name} under "
                f"{args.config} (hash-affinity colliding homes, "
                "work stealing on)"
            ),
        ))
        planned = result.capacity["planned"]
        if planned.migrations:
            shown = planned.migrations[: args.migrations]
            print(f"planner migrations ({len(planned.migrations)} total):")
            for decision in shown:
                print(f"  {decision.describe()}")
            if len(planned.migrations) > len(shown):
                print(f"  ... {len(planned.migrations) - len(shown)} more")
    if result.forecast:
        rows = [
            [
                outcome.label,
                f"{outcome.offered_rps:.1f}",
                f"{outcome.achieved_rps:.1f}",
                f"{outcome.goodput_fraction * 100:.0f}%",
                str(outcome.cold_starts),
                str(outcome.rising_cold_starts),
                str(outcome.cold_dispatches),
                str(outcome.rising_cold_dispatches),
                str(outcome.prewarms),
                f"{outcome.p99_ms:.1f}" if outcome.p99_ms is not None else "-",
            ]
            for outcome in result.forecast.values()
        ]
        print(render_table(
            ["planner", "offered (req/s)", "achieved (req/s)", "goodput",
             "cold starts", "rising cs", "cold disp", "rising cd",
             "prewarms", "p99 (ms)"],
            rows,
            title=(
                f"Forecast-driven pre-warming — {spec.qualified_name} under "
                f"{args.config} (diurnal arrivals, {args.forecast_cycles} "
                "cycles, equal global budget)"
            ),
        ))
        predictive = result.forecast["predictive"]
        stats = predictive.control_stats
        print(
            f"predictive planner: {stats['predictive_seeds']} forecast seeds, "
            f"{stats['forecast_ready_actions']}/{stats['forecast_tracked_actions']} "
            f"actions forecastable, {stats['forecast_fallback_ticks']} "
            "reactive-fallback ticks"
        )
    if args.trace_out is not None:
        print(f"wrote Chrome trace (decision audits included) to "
              f"{args.trace_out}")
    return 0


#: ``perf-trace --shape`` choices: one per tracked section, or all of them.
PERF_TRACE_SHAPES = tuple(key.replace("_", "-") for key in SECTIONS) + ("all",)


def _merge_perf_sections(path: str, sections: dict) -> dict:
    """Merge freshly measured sections into the baseline file's contents.

    The baseline maps section keys to reports; sections that did not run
    this invocation are kept from the existing file, so ``--shape
    cluster-scale`` does not clobber the tracked metrics section and vice
    versa.
    """
    try:
        with open(path) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = {}
    return {**existing, **sections}


def cmd_perf_trace(args: argparse.Namespace) -> int:
    """Replay the tracked perf sections and persist the baseline."""
    keys = (
        tuple(SECTIONS) if args.shape == "all" else (args.shape.replace("-", "_"),)
    )
    reports: dict = {}
    for key in keys:
        reports[key] = run_section(
            key,
            quick=args.quick,
            invocations=args.invocations,
            trace_out=args.trace_out,
            trace_file=args.trace_file,
            **config_fields(args),
        )
        print(render_section(key, reports[key]))
    if args.output:
        merged = _merge_perf_sections(args.output, reports)
        with open(args.output, "w") as handle:
            json.dump(merged, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record a traced run and print its phase-level latency decomposition."""
    summary = replay(
        "warmth_spectrum",
        args.regime,
        invocations=args.invocations,
        **config_fields(args),
    )
    recorder = summary["recorder"]
    if args.trace_out is not None:
        try:
            events = write_chrome_trace(recorder, args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace output: {exc}", file=sys.stderr)
            return 2
    print(
        f"trace — warmth spectrum {args.regime}, "
        f"{summary['arrivals']} arrivals, tracing={summary['tracing']}, "
        f"{summary['traces_recorded']} invocation traces kept "
        f"(digest {summary['trace_digest']})"
    )
    print(render_decomposition(latency_decompose(recorder)))
    if args.trace_out is not None:
        print(
            f"wrote Chrome trace to {args.trace_out} "
            f"({events} events; open in "
            "https://ui.perfetto.dev or chrome://tracing)"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism lint over the given paths (default: src/repro scripts)."""
    return run_lint(args.paths, args.format, args.show_suppressed)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = _Parser(
        prog="repro", description="Groundhog (EuroSys 2023) reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list-benchmarks", help="list the 58 benchmarks")
    list_parser.add_argument("--suite", choices=("pyperformance", "polybench", "faasprofiler"),
                             default=None)
    list_parser.set_defaults(func=cmd_list_benchmarks)

    def add_benchmark_args(p: argparse.ArgumentParser, default: str = "md2html") -> None:
        p.add_argument("--benchmark", default=default)
        p.add_argument("--language", choices=("p", "c", "n"), default=None)

    def add_config_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default="gh",
                       help="isolation configuration (default: gh)")

    def add_cores_and_actions_args(p: argparse.ArgumentParser, actions: int) -> None:
        add_config_flags(p, "--cores", default=2)
        p.add_argument("--actions", type=positive_int, default=actions,
                       help=f"deployed copies of the action (default: {actions})")

    def add_trace_out_arg(p: argparse.ArgumentParser, *names: str, help: str) -> None:
        p.add_argument(*names, dest="trace_out", type=trace_output, default=None,
                       help=help)

    demo_parser = subparsers.add_parser("demo-leak", help="show the leak and its fix")
    add_benchmark_args(demo_parser)
    demo_parser.set_defaults(func=cmd_demo_leak)

    restore_parser = subparsers.add_parser("restore-stats", help="snapshot/restore statistics")
    add_benchmark_args(restore_parser, default="pyaes")
    restore_parser.add_argument("--invocations", type=positive_int, default=5)
    restore_parser.set_defaults(func=cmd_restore_stats)

    lifecycle_parser = subparsers.add_parser("lifecycle", help="Fig. 1 life-cycle phases")
    add_benchmark_args(lifecycle_parser)
    lifecycle_parser.set_defaults(func=cmd_lifecycle)

    cluster_parser = subparsers.add_parser(
        "cluster-scaling", help="aggregate throughput vs invokers x scheduling policy"
    )
    add_benchmark_args(cluster_parser, default="pyaes")
    add_config_arg(cluster_parser)
    cluster_parser.add_argument("--invokers", dest="invoker_counts", type=int,
                                nargs="+", default=[1, 2, 4], metavar="INVOKERS",
                                help="invoker counts to sweep")
    cluster_parser.add_argument("--policies", nargs="+", choices=SCHEDULER_POLICIES,
                                default=list(SCHEDULER_POLICIES),
                                help="scheduling policies to sweep")
    add_cores_and_actions_args(cluster_parser, actions=8)
    cluster_parser.add_argument("--rounds", type=positive_int, default=5,
                                help="approximate requests per core in the window")
    add_config_flags(cluster_parser, "--max-queue")
    cluster_parser.add_argument("--in-flight", type=positive_int, default=None,
                                help="outstanding requests per action (default: "
                                     "sized to keep the cluster's cores busy); "
                                     "raise above --max-queue to drive shedding")
    add_config_flags(cluster_parser, "--work-stealing", "--admission", "--autoscale")
    cluster_parser.set_defaults(func=cmd_cluster_scaling)

    load_parser = subparsers.add_parser(
        "latency-under-load",
        help="open-loop (Poisson) load sweep across scheduling strategies",
    )
    add_benchmark_args(load_parser, default="pyaes")
    add_config_arg(load_parser)
    add_config_flags(load_parser, "--invokers", default=4)
    add_cores_and_actions_args(load_parser, actions=8)
    load_parser.add_argument("--load-factors", type=positive_float, nargs="+",
                             default=[0.5, 1.0, 1.25],
                             help="offered load as fractions of the estimated "
                                  "warm cluster capacity")
    load_parser.add_argument("--duration", type=positive_float, default=4.0,
                             help="virtual seconds of arrivals per point")
    load_parser.add_argument("--warmup", type=non_negative_float, default=None,
                             help="virtual seconds excluded from the "
                                  "measurement window, shorter than "
                                  "--duration (default: duration/8, "
                                  "capped at 0.5s)")
    load_parser.add_argument("--arrivals",
                             choices=ARRIVAL_PROCESSES,
                             default="poisson",
                             help="arrival process: uniform Poisson over the "
                                  "actions; the heavy-tailed Azure-Functions-"
                                  "shaped per-action trace; the same with "
                                  "diurnal + correlated-burst temporal "
                                  "modulation; or a published Azure Functions "
                                  "trace CSV replayed via --trace-file")
    load_parser.add_argument("--trace-file", type=readable_file, default=None,
                             help="path to an Azure Functions "
                                  "invocations-per-function CSV "
                                  "(required with --arrivals azure-file)")
    add_config_flags(
        load_parser, "--planner", "--forecast-period", "--restorable-snapshots",
        "--snapshot-budget", "--isolation-mechanism", "--tracing",
    )
    add_trace_out_arg(load_parser, "--trace-out",
                      help="export the last load point's Chrome trace-event "
                           "JSON here (requires --tracing sampled or full)")
    load_parser.set_defaults(func=cmd_latency_under_load)

    fairness_parser = subparsers.add_parser(
        "tenant-fairness",
        help="aggressive vs polite tenant under FIFO, WFQ and quotas",
    )
    add_benchmark_args(fairness_parser, default="get-time")
    fairness_parser.set_defaults(language="p")
    add_config_arg(fairness_parser)
    add_config_flags(fairness_parser, "--invokers", default=2)
    add_cores_and_actions_args(fairness_parser, actions=4)
    fairness_parser.add_argument("--quota-factor", type=positive_float, default=1.2,
                                 help="per-tenant quota as a multiple of the "
                                      "estimated cluster capacity (default: 1.2; "
                                      "raise toward ~1.8 to trade tail-latency "
                                      "isolation for full utilisation)")
    fairness_parser.add_argument("--duration", type=positive_float, default=10.0,
                                 help="virtual seconds of arrivals per scenario")
    fairness_parser.add_argument("--warmup", type=non_negative_float, default=4.0,
                                 help="virtual seconds excluded from the window "
                                      "(must cover the cold-start transient)")
    fairness_parser.set_defaults(func=cmd_tenant_fairness)

    control_parser = subparsers.add_parser(
        "slo-control",
        help="closed-loop SLO control plane vs static knobs "
             "(quota auto-tuning + cross-invoker capacity shifting)",
    )
    add_benchmark_args(control_parser, default="get-time")
    control_parser.set_defaults(language="p")
    add_config_arg(control_parser)
    control_parser.add_argument("--parts", nargs="+",
                                choices=("quota", "capacity", "forecast"),
                                default=["quota", "capacity"],
                                help="which closed loops to demonstrate "
                                     "('forecast' compares the reactive vs "
                                     "the predictive capacity planner under "
                                     "diurnal arrivals at equal budget)")
    control_parser.add_argument("--duration", type=positive_float, default=12.0,
                                help="virtual seconds of arrivals per scenario")
    control_parser.add_argument("--warmup", type=non_negative_float, default=5.0,
                                help="virtual seconds excluded from the window "
                                     "(must cover cold starts and control-loop "
                                     "convergence)")
    control_parser.add_argument("--migrations", default=8,
                                type=_checked(int, lambda n: n >= 0,
                                              "must be a non-negative integer "
                                              "(got {!r})"),
                                help="planner migration decisions to print")
    control_parser.add_argument("--forecast-duration", type=positive_float,
                                default=15.0,
                                help="virtual seconds of diurnal arrivals in "
                                     "the forecast part")
    control_parser.add_argument("--forecast-cycles", default=3,
                                type=_checked(int, lambda n: n >= 2,
                                              "must be an integer >= 2 (got {!r})"),
                                help="diurnal cycles within the forecast "
                                     "part's duration (cycle 0 builds the "
                                     "forecaster's history)")
    add_config_flags(
        control_parser, "--restorable-snapshots", "--snapshot-budget",
        "--isolation-mechanism", "--tracing",
    )
    add_trace_out_arg(control_parser, "--trace-out",
                      help="export the controlled scenario's Chrome "
                           "trace-event JSON, decision audits included, here "
                           "(requires --tracing sampled or full)")
    control_parser.set_defaults(func=cmd_slo_control)

    perf_parser = subparsers.add_parser(
        "perf-trace",
        help="replay the tracked perf sections (metrics bookkeeping, "
             "cluster-scale routing, warmth spectrum, tracing overhead) "
             "and persist the perf baseline",
    )
    perf_parser.add_argument("--shape", choices=PERF_TRACE_SHAPES,
                             default="metrics",
                             help="which tracked section to measure, or all "
                                  "of them (the table is SECTIONS in "
                                  "repro.analysis.perf)")
    perf_parser.add_argument("--invocations", type=positive_int, default=None,
                             help="requested arrivals per run (default: "
                                  "each section's own full or --quick "
                                  "size)")
    add_config_flags(perf_parser, "--isolation-mechanism")
    perf_parser.add_argument("--quick", action="store_true",
                             help="CI smoke scale: each section's quick "
                                  "size, variants and repeats")
    perf_parser.add_argument("--trace-file", type=readable_file, default=None,
                             help="replay a published Azure Functions "
                                  "invocations-per-function CSV instead of "
                                  "the synthetic diurnal arrivals, in every "
                                  "section this command runs")
    add_config_flags(perf_parser, "--seed")
    perf_parser.add_argument("--output", default="BENCH_perf.json",
                             type=baseline_output,
                             help="where to write the JSON baseline "
                                  "('' disables; default: BENCH_perf.json)")
    add_trace_out_arg(perf_parser, "--trace-out",
                      help="write the first traced run's Chrome trace-event "
                           "JSON here (the tracing-overhead section's sampled "
                           "run; CI uploads it as an artifact)")
    perf_parser.set_defaults(func=cmd_perf_trace)

    trace_parser = subparsers.add_parser(
        "trace",
        help="flight recorder: replay a traced diurnal run, print the "
             "phase-level latency decomposition per tenant and dispatch "
             "class, optionally export a Chrome/Perfetto trace",
    )
    trace_parser.add_argument("--regime", choices=("on", "off"),
                              default="on",
                              help="warmth spectrum on (evictions demote "
                                   "to restorable snapshots) or off (every "
                                   "re-warm is a full cold boot); compare "
                                   "the boot vs restore phase shares "
                                   "(default: on)")
    trace_parser.add_argument("--invocations", type=positive_int, default=20_000,
                              help="requested arrivals (default: 20,000)")
    add_config_flags(trace_parser, "--tracing",
                     choices=TRACING_MODES[1:], default="sampled")
    add_config_flags(trace_parser, "--isolation-mechanism", "--seed")
    add_trace_out_arg(trace_parser, "--out", "--trace-out",
                      help="write the Chrome trace-event JSON here (load in "
                           "https://ui.perfetto.dev or chrome://tracing)")
    trace_parser.set_defaults(func=cmd_trace)

    lint_parser = subparsers.add_parser(
        "lint",
        help="determinism lint: scan sim-domain code for wall-clock "
             "reads, ambient randomness, escaping set order, "
             "id()-ordering, mutable module state and ambient inputs",
        epilog=EXIT_CODE_HELP,
    )
    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Malformed flags are refused before anything runs: a usage error, a
    flag's ``type=`` check or a :class:`~repro.config.SimulationConfig`
    refusal (each cluster command builds its config first) prints one
    ``error: ...`` line on stderr and exits 2.  So does a library error
    (any :class:`~repro.errors.ReproError`, e.g. an unknown or ambiguous
    benchmark name), instead of a traceback.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # A usage error (or ``--help``) is printed already; return its code.
        return int(exc.code or 0)
    # The flag pairs no one flag's check can see.
    pairs = (
        (getattr(args, "tracing", None) == "off" and args.trace_out is not None,
         "--trace-out requires --tracing sampled or full"),
        (getattr(args, "arrivals", None) == "azure-file" and args.trace_file is None,
         "--arrivals azure-file requires --trace-file"),
        # latency-under-load does not clamp its warmup, as the others do.
        (args.command == "latency-under-load" and (args.warmup or 0) >= args.duration,
         "--warmup must be shorter than --duration"),
    )
    for refused, refusal in pairs:
        if refused:
            print(f"error: {refusal}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
