"""Experiment drivers: one entry point per table and figure in the paper.

Every driver is deterministic (seeded), parameterised so it can be run at
reduced scale (the defaults used by the test suite and benchmark harness) or
at paper scale, and returns plain data structures that the benchmark harness
renders as the corresponding table/figure rows.  The module also holds the
cluster drivers (cluster scaling, latency under load, tenant fairness, SLO
control), which drive :class:`~repro.faas.cluster.FaaSCluster` the same way;
every open-loop run among them, and every perf replay, is built by
:func:`open_loop_client`.  Each driver takes only the parameters some
caller passes; the rest of a setup is fixed in its body.  A cluster
driver takes its deployment whole, as one ``cluster``
:class:`~repro.config.SimulationConfig` (defaulting to a module constant
such as :data:`LOAD_CLUSTER`), and replaces only the fields it derives or
its scenario fixes; no driver parameter sets a config field.  The perf
harness that measures the simulator's own host speed for
``BENCH_perf.json`` is :mod:`repro.analysis.perf`.

Driver map:

==========================  =====================================================
Paper artefact              Driver
==========================  =====================================================
Fig. 1 (life cycle)         :func:`run_lifecycle`
Fig. 3 left (dirty sweep)   :func:`run_fig3_dirty_sweep`
Fig. 3 right (size sweep)   :func:`run_fig3_size_sweep`
Fig. 4 (relative latency)   :func:`run_latency_suite`
Fig. 5 (relative xput)      :func:`run_throughput_suite`
Fig. 6 (restore GH/FAASM)   :func:`run_restoration_comparison`
Fig. 7 (core scaling)       :func:`run_scaling`
Fig. 8 (restore breakdown)  :func:`run_breakdown`
Table 1 / Table 2           latency + throughput suites, rendered by the benches
Table 3 (restore vs pages)  :func:`run_latency_suite` restore columns
§4.3 tracking ablation      :func:`run_tracking_ablation`
§4.4 skip-rollback          :func:`run_skip_rollback_ablation`
§3.2 cold-start / CRIU      :func:`run_coldstart_comparison`
Headline numbers (§1, §5)   :func:`headline_summary`
==========================  =====================================================
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.series import Series, SweepResult
from repro.analysis.stats import OverheadSummary, relative_overhead_percent, summarize_overheads
from repro.baselines.registry import create_mechanism, mechanism_class
from repro.config import LATENCY_CONFIG, SimulationConfig
from repro.core.restore import RestoreBreakdown
from repro.errors import PlatformError
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.controlplane import TenantSLO
from repro.faas.loadgen import (
    ClosedLoopClient,
    MultiActionSaturatingClient,
    OpenLoopClient,
    SaturatingClient,
    TenantMix,
    azure_diurnal_arrivals,
    azure_functions_arrivals,
    load_azure_trace_csv,
)
from repro.faas.metrics import LatencyStats, summarize
from repro.faas.obs import write_chrome_trace
from repro.faas.request import InvocationStatus
from repro.faas.scheduler import estimated_service_seconds, home_index
from repro.faas.platform import FaaSPlatform
from repro.runtime.profiles import FunctionProfile, Language
from repro.workloads.microbench import microbenchmark_profile
from repro.workloads.registry import (
    all_benchmarks,
    representative_benchmarks,
    wasm_benchmarks,
)
from repro.workloads.spec import BenchmarkSpec

#: Configurations compared in the main evaluation (Figs. 4 and 5).
MAIN_CONFIGS = ("base", "gh-nop", "gh", "fork", "faasm")
#: Configurations used by the microbenchmark sweeps (Fig. 3).
MICROBENCH_CONFIGS = ("base", "gh-nop", "gh", "fork")


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass
class BenchmarkConfigResult:
    """Everything measured for one (benchmark, configuration) pair."""

    benchmark: str
    suite: str
    config: str
    e2e: Optional[LatencyStats] = None
    invoker: Optional[LatencyStats] = None
    throughput_rps: Optional[float] = None
    restore_ms_mean: Optional[float] = None
    snapshot_ms: Optional[float] = None
    init_seconds: Optional[float] = None
    total_kpages: float = 0.0
    restored_pages_mean: Optional[float] = None
    dirty_pages_mean: Optional[float] = None
    faults_mean: Optional[float] = None


@dataclass
class EvaluationResult:
    """A collection of per-(benchmark, config) measurements."""

    records: List[BenchmarkConfigResult] = field(default_factory=list)

    def add(self, record: BenchmarkConfigResult) -> None:
        """Append one measurement."""
        self.records.append(record)

    def merge(self, other: "EvaluationResult") -> "EvaluationResult":
        """Merge measurements of the same pairs (e.g. latency + throughput)."""
        index = {(r.benchmark, r.config): r for r in self.records}
        for record in other.records:
            key = (record.benchmark, record.config)
            if key not in index:
                self.records.append(record)
                continue
            mine = index[key]
            for attr in (
                "e2e", "invoker", "throughput_rps", "restore_ms_mean", "snapshot_ms",
                "init_seconds", "restored_pages_mean", "dirty_pages_mean", "faults_mean",
            ):
                if getattr(mine, attr) is None and getattr(record, attr) is not None:
                    setattr(mine, attr, getattr(record, attr))
        return self

    def benchmarks(self) -> List[str]:
        """Benchmarks present, in first-seen order."""
        seen: List[str] = []
        for record in self.records:
            if record.benchmark not in seen:
                seen.append(record.benchmark)
        return seen

    def configs(self) -> List[str]:
        """Configurations present, in first-seen order."""
        seen: List[str] = []
        for record in self.records:
            if record.config not in seen:
                seen.append(record.config)
        return seen

    def record(self, benchmark: str, config: str) -> BenchmarkConfigResult:
        """Look up one measurement."""
        for candidate in self.records:
            if candidate.benchmark == benchmark and candidate.config == config:
                return candidate
        raise KeyError(f"no record for {benchmark!r} under {config!r}")

    def has(self, benchmark: str, config: str) -> bool:
        """True if a measurement exists for the pair."""
        return any(
            r.benchmark == benchmark and r.config == config for r in self.records
        )

    # -- derived views ----------------------------------------------------

    def relative_latency(self, config: str, *, metric: str = "e2e") -> Dict[str, float]:
        """Per-benchmark relative latency overhead (%) of ``config`` vs ``base``."""
        overheads: Dict[str, float] = {}
        for benchmark in self.benchmarks():
            if not (self.has(benchmark, config) and self.has(benchmark, "base")):
                continue
            target = getattr(self.record(benchmark, config), metric)
            base = getattr(self.record(benchmark, "base"), metric)
            if target is None or base is None:
                continue
            overheads[benchmark] = relative_overhead_percent(target.median, base.median)
        return overheads

    def relative_throughput(self, config: str) -> Dict[str, float]:
        """Per-benchmark throughput of ``config`` relative to ``base`` (1.0 = equal)."""
        ratios: Dict[str, float] = {}
        for benchmark in self.benchmarks():
            if not (self.has(benchmark, config) and self.has(benchmark, "base")):
                continue
            target = self.record(benchmark, config).throughput_rps
            base = self.record(benchmark, "base").throughput_rps
            if target is None or base is None or base <= 0:
                continue
            ratios[benchmark] = target / base
        return ratios


@dataclass(frozen=True)
class RestoreMeasurement:
    """Direct (platform-free) measurement of a mechanism's restore behaviour."""

    benchmark: str
    config: str
    restore_ms_mean: float
    restore_ms_median: float
    breakdown_mean: Dict[str, float]
    snapshot_ms: Optional[float]
    init_seconds: float
    dirty_pages_mean: float
    restored_pages_mean: float
    total_mapped_pages: int
    in_function_overhead_ms_mean: float


@dataclass(frozen=True)
class BreakdownRecord:
    """One row of the Fig. 8 restoration-breakdown chart."""

    benchmark: str
    restore_ms: float
    fractions: Dict[str, float]
    snapshot_ms: float
    total_kpages: float
    restored_kpages: float


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _profile_of(spec_or_profile) -> FunctionProfile:
    return (
        spec_or_profile.profile
        if isinstance(spec_or_profile, BenchmarkSpec)
        else spec_or_profile
    )


def measure_latency(
    spec_or_profile,
    config: str,
    *,
    invocations: int = 10,
) -> BenchmarkConfigResult:
    """Closed-loop latency measurement (the paper's §5.3 latency setup).

    A 0.3 s think time lets every restore finish before the next request,
    and the first two completions are warm-up, not measured.
    """
    profile = _profile_of(spec_or_profile)
    platform = FaaSPlatform(LATENCY_CONFIG)
    action = ActionSpec.for_profile(profile, config)
    platform.deploy(action)
    client = ClosedLoopClient(
        platform,
        action.name,
        num_requests=invocations,
        think_time_seconds=0.30,
    )
    completed = [
        inv for inv in client.run() if inv.status is InvocationStatus.COMPLETED
    ]
    measured = completed[min(2, max(0, invocations - 1)):]
    restores = [inv.report.restore for inv in measured if inv.report.restore is not None]
    restore_ms = (
        sum(r.total_seconds for r in restores) / len(restores) * 1000 if restores else None
    )
    restored_pages = (
        sum(r.pages_restored for r in restores) / len(restores) if restores else None
    )
    dirty_pages = (
        sum(r.dirty_pages for r in restores) / len(restores) if restores else None
    )
    faults = [inv.report.result.faults.total for inv in measured]
    init = platform.containers(action.name)[0].init_report
    suite = spec_or_profile.suite if isinstance(spec_or_profile, BenchmarkSpec) else profile.suite
    return BenchmarkConfigResult(
        benchmark=profile.qualified_name,
        suite=suite,
        config=config,
        e2e=summarize(inv.e2e_seconds for inv in measured),
        invoker=summarize(inv.invoker_seconds for inv in measured),
        restore_ms_mean=restore_ms,
        snapshot_ms=(init.prepare_seconds * 1000 if init and init.prepare_seconds else None),
        init_seconds=init.total_seconds if init else None,
        total_kpages=profile.total_kpages,
        restored_pages_mean=restored_pages,
        dirty_pages_mean=dirty_pages,
        faults_mean=sum(faults) / len(faults) if faults else None,
    )


def _saturation_window(profile: FunctionProfile, rounds: int) -> Tuple[float, float, float]:
    """Size a saturated measurement run for one profile.

    Returns ``(per_request_estimate, duration, warmup)``.  The per-request
    estimate is :func:`~repro.faas.scheduler.estimated_service_seconds` —
    rough container occupancy (execution plus estimated restoration); it is
    used only to size the window so that ``rounds`` requests fit per
    container.
    """
    per_request_estimate = estimated_service_seconds(profile)
    duration = max(0.5, rounds * per_request_estimate)
    warmup = min(duration * 0.15, per_request_estimate * 2)
    return per_request_estimate, duration, warmup


def measure_throughput(
    spec_or_profile,
    config: str,
    *,
    cores: int = 4,
    containers: int = 4,
    rounds: int = 10,
) -> BenchmarkConfigResult:
    """Saturated-throughput measurement (the paper's §5.3 throughput setup).

    ``rounds`` approximates how many requests each container should complete
    inside the measurement window.
    """
    profile = _profile_of(spec_or_profile)
    platform = FaaSPlatform(
        SimulationConfig(cores=cores, containers_per_action=containers)
    )
    action = ActionSpec.for_profile(profile, config)
    platform.deploy(action)
    _, duration, warmup = _saturation_window(profile, rounds)
    client = SaturatingClient(
        platform,
        action.name,
        # Enough requests in flight that the controller round-trip never
        # starves the invoker, even for sub-millisecond functions.
        in_flight=max(
            containers * 4, min(256, int(0.2 / max(profile.exec_seconds, 0.002)))
        ),
        duration_seconds=duration,
        warmup_seconds=warmup,
    )
    throughput = client.run()
    suite = spec_or_profile.suite if isinstance(spec_or_profile, BenchmarkSpec) else profile.suite
    return BenchmarkConfigResult(
        benchmark=profile.qualified_name,
        suite=suite,
        config=config,
        throughput_rps=throughput,
        total_kpages=profile.total_kpages,
    )


def measure_restores(
    spec_or_profile,
    config: str = "gh",
    *,
    invocations: int = 5,
    verify: bool = False,
) -> RestoreMeasurement:
    """Direct per-invocation restore measurement (no platform in the way)."""
    profile = _profile_of(spec_or_profile)
    mechanism = create_mechanism(config, profile, rng=random.Random(11))
    init = mechanism.initialize()
    restores = []
    breakdowns: List[RestoreBreakdown] = []
    overheads_ms = []
    for index in range(invocations):
        report = mechanism.invoke(
            request_id=f"restore-probe-{index}", caller=f"caller-{index}", verify=verify
        )
        overheads_ms.append((report.pre_seconds + report.relay_seconds
                             + report.result.fault_seconds) * 1000)
        if report.restore is not None:
            restores.append(report.restore)
            breakdowns.append(report.restore.breakdown)
    restore_totals = [r.total_seconds * 1000 for r in restores]
    ordered = sorted(restore_totals)
    breakdown_mean: Dict[str, float] = {}
    if breakdowns:
        for step in RestoreBreakdown.STEP_ORDER:
            breakdown_mean[step] = sum(getattr(b, step) for b in breakdowns) / len(breakdowns)
    snapshot_ms = init.prepare_seconds * 1000 if init.prepare_seconds else None
    return RestoreMeasurement(
        benchmark=profile.qualified_name,
        config=config,
        restore_ms_mean=sum(restore_totals) / len(restore_totals) if restore_totals else 0.0,
        restore_ms_median=ordered[len(ordered) // 2] if ordered else 0.0,
        breakdown_mean=breakdown_mean,
        snapshot_ms=snapshot_ms,
        init_seconds=init.total_seconds,
        dirty_pages_mean=(
            sum(r.dirty_pages for r in restores) / len(restores) if restores else 0.0
        ),
        restored_pages_mean=(
            sum(r.pages_restored for r in restores) / len(restores) if restores else 0.0
        ),
        total_mapped_pages=init.mapped_pages,
        in_function_overhead_ms_mean=sum(overheads_ms) / len(overheads_ms),
    )


# ---------------------------------------------------------------------------
# Fig. 1 — container life cycle
# ---------------------------------------------------------------------------


def run_lifecycle(profile: Optional[FunctionProfile] = None) -> Dict[str, float]:
    """Reproduce the Fig. 1 life-cycle phases for one container (seconds)."""
    if profile is None:
        profile = microbenchmark_profile(4000, 400, name="lifecycle")
    mechanism = create_mechanism("gh", profile, rng=random.Random(5))
    init = mechanism.initialize()
    report = mechanism.invoke(request_id="lifecycle-probe", caller="alice")
    restore_seconds = report.restore.total_seconds if report.restore else 0.0
    return {
        "environment_instantiation_seconds": init.container_create_seconds,
        "runtime_initialization_seconds": init.boot_seconds,
        "data_initialization_seconds": init.warm_seconds,
        "snapshot_seconds": init.prepare_seconds,
        "function_processing_seconds": report.critical_seconds,
        "gh_restoration_seconds": restore_seconds,
    }


# ---------------------------------------------------------------------------
# Fig. 3 — microbenchmark sweeps
# ---------------------------------------------------------------------------


def _microbench_point(
    mapped_pages: int,
    dirtied_pages: int,
    config: str,
    invocations: int,
    seed: int,
) -> Tuple[float, float]:
    """Mean (low-load latency, high-load latency) for one sweep point.

    One extra warm-up invocation is issued and discarded, mirroring the
    paper's measurement methodology (first-run effects such as the initial
    soft-dirty faults after the snapshot are not representative of the
    steady state).
    """
    profile = microbenchmark_profile(mapped_pages, dirtied_pages)
    mechanism = create_mechanism(config, profile, rng=random.Random(seed))
    mechanism.initialize()
    mechanism.invoke(request_id="mb-warmup", caller="warmup")
    low, high = [], []
    for index in range(invocations):
        report = mechanism.invoke(request_id=f"mb-{index}", caller=f"c{index}")
        low.append(report.critical_seconds)
        high.append(report.critical_seconds + report.post_seconds)
    return sum(low) / len(low), sum(high) / len(high)


def run_fig3_dirty_sweep(
    *,
    mapped_pages: int = 20_000,
    dirty_fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    invocations: int = 3,
) -> Tuple[SweepResult, SweepResult]:
    """Fig. 3 (left): latency vs the percentage of dirtied pages.

    Returns ``(low_load, high_load)`` sweeps; the paper's solid lines are the
    low-load (in-function only) numbers and the dashed lines add restoration.
    """
    low_sweep = SweepResult(x_label="dirtied pages (%)", y_label="latency (s)")
    high_sweep = SweepResult(x_label="dirtied pages (%)", y_label="latency (s)")
    for config in MICROBENCH_CONFIGS:
        low_points, high_points = [], []
        for fraction in dirty_fractions:
            dirtied = int(mapped_pages * fraction)
            low, high = _microbench_point(mapped_pages, dirtied, config, invocations, 17)
            low_points.append((fraction * 100.0, low))
            high_points.append((fraction * 100.0, high))
        low_sweep.add(Series.from_points(config, low_points))
        high_sweep.add(Series.from_points(config, high_points))
    return low_sweep, high_sweep


def run_fig3_size_sweep(
    *,
    sizes: Sequence[int] = (1_000, 5_000, 10_000, 20_000, 40_000),
    dirtied_pages: int = 1_000,
    invocations: int = 3,
) -> Tuple[SweepResult, SweepResult]:
    """Fig. 3 (right): latency vs address-space size with a fixed write set."""
    low_sweep = SweepResult(x_label="address space (pages)", y_label="latency (s)")
    high_sweep = SweepResult(x_label="address space (pages)", y_label="latency (s)")
    for config in MICROBENCH_CONFIGS:
        low_points, high_points = [], []
        for size in sizes:
            low, high = _microbench_point(size, min(dirtied_pages, size), config,
                                          invocations, 19)
            low_points.append((float(size), low))
            high_points.append((float(size), high))
        low_sweep.add(Series.from_points(config, low_points))
        high_sweep.add(Series.from_points(config, high_points))
    return low_sweep, high_sweep


# ---------------------------------------------------------------------------
# Figs. 4 & 5, Tables 1-3 — the benchmark suites
# ---------------------------------------------------------------------------


def _applicable(config: str, spec: BenchmarkSpec) -> bool:
    return mechanism_class(config).supports(spec.profile)


def run_latency_suite(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    configs: Sequence[str] = MAIN_CONFIGS,
    invocations: int = 10,
) -> EvaluationResult:
    """Closed-loop latency for every (benchmark, config) pair (Fig. 4)."""
    if benchmarks is None:
        benchmarks = all_benchmarks()
    result = EvaluationResult()
    for spec in benchmarks:
        for config in configs:
            if not _applicable(config, spec):
                continue
            result.add(measure_latency(spec, config, invocations=invocations))
    return result


def run_throughput_suite(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    configs: Sequence[str] = ("base", "gh-nop", "gh", "fork"),
    rounds: int = 10,
) -> EvaluationResult:
    """Saturated throughput for every (benchmark, config) pair (Fig. 5)."""
    if benchmarks is None:
        benchmarks = all_benchmarks()
    result = EvaluationResult()
    for spec in benchmarks:
        for config in configs:
            if not _applicable(config, spec):
                continue
            result.add(measure_throughput(spec, config, rounds=rounds))
    return result


# ---------------------------------------------------------------------------
# Fig. 6 — restoration duration: GH vs FAASM
# ---------------------------------------------------------------------------


def run_restoration_comparison(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    invocations: int = 5,
) -> Dict[str, Dict[str, float]]:
    """Mean restoration duration (ms) per benchmark for GH and FAASM."""
    if benchmarks is None:
        benchmarks = wasm_benchmarks()
    configs = ("gh", "faasm")
    durations: Dict[str, Dict[str, float]] = {config: {} for config in configs}
    for spec in benchmarks:
        for config in configs:
            if not _applicable(config, spec):
                continue
            measurement = measure_restores(spec, config, invocations=invocations)
            durations[config][spec.qualified_name] = measurement.restore_ms_mean
    return durations


# ---------------------------------------------------------------------------
# Fig. 7 — throughput scaling with cores
# ---------------------------------------------------------------------------


def run_scaling(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    configs: Sequence[str] = ("base", "gh-nop", "gh"),
    cores: Sequence[int] = (1, 2, 3, 4),
    rounds: int = 5,
) -> Dict[str, SweepResult]:
    """Absolute throughput as a function of the number of cores."""
    if benchmarks is None:
        benchmarks = representative_benchmarks()
    sweeps: Dict[str, SweepResult] = {}
    for spec in benchmarks:
        sweep = SweepResult(x_label="cores", y_label="throughput (req/s)")
        for config in configs:
            if not _applicable(config, spec):
                continue
            points = []
            for core_count in cores:
                record = measure_throughput(
                    spec, config, cores=core_count, containers=core_count,
                    rounds=rounds,
                )
                points.append((float(core_count), record.throughput_rps or 0.0))
            sweep.add(Series.from_points(config, points))
        sweeps[spec.qualified_name] = sweep
    return sweeps


# ---------------------------------------------------------------------------
# Fig. 7 (cluster variant) — throughput scaling with invokers × policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterMeasurement:
    """Aggregate behaviour of one cluster run."""

    benchmark: str
    config: str
    policy: str
    invokers: int
    throughput_rps: float
    warm_hit_rate: float
    cold_starts: int
    rejected: int
    #: Max/mean invocations routed per invoker (1.0 = perfectly even); the
    #: visible cost of hash affinity's per-action load skew.
    routing_skew: float = 1.0
    #: Invocations moved between invokers by work stealing.
    steals: int = 0


def _deploy_action_copies(
    platform: FaaSCluster,
    spec_or_profile,
    config: str,
    actions: int,
    action_names: Optional[Sequence[str]] = None,
) -> List[str]:
    """Deploy ``actions`` distinctly named copies of a benchmark action.

    ``action_names`` overrides the generated names — used to construct
    deliberately skewed deployments (names whose hash homes collide).
    """
    if action_names is not None and len(action_names) != actions:
        raise ValueError("action_names must match the number of actions")
    names = []
    for index in range(actions):
        action = ActionSpec.for_profile(_profile_of(spec_or_profile), config)
        name = action_names[index] if action_names else f"{action.name}@{index}"
        action = dataclasses.replace(action, name=name)
        platform.deploy(action)
        names.append(action.name)
    return names


#: Each cluster driver's default deployment (its docstring says which
#: fields it replaces): :func:`measure_cluster_throughput`'s, then
#: :func:`measure_latency_under_load`'s, :func:`run_tenant_fairness`'s and
#: :func:`run_slo_control`'s.
THROUGHPUT_CLUSTER = SimulationConfig(cores=4, invokers=4)
LOAD_CLUSTER = SimulationConfig(cores=2, invokers=4, scheduler_policy="warm-aware")
TENANT_CLUSTER = SimulationConfig(cores=2, invokers=2)
SLO_CLUSTER = SimulationConfig()


def measure_cluster_throughput(
    spec_or_profile,
    config: str,
    *,
    cluster: SimulationConfig = THROUGHPUT_CLUSTER,
    actions: int = 8,
    rounds: int = 10,
    in_flight_per_action: Optional[int] = None,
) -> ClusterMeasurement:
    """Aggregate saturated throughput of a cluster deployment.

    Deploys ``actions`` copies of the benchmark (distinct action names, so
    hash affinity spreads their homes across invokers), one pre-warmed
    container each, on ``cluster``, and saturates all of them at once.
    ``rounds`` approximates how many requests each core should complete
    inside the measurement window.  The driver replaces one field of
    ``cluster``: ``max_containers_per_action``, which it derives.
    """
    profile = _profile_of(spec_or_profile)
    platform = FaaSCluster(
        dataclasses.replace(
            cluster,
            # Under reactive autoscaling the ceiling *starts* at the
            # pre-warmed count and rises with observed pressure; statically
            # configured pools get the full core-bounded ceiling up front.
            max_containers_per_action=1 if cluster.autoscale else cluster.cores,
        )
    )
    names = _deploy_action_copies(platform, spec_or_profile, config, actions)
    _, duration, warmup = _saturation_window(profile, rounds)
    if in_flight_per_action is None:
        # Enough outstanding work per action that the whole cluster's cores
        # stay busy even when one invoker is every action's home.
        in_flight_per_action = max(2, (cluster.invokers * cluster.cores * 2) // actions + 1)
    client = MultiActionSaturatingClient(
        platform,
        names,
        in_flight_per_action=in_flight_per_action,
        duration_seconds=duration,
        warmup_seconds=warmup,
    )
    throughput = client.run()
    return ClusterMeasurement(
        benchmark=profile.qualified_name,
        config=config,
        policy=cluster.scheduler_policy,
        invokers=cluster.invokers,
        throughput_rps=throughput,
        warm_hit_rate=platform.warm_hit_rate,
        cold_starts=sum(inv.cold_starts for inv in platform.invokers),
        rejected=sum(inv.invocations_rejected for inv in platform.invokers),
        routing_skew=platform.routing_skew,
        steals=platform.steals,
    )


def run_cluster_scaling(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    invoker_counts: Sequence[int] = (1, 2, 4),
    policies: Sequence[str] = ("round-robin", "least-loaded", "hash-affinity"),
    rounds: int = 5,
) -> Dict[str, Dict[str, SweepResult]]:
    """Fig. 7 cluster variant: aggregate throughput vs invoker count per policy.

    Eight ``gh`` copies of each benchmark on 2-core invokers.  Returns two
    sweeps per benchmark, keyed ``"throughput"`` and ``"skew"``; each
    series is a scheduling policy, each x value an invoker count.  The
    skew sweep (max/mean invocations routed per invoker) makes the load
    imbalance behind hash affinity's warm hits visible next to its
    throughput.
    """
    if benchmarks is None:
        benchmarks = representative_benchmarks()[:2]
    base = SimulationConfig(cores=2)
    sweeps: Dict[str, Dict[str, SweepResult]] = {}
    for spec in benchmarks:
        if not _applicable("gh", spec):
            continue
        throughput_sweep = SweepResult(
            x_label="invokers", y_label="aggregate throughput (req/s)"
        )
        skew_sweep = SweepResult(
            x_label="invokers", y_label="routing skew (max/mean)"
        )
        for policy in policies:
            throughput_points = []
            skew_points = []
            for count in invoker_counts:
                measurement = measure_cluster_throughput(
                    spec, "gh",
                    cluster=dataclasses.replace(
                        base, invokers=count, scheduler_policy=policy
                    ),
                    actions=8, rounds=rounds,
                )
                throughput_points.append((float(count), measurement.throughput_rps))
                skew_points.append((float(count), measurement.routing_skew))
            throughput_sweep.add(Series.from_points(policy, throughput_points))
            skew_sweep.add(Series.from_points(policy, skew_points))
        sweeps[spec.qualified_name] = {
            "throughput": throughput_sweep,
            "skew": skew_sweep,
        }
    return sweeps


# ---------------------------------------------------------------------------
# Open-loop cluster runs — one builder for every driver below
# ---------------------------------------------------------------------------


#: Arrival processes an open-loop run can replay (see :func:`open_loop_client`).
ARRIVAL_PROCESSES = ("poisson", "azure", "azure-diurnal", "azure-file")


def open_loop_client(
    cluster: SimulationConfig,
    spec_or_profile,
    config: str,
    actions: int,
    *,
    action_names: Optional[Sequence[str]] = None,
    offered_rps: float,
    duration_seconds: float,
    warmup_seconds: float,
    arrivals: str = "poisson",
    trace_file: Optional[str] = None,
    period_seconds: Optional[float] = None,
    amplitude: float = 0.6,
    burst_fraction: float = 0.1,
    caller_for: Optional[Callable[[int], str]] = None,
    tenant_slos: Optional[Mapping[str, TenantSLO]] = None,
    keep_samples: bool = True,
) -> OpenLoopClient:
    """Build one open-loop cluster run; ``client.run()`` replays it.

    Builds a :class:`~repro.faas.cluster.FaaSCluster` from ``cluster``
    (declaring ``tenant_slos`` to its control plane), deploys ``actions``
    copies of the benchmark under isolation configuration ``config`` (named
    ``action_names`` when given), draws the arrivals and returns the
    :class:`~repro.faas.loadgen.OpenLoopClient` that issues them;
    ``client.platform`` is the cluster.  ``arrivals`` is one of
    :data:`ARRIVAL_PROCESSES`:

    * ``"poisson"`` — Poisson arrivals at ``offered_rps``, each to an
      action drawn uniformly;
    * ``"azure"`` — the heavy-tailed Azure-Functions-shaped per-action mix
      of :func:`~repro.faas.loadgen.azure_functions_arrivals` at the same
      mean rate;
    * ``"azure-diurnal"`` — that mix with the diurnal cycle and correlated
      bursts of :func:`~repro.faas.loadgen.azure_diurnal_arrivals`
      (``period_seconds``, ``amplitude`` and ``burst_fraction`` shape it);
    * ``"azure-file"`` — a published Azure Functions trace CSV
      (``trace_file``) rescaled to the offered rate by
      :func:`~repro.faas.loadgen.load_azure_trace_csv`.

    The traces draw from the cluster's ``"azure-trace"`` stream.  The run
    measures completions after ``warmup_seconds``; ``keep_samples=False``
    keeps no invocation (see :class:`~repro.faas.loadgen.OpenLoopClient`).
    """
    if arrivals not in ARRIVAL_PROCESSES:
        raise ValueError(f"unknown arrival process {arrivals!r}")
    if arrivals == "azure-file" and trace_file is None:
        raise ValueError("arrivals='azure-file' needs a trace_file path")
    platform = FaaSCluster(cluster, tenant_slos=tenant_slos)
    names = _deploy_action_copies(
        platform, spec_or_profile, config, actions, action_names=action_names
    )
    trace = sequence = None
    if arrivals != "poisson":
        common = dict(
            duration_seconds=duration_seconds,
            mean_rps=offered_rps,
            rng=platform.rng_streams.stream("azure-trace"),
        )
        if arrivals == "azure":
            trace, sequence = azure_functions_arrivals(names, **common)
        elif arrivals == "azure-diurnal":
            trace, sequence = azure_diurnal_arrivals(
                names,
                period_seconds=period_seconds,
                amplitude=amplitude,
                burst_fraction=burst_fraction,
                **common,
            )
        else:
            trace, sequence = load_azure_trace_csv(trace_file, names, **common)
    return OpenLoopClient(
        platform,
        names,
        rate_rps=offered_rps if trace is None else None,
        trace=trace,
        action_sequence=sequence,
        duration_seconds=duration_seconds,
        warmup_seconds=warmup_seconds,
        caller_for=caller_for,
        keep_samples=keep_samples,
    )


def _export_trace(platform: FaaSCluster, trace_out: Optional[str]) -> None:
    """Write the run's flight recorder to ``trace_out`` as a Chrome trace."""
    if trace_out is None:
        return
    recorder = platform.trace()
    if recorder is None:
        raise PlatformError("trace_out requires tracing='sampled' or 'full'")
    write_chrome_trace(recorder, trace_out)


# ---------------------------------------------------------------------------
# Latency under open-loop load — policies × offered load
# ---------------------------------------------------------------------------


def strategy_label(policy: str, work_stealing: bool) -> str:
    """Display label of a routing strategy: the policy, ``+steal`` when on."""
    return f"{policy}+steal" if work_stealing else policy


@dataclass(frozen=True)
class LoadPoint:
    """One (strategy, offered load) point of the latency-under-load curve."""

    benchmark: str
    config: str
    policy: str
    work_stealing: bool
    invokers: int
    offered_rps: float
    achieved_rps: float
    goodput_fraction: float
    p50_ms: Optional[float]
    p95_ms: Optional[float]
    rejected: int
    cold_starts: int
    steals: int
    warm_hit_rate: float
    routing_skew: float = 1.0
    #: Arrivals refused by per-tenant quota enforcement.
    throttled: int = 0

    @property
    def strategy(self) -> str:
        """Display label: the policy, ``+steal`` when stealing is on."""
        return strategy_label(self.policy, self.work_stealing)


def measure_latency_under_load(
    spec_or_profile,
    config: str = "gh",
    *,
    cluster: SimulationConfig = LOAD_CLUSTER,
    offered_rps: float,
    actions: int = 8,
    duration_seconds: float = 4.0,
    warmup_seconds: float = 0.5,
    action_names: Optional[Sequence[str]] = None,
    arrivals: str = "poisson",
    trace_file: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> LoadPoint:
    """One open-loop run: arrivals at ``offered_rps`` into ``cluster``.

    Arrivals are independent of completions, so a strategy that burns core
    time on cold starts falls behind visibly: achieved throughput flattens
    below the offered load and queueing inflates the latency percentiles.
    The routing strategy, the control plane, the warmth spectrum and the
    flight recorder are ``cluster``'s; the driver replaces one field,
    ``max_containers_per_action``, which it derives from ``cores``.
    ``action_names`` can force a deliberately skewed deployment (e.g. names
    whose home invokers collide, the hash-affinity worst case).
    ``arrivals`` and ``trace_file`` select the arrival process (see
    :func:`open_loop_client`).  With ``trace_out`` set the run's recorder
    is exported as Chrome trace-event JSON to that path after the load
    finishes.
    """
    profile = _profile_of(spec_or_profile)
    client = open_loop_client(
        dataclasses.replace(cluster, max_containers_per_action=cluster.cores),
        spec_or_profile,
        config,
        actions,
        action_names=action_names,
        offered_rps=offered_rps,
        duration_seconds=duration_seconds,
        warmup_seconds=warmup_seconds,
        arrivals=arrivals,
        trace_file=trace_file,
    )
    result = client.run()
    platform = client.platform
    _export_trace(platform, trace_out)
    return LoadPoint(
        benchmark=profile.qualified_name,
        config=config,
        policy=cluster.scheduler_policy,
        work_stealing=cluster.work_stealing,
        invokers=cluster.invokers,
        offered_rps=result.offered_rps,
        achieved_rps=result.achieved_rps,
        goodput_fraction=result.goodput_fraction,
        p50_ms=result.e2e.median * 1000 if result.e2e else None,
        p95_ms=result.e2e.p95 * 1000 if result.e2e else None,
        rejected=result.rejected,
        cold_starts=sum(inv.cold_starts for inv in platform.invokers),
        steals=platform.steals,
        warm_hit_rate=platform.warm_hit_rate,
        routing_skew=platform.routing_skew,
        throttled=result.throttled,
    )


def balanced_action_names(
    count: int, *, invokers: int, prefix: str = "even"
) -> List[str]:
    """Generate action names whose hash homes spread round-robin.

    The opposite of :func:`colliding_action_names`: action ``i`` homes on
    invoker ``i % invokers``, so pre-warmed capacity is spread evenly and
    measured differences come from the policies under test rather than an
    accident of name hashing.
    """
    if invokers < 1:
        raise ValueError("invokers must be >= 1")
    names: List[str] = []
    index = 0
    while len(names) < count:
        target = len(names) % invokers
        name = f"{prefix}-{index}"
        if home_index(name, invokers) == target:
            names.append(name)
        index += 1
    return names


def colliding_action_names(
    count: int, *, invokers: int, home: int = 0
) -> List[str]:
    """Generate action names whose hash homes all collide on one invoker.

    The hash-affinity worst case: every action's pre-warmed containers land
    on the same home, so affinity funnels the whole offered load into one
    invoker while the rest of the cluster idles.
    """
    if not 0 <= home < invokers:
        raise ValueError(f"home must be in [0, {invokers}) (got {home})")
    names: List[str] = []
    index = 0
    while len(names) < count:
        name = f"skew-{index}"
        if home_index(name, invokers) == home:
            names.append(name)
        index += 1
    return names


#: The routing strategies the latency-under-load experiment compares:
#: (policy, work_stealing) pairs.
LOAD_STRATEGIES = (
    ("least-loaded", False),
    ("hash-affinity", False),
    ("warm-aware", True),
)


def estimate_cluster_capacity_rps(
    spec_or_profile, *, invokers: int = 4, cores: int = 2
) -> float:
    """Rough aggregate capacity of a warm cluster, for sizing offered loads."""
    profile = _profile_of(spec_or_profile)
    per_request_estimate, _, _ = _saturation_window(profile, 1)
    return invokers * cores / per_request_estimate


# ---------------------------------------------------------------------------
# Tenant mixes — admission, quotas and SLO control under contention
# ---------------------------------------------------------------------------


#: The tenants of the tenant-mix experiments.  The polite one offers a
#: quarter of the cluster's estimated warm capacity, the aggressive one
#: three times what the whole cluster can serve.
POLITE_TENANT = "polite"
AGGRESSIVE_TENANT = "aggressive"


@dataclass(frozen=True)
class TenantOutcome:
    """What one tenant experienced in one tenant-mix scenario."""

    tenant: str
    #: Arrival rate this tenant drove (requests/second of virtual time).
    offered_rps: float
    #: In-window completions per second of measurement window.
    achieved_rps: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    completed: int
    rejected: int
    throttled: int

    @property
    def goodput_fraction(self) -> float:
        """Achieved / offered (1.0 = every request of this tenant served)."""
        if self.offered_rps <= 0:
            return 0.0
        return self.achieved_rps / self.offered_rps


@dataclass(frozen=True)
class TenantScenario:
    """One tenant-mix run under one knob regime."""

    label: str
    admission_policy: str
    #: The per-tenant quota rate (``None``: no hand-set quota).
    tenant_quota_rps: Optional[float]
    #: True when the SLO control plane was driving the knobs.
    control: bool
    #: Aggregate in-window completions per second, all tenants together.
    aggregate_rps: float
    tenants: Dict[str, TenantOutcome]
    #: Control-loop counters (empty without the control plane).
    control_stats: Dict[str, object]

    @property
    def admission(self) -> str:
        """The regime's label: the policy, then ``+quota``/``+control`` when on."""
        return (
            self.admission_policy
            + ("+quota" if self.tenant_quota_rps is not None else "")
            + ("+control" if self.control else "")
        )

    def outcome(self, tenant: str) -> TenantOutcome:
        """The named tenant's outcome."""
        return self.tenants[tenant]


def _tenant_outcomes(
    client: OpenLoopClient,
    mix: TenantMix,
    offered_rps: float,
    window_start: float,
    deadline: float,
) -> Dict[str, TenantOutcome]:
    """Split one open-loop run's results per tenant.

    Every column is restricted to the post-warmup measurement window —
    rejections and throttles included, so a cold-start transient covered
    by the warmup cannot inflate the shed counts shown next to windowed
    goodput.
    """
    window = deadline - window_start

    def in_window(tenant: str, invocations, status: InvocationStatus):
        return [
            inv for inv in invocations
            if inv.caller == tenant
            and inv.status is status
            and window_start <= inv.completed_at <= deadline
        ]

    outcomes: Dict[str, TenantOutcome] = {}
    for tenant in mix.tenants:
        completions = in_window(
            tenant, client.completed, InvocationStatus.COMPLETED
        )
        latencies = [inv.e2e_seconds for inv in completions]
        stats = LatencyStats.from_samples(latencies) if latencies else None
        outcomes[tenant] = TenantOutcome(
            tenant=tenant,
            offered_rps=offered_rps * mix.share(tenant),
            achieved_rps=len(completions) / window,
            p50_ms=stats.median * 1000 if stats else None,
            p99_ms=stats.p99 * 1000 if stats else None,
            completed=len(completions),
            rejected=len(
                in_window(tenant, client.rejected, InvocationStatus.REJECTED)
            ),
            throttled=len(
                in_window(tenant, client.throttled, InvocationStatus.THROTTLED)
            ),
        )
    return outcomes


def _tenant_loads(capacity_rps: float) -> Tuple[Tuple[TenantMix, float], ...]:
    """The polite tenant alone, then both tenants: each mix and its offered rate."""
    polite_rps = capacity_rps * 0.25
    aggressive_rps = capacity_rps * 3.0
    return (
        (TenantMix({POLITE_TENANT: 1.0}), polite_rps),
        (
            TenantMix({AGGRESSIVE_TENANT: aggressive_rps, POLITE_TENANT: polite_rps}),
            polite_rps + aggressive_rps,
        ),
    )


def _tenant_cluster(base: SimulationConfig) -> SimulationConfig:
    """``base`` on the tenant-mix topology: warm-aware routing, queues of 16."""
    return dataclasses.replace(
        base,
        scheduler_policy="warm-aware",
        max_containers_per_action=base.cores,
        max_queue_per_action=16,
    )


def _tenant_scenario(
    label: str,
    cluster: SimulationConfig,
    load: Tuple[TenantMix, float],
    spec,
    config: str,
    *,
    actions: int,
    duration_seconds: float,
    warmup_seconds: float,
    tenant_slos: Optional[Mapping[str, TenantSLO]] = None,
    trace_out: Optional[str] = None,
) -> TenantScenario:
    """Run one tenant mix on ``cluster`` and split its outcome per tenant.

    Homes are balanced: pre-warmed capacity spreads evenly, so scenarios
    differ only in admission, quotas and control, not in an accident of
    which invoker the action names hash to.
    """
    mix, offered_rps = load
    client = open_loop_client(
        cluster,
        spec,
        config,
        actions,
        action_names=balanced_action_names(
            actions, invokers=cluster.invokers, prefix="tenant"
        ),
        offered_rps=offered_rps,
        duration_seconds=duration_seconds,
        warmup_seconds=warmup_seconds,
        caller_for=mix,
        tenant_slos=tenant_slos,
    )
    result = client.run()
    _export_trace(client.platform, trace_out)
    return TenantScenario(
        label=label,
        admission_policy=cluster.admission_policy,
        tenant_quota_rps=cluster.tenant_quota_rps,
        control=cluster.control_plane,
        aggregate_rps=result.achieved_rps,
        tenants=_tenant_outcomes(
            client, mix, offered_rps, warmup_seconds, duration_seconds
        ),
        control_stats=client.platform.control_plane_stats(),
    )


def run_tenant_fairness(
    spec: Optional[BenchmarkSpec] = None,
    *,
    config: str = "gh",
    cluster: SimulationConfig = TENANT_CLUSTER,
    actions: int = 4,
    quota_factor: float = 1.2,
    duration_seconds: float = 10.0,
    warmup_seconds: float = 4.0,
) -> Dict[str, TenantScenario]:
    """The tenant-fairness experiment: can a burst collapse a polite tenant?

    Two tenants share a cluster: a *polite* tenant offering a modest
    fraction of the cluster's warm capacity and an *aggressive* tenant
    offering more than the whole cluster can serve.  Three scenarios, all
    with the same bounded per-action queues:

    * ``"solo"`` — the polite tenant alone (its entitlement baseline:
      what it gets when nobody contends).
    * ``"fifo"`` — both tenants under caller-blind FIFO admission.  The
      aggressive burst fills every bounded queue, so the polite tenant's
      requests are shed in proportion to arrival share and its goodput
      collapses far below the solo run.
    * ``"wfq+quota"`` — both tenants under deficit-round-robin fair
      queueing plus per-tenant token-bucket quotas (``quota_factor`` of
      estimated cluster capacity per tenant).  The aggressive tenant is
      capped — its excess arrivals are throttled or displaced — while the
      polite tenant's goodput and tail latency return to its solo run,
      and the aggregate stays at the FIFO level (fairness re-divides the
      capacity, it does not waste it).

    ``quota_factor`` defaults slightly *above* the estimated capacity: the
    quota's job is to cap the aggressive tenant's admitted rate near what
    the cluster can actually serve (throttling the hopeless excess
    cheaply, before it churns the queues), not to leave capacity idle —
    the bounded queues and fair displacement absorb the remainder.
    ``warmup_seconds`` must cover the initial cold-start transient
    (container boots run hundreds of milliseconds) so the measured window
    is steady state.  Every scenario replaces ``cluster``'s routing
    (warm-aware), ``max_containers_per_action`` (``cores``) and queue
    bound (16); ``"wfq+quota"`` also ``admission_policy`` and
    ``tenant_quota_rps``.  Returns the three scenarios keyed by label.
    """
    if spec is None:
        spec = representative_benchmarks()[0]
    capacity = estimate_cluster_capacity_rps(spec, invokers=cluster.invokers, cores=cluster.cores)
    solo, contended = _tenant_loads(capacity)
    shared = _tenant_cluster(cluster)
    scenarios = (
        ("solo", shared, solo),
        ("fifo", shared, contended),
        (
            "wfq+quota",
            dataclasses.replace(
                shared, admission_policy="wfq", tenant_quota_rps=capacity * quota_factor
            ),
            contended,
        ),
    )
    return {
        label: _tenant_scenario(
            label, knobs, load, spec, config, actions=actions,
            duration_seconds=duration_seconds, warmup_seconds=warmup_seconds,
        )
        for label, knobs, load in scenarios
    }


# ---------------------------------------------------------------------------
# SLO control — closed-loop quota tuning and cross-invoker capacity shifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityPlanOutcome:
    """One skewed-deployment run under one capacity-management regime."""

    label: str
    offered_rps: float
    achieved_rps: float
    goodput_fraction: float
    warm_hit_rate: float
    cold_starts: int
    steals: int
    #: Containers seeded proactively by the planner (0 for reactive runs).
    prewarms: int
    #: Idle containers the planner reclaimed early (0 for reactive runs).
    drains: int
    p95_ms: Optional[float]
    #: Planner capacity movements, in tick order (empty for reactive runs).
    migrations: Tuple = ()
    control_stats: Dict[str, object] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class ForecastOutcome:
    """One diurnal-arrivals run under one capacity-planner kind.

    The rising-edge columns are the forecast story: cold dispatches
    (requests whose container boot sat on their critical path) counted
    inside the windows where the diurnal rate is climbing from trough to
    peak — exactly where a reactive planner is one boot-time late and a
    predictive one should already have seeded.
    """

    label: str
    #: ``"reactive"`` or ``"predictive"``.
    planner: str
    offered_rps: float
    achieved_rps: float
    goodput_fraction: float
    #: Windowed end-to-end p99 (ms) over the post-warmup completions.
    p99_ms: Optional[float]
    #: On-demand container boots over the whole run.
    cold_starts: int
    #: On-demand boots requested inside the measured rising-edge windows
    #: — the cold-start storm the forecast exists to pre-empt.
    rising_cold_starts: int
    #: Requests whose boot sat on their critical path, whole run.
    cold_dispatches: int
    #: The same, restricted to the measured rising-edge windows.
    rising_cold_dispatches: int
    #: The [start, end) rising-edge windows that were measured (cycles
    #: after the first, so the forecaster has history).
    rising_windows: Tuple[Tuple[float, float], ...]
    prewarms: int
    drains: int
    #: The global container budget both regimes share.
    budget: int
    control_stats: Dict[str, object] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class SLOControlResult:
    """Everything :func:`run_slo_control` measured."""

    #: The p99 target declared for the polite tenant (ms), derived from its
    #: solo entitlement run; ``None`` when the quota part was skipped.
    polite_slo_p99_ms: Optional[float]
    #: ``solo`` / ``static`` / ``controlled`` tenant-mix scenarios.
    quota: Dict[str, TenantScenario]
    #: ``reactive`` / ``planned`` skewed-deployment runs.
    capacity: Dict[str, CapacityPlanOutcome]
    #: ``reactive`` / ``predictive`` diurnal-arrival runs (the
    #: forecast-driven pre-warming comparison; empty unless the
    #: ``"forecast"`` part ran).
    forecast: Dict[str, ForecastOutcome] = dataclasses.field(default_factory=dict)


def run_slo_control(
    spec: Optional[BenchmarkSpec] = None,
    *,
    config: str = "gh",
    cluster: SimulationConfig = SLO_CLUSTER,
    parts: Sequence[str] = ("quota", "capacity"),
    duration_seconds: float = 12.0,
    warmup_seconds: float = 5.0,
    capacity_duration_seconds: float = 8.0,
    capacity_warmup_seconds: float = 2.5,
    forecast_duration_seconds: float = 15.0,
    forecast_cycles: int = 3,
    trace_out: Optional[str] = None,
) -> SLOControlResult:
    """The control-plane experiment: closed loops vs hand-set (or no) knobs.

    Three independent parts (select with ``parts``):

    **Quota tuning** — the tenant-fairness contention scenario on its
    topology (2 invokers of 2 cores, 4 actions), but with *no hand-set
    quotas anywhere*:

    * ``"solo"`` — the polite tenant alone (its entitlement).  The
      declared SLO is derived from this run: p99 target = 1.5 × the solo
      p99 (an operator promising a modest multiple of uncontended
      latency), plus a goodput floor of 0.7.
    * ``"static"`` — both tenants under the static defaults (caller-blind
      FIFO, no quotas).  The aggressive burst collapses the polite
      tenant.
    * ``"controlled"`` — both tenants under WFQ with the control plane
      on: the SLO monitor scores the polite tenant's windowed p99/goodput,
      and the AIMD tuner cuts the aggressive tenant's admission rate and
      boosts the polite tenant's fair-queue weight until the SLO holds,
      then probes back up.  No quota number appears anywhere in the
      configuration.

    **Capacity planning** — the hash-affinity worst case (all 8 actions'
    homes collide on invoker 0 of 4) at half the estimated capacity, with
    work stealing on:

    * ``"reactive"`` — the per-invoker reactive autoscaler alone: peers
      only gain capacity once deep backlogs trigger tail boot-steals.
    * ``"planned"`` — the control plane's CapacityPlanner additionally
      shifts pre-warmed capacity: backlogged actions get containers
      seeded on idle peers ahead of the steals, under the global
      container budget, so steals land warm instead of booting on the
      critical path.

    **Forecast-driven pre-warming** — ``forecast_cycles`` diurnal cycles
    of ``azure_diurnal_arrivals`` at equal global budget, with a
    keep-alive shorter than a trough (so every rising edge must re-build
    warm capacity):

    * ``"reactive"`` — the backlog-driven CapacityPlanner: each edge
      pays a cold-start storm before relief arrives.
    * ``"predictive"`` — the PredictivePlanner pre-warms toward the
      forecast arrival rate one boot-time ahead, cutting rising-edge
      cold dispatches and tail latency (see :class:`ForecastOutcome`).

    Every part runs ``cluster`` (its warmth spectrum included) with the
    part's topology replaced in: ``cores``, ``invokers``, the routing and
    container-ceiling fields and the control plane described above (and,
    in the forecast part, ``keep_alive_seconds``, ``planner`` and
    ``forecast_period_seconds``).  The forecast part also replaces
    ``tracing`` with ``"off"``: it exports no trace.  ``trace_out``
    exports the Chrome trace of the ``"controlled"`` quota run (the
    decision-audit-richest run: every AIMD cut/raise lands on the
    timeline next to the invocations it throttled), or of the
    ``"planned"`` capacity run when the quota part is not selected.
    """
    if spec is None:
        spec = representative_benchmarks()[0]
    unknown_parts = set(parts) - {"quota", "capacity", "forecast"}
    if unknown_parts:
        raise ValueError(f"unknown run_slo_control parts: {sorted(unknown_parts)}")
    if trace_out is not None and cluster.tracing == "off":
        raise PlatformError("trace_out requires tracing='sampled' or 'full'")
    if trace_out is not None and not {"quota", "capacity"} & set(parts):
        raise PlatformError("trace_out needs the 'quota' or 'capacity' part selected")

    polite_slo_p99_ms: Optional[float] = None
    quota_scenarios: Dict[str, TenantScenario] = {}
    if "quota" in parts:
        solo_load, contended = _tenant_loads(
            estimate_cluster_capacity_rps(spec, invokers=2, cores=2)
        )
        static = _tenant_cluster(dataclasses.replace(cluster, cores=2, invokers=2))

        def run_scenario(
            label: str,
            knobs: SimulationConfig,
            load: Tuple[TenantMix, float],
            tenant_slos: Optional[Mapping[str, TenantSLO]] = None,
            trace: Optional[str] = None,
        ) -> TenantScenario:
            return _tenant_scenario(
                label, knobs, load, spec, config, actions=4,
                duration_seconds=duration_seconds, warmup_seconds=warmup_seconds,
                tenant_slos=tenant_slos, trace_out=trace,
            )

        solo = run_scenario("solo", static, solo_load)
        solo_p99 = solo.outcome(POLITE_TENANT).p99_ms
        if solo_p99 is None:
            raise PlatformError(
                "the solo entitlement run completed nothing in the window; "
                "raise duration_seconds"
            )
        polite_slo_p99_ms = solo_p99 * 1.5
        quota_scenarios = {
            "solo": solo,
            "static": run_scenario("static", static, contended),
            "controlled": run_scenario(
                "controlled",
                dataclasses.replace(static, admission_policy="wfq", control_plane=True),
                contended,
                tenant_slos={
                    POLITE_TENANT: TenantSLO(
                        p99_ms=polite_slo_p99_ms, min_goodput=0.7
                    )
                },
                trace=trace_out,
            ),
        }

    capacity_runs: Dict[str, CapacityPlanOutcome] = {}
    if "capacity" in parts:
        offered = estimate_cluster_capacity_rps(spec, invokers=4, cores=2) * 0.5
        skewed_names = colliding_action_names(8, invokers=4)
        reactive = dataclasses.replace(
            cluster,
            cores=2,
            invokers=4,
            scheduler_policy="hash-affinity",
            work_stealing=True,
            max_containers_per_action=1,
            autoscale=True,
        )

        def run_capacity(
            label: str, knobs: SimulationConfig, trace: Optional[str] = None
        ) -> CapacityPlanOutcome:
            client = open_loop_client(
                knobs, spec, config, 8,
                action_names=skewed_names,
                offered_rps=offered,
                duration_seconds=capacity_duration_seconds,
                warmup_seconds=capacity_warmup_seconds,
            )
            result = client.run()
            platform = client.platform
            _export_trace(platform, trace)
            return CapacityPlanOutcome(
                label=label,
                offered_rps=result.offered_rps,
                achieved_rps=result.achieved_rps,
                goodput_fraction=result.goodput_fraction,
                warm_hit_rate=platform.warm_hit_rate,
                cold_starts=sum(inv.cold_starts for inv in platform.invokers),
                steals=platform.steals,
                prewarms=sum(inv.prewarms for inv in platform.invokers),
                drains=sum(inv.drains for inv in platform.invokers),
                p95_ms=result.e2e.p95 * 1000 if result.e2e else None,
                migrations=tuple(platform.migrations),
                control_stats=platform.control_plane_stats(),
            )

        capacity_runs = {
            "reactive": run_capacity("reactive", reactive),
            "planned": run_capacity(
                "planned",
                dataclasses.replace(reactive, control_plane=True),
                None if "quota" in parts else trace_out,
            ),
        }

    forecast_runs: Dict[str, ForecastOutcome] = {}
    if "forecast" in parts:
        forecast_runs = _run_forecast_comparison(
            spec,
            config,
            dataclasses.replace(cluster, tracing="off"),
            duration_seconds=forecast_duration_seconds,
            cycles=forecast_cycles,
        )

    return SLOControlResult(
        polite_slo_p99_ms=polite_slo_p99_ms,
        quota=quota_scenarios,
        capacity=capacity_runs,
        forecast=forecast_runs,
    )


def diurnal_rising_windows(
    duration_seconds: float, period_seconds: float, *, skip_cycles: int = 1
) -> List[Tuple[float, float]]:
    """The windows where the diurnal sinusoid climbs from trough to peak.

    ``azure_diurnal_arrivals`` modulates the rate by
    ``1 + A·sin(2πt/P)``, which rises on ``[kP − P/4, kP + P/4]`` for
    every integer cycle ``k``.  The first ``skip_cycles`` cycles are
    skipped (a forecaster has no history there, and cold-start transients
    belong to warmup), and windows are clipped to the run.
    """
    if duration_seconds <= 0 or period_seconds <= 0:
        raise ValueError("duration and period must be positive")
    if skip_cycles < 0:
        raise ValueError("skip_cycles must be >= 0")
    windows: List[Tuple[float, float]] = []
    k = skip_cycles
    while k * period_seconds - period_seconds / 4 < duration_seconds:
        # Cycle 0's rising half starts at -P/4; only its in-run part counts.
        start = max(0.0, k * period_seconds - period_seconds / 4)
        end = min(k * period_seconds + period_seconds / 4, duration_seconds)
        if end > start:
            windows.append((start, end))
        k += 1
    return windows


def _count_in_windows(
    times: Sequence[float], windows: Sequence[Tuple[float, float]]
) -> int:
    """How many of ``times`` fall inside any of the [start, end) windows."""
    return sum(
        1
        for at in times
        if any(start <= at < end for start, end in windows)
    )


def _run_forecast_comparison(
    spec,
    config: str,
    cluster: SimulationConfig,
    *,
    duration_seconds: float,
    cycles: int,
) -> Dict[str, ForecastOutcome]:
    """Reactive vs predictive planner under diurnal arrivals, equal budget.

    Both regimes run the full control plane on 4 invokers of 2 cores over
    an identical ``azure_diurnal_arrivals`` trace for 4 actions (same
    seed, same global container budget, 0.55 of the estimated capacity,
    amplitude 0.9, no bursts); only the planner kind differs.  The
    keep-alive is deliberately shorter than a trough, so warm capacity
    built at one peak is evicted before the next rising edge — the regime
    every edge then pays (cold starts behind the measured backlog, or
    pre-warms ahead of the forecast) is exactly what the comparison
    isolates.
    """
    if cycles < 2:
        raise ValueError("the forecast comparison needs >= 2 diurnal cycles")
    offered = estimate_cluster_capacity_rps(spec, invokers=4, cores=2) * 0.55
    period = duration_seconds / cycles
    names = balanced_action_names(4, invokers=4, prefix="wave")
    rising = diurnal_rising_windows(duration_seconds, period, skip_cycles=1)

    planned = dataclasses.replace(
        cluster,
        cores=2,
        invokers=4,
        # Hash affinity concentrates each action's wave on its home
        # invoker; work stealing then pulls the overflow into whatever
        # warm capacity exists elsewhere — which is exactly the capacity
        # the planner's seeds create.
        scheduler_policy="hash-affinity",
        work_stealing=True,
        max_containers_per_action=2,
        # A keep-alive much shorter than the trough: capacity built at one
        # peak decays before the next rising edge, so *when* the planner
        # re-warms is the lever under test.
        keep_alive_seconds=period / 8,
        control_plane=True,
    )

    def run_regime(regime: SimulationConfig) -> ForecastOutcome:
        client = open_loop_client(
            regime,
            spec,
            config,
            4,
            action_names=names,
            offered_rps=offered,
            duration_seconds=duration_seconds,
            # Cycle 0 is history-building, not measurement.
            warmup_seconds=period,
            arrivals="azure-diurnal",
            period_seconds=period,
            amplitude=0.9,
            burst_fraction=0.0,
        )
        result = client.run()
        invokers = client.platform.invokers
        cold_dispatch_times = sorted(
            at for invoker in invokers for at in invoker.cold_dispatch_times
        )
        cold_start_times = sorted(
            at for invoker in invokers for at in invoker.cold_start_times
        )
        stats = client.platform.control_plane_stats()
        return ForecastOutcome(
            label=regime.planner,
            planner=regime.planner,
            offered_rps=result.offered_rps,
            achieved_rps=result.achieved_rps,
            goodput_fraction=result.goodput_fraction,
            p99_ms=result.e2e.p99 * 1000 if result.e2e else None,
            cold_starts=len(cold_start_times),
            rising_cold_starts=_count_in_windows(cold_start_times, rising),
            cold_dispatches=len(cold_dispatch_times),
            rising_cold_dispatches=_count_in_windows(cold_dispatch_times, rising),
            rising_windows=tuple(rising),
            prewarms=sum(inv.prewarms for inv in invokers),
            drains=sum(inv.drains for inv in invokers),
            budget=int(stats["budget"]),
            control_stats=stats,
        )

    return {
        planner: run_regime(dataclasses.replace(
            planned, planner=planner,
            # Only the predictive planner has a forecaster to declare the period to.
            forecast_period_seconds=period if planner == "predictive" else None,
        ))
        for planner in ("reactive", "predictive")
    }


# ---------------------------------------------------------------------------
# Fig. 8 — restoration breakdown + snapshot cost
# ---------------------------------------------------------------------------


def run_breakdown(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    invocations: int = 5,
) -> List[BreakdownRecord]:
    """Deconstructed restoration cost for the representative benchmarks."""
    if benchmarks is None:
        benchmarks = representative_benchmarks()
    records = []
    for spec in benchmarks:
        measurement = measure_restores(spec, "gh", invocations=invocations)
        total_ms = measurement.restore_ms_mean
        fractions = {
            step: (value * 1000 / total_ms if total_ms > 0 else 0.0)
            for step, value in measurement.breakdown_mean.items()
        }
        records.append(
            BreakdownRecord(
                benchmark=spec.qualified_name,
                restore_ms=total_ms,
                fractions=fractions,
                snapshot_ms=measurement.snapshot_ms or 0.0,
                total_kpages=measurement.total_mapped_pages / 1000.0,
                restored_kpages=measurement.restored_pages_mean / 1000.0,
            )
        )
    records.sort(key=lambda r: r.restore_ms, reverse=True)
    return records


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def run_tracking_ablation(
    *,
    mapped_pages: int = 10_000,
    dirty_fractions: Sequence[float] = (0.0, 0.01, 0.1, 0.3, 0.6),
    invocations: int = 3,
) -> SweepResult:
    """§4.3: soft-dirty vs userfaultfd tracking, total per-request overhead.

    The y value is in-function overhead + restoration time (ms); the paper's
    finding is that UFFD only wins when the write set is nearly empty.
    """
    sweep = SweepResult(x_label="dirtied pages (%)", y_label="tracking + restore (ms)")
    for tracker in ("soft-dirty", "uffd"):
        points = []
        for fraction in dirty_fractions:
            dirtied = int(mapped_pages * fraction)
            profile = microbenchmark_profile(mapped_pages, dirtied)
            mechanism = create_mechanism(
                "gh", profile, rng=random.Random(3), tracker=tracker
            )
            mechanism.initialize()
            totals = []
            for index in range(invocations):
                report = mechanism.invoke(request_id=f"abl-{index}", caller=f"c{index}")
                overhead = report.result.fault_seconds + report.post_seconds
                totals.append(overhead * 1000)
            points.append((fraction * 100.0, sum(totals) / len(totals)))
        sweep.add(Series.from_points(tracker, points))
    return sweep


def run_skip_rollback_ablation(
    spec: Optional[BenchmarkSpec] = None,
    *,
    invocations: int = 10,
    callers: Sequence[str] = ("alice", "alice", "alice", "bob"),
) -> Dict[str, float]:
    """§4.4: skipping rollback between mutually trusting consecutive callers.

    Returns the mean per-request restoration work (whether it happened after
    the response or, for the deferred variant, on the arrival of a request
    from a different caller) with and without the optimisation, for the same
    caller sequence.
    """
    if spec is None:
        spec = representative_benchmarks()[-1]
    results: Dict[str, float] = {}
    for label, skip in (("always-restore", False), ("skip-same-caller", True)):
        mechanism = create_mechanism(
            "gh", spec.profile, rng=random.Random(29),
            skip_rollback_for_same_caller=skip,
        )
        mechanism.initialize()
        isolation_work = []
        for index in range(invocations):
            caller = callers[index % len(callers)]
            report = mechanism.invoke(request_id=f"skip-{index}", caller=caller)
            isolation_work.append(report.post_seconds + report.pre_seconds)
        results[label] = sum(isolation_work) / len(isolation_work)
    return results


def run_coldstart_comparison(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    *,
    configs: Sequence[str] = ("gh", "faasm", "cold", "criu"),
    invocations: int = 3,
) -> Dict[str, Dict[str, float]]:
    """§3.2: per-request isolation turnaround of GH vs cold-start/CRIU designs.

    Returns, per configuration and benchmark, the mean time the container is
    unavailable between requests (seconds) — the quantity that makes fresh
    containers and CRIU-style restores impractical.
    """
    if benchmarks is None:
        benchmarks = [
            spec for spec in representative_benchmarks()
            if spec.profile.language is not Language.NODE
        ][:4]
    turnaround: Dict[str, Dict[str, float]] = {config: {} for config in configs}
    for spec in benchmarks:
        for config in configs:
            if not _applicable(config, spec):
                continue
            mechanism = create_mechanism(config, spec.profile, rng=random.Random(41))
            mechanism.initialize()
            posts = []
            for index in range(invocations):
                report = mechanism.invoke(request_id=f"cs-{index}", caller=f"c{index}")
                posts.append(report.post_seconds)
            turnaround[config][spec.qualified_name] = sum(posts) / len(posts)
    return turnaround


# ---------------------------------------------------------------------------
# Headline numbers
# ---------------------------------------------------------------------------


def headline_summary(
    latency: EvaluationResult,
    throughput: Optional[EvaluationResult] = None,
) -> Dict[str, OverheadSummary]:
    """Compute the paper's headline distributions for Groundhog.

    Returns summaries for ``gh``'s end-to-end latency overhead, invoker
    latency overhead and (when a throughput evaluation is supplied)
    throughput reduction, each across all benchmarks measured under both
    ``gh`` and ``base``.
    """
    summary: Dict[str, OverheadSummary] = {}
    e2e = latency.relative_latency("gh", metric="e2e")
    if e2e:
        summary["e2e_latency_overhead"] = summarize_overheads(list(e2e.values()))
    invoker = latency.relative_latency("gh", metric="invoker")
    if invoker:
        summary["invoker_latency_overhead"] = summarize_overheads(list(invoker.values()))
    if throughput is not None:
        ratios = throughput.relative_throughput("gh")
        if ratios:
            reductions = [(1.0 - ratio) * 100.0 for ratio in ratios.values()]
            summary["throughput_reduction"] = summarize_overheads(reductions)
    return summary
