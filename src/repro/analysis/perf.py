"""The perf harness behind ``BENCH_perf.json``: one table, one replay, one runner.

``python -m repro.cli perf-trace`` tracks the simulator's own host speed
in four sections.  Each is one row of :data:`SECTIONS`:

====================  ====================================================
Section               What its variants replay
====================  ====================================================
``metrics``           the diurnal metrics trace once (``run``): what the
                      control plane's bookkeeping costs
``cluster_scale``     warm-aware routing with work stealing at three
                      ``<invokers>x<actions>`` points
``warmth_spectrum``   diurnal waves with restorable snapshots ``off`` and
                      ``on`` at equal container budget
``tracing_overhead``  the metrics trace with the flight recorder ``off``
                      and ``sampled``
====================  ====================================================

A row names its variants, each a :class:`Shape` (the cluster, what it
deploys and the arrivals it replays), its full and ``--quick`` sizes and
repeats, and its gate: the variants whose throughput has a floor in the
committed baseline, the flags that must hold and the values with a
ceiling.  :func:`replay` runs any variant of any row in this process and
returns a plain summary; :func:`build_client` is its first step alone.
:func:`run_section` runs a row's variants, each in a fresh spawn-started
child, keeps the best run per variant and adds the row's verdict: the
section's report.  ``scripts/check_perf_regression.py`` takes each
section's rules from the same table, so a new tracked number is a new row.

Wall-clock reads are this module's job: it measures real throughput and
peak RSS around simulations that stay pure functions of ``(config, seed)``.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import resource
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    _count_in_windows,
    _deploy_action_copies,
    balanced_action_names,
    diurnal_rising_windows,
    estimate_cluster_capacity_rps,
)
from repro.analysis.tables import render_table
from repro.config import SimulationConfig
from repro.errors import PlatformError
from repro.faas.cluster import FaaSCluster
from repro.faas.loadgen import (
    OpenLoopClient,
    azure_diurnal_arrivals,
    load_azure_trace_csv,
)
from repro.faas.metrics import LatencyStats
from repro.faas.obs import write_chrome_trace
from repro.faas.sketch import LatencySketch
from repro.workloads.microbench import microbenchmark_profile

#: One run's summary: plain values, plus the run's e2e sketch and, when it
#: traced, its recorder.
Summary = Dict[str, object]

#: The seed every section replays unless told otherwise.
SEED = 20230501
#: Cores per invoker in every tracked trace.
CORES = 4
#: Tenants the arrivals cycle through: the SLO monitor splits every
#: control tick's window into one collector per tenant.
TENANTS = 2


@dataclass(frozen=True)
class Shape:
    """One replayed trace: the cluster, what it deploys, how it is driven.

    Every trace deploys ``actions`` copies of a small microbenchmark whose
    hash homes spread evenly over the invokers, and replays diurnal
    arrivals sized to the requested count at ``load_factor`` of the
    cluster's estimated capacity.  No tenant SLO is declared, so metrics
    only observe: they never change what a run does.  The defaults are the
    metrics trace.
    """

    invokers: int = 4
    actions: int = 8
    #: Prefix of the deployed action names.
    prefix: str = "day"
    #: Isolation mechanism of the deployed action copies.
    mechanism: str = "base"
    scheduler_policy: str = "hash-affinity"
    work_stealing: bool = False
    #: The SLO control plane: every tick reduces a five-minute window
    #: (the one cloud monitors alert on), split per tenant, over
    #: one-second metric buckets.
    control_plane: bool = True
    load_factor: float = 0.7
    amplitude: float = 0.6
    burst_fraction: float = 0.05
    #: Arrivals per diurnal cycle, or 0 for three cycles at any length.
    #: With a cycle size the cycles scale with the run, so one cycle's
    #: virtual-time dynamics (period, keep-alive, edges against the fixed
    #: boot time) are the same at every length.  Such a trace is measured
    #: per cycle: cycle 0 is warm-up, the keep-alive is an eighth of a
    #: period so each trough decays what the peak warmed, and the client
    #: keeps its samples, so p99 is exact over the post-warm-up window.
    #: Without one the keep-alive is ten minutes, so the cluster runs warm,
    #: and the client keeps no sample; p99 comes from the collector.
    arrivals_per_cycle: int = 0
    #: Keep-alive eviction demotes containers to restorable snapshots
    #: (``2 * CORES`` held per invoker) instead of destroying them.
    restorable_snapshots: bool = False
    #: Mechanism whose cost model prices snapshot restores.
    isolation_mechanism: str = "gh"
    tracing: str = "off"
    #: A published Azure Functions invocations-per-function CSV replayed
    #: in place of the synthetic arrivals: its heaviest functions map onto
    #: the deployed actions, its timeline is compressed onto the run and
    #: its rate rescaled to the offered load.
    trace_file: Optional[str] = None


@dataclass(frozen=True)
class Section:
    """One tracked section of ``BENCH_perf.json``: its variants and its gate."""

    #: What the variants replay, for the printed title.
    about: str
    variants: Tuple[Tuple[str, Shape], ...]
    #: The variants ``--quick`` runs.
    quick_variants: Tuple[str, ...]
    invocations: int
    quick_invocations: int
    #: Gated variants: each one's throughput may fall at most the gate's
    #: tolerance below the baseline's.
    floors: Tuple[str, ...]
    #: Runs per variant; the best, by throughput, is kept.  Repeats
    #: interleave the variants, so a host that speeds up or slows down
    #: during the runs moves every variant alike.
    repeats: int = 1
    quick_repeats: int = 1
    #: Verdict flags that must hold.
    flags: Tuple[str, ...] = ()
    #: Verdict values and the most each may read.
    ceilings: Tuple[Tuple[str, float], ...] = ()
    #: Summary fields the printed table shows besides the common ones.
    columns: Tuple[str, ...] = ()
    #: Flags and derived values from the best run of every variant.
    verdict: Optional[Callable[[Mapping[str, Summary]], Summary]] = None

    @property
    def labels(self) -> Tuple[str, ...]:
        """The variant labels, in table order."""
        return tuple(label for label, _ in self.variants)


def _spectrum_verdict(variants: Mapping[str, Summary]) -> Summary:
    """Whether restoring pays for itself at the diurnal rising edges.

    The claim: at equal goodput, most rising-edge cold boots turn into
    restores, restores outnumber the boots left, and p99 falls.
    """
    off, on = variants["off"], variants["on"]
    off_rising, on_rising = off["rising_cold_starts"], on["rising_cold_starts"]
    off_p99, on_p99 = off["p99_ms"], on["p99_ms"]
    return {
        "equal_goodput": off["goodput_fraction"] == on["goodput_fraction"],
        "rising_cold_conversion": (
            1.0 - on_rising / off_rising if off_rising > 0 else None
        ),
        "majority_converted": off_rising > 0 and on_rising < off_rising / 2,
        "restores_outnumber_boots": on["rising_restores"] > on_rising,
        "p99_reduced": (
            off_p99 is not None and on_p99 is not None and on_p99 < off_p99
        ),
        "p99_cut_fraction": (
            1.0 - on_p99 / off_p99 if off_p99 and on_p99 is not None else None
        ),
    }


def _tracing_verdict(variants: Mapping[str, Summary]) -> Summary:
    """Whether tracing changed anything simulated, and what sampling costs.

    ``sampled_cost_fraction`` is the share of throughput the sampled run
    loses against the off run of the same section run.
    """
    off, sampled = variants["off"], variants["sampled"]
    off_rate = off["invocations_per_second"]
    return {
        "equal_goodput": off["goodput_fraction"] == sampled["goodput_fraction"],
        "equal_cold_starts": off["cold_starts"] == sampled["cold_starts"],
        "equal_p99": off["p99_ms"] == sampled["p99_ms"],
        "sampled_cost_fraction": (
            1.0 - sampled["invocations_per_second"] / off_rate
            if off_rate > 0
            else None
        ),
    }


def _cluster_point(invokers: int, actions: int) -> Tuple[str, Shape]:
    """One cluster-scale point: the routing hot path itself."""
    return f"{invokers}x{actions}", Shape(
        invokers=invokers,
        actions=actions,
        prefix="cs",
        scheduler_policy="warm-aware",
        work_stealing=True,
        control_plane=False,
        # Peaks saturate invokers, so the steal paths fire.
        load_factor=0.85,
    )


#: Diurnal waves for the warmth spectrum.  Hash affinity concentrates each
#: action's wave on its home invoker, so the trough decays exactly the
#: capacity the next rising edge needs back; stealing spreads the peaks.
#: The load is high enough that the amplitude-0.9 peaks outrun the live
#: warm capacity, so how fast the cluster re-warms (a ~0.5 s boot against
#: a sub-millisecond gh restore) shows in the backlog behind every edge.
_WAVES = Shape(
    prefix="wave",
    mechanism="gh",
    work_stealing=True,
    control_plane=False,
    load_factor=0.75,
    amplitude=0.9,
    burst_fraction=0.0,
    arrivals_per_cycle=5_000,
)

#: The tracked sections, in ``perf-trace --shape all`` order.
SECTIONS: Mapping[str, Section] = MappingProxyType({
    "metrics": Section(
        about="the diurnal metrics trace on 4 x 4 cores with the control plane",
        variants=(("run", Shape()),),
        quick_variants=("run",),
        invocations=1_000_000,
        quick_invocations=100_000,
        floors=("run",),
    ),
    "cluster_scale": Section(
        about="warm-aware routing with work stealing",
        variants=tuple(
            _cluster_point(invokers, actions)
            for invokers, actions in ((16, 128), (32, 256), (64, 256))
        ),
        quick_variants=("16x128",),
        invocations=30_000,
        quick_invocations=8_000,
        floors=("16x128", "32x256", "64x256"),
        columns=("steals",),
    ),
    "warmth_spectrum": Section(
        about="diurnal waves, restorable snapshots off vs on at equal budget",
        variants=(
            ("off", _WAVES),
            ("on", dataclasses.replace(_WAVES, restorable_snapshots=True)),
        ),
        quick_variants=("off", "on"),
        invocations=150_000,
        quick_invocations=20_000,
        floors=("off", "on"),
        flags=(
            "equal_goodput",
            "majority_converted",
            "restores_outnumber_boots",
            "p99_reduced",
        ),
        columns=(
            "cold_dispatches",
            "restore_dispatches",
            "warm_hits",
            "rising_cold_starts",
            "rising_restores",
        ),
        verdict=_spectrum_verdict,
    ),
    "tracing_overhead": Section(
        about="the metrics trace, flight recorder off vs sampled",
        variants=(("off", Shape()), ("sampled", Shape(tracing="sampled"))),
        quick_variants=("off", "sampled"),
        invocations=150_000,
        quick_invocations=20_000,
        # A ~2 s quick run pair is too noisy for the 10 % ceiling on its
        # own, so the quick run keeps the best of three per variant.
        quick_repeats=3,
        # Only the off run has a floor: with the recorder off every
        # instrumentation site is one ``is None`` test, so the off path
        # must stay within noise of the baseline.
        floors=("off",),
        flags=("equal_goodput", "equal_cold_starts", "equal_p99"),
        ceilings=(("sampled_cost_fraction", 0.10),),
        columns=("traces_recorded",),
        verdict=_tracing_verdict,
    ),
})


def _shape(key: str, variant: str, overrides: Mapping[str, object]) -> Shape:
    """The shape of one table variant, with ``overrides`` applied."""
    shapes = dict(SECTIONS[key].variants)
    if variant not in shapes:
        raise PlatformError(
            f"unknown {key} variant {variant!r}; choose one of {tuple(shapes)}"
        )
    return dataclasses.replace(shapes[variant], **overrides)


def _caller(index: int) -> str:
    """Cycle arrivals through the trace's tenant identities."""
    return f"tenant-{index % TENANTS}"


def _build(
    shape: Shape, invocations: int, seed: int
) -> Tuple[OpenLoopClient, float, float]:
    """The cluster and its client, the offered rate and the diurnal period."""
    profile = microbenchmark_profile(16, 2)
    offered = (
        estimate_cluster_capacity_rps(profile, invokers=shape.invokers, cores=CORES)
        * shape.load_factor
    )
    # ``azure_diurnal_arrivals`` normalises its base rate by the
    # *expected* burst multiplier, but realised burst coverage over a
    # few cycles has high variance (burst gaps are of the same order as
    # the run), so the realised count can undershoot the nominal budget
    # by several percent.  Oversize the trace so a requested 10^6 run
    # actually replays >= 10^6 arrivals.
    duration = 1.1 * invocations / offered
    waves = shape.arrivals_per_cycle > 0
    cycles = max(2, invocations // shape.arrivals_per_cycle) if waves else 3
    period = duration / cycles
    platform = FaaSCluster(
        SimulationConfig(
            cores=CORES,
            invokers=shape.invokers,
            containers_per_action=1,
            scheduler_policy=shape.scheduler_policy,
            work_stealing=shape.work_stealing,
            max_containers_per_action=CORES,
            keep_alive_seconds=period / 8 if waves else 600.0,
            control_plane=shape.control_plane,
            slo_window_seconds=300.0,
            metrics_bucket_seconds=1.0,
            restorable_snapshots=shape.restorable_snapshots,
            snapshot_budget=2 * CORES if shape.restorable_snapshots else None,
            isolation_mechanism=shape.isolation_mechanism,
            seed=seed,
            tracing=shape.tracing,
        )
    )
    deployed = _deploy_action_copies(
        platform,
        profile,
        shape.mechanism,
        shape.actions,
        action_names=balanced_action_names(
            shape.actions, invokers=shape.invokers, prefix=shape.prefix
        ),
    )
    rng = platform.rng_streams.stream("azure-trace")
    if shape.trace_file is not None:
        offsets, sequence = load_azure_trace_csv(
            shape.trace_file,
            deployed,
            duration_seconds=duration,
            rng=rng,
            mean_rps=offered,
        )
    else:
        offsets, sequence = azure_diurnal_arrivals(
            deployed,
            duration_seconds=duration,
            mean_rps=offered,
            rng=rng,
            period_seconds=period,
            amplitude=shape.amplitude,
            burst_fraction=shape.burst_fraction,
        )
    client = OpenLoopClient(
        platform,
        deployed,
        trace=offsets,
        action_sequence=sequence,
        duration_seconds=duration,
        warmup_seconds=period if waves else 0.0,
        caller_for=_caller,
        keep_samples=waves,
        lazy_trace=True,
    )
    return client, offered, period


def build_client(
    key: str,
    variant: str,
    *,
    invocations: int,
    seed: int = SEED,
    **overrides: object,
) -> OpenLoopClient:
    """Build one variant's cluster and the client that replays its trace.

    ``overrides`` replace :class:`Shape` fields of the table's variant.
    The client is lazy (one pending arrival event at a time);
    ``client.platform`` is the cluster and ``client.run()`` replays.
    """
    return _build(_shape(key, variant, overrides), invocations, seed)[0]


def replay(
    key: str,
    variant: str,
    *,
    invocations: int,
    seed: int = SEED,
    **overrides: object,
) -> Summary:
    """Replay one variant of a section in this process and summarise it.

    The trace holds at least ``invocations`` arrivals; ``overrides``
    replace :class:`Shape` fields of the table's variant.  The measured
    wall clock covers the replay and its end-to-end reduction, not the
    set-up.  The summary holds every counter any section reads, the run's
    e2e :class:`~repro.faas.sketch.LatencySketch` (``e2e_sketch``) and,
    when the run traced, its recorder (``recorder``).
    """
    shape = _shape(key, variant, overrides)
    client, offered, period = _build(shape, invocations, seed)
    platform = client.platform
    gc.collect()
    started = time.perf_counter()
    result = client.run()
    stats: Optional[LatencyStats] = (
        result.e2e if client.keep_samples else platform.metrics.e2e_stats()
    )
    wall = time.perf_counter() - started
    scheduler = platform.scheduler
    if scheduler.index is not None:
        # Self-check: the incrementally maintained indices must equal a
        # from-scratch recompute at the end of every tracked run.
        scheduler.index.verify()
    invokers = platform.invokers
    rising = diurnal_rising_windows(client.duration_seconds, period, skip_cycles=1)
    cold_dispatches = [at for inv in invokers for at in inv.cold_dispatch_times]
    restore_dispatches = [
        at for inv in invokers for at in inv.restore_dispatch_times
    ]
    summary: Summary = {
        "seed": seed,
        "invokers": shape.invokers,
        "actions": shape.actions,
        "regime": "on" if shape.restorable_snapshots else "off",
        "isolation_mechanism": shape.isolation_mechanism,
        "tracing": shape.tracing,
        "trace_file": shape.trace_file,
        "arrivals": result.issued,
        "completed": result.completed,
        "recorded": platform.metrics.num_recorded,
        "goodput_fraction": result.goodput_fraction,
        "p99_ms": None if stats is None else stats.p99 * 1000.0,
        "mean_ms": None if stats is None else stats.mean * 1000.0,
        "cold_starts": sum(inv.cold_starts for inv in invokers),
        "cold_dispatches": len(cold_dispatches),
        "warm_hits": sum(inv.warm_hits for inv in invokers),
        "demotes": sum(inv.demotes for inv in invokers),
        "restores": sum(inv.restores for inv in invokers),
        "restore_dispatches": len(restore_dispatches),
        "snapshot_discards": sum(inv.snapshot_discards for inv in invokers),
        "snapshots_held": sum(inv.snapshots_held() for inv in invokers),
        "restore_core_seconds": sum(inv.restore_core_seconds for inv in invokers),
        "rising_cold_starts": _count_in_windows(
            [at for inv in invokers for at in inv.cold_start_times], rising
        ),
        "rising_cold_dispatches": _count_in_windows(cold_dispatches, rising),
        "rising_restores": _count_in_windows(
            [at for inv in invokers for at in inv.restore_times], rising
        ),
        "rising_restore_dispatches": _count_in_windows(restore_dispatches, rising),
        "steals": scheduler.steals,
        "routed_per_invoker": list(scheduler.routed_per_invoker),
        "wall_seconds": wall,
        "invocations_per_second": result.issued / wall if wall > 0 else 0.0,
        "duration_seconds": client.duration_seconds,
        "offered_rps": offered,
        # Picklable and mergeable: replicas pool by sketch-merge.
        "e2e_sketch": platform.metrics._merged_sketch("e2e"),
    }
    recorder = platform.trace()
    if recorder is not None:
        summary["traces_recorded"] = len(recorder.invocations)
        summary["trace_digest"] = recorder.trace_digest()
        summary["recorder"] = recorder
    return summary


def _peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    Prefers ``VmHWM`` from ``/proc/self/status``: it belongs to the
    post-``exec`` address space, so a spawn-started child reports its
    *own* peak.  ``ru_maxrss`` survives ``exec`` on Linux, so a child of
    a fat parent (e.g. a long pytest session) would inherit the parent's
    peak and hide this run's own footprint.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def _replay_in_child(
    job: Tuple[str, str, int, int, Tuple[Tuple[str, object], ...], Optional[str]]
) -> Summary:
    """Child-process entry: one replay, its own peak RSS, no live objects.

    A traced run writes its Chrome trace-event JSON to ``trace_out`` when
    one is given.
    """
    key, variant, invocations, seed, overrides, trace_out = job
    summary = replay(
        key, variant, invocations=invocations, seed=seed, **dict(overrides)
    )
    summary["max_rss_mb"] = _peak_rss_mb()
    del summary["e2e_sketch"]
    recorder = summary.pop("recorder", None)
    if recorder is not None and trace_out is not None:
        events = write_chrome_trace(recorder, trace_out)
        print(f"wrote {trace_out} ({events} trace events)", flush=True)
    return summary


def run_section(
    key: str,
    *,
    quick: bool = False,
    invocations: Optional[int] = None,
    variants: Optional[Sequence[str]] = None,
    seed: int = SEED,
    trace_out: Optional[str] = None,
    **overrides: object,
) -> Dict[str, object]:
    """Run one section and return its report for ``BENCH_perf.json``.

    Runs ``variants`` (default: the section's, or its quick subset under
    ``quick``) at ``invocations`` arrivals (default: the section's full or
    quick size), each run in a fresh spawn-started child so that its wall
    clock and peak RSS are its own, one run at a time so that no run slows
    another.  Repeats interleave the variants, and the best run per
    variant, by throughput, is kept; the simulation is deterministic, so
    repeats differ only in timing.  ``overrides`` replace :class:`Shape`
    fields of every variant.  The first traced run writes its Chrome trace
    to ``trace_out``.

    The report holds ``variants: {label: summary}`` and the section's
    verdict: its flags and derived values.
    """
    section = SECTIONS[key]
    labels = variants or (section.quick_variants if quick else section.labels)
    size = invocations or (
        section.quick_invocations if quick else section.invocations
    )
    repeats = section.quick_repeats if quick else section.repeats
    jobs = [
        (
            key,
            label,
            int(size),
            int(seed),
            tuple(overrides.items()),
            trace_out if repeat == 0 else None,
        )
        for repeat in range(repeats)
        for label in labels
    ]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1, maxtasksperchild=1) as pool:
        summaries = [pool.apply(_replay_in_child, (job,)) for job in jobs]
    best: Dict[str, Summary] = {}
    for job, summary in zip(jobs, summaries):
        label = job[1]
        rate = summary["invocations_per_second"]
        if label not in best or rate > best[label]["invocations_per_second"]:
            best[label] = summary
    report: Dict[str, object] = {
        "invocations_requested": int(size),
        "seed": int(seed),
        "quick": bool(quick),
        "repeats": repeats,
        "variants": best,
    }
    if section.verdict is not None:
        report.update(section.verdict(best))
    return report


def render_section(key: str, report: Mapping[str, object]) -> str:
    """One section's report as a table, one row per variant, and its verdict."""
    section = SECTIONS[key]
    variants = report["variants"]
    rows = [
        [
            label,
            str(run["arrivals"]),
            f"{run['wall_seconds']:.1f}",
            f"{run['invocations_per_second']:.0f}",
            f"{run['max_rss_mb']:.0f}",
            f"{run['goodput_fraction'] * 100:.2f}%",
            str(run["cold_starts"]),
            "-" if run["p99_ms"] is None else f"{run['p99_ms']:.1f}",
            *(str(run.get(column, "-")) for column in section.columns),
        ]
        for label, run in variants.items()
    ]
    repeats = report["repeats"]
    best_of = f", best of {repeats} per variant" if repeats > 1 else ""
    files = {run.get("trace_file") for run in variants.values()} - {None}
    source = f", arrivals from {', '.join(sorted(files))}" if files else ""
    lines = [render_table(
        ["variant", "arrivals", "wall (s)", "arrivals/s", "peak RSS (MB)",
         "goodput", "cold starts", "p99 (ms)", *section.columns],
        rows,
        title=(
            f"{key} — {report['invocations_requested']:,} requested arrivals, "
            f"{section.about}{source} (each run in its own process{best_of})"
        ),
    )]
    verdict = [
        f"{name}={value:.3f}" if isinstance(value, float) else f"{name}={value}"
        for name, value in report.items()
        if name not in ("invocations_requested", "seed", "quick", "repeats", "variants")
    ]
    if verdict:
        lines.append("verdict: " + " ".join(verdict))
    return "\n".join(lines)


def run_replicated(
    worker: Callable[[int], object],
    *,
    seeds: Sequence[int],
    processes: Optional[int] = None,
) -> List[object]:
    """Run a per-seed experiment over every seed, optionally in parallel.

    ``worker`` is a picklable (module-level) callable ``seed -> result``.
    Results come back **in seed order** and are bit-identical whether
    computed serially (``processes`` is ``None``/``<= 1``) or fanned out
    across ``processes`` spawn-started worker processes: each seed's
    simulation is fully self-contained (its own platform, RNG streams and
    collectors), so the only thing a process boundary changes is where
    the arithmetic happens.  The fan-out is for determinism checks and
    throughput of many seeds, never for timing.

    Results that carry sketches (a :func:`replay` summary's
    ``e2e_sketch``) can be pooled with :func:`pooled_sketch_stats` —
    sketch-merge is lossless, so the pooled percentiles equal those of a
    single sketch fed every seed's samples.
    """
    seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        raise ValueError("run_replicated needs at least one seed")
    if processes is None or processes <= 1 or len(seed_list) == 1:
        return [worker(seed) for seed in seed_list]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(processes, len(seed_list))) as pool:
        return pool.map(worker, seed_list)


def pooled_sketch_stats(results: Sequence[Summary]) -> LatencyStats:
    """Sketch-merge the ``e2e_sketch`` of replicated runs into one summary."""
    sketches = [result["e2e_sketch"] for result in results]
    if not sketches:
        raise ValueError("nothing to pool")
    pooled = LatencySketch(relative_accuracy=sketches[0].relative_accuracy)
    for sketch in sketches:
        pooled.merge(sketch)
    return pooled.stats()
