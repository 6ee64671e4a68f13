"""Global configuration for the Groundhog reproduction.

The simulation is fully deterministic and parameterised by a small set of
constants collected here.  Values that influence *timing* live in
:mod:`repro.sim.costs`; this module holds structural constants (page size,
default limits) and the top-level :class:`SimulationConfig` used to build a
platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

#: Size of a simulated page in bytes.  Matches the x86-64 base page size the
#: paper's soft-dirty tracking operates on.
PAGE_SIZE = 4096

#: Default number of invoker cores in the latency experiments (§5.3).
DEFAULT_LATENCY_CORES = 1

#: Scheduling policies a cluster controller can route invocations with.
#: ``hash-affinity`` mirrors OpenWhisk's home-invoker assignment (an action
#: hashes to one invoker so its warm containers are reused); ``warm-aware``
#: blends load with warm-container availability (a load-balancing policy
#: that is not blind to cold-start cost); the others are the classic
#: load-balancing alternatives they are compared against.
SCHEDULER_POLICIES = ("round-robin", "least-loaded", "hash-affinity", "warm-aware")

#: OpenWhisk's default idle-container keep-alive (10 minutes): a container
#: cold-started on demand is reclaimed after sitting idle this long.
DEFAULT_KEEP_ALIVE_SECONDS = 600.0

#: Admission-queue policies an invoker can order its per-action waiting
#: queues with.  ``fifo`` is the historical arrival-order queue; ``wfq``
#: is deficit-round-robin fair queueing across tenants (the invocation's
#: ``caller``) with longest-queue-drop shedding on overflow.
ADMISSION_POLICIES = ("fifo", "wfq")

#: Capacity-planner kinds the control plane can run.  ``reactive`` shifts
#: pre-warmed capacity toward *observed* backlog (the
#: :class:`~repro.faas.controlplane.planner.CapacityPlanner`);
#: ``predictive`` additionally pre-warms toward *forecast* per-action
#: arrival rates (EWMA + Holt trend + optional seasonal buckets), seeding
#: one boot-time ahead of the predicted wave
#: (:class:`~repro.faas.controlplane.forecast.PredictivePlanner`).
PLANNER_KINDS = ("reactive", "predictive")

#: Isolation mechanisms whose restore models can price a cluster-level
#: snapshot restore.  Mirrors ``repro.baselines.registry.MECHANISMS``
#: (kept as a literal here — config must not import the baselines
#: package — and pinned equal by a unit test).
ISOLATION_MECHANISMS = ("base", "gh", "gh-nop", "fork", "faasm", "cold", "criu")

#: Flight-recorder modes (see :mod:`repro.faas.obs`).  ``off`` carries no
#: recorder at all — the instrumentation sites reduce to one ``is None``
#: check and the simulation is bit-identical to a build without tracing.
#: ``sampled`` records a seed-deterministic hash-sampled subset of
#: invocations (1 in the recorder's ``sample_period``, 16); ``full``
#: records every invocation.  Both record every control-plane audit event
#: and container boot/restore span, all in bounded ring buffers.
TRACING_MODES = ("off", "sampled", "full")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level knobs for building a simulated FaaS deployment.

    Parameters
    ----------
    cores:
        Number of invoker cores (each core hosts at most one running
        container at a time, as in the paper's deployment).
    containers_per_action:
        Number of warm containers kept per deployed action.
    platform_overhead_seconds:
        Fixed FaaS-platform latency added to every end-to-end request
        (controller, load balancer, HTTP hops).  The paper's end-to-end
        numbers include ~25-35 ms of such overhead on top of the invoker
        latency.
    platform_jitter_seconds:
        Standard deviation of the platform overhead noise.
    seed:
        Seed for all deterministic RNG streams.
    """

    cores: int = DEFAULT_LATENCY_CORES
    containers_per_action: int = 1
    platform_overhead_seconds: float = 0.026
    platform_jitter_seconds: float = 0.004
    seed: int = 20230501
    #: Number of invokers in the deployment.  1 reproduces the paper's
    #: single-invoker setup; >1 builds a cluster routed by ``scheduler_policy``.
    invokers: int = 1
    #: How the cluster controller picks an invoker per invocation.
    scheduler_policy: str = "hash-affinity"
    #: Idle lifetime of containers cold-started on demand; pre-warmed
    #: containers are never evicted.
    keep_alive_seconds: float = DEFAULT_KEEP_ALIVE_SECONDS
    #: Upper bound on containers per action on each invoker.  ``None`` means
    #: "same as the pre-warmed count" — no on-demand growth beyond the pool
    #: an invoker would have been deployed with.
    max_containers_per_action: Optional[int] = None
    #: Bound on each per-action FIFO queue on an invoker.  When the queue is
    #: full, further invocations are shed (rejected) instead of queued.
    #: ``None`` leaves queues unbounded, the seed behaviour.
    max_queue_per_action: Optional[int] = None
    #: Cross-invoker work stealing: when enabled, an invoker with spare
    #: capacity pulls queued invocations from a saturated peer's FIFO
    #: instead of letting them back up (see
    #: :class:`~repro.faas.scheduler.Scheduler`).
    work_stealing: bool = False
    #: How each invoker orders its per-action waiting queues: ``"fifo"``
    #: (arrival order, the seed behaviour) or ``"wfq"`` (deficit-round-robin
    #: fairness across tenants; see :mod:`repro.faas.admission`).
    admission_policy: str = "fifo"
    #: Per-tenant token-bucket admission rate (invocations/second of
    #: virtual time).  ``None`` disables quotas.  Over-quota invocations
    #: are refused with the distinct ``THROTTLED`` status.
    tenant_quota_rps: Optional[float] = None
    #: Token-bucket burst capacity (maximum banked tokens).  ``None``
    #: defaults to half a second's worth of the quota rate (>= 1).
    tenant_quota_burst: Optional[float] = None
    #: Reactive per-action autoscaling of each invoker's container ceiling
    #: from observed queue depth and rejections (see
    #: :class:`~repro.faas.admission.ReactiveAutoscaler`).  When enabled,
    #: ``max_containers_per_action`` is the *starting* ceiling, not a
    #: static one.
    autoscale: bool = False
    #: Restoration-aware warmth spectrum: keep-alive eviction (and planner
    #: drains) *demote* a dynamic container to a held restorable snapshot
    #: instead of destroying it; a dispatch that misses live-warm but hits
    #: a snapshot pays an on-core restore (priced by
    #: ``isolation_mechanism``'s restore model) instead of a full boot.
    #: Off (the default) reproduces the binary warm-vs-cold behaviour
    #: bit-identically.
    restorable_snapshots: bool = False
    #: Per-invoker cap on held (demoted) snapshots across all actions;
    #: the least-recently-demoted snapshot is discarded when a demote
    #: would exceed it.  ``None`` is unbounded.  Requires
    #: ``restorable_snapshots``.
    snapshot_budget: Optional[int] = None
    #: Which isolation mechanism's restore model prices cluster-level
    #: snapshot restores (see :mod:`repro.faas.restorecost`).  This
    #: selects restore *pricing* only — the mechanism each action is
    #: deployed with is still the :class:`~repro.faas.action.ActionSpec`'s
    #: ``mechanism`` field.
    isolation_mechanism: str = "gh"
    #: Calibrate the ``warm-aware`` policy's cold-start penalty per action
    #: from the measured boot time and estimated service time at deploy
    #: time, instead of the fixed 32-load-unit constant (which remains the
    #: fallback for actions without a measurement).
    calibrate_warm_penalty: bool = False
    #: Run the cluster control plane (see :mod:`repro.faas.controlplane`):
    #: a periodic loop that scores tenants against their declared SLOs,
    #: auto-tunes quota rates and fair-queue weights by AIMD, and shifts
    #: pre-warmed container capacity between invokers under a global
    #: budget.  Declared SLOs are passed to :class:`~repro.faas.cluster.
    #: FaaSCluster` via its ``tenant_slos`` argument.
    control_plane: bool = False
    #: Sliding window (virtual seconds) the SLO monitor scores tenants
    #: over — recent behaviour, not run-lifetime averages.
    slo_window_seconds: float = 2.0
    #: Which capacity planner the control plane runs: ``"reactive"``
    #: (seed toward observed backlog, the PR 4 behaviour) or
    #: ``"predictive"`` (additionally pre-warm toward forecast per-action
    #: arrival rates, one boot-time ahead of the predicted wave).
    planner: str = "reactive"
    #: Declared seasonal period (virtual seconds) of the arrival process
    #: — e.g. the diurnal cycle length of ``azure_diurnal_arrivals``.
    #: When set, the predictive planner's forecaster fits per-phase
    #: seasonal factors from bucketed history; ``None`` disables the
    #: seasonal component (pure level + trend).
    forecast_period_seconds: Optional[float] = None
    #: Width (virtual seconds) of one metrics time bucket (see
    #: :mod:`repro.faas.metrics`): windows are quantised to it.  Keep it
    #: equal to (or an integer divisor of) the control plane's 0.25 s tick
    #: so an SLO-monitor window spans whole buckets.
    metrics_bucket_seconds: float = 0.25
    #: Flight recorder (see :mod:`repro.faas.obs`): ``"off"`` (no
    #: recorder, the seed behaviour, bit-identical timing), ``"sampled"``
    #: (hash-sampled per-invocation lifecycle spans keyed on
    #: ``(seed, arrival ordinal)`` — deterministic across serial and
    #: parallel replication), or ``"full"`` (every invocation).
    tracing: str = "off"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")
        if self.containers_per_action < 1:
            raise ConfigError("containers_per_action must be >= 1")
        if self.platform_overhead_seconds < 0:
            raise ConfigError("platform_overhead_seconds must be >= 0")
        if self.platform_jitter_seconds < 0:
            raise ConfigError("platform_jitter_seconds must be >= 0")
        if self.invokers < 1:
            raise ConfigError("invokers must be >= 1")
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"unknown scheduler_policy {self.scheduler_policy!r}; "
                f"choose one of {SCHEDULER_POLICIES}"
            )
        if self.keep_alive_seconds <= 0:
            raise ConfigError("keep_alive_seconds must be positive")
        if self.max_containers_per_action is not None and (
            self.max_containers_per_action < self.containers_per_action
        ):
            raise ConfigError(
                "max_containers_per_action must be >= containers_per_action"
            )
        if self.max_queue_per_action is not None and self.max_queue_per_action < 1:
            raise ConfigError("max_queue_per_action must be >= 1 (or None for unbounded)")
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission_policy {self.admission_policy!r}; "
                f"choose one of {ADMISSION_POLICIES}"
            )
        if self.tenant_quota_rps is not None and self.tenant_quota_rps <= 0:
            raise ConfigError("tenant_quota_rps must be positive (or None to disable)")
        if self.tenant_quota_burst is not None:
            if self.tenant_quota_rps is None:
                raise ConfigError("tenant_quota_burst requires tenant_quota_rps")
            if self.tenant_quota_burst < 1:
                raise ConfigError("tenant_quota_burst must allow at least one token")
        if self.snapshot_budget is not None:
            if not self.restorable_snapshots:
                raise ConfigError("snapshot_budget requires restorable_snapshots")
            if self.snapshot_budget < 0:
                raise ConfigError("snapshot_budget must be >= 0 (or None for unbounded)")
        if self.isolation_mechanism not in ISOLATION_MECHANISMS:
            raise ConfigError(
                f"unknown isolation_mechanism {self.isolation_mechanism!r}; "
                f"choose one of {ISOLATION_MECHANISMS}"
            )
        if self.slo_window_seconds <= 0:
            raise ConfigError("slo_window_seconds must be positive")
        if self.planner not in PLANNER_KINDS:
            raise ConfigError(
                f"unknown planner {self.planner!r}; choose one of {PLANNER_KINDS}"
            )
        if self.planner == "predictive" and not self.control_plane:
            raise ConfigError("planner='predictive' requires control_plane")
        if self.forecast_period_seconds is not None:
            if self.planner != "predictive":
                # Only the predictive planner builds a forecaster; on any
                # other configuration the knob would be silently dead.
                raise ConfigError(
                    "forecast_period_seconds requires planner='predictive'"
                )
            if self.forecast_period_seconds <= 0:
                raise ConfigError("forecast_period_seconds must be positive (or None)")
        if self.metrics_bucket_seconds <= 0:
            raise ConfigError("metrics_bucket_seconds must be positive")
        if self.tracing not in TRACING_MODES:
            raise ConfigError(
                f"unknown tracing mode {self.tracing!r}; "
                f"choose one of {TRACING_MODES}"
            )


#: Configuration matching the paper's latency experiments: a 4-core VM with a
#: single function container pinned to one core (§5.3 "Latency").
LATENCY_CONFIG = SimulationConfig(cores=1, containers_per_action=1)

#: Configuration matching the paper's throughput experiments: a 4-core VM with
#: 4 function containers and a saturating client (§5.3 "Measuring Throughput").
THROUGHPUT_CONFIG = SimulationConfig(cores=4, containers_per_action=4)
