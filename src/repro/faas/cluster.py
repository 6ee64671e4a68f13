"""The cluster-scale FaaS deployment: N invokers behind one scheduler.

:class:`FaaSCluster` generalises the paper's single-box deployment to the
topology a production platform actually runs: clients talk to a controller,
the controller routes each invocation to one of **N invokers** under a
pluggable scheduling policy, and every invoker autoscales its container
pools (cold starts on demand, keep-alive eviction) within bounded per-action
queues that shed load instead of queueing without limit.

The single-invoker :class:`~repro.faas.platform.FaaSPlatform` the paper's
experiments use is the N=1 special case of this class.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.config import SimulationConfig
from repro.errors import ActionNotFoundError, PlatformError
from repro.faas.action import ActionSpec
from repro.faas.admission import ReactiveAutoscaler, TenantQuotas
from repro.faas.controlplane import (
    ControlPlane,
    MigrationDecision,
    PredictivePlanner,
    TenantSLO,
)
from repro.faas.container import Container
from repro.faas.controller import Controller
from repro.faas.invoker import Invoker
from repro.faas.metrics import MetricsCollector
from repro.faas.obs import TraceRecorder
from repro.faas.request import Invocation
from repro.faas.restorecost import restore_seconds_for
from repro.faas.scheduler import (
    Scheduler,
    WarmAwarePolicy,
    create_policy,
    estimated_service_seconds,
)
from repro.sim.events import EventLoop
from repro.sim.rng import RngStreams


class FaaSCluster:
    """An OpenWhisk-like cluster: controller + scheduler + N invokers."""

    #: Effectively-unlimited default quota rate the control plane starts
    #: from: tenants are unthrottled until the tuner assigns them a rate,
    #: so "no hand-set quotas" stays literally true at t=0.
    UNTUNED_QUOTA_RPS = 1e9

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        *,
        verify_isolation: bool = False,
        tenant_slos: Optional[Mapping[str, TenantSLO]] = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        if tenant_slos and not self.config.control_plane:
            raise PlatformError(
                "tenant_slos declare objectives for the control plane; "
                "enable SimulationConfig.control_plane to enforce them"
            )
        self.rng_streams = RngStreams(self.config.seed)
        self.loop = EventLoop()
        #: One shared quota ledger: a tenant's token bucket is cluster-wide,
        #: not a property of whichever invoker the scheduler routed to.
        #: With the control plane on, the ledger always exists (at the
        #: permissive untuned default) so the quota tuner has a knob to
        #: actuate without any hand-set rate.
        self.quotas: Optional[TenantQuotas] = None
        if self.config.tenant_quota_rps is not None:
            self.quotas = TenantQuotas(
                self.config.tenant_quota_rps,
                burst=self.config.tenant_quota_burst,
            )
        elif self.config.control_plane:
            self.quotas = TenantQuotas(self.UNTUNED_QUOTA_RPS)
        #: The flight recorder (None when ``config.tracing == "off"`` —
        #: the off path carries no recorder object at all, so every
        #: instrumentation site is a single ``is None`` check).
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(self.config.tracing, seed=self.config.seed)
            if self.config.tracing != "off"
            else None
        )
        self.invokers: List[Invoker] = [
            Invoker(
                self.loop,
                cores=self.config.cores,
                # Invoker 0 keeps the seed deployment's stream name so the
                # N=1 platform reproduces the original runs bit for bit.
                rng=self.rng_streams.stream("invoker" if index == 0 else f"invoker-{index}"),
                verify_isolation=verify_isolation,
                invoker_id=f"invoker-{index}",
                max_queue_per_action=self.config.max_queue_per_action,
                keep_alive_seconds=self.config.keep_alive_seconds,
                admission=self.config.admission_policy,
                quotas=self.quotas,
                restorable_snapshots=self.config.restorable_snapshots,
                snapshot_budget=self.config.snapshot_budget,
                isolation_mechanism=self.config.isolation_mechanism,
                tracer=self.tracer,
            )
            for index in range(self.config.invokers)
        ]
        self.autoscalers: List[ReactiveAutoscaler] = (
            [ReactiveAutoscaler().attach(invoker) for invoker in self.invokers]
            if self.config.autoscale
            else []
        )
        self.scheduler = Scheduler(
            self.invokers,
            create_policy(self.config.scheduler_policy),
            work_stealing=self.config.work_stealing,
        )
        self.controller = Controller(
            self.loop,
            self.scheduler,
            platform_overhead_seconds=self.config.platform_overhead_seconds,
            platform_jitter_seconds=self.config.platform_jitter_seconds,
            rng=self.rng_streams.stream("controller"),
        )
        self.metrics = MetricsCollector(bucket_seconds=self.config.metrics_bucket_seconds)
        self._specs: Dict[str, ActionSpec] = {}
        #: Each action's default request payload, built once at deploy
        #: (bytes are immutable, so every request may share it).
        self._default_payloads: Dict[str, bytes] = {}
        #: The SLO-driven control loop (None unless ``config.control_plane``).
        self.control_plane: Optional[ControlPlane] = (
            ControlPlane(
                self,
                slos=tenant_slos,
                window_seconds=self.config.slo_window_seconds,
                planner_kind=self.config.planner,
                forecast_period_seconds=self.config.forecast_period_seconds,
                tracer=self.tracer,
            )
            if self.config.control_plane
            else None
        )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(
        self,
        spec: ActionSpec,
        containers: Optional[int] = None,
        *,
        max_containers: Optional[int] = None,
    ) -> List[Container]:
        """Deploy ``spec`` cluster-wide and return its pre-warmed containers.

        The pre-warmed containers live on the action's home invoker; every
        other invoker registers the action and may cold-start containers on
        demand up to the per-invoker ``max_containers`` ceiling.
        """
        if spec.name in self._specs:
            raise PlatformError(f"action {spec.name!r} is already deployed")
        count = containers if containers is not None else self.config.containers_per_action
        ceiling = max_containers
        if ceiling is None:
            ceiling = self.config.max_containers_per_action
        if ceiling is None:
            ceiling = count
        if ceiling < count:
            raise PlatformError("max_containers must be >= the pre-warmed count")
        deployed = self.scheduler.deploy(spec, containers=count, max_containers=ceiling)
        self._specs[spec.name] = spec
        self._default_payloads[spec.name] = b"x" * spec.profile.input_bytes
        # The home invoker just booted the pre-warmed containers, so the
        # measured init time is available; the service-time denominator
        # is the same estimate the load-sizing heuristics use.
        init = deployed[0].init_report if deployed else None
        if (
            init is not None
            and self.config.calibrate_warm_penalty
            and isinstance(self.scheduler.policy, WarmAwarePolicy)
        ):
            # With the spectrum on, also calibrate the snapshot tier: the
            # restore is priced by the same per-mechanism arithmetic the
            # invokers will charge when they actually restore.
            restore = (
                restore_seconds_for(self.config.isolation_mechanism, init)
                if self.config.restorable_snapshots
                else None
            )
            self.scheduler.policy.calibrate(
                spec.name,
                boot_seconds=init.total_seconds,
                service_seconds=estimated_service_seconds(spec.profile),
                restore_seconds=restore,
            )
        if (
            init is not None
            and self.control_plane is not None
            and isinstance(self.control_plane.planner, PredictivePlanner)
        ):
            # The predictive planner forecasts one boot-time ahead per
            # action: the measured init time is its lead, and the same
            # service estimate converts forecast rates into containers.
            self.control_plane.planner.calibrate(
                spec.name,
                boot_seconds=init.total_seconds,
                service_seconds=estimated_service_seconds(spec.profile),
            )
        return deployed

    def containers(self, action: str) -> List[Container]:
        """All containers of a deployed action, across every invoker."""
        self._require_spec(action)
        found: List[Container] = []
        for invoker in self.invokers:
            if invoker.hosts(action):
                found.extend(invoker.pool(action))
        return found

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.loop.now

    def invoke_async(
        self,
        action: str,
        payload: Optional[bytes] = None,
        *,
        caller: str = "anonymous",
        on_complete: Optional[Callable[[Invocation], None]] = None,
    ) -> Invocation:
        """Submit one request without waiting for it to finish."""
        self._require_spec(action)
        if payload is None:
            payload = self._default_payloads[action]
        invocation = Invocation(
            action=action,
            payload=payload,
            caller=caller,
            submitted_at=self.loop.now,
        )
        if self.tracer is not None:
            invocation.trace = self.tracer.begin_invocation(invocation)
        if self.control_plane is not None:
            # Work is flowing: make sure the control timer is armed (it
            # stands down on its own once the cluster goes idle).
            self.control_plane.ensure_running()
        self.controller.submit(invocation, _Reply(self, on_complete).record)
        return invocation

    def invoke_sync(
        self,
        action: str,
        payload: Optional[bytes] = None,
        *,
        caller: str = "anonymous",
    ) -> Invocation:
        """Submit one request and run the simulation until it completes."""
        finished: List[Invocation] = []
        invocation = self.invoke_async(
            action, payload, caller=caller, on_complete=finished.append
        )
        guard = 0
        while not finished:
            if not self.loop.step():
                raise PlatformError(
                    f"simulation ran out of events before {invocation.invocation_id} finished"
                )
            guard += 1
            if guard > 1_000_000:
                raise PlatformError("invocation did not complete within the event budget")
        return invocation

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop (until drained, a time bound, or an event cap)."""
        return self.loop.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def cluster_stats(self) -> List[Dict[str, object]]:
        """Per-invoker routing/dispatch/warmth counters.

        Rows include the control-plane actuation counters (``prewarmed``
        deploy floors, planner ``prewarms``/``drains``) so capacity shifts
        are visible next to the routing numbers they affect.
        """
        return self.scheduler.stats()

    def set_tenant_weight(self, tenant: str, weight: float) -> int:
        """Set a tenant's WFQ weight on every fair queue, cluster-wide.

        Returns the number of queues updated (0 under FIFO admission).
        """
        return sum(
            invoker.set_tenant_weight(tenant, weight) for invoker in self.invokers
        )

    @property
    def migrations(self) -> List[MigrationDecision]:
        """Capacity movements the control plane's planner actuated."""
        if self.control_plane is None:
            return []
        return self.control_plane.migrations

    def control_plane_stats(self) -> Dict[str, object]:
        """Control-loop counters (empty dict when the plane is disabled)."""
        if self.control_plane is None:
            return {}
        return self.control_plane.stats()

    def trace(self) -> Optional[TraceRecorder]:
        """The flight recorder (None when ``config.tracing == "off"``).

        Mirrors :meth:`control_plane_stats`: an always-callable accessor
        whose emptiness encodes "the subsystem is disabled".  Feed the
        recorder to :func:`repro.faas.obs.export_chrome_trace` or
        :func:`repro.faas.obs.latency_decompose`.
        """
        return self.tracer

    @property
    def warm_hit_rate(self) -> float:
        """Cluster-wide fraction of dispatches served by a warm container."""
        dispatched = sum(inv.invocations_dispatched for inv in self.invokers)
        if dispatched == 0:
            return 0.0
        return sum(inv.warm_hits for inv in self.invokers) / dispatched

    @property
    def steals(self) -> int:
        """Invocations moved between invokers by work stealing."""
        return self.scheduler.steals

    @property
    def throttled(self) -> int:
        """Invocations refused by per-tenant quota enforcement."""
        return sum(inv.invocations_throttled for inv in self.invokers)

    def queued_by_tenant(self) -> Dict[str, int]:
        """Cluster-wide waiting invocations per tenant."""
        return self.scheduler.queued_by_tenant()

    @property
    def routing_skew(self) -> float:
        """Max/mean invocations routed per invoker (1.0 = perfectly even)."""
        return self.scheduler.routing_skew()

    def _require_spec(self, action: str) -> ActionSpec:
        if action not in self._specs:
            raise ActionNotFoundError(action)
        return self._specs[action]


class _Reply:
    """Where a finished invocation goes: the recorder, metrics, the client."""

    __slots__ = ("cluster", "on_complete")

    def __init__(
        self, cluster: FaaSCluster, on_complete: Optional[Callable[[Invocation], None]]
    ) -> None:
        self.cluster = cluster
        self.on_complete = on_complete

    def record(self, finished: Invocation) -> None:
        """Close the invocation's trace, record it, then call the client back."""
        cluster = self.cluster
        if finished.trace is not None:
            cluster.tracer.finish_invocation(finished)
        cluster.metrics.record(finished)
        if self.on_complete is not None:
            self.on_complete(finished)
