"""The control loop: monitor → tune/plan → actuate, every tick.

:class:`ControlPlane` is the periodic brain of a
:class:`~repro.faas.cluster.FaaSCluster`: a recurring simulation timer
that, each tick,

1. asks the :class:`~repro.faas.controlplane.slo.SLOMonitor` to score
   every tenant's recent (windowed) behaviour against its declared
   :class:`~repro.faas.controlplane.slo.TenantSLO`,
2. lets the :class:`~repro.faas.controlplane.tuner.QuotaTuner` move the
   admission knobs (per-tenant quota rates, WFQ weights) by AIMD, and
3. lets the :class:`~repro.faas.controlplane.planner.CapacityPlanner`
   shift pre-warmed capacity between invokers under the global container
   budget.

The timer arms itself when the cluster submits work
(:meth:`ensure_running`) and cancels itself after the cluster has been
completely idle for a few consecutive ticks, so drain-style event-loop
runs still terminate — the same discipline the invoker's keep-alive
eviction timer follows.  Everything runs inside the deterministic event
loop; two identical runs tick, tune, and plan identically.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.config import PLANNER_KINDS
from repro.errors import PlatformError
from repro.faas.controlplane.forecast import DemandForecaster, PredictivePlanner
from repro.faas.controlplane.planner import CapacityPlanner, MigrationDecision
from repro.faas.controlplane.slo import SLOMonitor, TenantSLO
from repro.faas.controlplane.tuner import QuotaTuner
from repro.sim.events import RecurringTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.faas.cluster import FaaSCluster

#: Consecutive all-idle ticks after which the control timer stands down.
IDLE_TICKS_TO_STOP = 2


class ControlPlane:
    """SLO-driven auto-tuning and capacity planning for one cluster."""

    def __init__(
        self,
        cluster: "FaaSCluster",
        *,
        slos: Optional[Mapping[str, TenantSLO]] = None,
        interval_seconds: float = 0.25,
        window_seconds: float = 2.0,
        planner_kind: str = "reactive",
        forecast_period_seconds: Optional[float] = None,
        tracer=None,
    ) -> None:
        if interval_seconds <= 0:
            raise PlatformError("control interval must be positive")
        if planner_kind not in PLANNER_KINDS:
            raise PlatformError(
                f"unknown planner kind {planner_kind!r}; "
                f"choose one of {PLANNER_KINDS}"
            )
        self.cluster = cluster
        self.interval_seconds = interval_seconds
        # The container budget: twice the cluster's core count.  Cores bound
        # how many containers can *run*; the factor leaves room for
        # warm-but-idle capacity on peers without unbounded growth.
        budget = 2 * sum(invoker.cores for invoker in cluster.invokers)
        self.monitor = SLOMonitor(slos, window_seconds=window_seconds)
        # Hold cuts for one full monitor window (the time a spike takes to
        # age out of the assessment) and raises for half of one, in ticks of
        # this loop's interval.
        self.tuner = QuotaTuner(
            cut_hold_ticks=max(1, round(window_seconds / interval_seconds)),
            raise_hold_ticks=max(1, round(window_seconds / (2 * interval_seconds))),
        )
        self.planner: CapacityPlanner
        if planner_kind == "predictive":
            self.planner = PredictivePlanner(
                budget,
                forecaster=DemandForecaster(season_period_seconds=forecast_period_seconds),
            )
        else:
            self.planner = CapacityPlanner(budget)
        self._timer: Optional[RecurringTimer] = None
        self._idle_ticks = 0
        self.ticks = 0
        #: Human-readable tuner actions, most recent tick last.
        self.tuner_log: List[str] = []
        #: Flight recorder (``repro.faas.obs.TraceRecorder``) the audit
        #: events land in; ``None`` with tracing off.
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Timer lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the control timer is armed."""
        return self._timer is not None and self._timer.active

    def ensure_running(self) -> None:
        """Arm the control timer (idempotent; called on every submission)."""
        if not self.running:
            self._idle_ticks = 0
            self._timer = self.cluster.loop.schedule_recurring(
                self.interval_seconds, self._tick, label="control-plane"
            )

    def stop(self) -> None:
        """Cancel the control timer (it re-arms on the next submission)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _cluster_idle(self) -> bool:
        return all(
            invoker.cores_in_use == 0
            and invoker.pending_boots == 0
            and invoker.queued_invocations() == 0
            for invoker in self.cluster.invokers
        )

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.ticks += 1
        if self._cluster_idle():
            # Nothing in flight anywhere: after a couple of confirming
            # ticks, stand down so a drain-style run() can terminate.
            self._idle_ticks += 1
            if self._idle_ticks >= IDLE_TICKS_TO_STOP:
                self.stop()
            return
        self._idle_ticks = 0
        now = self.cluster.loop.now
        statuses = self.monitor.assess(
            self.cluster.metrics,
            now,
            queued_by_tenant=self.cluster.queued_by_tenant(),
        )
        actions = self.tuner.apply(
            statuses,
            quotas=self.cluster.quotas,
            weights=self.cluster.set_tenant_weight,
        )
        self.tuner_log.extend(actions)
        decisions = self.planner.plan(self.cluster.invokers, now)
        if self.tracer is not None and (actions or decisions):
            self._audit(now, statuses, actions, decisions)

    def _audit(self, now, statuses, actions, decisions) -> None:
        """Land this tick's tuner actions and planner decisions on the
        flight recorder's timeline, each tuner action annotated with the
        triggering tenant's SLO window when one is violating."""
        windows = {}
        for tenant, status in statuses.items():
            if status.latency_violated or status.goodput_violated:
                p99 = (
                    f"{status.p99_ms:.1f}ms"
                    if status.p99_ms is not None
                    else "n/a"
                )
                windows[tenant] = (
                    f"window p99={p99} goodput={status.goodput:.2f} "
                    f"demand={status.demand_rps:.1f}rps"
                )
        for action in actions:
            parts = action.split(":")
            tenant = parts[1] if len(parts) > 1 else ""
            detail = action
            if tenant in windows:
                detail = f"{action} [{windows[tenant]}]"
            self.tracer.audit(now, "tuner", detail, actor="control-plane")
        for decision in decisions:
            self.tracer.audit(
                decision.at, "planner", decision.describe(),
                actor="control-plane",
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def migrations(self) -> List[MigrationDecision]:
        """Every capacity movement the planner actuated, in tick order."""
        return list(self.planner.decisions)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for driver/CLI tables."""
        stats: Dict[str, object] = {
            "ticks": self.ticks,
            "assessments": self.monitor.assessments,
            "violations_seen": self.monitor.violations_seen,
            "rate_cuts": self.tuner.rate_cuts,
            "rate_raises": self.tuner.rate_raises,
            "weight_boosts": self.tuner.weight_boosts,
            "prewarms": self.planner.prewarms,
            "drains": self.planner.drains,
            "migrations": len(self.planner.decisions),
            "budget": self.planner.budget,
            "planner": (
                "predictive"
                if isinstance(self.planner, PredictivePlanner)
                else "reactive"
            ),
        }
        if isinstance(self.planner, PredictivePlanner):
            stats.update(self.planner.forecast_stats())
        return stats
