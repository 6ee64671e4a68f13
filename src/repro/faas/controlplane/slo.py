"""Tenant service-level objectives and the monitor that scores them.

A :class:`TenantSLO` declares what a tenant *bought*: a tail-latency target
(p99 over a sliding window) and a minimum goodput fraction (the share of
the tenant's arrivals the platform must serve rather than shed or
throttle).  The :class:`SLOMonitor` turns the platform's raw metrics into
per-tenant :class:`TenantSLOStatus` verdicts over a recent window — the
signal surface the quota tuner and capacity planner act on.

The monitor deliberately consumes *windowed* metrics
(:meth:`~repro.faas.metrics.MetricsCollector.window`): a control loop that
reacted to run-lifetime averages would keep punishing a tenant for a burst
that ended minutes ago, and would not notice a violation until it had
dragged the lifetime percentile over the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import PlatformError
from repro.faas.metrics import MetricsCollector


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's declared objectives.

    ``p99_ms`` is the end-to-end tail-latency target over the monitor's
    window (``None`` = no latency objective); ``min_goodput`` is the
    minimum fraction of the tenant's recorded arrivals that must complete
    (0.0 = no goodput objective).
    """

    p99_ms: Optional[float] = None
    min_goodput: float = 0.0

    def __post_init__(self) -> None:
        if self.p99_ms is not None and self.p99_ms <= 0:
            raise PlatformError("SLO p99 target must be positive (or None)")
        if not 0.0 <= self.min_goodput <= 1.0:
            raise PlatformError("SLO min_goodput must be within [0, 1]")
        if self.p99_ms is None and self.min_goodput == 0.0:
            raise PlatformError("an SLO must declare at least one objective")


@dataclass(frozen=True)
class TenantSLOStatus:
    """One tenant's windowed behaviour scored against its SLO (if any)."""

    tenant: str
    slo: Optional[TenantSLO]
    #: Length of the window the sample counts below cover.
    window_seconds: float
    completed: int
    rejected: int
    throttled: int
    #: Windowed end-to-end p99 in milliseconds (``None`` = no completions).
    p99_ms: Optional[float]
    #: Completions / recorded arrivals in the window (1.0 when idle — an
    #: idle tenant is not being denied service).
    goodput: float
    #: Recorded arrivals per second of window — the demand signal the
    #: tuner uses to identify who is pressuring the cluster.
    demand_rps: float
    latency_violated: bool
    goodput_violated: bool

    @property
    def violated(self) -> bool:
        """True when any declared objective is currently missed."""
        return self.latency_violated or self.goodput_violated


class SLOMonitor:
    """Scores each tenant's recent behaviour against its declared SLO.

    Tenants without a declared SLO are still reported (with ``slo=None``
    and both violation flags false): their windowed demand is exactly the
    signal the tuner needs to find the *source* of another tenant's
    violation.
    """

    def __init__(
        self,
        slos: Optional[Mapping[str, TenantSLO]] = None,
        *,
        window_seconds: float = 2.0,
    ) -> None:
        if window_seconds <= 0:
            raise PlatformError("SLO window must be positive")
        self.slos: Dict[str, TenantSLO] = dict(slos or {})
        self.window_seconds = window_seconds
        #: The most recent assessment (for observability/driver output).
        self.last: Dict[str, TenantSLOStatus] = {}
        self.assessments = 0
        self.violations_seen = 0

    def assess(
        self,
        metrics: MetricsCollector,
        now: float,
        *,
        queued_by_tenant: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, TenantSLOStatus]:
        """Score every observed (or declared) tenant over the last window.

        ``queued_by_tenant`` (currently waiting invocations per tenant)
        closes the starvation blind spot: a tenant whose requests are all
        stuck in queues finishes *nothing* inside the window — no
        completions, no rejections — which would otherwise score as
        perfectly compliant (goodput 1.0, no latency samples) exactly
        when service is worst.  A declared-SLO tenant with queued work
        and an empty window is therefore marked violating.
        """
        start = max(0.0, now - self.window_seconds)
        window = now - start
        per_tenant = metrics.by_caller(since=start, until=now)
        statuses: Dict[str, TenantSLOStatus] = {}
        for tenant in sorted(set(per_tenant) | set(self.slos)):
            slo = self.slos.get(tenant)
            collector = per_tenant.get(tenant)
            completed = collector.num_completed if collector else 0
            rejected = collector.num_rejected if collector else 0
            throttled = collector.num_throttled if collector else 0
            recorded = collector.num_recorded if collector else 0
            p99_ms = collector.e2e_p99() * 1000.0 if collector and completed else None
            goodput = completed / recorded if recorded else 1.0
            starved = bool(
                slo is not None
                and recorded == 0
                and queued_by_tenant is not None
                and queued_by_tenant.get(tenant, 0) > 0
            )
            latency_violated = bool(
                slo is not None
                and slo.p99_ms is not None
                and (
                    (p99_ms is not None and p99_ms > slo.p99_ms)
                    or starved
                )
            )
            goodput_violated = bool(
                slo is not None
                and (
                    (recorded > 0 and goodput < slo.min_goodput)
                    or (starved and slo.min_goodput > 0)
                )
            )
            statuses[tenant] = TenantSLOStatus(
                tenant=tenant,
                slo=slo,
                window_seconds=window,
                completed=completed,
                rejected=rejected,
                throttled=throttled,
                p99_ms=p99_ms,
                goodput=goodput,
                demand_rps=recorded / window if window > 0 else 0.0,
                latency_violated=latency_violated,
                goodput_violated=goodput_violated,
            )
        self.assessments += 1
        self.violations_seen += sum(1 for s in statuses.values() if s.violated)
        self.last = statuses
        return statuses
