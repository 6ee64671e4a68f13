"""Tests for the cluster control plane: SLO monitoring, AIMD tuning,
capacity planning, and the loop's wiring into the cluster."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.errors import PlatformError
from repro.faas.action import ActionSpec
from repro.faas.admission import TenantQuotas
from repro.faas.cluster import FaaSCluster
from repro.faas.container import ContainerState
from repro.faas.controlplane import (
    CapacityPlanner,
    QuotaTuner,
    SLOMonitor,
    TenantSLO,
    TenantSLOStatus,
)
from repro.faas.invoker import Invoker
from repro.faas.metrics import MetricsCollector
from repro.faas.request import Invocation, InvocationStatus
from repro.runtime.profiles import FunctionProfile
from repro.sim.events import EventLoop


def _action(profile: FunctionProfile, name: str, mechanism: str = "base") -> ActionSpec:
    return ActionSpec.for_profile(profile, mechanism, name=name)


def _finished(caller: str, at: float, *, status=InvocationStatus.COMPLETED,
              latency: float = 0.010) -> Invocation:
    inv = Invocation(action="act", caller=caller, submitted_at=at - latency)
    if status is InvocationStatus.COMPLETED:
        inv.mark_completed(at, {})
    elif status is InvocationStatus.REJECTED:
        inv.mark_rejected(at)
    else:
        inv.mark_throttled(at)
    return inv


def _status(tenant: str, *, slo=None, p99_ms=None, goodput=1.0,
            demand_rps=0.0, violated=False) -> TenantSLOStatus:
    return TenantSLOStatus(
        tenant=tenant, slo=slo, window_seconds=2.0,
        completed=int(demand_rps * 2), rejected=0, throttled=0,
        p99_ms=p99_ms, goodput=goodput, demand_rps=demand_rps,
        latency_violated=violated, goodput_violated=False,
    )


class TestMetricsWindow:
    def test_window_restricts_to_finish_times(self):
        metrics = MetricsCollector()
        for at in (1.0, 2.0, 3.0, 4.0):
            metrics.record(_finished("t", at))
        assert metrics.window(2.0, 3.0).num_completed == 2
        assert metrics.window(3.5).num_completed == 1
        assert metrics.num_completed == 4  # the source is untouched

    def test_window_keeps_all_outcome_kinds(self):
        metrics = MetricsCollector()
        metrics.record(_finished("t", 1.0))
        metrics.record(_finished("t", 1.1, status=InvocationStatus.REJECTED))
        metrics.record(_finished("t", 1.2, status=InvocationStatus.THROTTLED))
        clipped = metrics.window(0.0, 2.0)
        assert clipped.num_recorded == 3
        assert clipped.num_rejected == 1
        assert clipped.num_throttled == 1

    def test_by_caller_supports_windowing(self):
        metrics = MetricsCollector()
        metrics.record(_finished("old", 1.0))
        metrics.record(_finished("new", 5.0))
        recent = metrics.by_caller(since=4.0)
        assert set(recent) == {"new"}
        everyone = metrics.by_caller()
        assert set(everyone) == {"old", "new"}


class TestTenantSLO:
    def test_validation(self):
        with pytest.raises(PlatformError):
            TenantSLO(p99_ms=0.0)
        with pytest.raises(PlatformError):
            TenantSLO(p99_ms=10.0, min_goodput=1.5)
        with pytest.raises(PlatformError):
            TenantSLO()  # no objective at all
        TenantSLO(p99_ms=10.0)
        TenantSLO(min_goodput=0.5)


class TestSLOMonitor:
    def test_scores_only_the_recent_window(self):
        metrics = MetricsCollector()
        # An old, terrible sample followed by recent good ones.
        metrics.record(_finished("t", 1.0, latency=5.0))
        for at in (9.0, 9.2, 9.4):
            metrics.record(_finished("t", at, latency=0.010))
        monitor = SLOMonitor({"t": TenantSLO(p99_ms=100.0)}, window_seconds=2.0)
        status = monitor.assess(metrics, now=10.0)["t"]
        assert status.completed == 3  # the old spike aged out
        assert status.p99_ms is not None and status.p99_ms < 100.0
        assert not status.violated
        # Over the whole run the lifetime p99 would still be violating.
        assert metrics.e2e_stats().p99 * 1000 > 100.0

    def test_flags_latency_and_goodput_violations(self):
        metrics = MetricsCollector()
        metrics.record(_finished("t", 9.0, latency=0.500))
        metrics.record(_finished("t", 9.1, status=InvocationStatus.REJECTED))
        monitor = SLOMonitor(
            {"t": TenantSLO(p99_ms=100.0, min_goodput=0.9)}, window_seconds=2.0
        )
        status = monitor.assess(metrics, now=10.0)["t"]
        assert status.latency_violated
        assert status.goodput_violated
        assert status.violated

    def test_reports_demand_of_tenants_without_slo(self):
        metrics = MetricsCollector()
        for at in (9.0, 9.5):
            metrics.record(_finished("noisy", at))
        monitor = SLOMonitor({"quiet": TenantSLO(p99_ms=50.0)}, window_seconds=2.0)
        statuses = monitor.assess(metrics, now=10.0)
        assert statuses["noisy"].slo is None
        assert not statuses["noisy"].violated
        assert statuses["noisy"].demand_rps == pytest.approx(1.0)
        # The declared-but-idle tenant is present and unviolated.
        assert statuses["quiet"].completed == 0
        assert not statuses["quiet"].violated

    def test_starved_tenant_with_queued_work_is_violating(self):
        # A tenant whose requests are all stuck queued finishes nothing in
        # the window — that must read as a violation, not as compliance.
        metrics = MetricsCollector()
        monitor = SLOMonitor({"t": TenantSLO(p99_ms=50.0)}, window_seconds=2.0)
        starving = monitor.assess(metrics, now=10.0, queued_by_tenant={"t": 5})
        assert starving["t"].violated
        # Without queued work an empty window is just idleness.
        idle = monitor.assess(metrics, now=10.0, queued_by_tenant={})
        assert not idle["t"].violated

    def test_validation(self):
        with pytest.raises(PlatformError):
            SLOMonitor(window_seconds=0.0)


class TestQuotaTunerAIMD:
    """AIMD convergence: the violating tenant is throttled down
    multiplicatively, and recovers additively once the SLO holds."""

    def _tuner(self, **overrides) -> QuotaTuner:
        defaults = dict(cut_hold_ticks=1, raise_hold_ticks=1)
        defaults.update(overrides)
        return QuotaTuner(**defaults)

    def test_offender_is_cut_multiplicatively(self):
        tuner = self._tuner()
        quotas = TenantQuotas(1e9)
        slo = TenantSLO(p99_ms=50.0)
        statuses = {
            "victim": _status("victim", slo=slo, p99_ms=400.0, violated=True,
                              demand_rps=10.0),
            "offender": _status("offender", demand_rps=500.0),
        }
        tuner.apply(statuses, quotas=quotas)
        first = tuner.rate_for("offender")
        assert first == pytest.approx(250.0)  # demand * 0.5
        tuner.apply(statuses, quotas=quotas)
        assert tuner.rate_for("offender") == pytest.approx(125.0)
        assert quotas.rate("offender") == pytest.approx(125.0)
        # The victim is never the one throttled.
        assert tuner.rate_for("victim") is None
        assert tuner.rate_cuts == 2

    def test_compliant_tenant_recovers_additively_to_its_demand(self):
        tuner = self._tuner(increase_fraction=0.1)
        quotas = TenantQuotas(1e9)
        slo = TenantSLO(p99_ms=50.0)
        violating = {
            "victim": _status("victim", slo=slo, p99_ms=400.0, violated=True),
            "offender": _status("offender", demand_rps=100.0),
        }
        tuner.apply(violating, quotas=quotas)
        assert tuner.rate_for("offender") == pytest.approx(50.0)
        clean = {
            "victim": _status("victim", slo=slo, p99_ms=10.0),
            "offender": _status("offender", demand_rps=100.0),
        }
        rates = []
        for _ in range(10):
            tuner.apply(clean, quotas=quotas)
            rates.append(quotas.rate("offender"))
        # Strictly increasing by the additive step (10% of the anchor)...
        assert rates[:4] == [
            pytest.approx(60.0), pytest.approx(70.0), pytest.approx(80.0),
            pytest.approx(90.0),
        ]
        # ...until the rate reaches the demand the tenant showed when
        # first cut, at which point the override is *cleared* — the
        # tenant is genuinely unlimited again, not capped at its anchor
        # forever (its quota reverts to the permissive default).
        assert rates[4] == quotas.rate_rps
        assert tuner.rate_for("offender") is None
        assert quotas.burst_for("offender") == quotas.burst

    def test_cut_hold_prevents_cascades(self):
        tuner = self._tuner(cut_hold_ticks=4)
        quotas = TenantQuotas(1e9)
        slo = TenantSLO(p99_ms=50.0)
        statuses = {
            "victim": _status("victim", slo=slo, p99_ms=400.0, violated=True),
            "offender": _status("offender", demand_rps=100.0),
        }
        for _ in range(4):
            tuner.apply(statuses, quotas=quotas)
        # Four violated ticks, but only the first one cut (hold = 4).
        assert tuner.rate_cuts == 1
        tuner.apply(statuses, quotas=quotas)
        assert tuner.rate_cuts == 2

    def test_raise_hold_requires_a_clean_streak(self):
        tuner = self._tuner(raise_hold_ticks=3)
        quotas = TenantQuotas(1e9)
        slo = TenantSLO(p99_ms=50.0)
        violating = {
            "victim": _status("victim", slo=slo, p99_ms=400.0, violated=True),
            "offender": _status("offender", demand_rps=100.0),
        }
        clean = {
            "victim": _status("victim", slo=slo, p99_ms=10.0),
            "offender": _status("offender", demand_rps=100.0),
        }
        tuner.apply(violating, quotas=quotas)
        tuner.apply(clean, quotas=quotas)
        tuner.apply(clean, quotas=quotas)
        assert tuner.rate_raises == 0
        tuner.apply(clean, quotas=quotas)  # third consecutive clean tick
        assert tuner.rate_raises == 1

    def test_weights_boost_on_violation_and_decay_when_clean(self):
        tuner = self._tuner()
        applied = []
        slo = TenantSLO(p99_ms=50.0)
        violating = {
            "victim": _status("victim", slo=slo, p99_ms=400.0, violated=True),
            "offender": _status("offender", demand_rps=100.0),
        }
        clean = {
            "victim": _status("victim", slo=slo, p99_ms=10.0),
            "offender": _status("offender", demand_rps=100.0),
        }
        actuate = lambda tenant, weight: applied.append((tenant, weight))
        tuner.apply(violating, weights=actuate)
        tuner.apply(violating, weights=actuate)
        assert tuner.weight_for("victim") == 4.0
        for _ in range(2):
            tuner.apply(clean, weights=actuate)
        assert tuner.weight_for("victim") == 1.0
        assert ("victim", 2.0) in applied and ("victim", 4.0) in applied

    def test_no_offender_means_no_cut(self):
        tuner = self._tuner()
        quotas = TenantQuotas(1e9)
        slo = TenantSLO(p99_ms=50.0)
        # Every active tenant is itself violating: a capacity problem,
        # not a fairness one — throttling the victims would not help.
        statuses = {
            "a": _status("a", slo=slo, p99_ms=400.0, violated=True,
                         demand_rps=10.0),
        }
        actions = tuner.apply(statuses, quotas=quotas)
        # The victim's weight may still be boosted, but nobody is cut.
        assert not any(action.startswith("cut:") for action in actions)
        assert tuner.rate_cuts == 0
        assert tuner.rate_for("a") is None

    def test_validation(self):
        with pytest.raises(PlatformError):
            QuotaTuner(increase_fraction=0.0)
        with pytest.raises(PlatformError):
            QuotaTuner(cut_hold_ticks=0)


class TestPrewarmAndDrain:
    def test_prewarm_boots_a_dynamic_container(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        invoker.register(_action(small_python_profile, "seed"), max_containers=2)
        assert invoker.prewarm("seed")
        loop.run(until=100.0)
        pool = invoker.pool("seed")
        assert len(pool) == 1 and pool[0].dynamic
        assert invoker.prewarms == 1
        # A seed boots off the demand path, so it is accounted as a
        # prewarm — not as a demand cold start.
        assert invoker.cold_starts == 0

    def test_prewarm_respects_headroom(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        invoker.register(_action(small_python_profile, "full"), max_containers=1)
        assert invoker.prewarm("full")
        loop.run(until=100.0)
        assert not invoker.prewarm("full")  # ceiling reached
        assert invoker.prewarms == 1

    def test_prewarmed_first_dispatch_is_a_warm_hit(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        invoker.register(_action(small_python_profile, "ahead"), max_containers=1)
        invoker.prewarm("ahead")
        loop.run(until=100.0)  # the seed finishes booting before any request
        done = []
        invoker.submit(Invocation(action="ahead", submitted_at=loop.now), done.append)
        loop.run(until=200.0)
        assert done[0].status is InvocationStatus.COMPLETED
        assert invoker.warm_hits == 1  # the boot was off this request's path

    def test_demand_boot_first_dispatch_stays_cold(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        invoker.register(_action(small_python_profile, "cold"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="cold", submitted_at=loop.now), done.append)
        loop.run(until=100.0)
        assert done[0].status is InvocationStatus.COMPLETED
        assert invoker.warm_hits == 0  # the request waited on its boot

    def test_drain_reclaims_only_idle_dynamic_containers(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        spec = _action(small_python_profile, "drainable")
        invoker.deploy(spec, containers=1, max_containers=2)
        invoker.prewarm("drainable")
        loop.run(until=100.0)
        assert len(invoker.pool("drainable")) == 2
        assert invoker.drain("drainable", 5) == 1  # only the dynamic one
        pool = invoker.pool("drainable")
        assert len(pool) == 1 and not pool[0].dynamic
        assert invoker.drains == 1 and invoker.evictions == 1

    def test_drain_refuses_while_work_is_queued(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=1))
        spec = _action(small_python_profile, "busy")
        invoker.deploy(spec, containers=1, max_containers=2)
        invoker.prewarm("busy")
        loop.run(until=100.0)
        for _ in range(3):
            invoker.submit(Invocation(action="busy", submitted_at=loop.now),
                           lambda inv: None)
        assert invoker.queued_invocations("busy") > 0
        assert invoker.drain("busy") == 0

    def test_drain_honours_min_idle_seconds(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        invoker.register(_action(small_python_profile, "fresh"), max_containers=1)
        invoker.prewarm("fresh")
        loop.run(until=100.0)
        # The container just became idle at its boot completion (< 100s ago
        # is fine; require far more idle time than it has).
        assert invoker.drain("fresh", min_idle_seconds=1e6) == 0
        assert invoker.drain("fresh", min_idle_seconds=0.0) == 1

    def test_set_tenant_weight_counts_fair_queues(self, small_python_profile):
        loop = EventLoop()
        wfq_invoker = Invoker(loop, SimulationConfig(cores=1, admission_policy="wfq"))
        wfq_invoker.register(_action(small_python_profile, "w1"), max_containers=1)
        wfq_invoker.register(_action(small_python_profile, "w2"), max_containers=1)
        assert wfq_invoker.set_tenant_weight("t", 4.0) == 2
        fifo_invoker = Invoker(loop, SimulationConfig(cores=1))
        fifo_invoker.register(_action(small_python_profile, "f1"), max_containers=1)
        assert fifo_invoker.set_tenant_weight("t", 4.0) == 0  # no-op, no error


class TestCapacityPlanner:
    def _invokers(self, loop, spec, *, count=3, cores=2, ceiling=2):
        invokers = []
        for index in range(count):
            invoker = Invoker(
                loop,
                SimulationConfig(cores=cores),
                invoker_id=f"invoker-{index}",
            )
            if index == 0:
                invoker.deploy(spec, containers=1, max_containers=ceiling)
            else:
                invoker.register(spec, max_containers=ceiling)
            invokers.append(invoker)
        return invokers

    def _backlog(self, invoker, action, count, now=0.0):
        for _ in range(count):
            invoker.submit(
                Invocation(action=action, caller="t", submitted_at=now),
                lambda inv: None,
            )

    def test_seeds_backlogged_action_on_idle_peer(self, small_python_profile):
        loop = EventLoop()
        spec = _action(small_python_profile, "hot")
        invokers = self._invokers(loop, spec)
        self._backlog(invokers[0], "hot", 8)
        planner = CapacityPlanner(budget=10, queue_high=4)
        decisions = planner.plan(invokers, loop.now)
        assert decisions and decisions[0].kind == "prewarm"
        assert decisions[0].source == "invoker-0"
        assert decisions[0].target in ("invoker-1", "invoker-2")
        assert sum(inv.prewarms for inv in invokers) == len(decisions)

    def test_does_not_seed_below_queue_high(self, small_python_profile):
        loop = EventLoop()
        spec = _action(small_python_profile, "calm")
        invokers = self._invokers(loop, spec)
        self._backlog(invokers[0], "calm", 3)
        planner = CapacityPlanner(budget=10, queue_high=4)
        assert planner.plan(invokers, loop.now) == []

    def test_never_exceeds_the_budget(self, small_python_profile):
        loop = EventLoop()
        spec = _action(small_python_profile, "capped")
        invokers = self._invokers(loop, spec)
        self._backlog(invokers[0], "capped", 12)
        # Budget 2: one deployed container + its cold start in flight
        # already fill it, and nothing is drainable (the home pool has
        # queued work), so the planner must stand down.
        planner = CapacityPlanner(budget=2, queue_high=4)
        decisions = planner.plan(invokers, loop.now)
        assert [d for d in decisions if d.kind == "prewarm"] == []
        snapshots = [inv.snapshot() for inv in invokers]
        assert CapacityPlanner.total_containers(snapshots) <= 2

    def test_drains_idle_capacity_to_fund_a_seed(self, small_python_profile):
        loop = EventLoop()
        hot = _action(small_python_profile, "hot")
        cold = _action(small_python_profile, "cold")
        invokers = self._invokers(loop, hot)
        for index, invoker in enumerate(invokers):
            if index == 2:
                invoker.deploy(cold, containers=1, max_containers=2)
            else:
                invoker.register(cold, max_containers=2)
        # An idle dynamic container of the cold action on invoker 2...
        invokers[2].prewarm("cold")
        loop.run(until=100.0)
        # ...and a deep backlog of the hot action on invoker 0.
        self._backlog(invokers[0], "hot", 8, now=loop.now)
        total_before = CapacityPlanner.total_containers(
            [inv.snapshot() for inv in invokers]
        )
        planner = CapacityPlanner(
            budget=total_before, queue_high=4, min_idle_seconds=0.0
        )
        decisions = planner.plan(invokers, loop.now)
        kinds = [d.kind for d in decisions]
        assert "drain" in kinds and "prewarm" in kinds
        assert CapacityPlanner.total_containers(
            [inv.snapshot() for inv in invokers]
        ) <= total_before

    def test_never_drains_a_busy_container(self, small_python_profile):
        loop = EventLoop()
        spec = _action(small_python_profile, "running")
        invoker = Invoker(loop, SimulationConfig(cores=1))
        invoker.deploy(spec, containers=1, max_containers=2)
        invoker.prewarm("running")
        loop.run(until=100.0)
        # Dispatch one request and stop mid-service: one container busy.
        invoker.submit(Invocation(action="running", submitted_at=loop.now),
                       lambda inv: None)
        busy = [c for c in invoker.pool("running")
                if c not in invoker.idle_pool("running")]
        assert busy
        planner = CapacityPlanner(budget=1, queue_high=1, min_idle_seconds=0.0)
        planner.plan([invoker], loop.now)
        for container in busy:
            assert container in invoker.pool("running")
            assert container.state is not ContainerState.DEAD

    def test_validation(self):
        with pytest.raises(PlatformError):
            CapacityPlanner(budget=0)
        with pytest.raises(PlatformError):
            CapacityPlanner(budget=4, queue_high=0)
        with pytest.raises(PlatformError):
            CapacityPlanner(budget=4, min_idle_seconds=-1.0)


class TestPlannerBudgetBoundary:
    """Regressions for the seed-funding path exactly at ``total == budget``."""

    def _build(self, small_python_profile, loop):
        hot = _action(small_python_profile, "hot")
        cold = _action(small_python_profile, "cold")
        invokers = []
        for index in range(3):
            invoker = Invoker(
                loop,
                SimulationConfig(cores=2),
                invoker_id=f"invoker-{index}",
            )
            if index == 0:
                invoker.deploy(hot, containers=1, max_containers=2)
            else:
                invoker.register(hot, max_containers=2)
            if index == 2:
                invoker.deploy(cold, containers=1, max_containers=2)
            else:
                invoker.register(cold, max_containers=2)
            invokers.append(invoker)
        return hot, cold, invokers

    def _backlog(self, invoker, action, count):
        for _ in range(count):
            invoker.submit(
                Invocation(action=action, caller="t", submitted_at=invoker.loop.now),
                lambda inv: None,
            )

    def test_seed_at_exact_budget_is_funded_and_stays_within(
        self, small_python_profile
    ):
        loop = EventLoop()
        hot, cold, invokers = self._build(small_python_profile, loop)
        # One idle dynamic container of the cold action funds the shift.
        invokers[2].prewarm("cold")
        loop.run(until=100.0)
        self._backlog(invokers[0], "hot", 8)
        total = CapacityPlanner.total_containers(
            [inv.snapshot() for inv in invokers]
        )
        planner = CapacityPlanner(budget=total, queue_high=4, min_idle_seconds=0.0)
        decisions = planner.plan(invokers, loop.now)
        kinds = sorted(d.kind for d in decisions)
        assert kinds == ["drain", "prewarm"]  # one funded shift, no extras
        after = CapacityPlanner.total_containers(
            [inv.snapshot() for inv in invokers]
        )
        assert after <= total

    def test_no_drain_when_the_seed_cannot_land(self, small_python_profile):
        """The over-drain regression: at the budget boundary, a seed whose
        target has no room must be skipped *before* funding it — draining
        first would reclaim a container for nothing.

        The target looks attractive to placement (a free core, no idle
        warm/boot/queue for the action) but cannot host the seed: its hot
        pool already exceeds the lowered ceiling, so even the planner's
        one-step ceiling raise cannot admit another container.
        """
        loop = EventLoop()
        hot = _action(small_python_profile, "hot")
        cold = _action(small_python_profile, "cold")
        home = Invoker(loop, SimulationConfig(cores=2), invoker_id="invoker-0")
        home.deploy(hot, containers=1, max_containers=2)
        home.register(cold, max_containers=2)
        peer = Invoker(loop, SimulationConfig(cores=4), invoker_id="invoker-1")
        peer.register(hot, max_containers=2)
        peer.register(cold, max_containers=2)
        peer.prewarm("hot")
        peer.prewarm("hot")
        peer.prewarm("cold")  # the drainable-looking idle dynamic container
        loop.run(until=100.0)
        # Lower the hot ceiling below the grown pool, then occupy both hot
        # containers: no idle warm, a free core — placement will pick the
        # peer — but containers (2) >= min(ceiling 1 + raise 1, cores) = 2.
        assert peer.scale_action("hot", -1) == 1
        for _ in range(2):
            peer.submit(
                Invocation(action="hot", caller="t", submitted_at=loop.now),
                lambda inv: None,
            )
        self._backlog(home, "hot", 8)
        total = CapacityPlanner.total_containers(
            [inv.snapshot() for inv in (home, peer)]
        )
        planner = CapacityPlanner(budget=total, queue_high=4, min_idle_seconds=0.0)
        planner.plan([home, peer], loop.now)
        # Nothing was seeded (no room on the peer) — and, crucially, the
        # idle cold container was not drained to fund a seed that could
        # never land.
        assert planner.prewarms == 0
        assert planner.drains == 0
        assert peer.drains == 0
        assert len(peer.idle_pool("cold")) == 1

    def test_no_livelock_when_everything_is_busy_at_the_boundary(
        self, small_python_profile
    ):
        """The final drain loop must terminate when the cluster sits at
        (or above) budget but every container is busy or protected."""
        loop = EventLoop()
        spec = _action(small_python_profile, "busy")
        invoker = Invoker(loop, SimulationConfig(cores=1))
        invoker.deploy(spec, containers=1, max_containers=2)
        self._backlog(invoker, "busy", 3)  # container mid-request + queue
        total = CapacityPlanner.total_containers([invoker.snapshot()])
        planner = CapacityPlanner(budget=1, queue_high=1, min_idle_seconds=0.0)
        assert total >= planner.budget
        decisions = planner.plan([invoker], loop.now)  # must return, not spin
        assert all(d.kind != "drain" for d in decisions)
        loop.run()  # the queued work still completes untouched


class TestControlPlaneWiring:
    def test_timer_arms_on_submit_and_stands_down_idle(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=1, invokers=2, control_plane=True, seed=3)
        )
        cluster.deploy(_action(small_python_profile, "wired"))
        assert not cluster.control_plane.running
        cluster.invoke_async("wired")
        assert cluster.control_plane.running
        # The run drains: the control timer must have cancelled itself,
        # otherwise this would loop forever on its recurring events.
        cluster.run()
        assert not cluster.control_plane.running
        assert cluster.control_plane.ticks >= 1

    def test_timer_rearms_on_later_submissions(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=1, invokers=2, control_plane=True, seed=3)
        )
        cluster.deploy(_action(small_python_profile, "again"))
        cluster.invoke_async("again")
        cluster.run()
        ticks = cluster.control_plane.ticks
        cluster.invoke_async("again")
        assert cluster.control_plane.running
        cluster.run()
        assert cluster.control_plane.ticks >= ticks

    def test_control_plane_gets_permissive_quotas(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(control_plane=True))
        assert cluster.quotas is not None
        assert cluster.quotas.rate_rps == FaaSCluster.UNTUNED_QUOTA_RPS

    def test_tenant_slos_require_the_control_plane(self):
        with pytest.raises(PlatformError):
            FaaSCluster(
                SimulationConfig(),
                tenant_slos={"t": TenantSLO(p99_ms=10.0)},
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(slo_window_seconds=0.0)

    def test_stats_and_migrations_are_observable(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=1, invokers=2, control_plane=True, seed=3)
        )
        cluster.deploy(_action(small_python_profile, "obs"))
        cluster.invoke_async("obs")
        cluster.run()
        stats = cluster.control_plane_stats()
        assert stats["ticks"] >= 1
        assert "budget" in stats
        assert isinstance(cluster.migrations, list)
        row = cluster.cluster_stats()[0]
        assert "prewarms" in row and "drains" in row and "prewarmed" in row

    def test_disabled_plane_surfaces_are_empty(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig())
        assert cluster.control_plane is None
        assert cluster.control_plane_stats() == {}
        assert cluster.migrations == []
