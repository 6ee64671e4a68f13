"""Tests for the admission layer: queues, quotas, autoscaling, calibration."""

from __future__ import annotations

import pytest

from repro.config import ADMISSION_POLICIES, SimulationConfig
from repro.errors import PlatformError
from repro.faas.action import ActionSpec
from repro.faas.admission import (
    FifoQueue,
    ReactiveAutoscaler,
    TenantQuotas,
    WeightedFairQueue,
    create_admission_queue,
)
from repro.faas.cluster import FaaSCluster
from repro.faas.index import ClusterIndex
from repro.faas.invoker import Invoker
from repro.faas.loadgen import TenantMix, azure_functions_arrivals
from repro.faas.metrics import MetricsCollector
from repro.faas.platform import FaaSPlatform
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.scheduler import WarmAwarePolicy, estimated_service_seconds
from repro.sim.events import EventLoop


def _action(profile, name: str, mechanism: str = "base") -> ActionSpec:
    return ActionSpec.for_profile(profile, mechanism, name=name)


def _entry(tenant: str, index: int = 0, action: str = "act"):
    invocation = Invocation(action=action, payload=b"x", caller=tenant)
    return (invocation, lambda inv: None, float(index))


def _drain(queue):
    order = []
    while queue:
        order.append(queue.pop_next()[0].caller)
    return order


class TestFifoQueue:
    def test_preserves_arrival_order(self):
        queue = FifoQueue()
        for index, tenant in enumerate(["a", "b", "a", "c"]):
            queue.push(_entry(tenant, index))
        assert len(queue) == 4
        assert _drain(queue) == ["a", "b", "a", "c"]

    def test_pop_newest_takes_the_tail(self):
        queue = FifoQueue()
        first, second = _entry("a", 0), _entry("a", 1)
        queue.push(first)
        queue.push(second)
        assert queue.pop_newest() is second
        assert queue.pop_next() is first

    def test_never_displaces(self):
        queue = FifoQueue()
        for index in range(4):
            queue.push(_entry("hog", index))
        assert queue.displace("victim") is None
        assert len(queue) == 4

    def test_tenants_and_invocations(self):
        queue = FifoQueue()
        queue.push(_entry("a", 0))
        queue.push(_entry("b", 1))
        queue.push(_entry("a", 2))
        assert queue.tenants() == {"a": 2, "b": 1}
        assert [inv.caller for inv in queue.invocations()] == ["a", "b", "a"]

    def test_empty_pops_raise(self):
        queue = FifoQueue()
        with pytest.raises(PlatformError):
            queue.pop_next()
        with pytest.raises(PlatformError):
            queue.pop_newest()


class TestWeightedFairQueue:
    def test_round_robins_across_tenants(self):
        queue = WeightedFairQueue()
        # One tenant floods, the other trickles: dispatch alternates.
        for index in range(4):
            queue.push(_entry("hog", index))
        queue.push(_entry("polite", 4))
        order = _drain(queue)
        assert order[:3] == ["hog", "polite", "hog"]

    def test_single_tenant_degenerates_to_fifo(self):
        wfq, fifo = WeightedFairQueue(), FifoQueue()
        entries = [_entry("solo", index) for index in range(6)]
        for entry in entries:
            wfq.push(entry)
            fifo.push(entry)
        assert [wfq.pop_next() for _ in range(6)] == [
            fifo.pop_next() for _ in range(6)
        ]

    def test_weights_bias_the_service_ratio(self):
        queue = WeightedFairQueue(weights={"gold": 2.0, "bronze": 1.0})
        for index in range(12):
            queue.push(_entry("gold", index))
            queue.push(_entry("bronze", index))
        served = [queue.pop_next()[0].caller for _ in range(9)]
        # Gold is served twice per bronze once (2:1 deficit credit).
        assert served.count("gold") == 6
        assert served.count("bronze") == 3

    def test_fractional_weight_accumulates_credit(self):
        queue = WeightedFairQueue(weights={"slow": 0.5})
        queue.push(_entry("slow", 0))
        queue.push(_entry("fast", 1))
        # The fractional-weight tenant needs two round visits per service,
        # but is still served — no starvation, no infinite loop.
        assert sorted(_drain(queue)) == ["fast", "slow"]

    def test_pop_newest_takes_globally_newest(self):
        queue = WeightedFairQueue()
        queue.push(_entry("a", 0))
        newest = _entry("b", 1)
        queue.push(newest)
        assert queue.pop_newest() is newest
        assert queue.pop_next()[0].caller == "a"

    def test_displace_evicts_the_dominant_tenants_newest(self):
        queue = WeightedFairQueue()
        for index in range(5):
            queue.push(_entry("hog", index))
        queue.push(_entry("polite", 5))
        displaced = queue.displace("polite")
        assert displaced is not None
        assert displaced[0].caller == "hog"
        # The evicted entry is the hog's newest (largest arrival stamp).
        assert displaced[2] == 4.0
        assert queue.tenants() == {"hog": 4, "polite": 1}

    def test_displace_refuses_when_incoming_dominates(self):
        queue = WeightedFairQueue()
        for index in range(5):
            queue.push(_entry("hog", index))
        queue.push(_entry("small", 5))
        # The hog asking for room must not displace the smaller tenant.
        assert queue.displace("hog") is None
        # Ties are refused too: equal backlogs shed the newcomer.
        balanced = WeightedFairQueue()
        balanced.push(_entry("a", 0))
        balanced.push(_entry("b", 1))
        assert balanced.displace("a") is None

    def test_invocations_lists_arrival_order(self):
        queue = WeightedFairQueue()
        queue.push(_entry("a", 0))
        queue.push(_entry("b", 1))
        queue.push(_entry("a", 2))
        assert [inv.caller for inv in queue.invocations()] == ["a", "b", "a"]

    def test_validation(self):
        with pytest.raises(PlatformError):
            WeightedFairQueue(weights={"t": 0.0})
        with pytest.raises(PlatformError):
            WeightedFairQueue(quantum=0.0)
        with pytest.raises(PlatformError):
            WeightedFairQueue().pop_next()

    def test_registry(self):
        assert isinstance(create_admission_queue("fifo"), FifoQueue)
        assert isinstance(create_admission_queue("wfq"), WeightedFairQueue)
        with pytest.raises(PlatformError):
            create_admission_queue("lifo")
        assert set(ADMISSION_POLICIES) == {"fifo", "wfq"}


class TestTenantQuotas:
    def test_burst_then_throttle_then_refill(self):
        quotas = TenantQuotas(10.0, burst=2.0)
        assert quotas.admit("t", now=0.0)
        assert quotas.admit("t", now=0.0)
        # Bucket drained: a same-instant third request is refused.
        assert not quotas.admit("t", now=0.0)
        # 0.1s later one token has refilled.
        assert quotas.admit("t", now=0.1)
        assert not quotas.admit("t", now=0.1)
        assert quotas.admitted == 3
        assert quotas.throttled == 2

    def test_tenants_are_independent(self):
        quotas = TenantQuotas(5.0, burst=1.0)
        assert quotas.admit("a", now=0.0)
        assert not quotas.admit("a", now=0.0)
        # Tenant b still has its own full bucket.
        assert quotas.admit("b", now=0.0)

    def test_per_tenant_rate_override(self):
        quotas = TenantQuotas(1.0, burst=1.0, per_tenant_rates={"vip": 100.0})
        assert quotas.rate("vip") == 100.0
        assert quotas.rate("anyone-else") == 1.0
        assert quotas.admit("vip", now=0.0)
        # The VIP refills 100x faster.
        assert quotas.admit("vip", now=0.01)

    def test_bank_is_capped_at_burst(self):
        quotas = TenantQuotas(100.0, burst=3.0)
        assert quotas.tokens("t", now=1000.0) == 3.0

    def test_validation(self):
        with pytest.raises(PlatformError):
            TenantQuotas(0.0)
        with pytest.raises(PlatformError):
            TenantQuotas(1.0, burst=0.5)
        with pytest.raises(PlatformError):
            TenantQuotas(1.0, per_tenant_rates={"t": -1.0})


class TestInvokerAdmission:
    def test_quota_throttles_with_distinct_status(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1, quotas=TenantQuotas(10.0, burst=1.0))
        invoker.deploy(_action(small_python_profile, "q"), containers=1)
        done = []
        invoker.submit(Invocation(action="q", payload=b"x", caller="t"), done.append)
        invoker.submit(Invocation(action="q", payload=b"x", caller="t"), done.append)
        # Second same-instant request is over quota: refused immediately,
        # without occupying a queue slot or triggering a boot.
        assert invoker.invocations_throttled == 1
        assert invoker.invocations_rejected == 0
        assert done[0].status is InvocationStatus.THROTTLED
        assert "quota" in done[0].error
        loop.run(until=10.0)
        assert done[-1].status is InvocationStatus.COMPLETED

    def test_wfq_interleaves_tenants_on_one_invoker(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1, admission="wfq")
        invoker.deploy(_action(small_python_profile, "fair"), containers=1)
        finished = []
        # The hog floods first; the polite tenant's single request must not
        # wait behind the whole flood.
        for _ in range(5):
            invoker.submit(
                Invocation(action="fair", payload=b"x", caller="hog"),
                finished.append,
            )
        invoker.submit(
            Invocation(action="fair", payload=b"x", caller="polite"),
            finished.append,
        )
        loop.run(until=50.0)
        callers = [inv.caller for inv in finished]
        # One hog request was already running; the polite request is served
        # after at most one more queued hog request, not after all five.
        assert "polite" in callers[:3]

    def test_wfq_displacement_protects_the_polite_tenant(
        self, small_python_profile
    ):
        loop = EventLoop()
        invoker = Invoker(
            loop, cores=1, admission="wfq", max_queue_per_action=3
        )
        invoker.deploy(_action(small_python_profile, "full"), containers=1)
        shed = []
        # One running + 3 queued hog requests fill the bounded queue.
        for _ in range(4):
            invoker.submit(
                Invocation(action="full", payload=b"x", caller="hog"),
                lambda inv: None,
            )
        polite_done = []
        invoker.submit(
            Invocation(action="full", payload=b"x", caller="polite"),
            polite_done.append,
        )
        # The polite request took a slot; the hog's newest entry was shed.
        assert invoker.invocations_rejected == 1
        assert invoker.queued_by_tenant("full") == {"hog": 2, "polite": 1}
        loop.run(until=50.0)
        assert polite_done[0].status is InvocationStatus.COMPLETED

    def test_fifo_sheds_the_newcomer_bit_for_bit(self, small_python_profile):
        # Under FIFO admission the bounded-queue behaviour is unchanged:
        # the incoming invocation is shed, whoever is queued.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1, max_queue_per_action=2)
        invoker.deploy(_action(small_python_profile, "fifo"), containers=1)
        done = []
        for _ in range(4):
            invoker.submit(
                Invocation(action="fifo", payload=b"x", caller="hog"), done.append
            )
        polite = Invocation(action="fifo", payload=b"x", caller="polite")
        invoker.submit(polite, done.append)
        assert polite.status is InvocationStatus.REJECTED
        assert invoker.invocations_rejected == 2

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(PlatformError):
            Invoker(EventLoop(), cores=1, admission="lifo")

    def test_custom_admission_factory(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(
            loop, cores=1,
            admission=lambda: WeightedFairQueue(weights={"gold": 4.0}),
        )
        invoker.deploy(_action(small_python_profile, "custom"), containers=1)
        assert isinstance(
            invoker._pools["custom"].queue, WeightedFairQueue
        )

    def test_snapshot_reports_per_tenant_queue_depth(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(_action(small_python_profile, "snap"), containers=1)
        for caller in ("a", "a", "b"):
            invoker.submit(
                Invocation(action="snap", payload=b"x", caller=caller),
                lambda inv: None,
            )
        snap = invoker.snapshot()
        # One request of tenant a is running; the rest wait.
        assert snap.queued_by_tenant == {"a": 1, "b": 1}
        assert snap.queued == 2


class TestMetricsThrottledAccounting:
    def test_throttled_accounted_separately_from_rejected(self):
        collector = MetricsCollector()
        rejected = Invocation(action="a", caller="t")
        rejected.mark_rejected(1.0)
        throttled = Invocation(action="a", caller="t")
        throttled.mark_throttled(1.0)
        collector.record(rejected)
        collector.record(throttled)
        assert collector.num_rejected == 1
        assert collector.num_throttled == 1
        assert collector.num_recorded == 2
        assert collector.rejection_rate == pytest.approx(0.5)
        assert collector.throttle_rate == pytest.approx(0.5)
        assert collector.throttled[0] is throttled

    def test_platform_metrics_track_throttled(self, small_python_profile):
        platform = FaaSPlatform(
            SimulationConfig(
                cores=1, containers_per_action=1,
                tenant_quota_rps=10.0, tenant_quota_burst=1.0,
            )
        )
        platform.deploy(_action(small_python_profile, "m"))
        for _ in range(3):
            platform.invoke_async("m", b"x", caller="same-instant")
        platform.run(until=10.0)
        assert platform.metrics.num_throttled == 2
        assert platform.throttled == 2
        assert platform.metrics.num_completed == 1
        per_tenant = platform.metrics.by_caller()
        assert per_tenant["same-instant"].num_throttled == 2

    def test_latency_stats_expose_p99(self):
        from repro.faas.metrics import LatencyStats

        stats = LatencyStats.from_samples(list(range(1, 101)))
        assert stats.p95 <= stats.p99 <= stats.maximum
        assert stats.p99 == pytest.approx(99.01)


class TestReactiveAutoscaler:
    def _pressured_invoker(self, profile, *, queue_high=2, cooldown=0.05):
        loop = EventLoop()
        invoker = Invoker(loop, cores=4, keep_alive_seconds=0.5)
        ReactiveAutoscaler(
            queue_high=queue_high, cooldown_seconds=cooldown
        ).attach(invoker)
        invoker.deploy(
            _action(profile, "scale"), containers=1, max_containers=1
        )
        return loop, invoker

    def test_queue_pressure_raises_the_ceiling(self, small_python_profile):
        loop, invoker = self._pressured_invoker(small_python_profile)
        for _ in range(4):
            invoker.submit(
                Invocation(action="scale", payload=b"x"), lambda inv: None
            )
        # Queue depth crossed the high-water mark: the ceiling rose above
        # the deployed maximum of 1 and a demand-matched boot started.
        assert invoker.max_containers("scale") >= 2
        assert invoker.autoscaler.scale_ups >= 1
        assert invoker.cold_starts >= 1

    def test_cooldown_limits_scaling_rate(self, small_python_profile):
        loop, invoker = self._pressured_invoker(
            small_python_profile, cooldown=100.0
        )
        for _ in range(8):
            invoker.submit(
                Invocation(action="scale", payload=b"x"), lambda inv: None
            )
        # However deep the queue gets, one burst scales at most one step
        # inside the cooldown window.
        assert invoker.autoscaler.scale_ups == 1
        assert invoker.max_containers("scale") == 2

    def test_eviction_lowers_the_ceiling(self, small_python_profile):
        loop, invoker = self._pressured_invoker(small_python_profile)
        for _ in range(4):
            invoker.submit(
                Invocation(action="scale", payload=b"x"), lambda inv: None
            )
        raised = invoker.max_containers("scale")
        assert raised >= 2
        # Drain and let keep-alive reclaim the dynamic containers.
        loop.run(until=30.0)
        assert invoker.evictions >= 1
        assert invoker.autoscaler.scale_downs >= 1
        assert invoker.max_containers("scale") < raised
        # Never below the pre-warmed floor.
        assert invoker.max_containers("scale") >= 1

    def test_rejection_pressure_raises_the_ceiling(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=2, max_queue_per_action=1)
        ReactiveAutoscaler(queue_high=50, cooldown_seconds=0.01).attach(invoker)
        invoker.deploy(
            _action(small_python_profile, "rej"), containers=1, max_containers=1
        )
        for _ in range(4):
            invoker.submit(
                Invocation(action="rej", payload=b"x"), lambda inv: None
            )
        # The queue bound (1) never reaches queue_high, but the shed
        # invocations are rejection pressure.
        assert invoker.invocations_rejected >= 1
        assert invoker.autoscaler.scale_ups >= 1

    def test_attach_is_exclusive(self, small_python_profile):
        loop = EventLoop()
        autoscaler = ReactiveAutoscaler()
        autoscaler.attach(Invoker(loop, cores=1))
        with pytest.raises(PlatformError):
            autoscaler.attach(Invoker(loop, cores=1, invoker_id="invoker-1"))

    def test_validation(self):
        with pytest.raises(PlatformError):
            ReactiveAutoscaler(queue_high=0)
        with pytest.raises(PlatformError):
            ReactiveAutoscaler(cooldown_seconds=0.0)

    def test_scale_action_clamps_to_cores_and_floor(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=2)
        invoker.deploy(
            _action(small_python_profile, "clamp"), containers=1, max_containers=1
        )
        assert invoker.scale_action("clamp", +1) == 2
        assert invoker.scale_action("clamp", +1) is None  # capped at cores
        assert invoker.scale_action("clamp", -1) == 1
        assert invoker.scale_action("clamp", -1) is None  # at the floor
        with pytest.raises(PlatformError):
            invoker.set_max_containers("clamp", 0)

    def test_cluster_config_attaches_autoscalers(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=2, invokers=2, autoscale=True)
        )
        assert len(cluster.autoscalers) == 2
        assert all(
            invoker.autoscaler is not None for invoker in cluster.invokers
        )
        off = FaaSCluster(SimulationConfig(cores=2, invokers=2))
        assert off.autoscalers == []
        assert all(invoker.autoscaler is None for invoker in off.invokers)


class TestCalibratedWarmPenalty:
    def test_constant_fallback_for_uncalibrated_actions(self):
        policy = WarmAwarePolicy(cold_start_penalty=7.0)
        assert policy.penalty_for("anything") == 7.0

    def test_calibration_is_the_boot_service_ratio(self):
        policy = WarmAwarePolicy()
        penalty = policy.calibrate(
            "heavy", boot_seconds=0.8, service_seconds=0.1
        )
        assert penalty == pytest.approx(8.0)
        assert policy.penalty_for("heavy") == pytest.approx(8.0)
        assert policy.penalty_for("other") == 32.0  # the constant fallback
        with pytest.raises(PlatformError):
            policy.calibrate("bad", boot_seconds=-1.0, service_seconds=0.1)
        with pytest.raises(PlatformError):
            policy.calibrate("bad", boot_seconds=1.0, service_seconds=0.0)

    def test_calibrated_penalty_changes_the_spill_point(
        self, small_python_profile
    ):
        # A backlog of 3 on the warm invoker: the constant (32) keeps
        # traffic there, a small calibrated penalty spills to the cold one.
        loop = EventLoop()
        warm = Invoker(loop, cores=1, invoker_id="invoker-0")
        cold = Invoker(loop, cores=1, invoker_id="invoker-1")
        spec = _action(small_python_profile, "spill")
        warm.deploy(spec, containers=1, max_containers=1)
        cold.register(spec, max_containers=1)
        for _ in range(4):
            warm.submit(Invocation(action="spill", payload=b"x"), lambda inv: None)
        policy = WarmAwarePolicy()
        policy.bind_index(ClusterIndex([warm, cold]))
        assert policy.select([warm, cold], Invocation(action="spill")) == 0
        policy.calibrate("spill", boot_seconds=0.02, service_seconds=0.01)
        assert policy.select([warm, cold], Invocation(action="spill")) == 1

    def test_cluster_calibrates_at_deploy(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(
                cores=2, invokers=2,
                scheduler_policy="warm-aware",
                calibrate_warm_penalty=True,
            )
        )
        spec = _action(small_python_profile, "cal")
        containers = cluster.deploy(spec)
        policy = cluster.scheduler.policy
        assert isinstance(policy, WarmAwarePolicy)
        expected = containers[0].init_report.total_seconds / (
            estimated_service_seconds(small_python_profile)
        )
        assert policy.penalty_for("cal") == pytest.approx(expected)
        # Without the flag the constant stays in force.
        plain = FaaSCluster(
            SimulationConfig(cores=2, invokers=2, scheduler_policy="warm-aware")
        )
        plain.deploy(_action(small_python_profile, "cal"))
        assert plain.scheduler.policy.penalty_for("cal") == 32.0


class TestTenantMixAndAzureTrace:
    def test_mix_is_proportional_and_deterministic(self):
        mix = TenantMix({"big": 3.0, "small": 1.0})
        first = [mix(i) for i in range(400)]
        assert first.count("big") == 300
        assert first.count("small") == 100
        again = TenantMix({"big": 3.0, "small": 1.0})
        assert [again(i) for i in range(400)] == first
        assert mix.share("big") == pytest.approx(0.75)

    def test_mix_interleaves_smoothly(self):
        mix = TenantMix({"a": 1.0, "b": 1.0})
        assert [mix(i) for i in range(6)] == ["a", "b", "a", "b", "a", "b"]

    def test_mix_validation(self):
        with pytest.raises(PlatformError):
            TenantMix({})
        with pytest.raises(PlatformError):
            TenantMix({"t": 0.0})
        with pytest.raises(PlatformError):
            TenantMix({"t": 1.0})(-1)

    def test_azure_trace_is_heavy_tailed_and_sorted(self):
        import random

        offsets, sequence = azure_functions_arrivals(
            [f"fn-{i}" for i in range(8)],
            duration_seconds=20.0,
            mean_rps=50.0,
            rng=random.Random(7),
        )
        assert len(offsets) == len(sequence)
        assert offsets == sorted(offsets)
        assert all(0 <= offset <= 20.0 for offset in offsets)
        counts = [sequence.count(f"fn-{i}") for i in range(8)]
        # The head action dominates and the tail is rarely invoked — the
        # Azure-Functions-shaped skew.
        assert counts[0] > 3 * counts[-1]
        assert counts[0] > len(sequence) * 0.3

    def test_azure_trace_determinism(self):
        import random

        first = azure_functions_arrivals(
            ["a", "b"], duration_seconds=5.0, mean_rps=20.0,
            rng=random.Random(3),
        )
        second = azure_functions_arrivals(
            ["a", "b"], duration_seconds=5.0, mean_rps=20.0,
            rng=random.Random(3),
        )
        assert first == second

    def test_azure_trace_validation(self):
        import random

        with pytest.raises(PlatformError):
            azure_functions_arrivals(
                [], duration_seconds=1.0, mean_rps=1.0, rng=random.Random(1)
            )
        with pytest.raises(PlatformError):
            azure_functions_arrivals(
                ["a"], duration_seconds=0.0, mean_rps=1.0, rng=random.Random(1)
            )
        with pytest.raises(PlatformError):
            azure_functions_arrivals(
                ["a"], duration_seconds=1.0, mean_rps=0.0, rng=random.Random(1)
            )


class TestAzureDiurnalArrivals:
    def test_diurnal_cycle_concentrates_arrivals_at_the_peak(self):
        import random

        from repro.faas.loadgen import azure_diurnal_arrivals

        offsets, sequence = azure_diurnal_arrivals(
            [f"fn-{i}" for i in range(4)],
            duration_seconds=40.0,
            mean_rps=60.0,
            rng=random.Random(11),
            amplitude=0.8,
            burst_fraction=0.0,  # isolate the diurnal component
        )
        assert offsets == sorted(offsets)
        assert all(0 <= offset <= 40.0 for offset in offsets)
        # One sinusoidal cycle over the run: the first half (rising to the
        # peak at t=10) must clearly out-arrive the second half (trough at
        # t=30).
        first_half = sum(1 for offset in offsets if offset < 20.0)
        second_half = len(offsets) - first_half
        assert first_half > 1.5 * second_half
        # The per-action mix keeps the heavy-tailed Azure shape.
        counts = [sequence.count(f"fn-{i}") for i in range(4)]
        assert counts[0] > 2 * counts[-1]

    def test_bursts_raise_the_local_rate(self):
        import random

        from repro.faas.loadgen import azure_diurnal_arrivals

        offsets, _ = azure_diurnal_arrivals(
            ["a"],
            duration_seconds=60.0,
            mean_rps=40.0,
            rng=random.Random(5),
            amplitude=0.0,  # isolate the burst component
            burst_multiplier=8.0,
            burst_fraction=0.15,
            burst_dwell_seconds=2.0,
        )
        # With rate jumps of 8x covering ~15% of the timeline, the busiest
        # second must far exceed the quietest stretch: compare the top
        # per-second arrival count against the mean.
        per_second = [0] * 60
        for offset in offsets:
            per_second[min(59, int(offset))] += 1
        mean = len(offsets) / 60.0
        assert max(per_second) > 3 * mean

    def test_determinism_and_validation(self):
        import random

        from repro.faas.loadgen import azure_diurnal_arrivals

        args = dict(duration_seconds=10.0, mean_rps=30.0)
        first = azure_diurnal_arrivals(["a", "b"], rng=random.Random(9), **args)
        second = azure_diurnal_arrivals(["a", "b"], rng=random.Random(9), **args)
        assert first == second
        with pytest.raises(PlatformError):
            azure_diurnal_arrivals(
                ["a"], duration_seconds=1.0, mean_rps=1.0,
                rng=random.Random(1), amplitude=1.0,
            )
        with pytest.raises(PlatformError):
            azure_diurnal_arrivals(
                ["a"], duration_seconds=1.0, mean_rps=1.0,
                rng=random.Random(1), burst_multiplier=0.5,
            )
        with pytest.raises(PlatformError):
            azure_diurnal_arrivals(
                ["a"], duration_seconds=1.0, mean_rps=1.0,
                rng=random.Random(1), burst_fraction=1.0,
            )


class TestAzureTraceCsvLoader:
    HEADER = "HashOwner,HashApp,HashFunction,Trigger,1,2,3,4,5\n"

    def _write(self, tmp_path, body: str) -> str:
        path = tmp_path / "trace.csv"
        path.write_text(self.HEADER + body)
        return str(path)

    def test_loads_top_functions_heaviest_first(self, tmp_path):
        import random

        from repro.faas.loadgen import load_azure_trace_csv

        path = self._write(
            tmp_path,
            "o,a,f-light,http,1,0,2,0,0\n"
            "o,a,f-heavy,http,10,20,5,0,1\n",
        )
        offsets, sequence = load_azure_trace_csv(
            path, ["first", "second"], duration_seconds=10.0,
            rng=random.Random(3),
        )
        assert offsets == sorted(offsets)
        assert all(0 <= offset <= 10.0 for offset in offsets)
        # Replay mode: absolute counts survive, and the heaviest function
        # maps onto the first action.
        assert sequence.count("first") == 36
        assert sequence.count("second") == 3
        # Minute 2's (compressed) window holds f-heavy's 20 arrivals:
        # minutes compress onto 2-second windows of the 10s run.
        in_second_window = [
            o for o, action in zip(offsets, sequence)
            if action == "first" and 2.0 <= o < 4.0
        ]
        assert len(in_second_window) == 20

    def test_mean_rps_rescales_the_totals(self, tmp_path):
        import random

        from repro.faas.loadgen import load_azure_trace_csv

        path = self._write(tmp_path, "o,a,f,http,100,100,100,100,100\n")
        offsets, _ = load_azure_trace_csv(
            path, ["x"], duration_seconds=10.0,
            rng=random.Random(3), mean_rps=5.0,
        )
        # Expected 50 arrivals (5 rps x 10 s); Bernoulli rounding keeps
        # the expectation exact, so the draw lands very close.
        assert 40 <= len(offsets) <= 60

    def test_determinism(self, tmp_path):
        import random

        from repro.faas.loadgen import load_azure_trace_csv

        path = self._write(tmp_path, "o,a,f,http,3,1,4,1,5\n")
        first = load_azure_trace_csv(
            path, ["x"], duration_seconds=5.0, rng=random.Random(21)
        )
        second = load_azure_trace_csv(
            path, ["x"], duration_seconds=5.0, rng=random.Random(21)
        )
        assert first == second

    def test_validation(self, tmp_path):
        import random

        from repro.faas.loadgen import load_azure_trace_csv

        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(PlatformError):
            load_azure_trace_csv(
                str(empty), ["x"], duration_seconds=1.0, rng=random.Random(1)
            )
        no_minutes = tmp_path / "nomin.csv"
        no_minutes.write_text("HashFunction,Trigger\nf,http\n")
        with pytest.raises(PlatformError):
            load_azure_trace_csv(
                str(no_minutes), ["x"], duration_seconds=1.0,
                rng=random.Random(1),
            )
        garbage = tmp_path / "garbage.csv"
        garbage.write_text(self.HEADER + "o,a,f,http,1,2,three,4,5\n")
        with pytest.raises(PlatformError):
            load_azure_trace_csv(
                str(garbage), ["x"], duration_seconds=1.0, rng=random.Random(1)
            )
        zeros = tmp_path / "zeros.csv"
        zeros.write_text(self.HEADER + "o,a,f,http,0,0,0,0,0\n")
        with pytest.raises(PlatformError):
            load_azure_trace_csv(
                str(zeros), ["x"], duration_seconds=1.0, rng=random.Random(1)
            )


class TestConfigValidation:
    def test_admission_knobs(self):
        with pytest.raises(ValueError):
            SimulationConfig(admission_policy="lifo")
        with pytest.raises(ValueError):
            SimulationConfig(tenant_quota_rps=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(tenant_quota_burst=4.0)  # burst without a rate
        with pytest.raises(ValueError):
            SimulationConfig(tenant_quota_rps=10.0, tenant_quota_burst=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(autoscale_queue_high=0)
        with pytest.raises(ValueError):
            SimulationConfig(autoscale_cooldown_seconds=0.0)
        config = SimulationConfig(
            admission_policy="wfq", tenant_quota_rps=10.0, autoscale=True
        )
        assert config.admission_policy == "wfq"
