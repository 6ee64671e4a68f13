"""Tests for the cluster substrate: scheduling, dynamic pools, backpressure."""

from __future__ import annotations

import pytest

from repro.config import CLUSTER_CONFIG, SimulationConfig
from repro.errors import ActionNotFoundError, PlatformError
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.index import ClusterIndex
from repro.faas.invoker import Invoker
from repro.faas.loadgen import MultiActionSaturatingClient
from repro.faas.platform import FaaSPlatform
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.scheduler import (
    HashAffinityPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Scheduler,
    create_policy,
    home_index,
)
from repro.runtime.profiles import FunctionProfile
from repro.sim.events import EventLoop


def _action(profile: FunctionProfile, name: str, mechanism: str = "base") -> ActionSpec:
    return ActionSpec.for_profile(profile, mechanism, name=name)


def _cluster_invokers(loop: EventLoop, count: int, cores: int = 1) -> list:
    return [Invoker(loop, cores=cores, invoker_id=f"invoker-{i}") for i in range(count)]


class TestPolicies:
    def test_round_robin_cycles(self, small_python_profile):
        loop = EventLoop()
        invokers = _cluster_invokers(loop, 3)
        policy = RoundRobinPolicy()
        picks = [policy.select(invokers, Invocation(action="f")) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_picks_minimum(self, small_python_profile):
        loop = EventLoop()
        invokers = _cluster_invokers(loop, 3)
        spec = _action(small_python_profile, "ll-action")
        for invoker in invokers:
            invoker.register(spec, max_containers=1)
        # Load invoker 0 with queued work; 1 and 2 stay empty.
        invokers[0].submit(Invocation(action=spec.name), lambda inv: None)
        policy = LeastLoadedPolicy()
        policy.bind_index(ClusterIndex(invokers))
        assert policy.select(invokers, Invocation(action=spec.name)) == 1

    def test_hash_affinity_is_stable_and_sticky(self):
        loop = EventLoop()
        invokers = _cluster_invokers(loop, 4)
        policy = HashAffinityPolicy()
        picks = {
            policy.select(invokers, Invocation(action="sticky-action"))
            for _ in range(10)
        }
        assert picks == {home_index("sticky-action", 4)}

    def test_hash_affinity_spreads_actions(self):
        homes = {home_index(f"action-{i}", 4) for i in range(32)}
        assert len(homes) > 1

    def test_create_policy_registry(self):
        assert isinstance(create_policy("round-robin"), RoundRobinPolicy)
        assert isinstance(create_policy("least-loaded"), LeastLoadedPolicy)
        assert isinstance(create_policy("hash-affinity"), HashAffinityPolicy)
        with pytest.raises(PlatformError):
            create_policy("random-2-choices")

    def test_home_index_needs_invokers(self):
        with pytest.raises(PlatformError):
            home_index("f", 0)

    def test_home_index_is_stable_across_runs(self):
        # CRC-32 of the action name, not hash(): the assignment must not
        # move between interpreter runs (PYTHONHASHSEED) or releases, or
        # every deployment's warm containers would land somewhere else
        # than its traffic.  These literals pin the contract.
        assert home_index("pyaes", 2) == 1
        assert home_index("pyaes", 4) == 3
        assert home_index("pyaes", 8) == 7
        assert home_index("md2html", 4) == 0
        assert home_index("matmul", 4) == 2
        # Stable under repetition within a run, too.
        assert len({home_index("pyaes", 4) for _ in range(100)}) == 1


class TestScheduler:
    def test_deploy_prewarms_only_home(self, small_python_profile):
        loop = EventLoop()
        invokers = _cluster_invokers(loop, 4)
        scheduler = Scheduler(invokers, create_policy("hash-affinity"))
        spec = _action(small_python_profile, "homed")
        deployed = scheduler.deploy(spec, containers=2, max_containers=2)
        home = home_index("homed", 4)
        assert scheduler.home_invoker("homed") is invokers[home]
        assert len(deployed) == 2
        for index, invoker in enumerate(invokers):
            assert invoker.hosts("homed")
            expected = 2 if index == home else 0
            assert len(invoker.pool("homed")) == expected

    def test_submit_routes_and_counts(self, small_python_profile):
        loop = EventLoop()
        invokers = _cluster_invokers(loop, 2)
        scheduler = Scheduler(invokers, create_policy("round-robin"))
        spec = _action(small_python_profile, "routed")
        scheduler.deploy(spec, containers=1, max_containers=1)
        done = []
        for _ in range(4):
            scheduler.submit(Invocation(action="routed", payload=b"x"), done.append)
        loop.run()
        assert scheduler.routed_per_invoker == [2, 2]
        assert len(done) == 4

    def test_needs_at_least_one_invoker(self):
        with pytest.raises(PlatformError):
            Scheduler([], create_policy("round-robin"))


class TestClusterPlatform:
    def test_invoke_sync_round_trip(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(cores=1, invokers=2))
        cluster.deploy(_action(small_python_profile, "c-sync", mechanism="gh"))
        invocation = cluster.invoke_sync("c-sync", b"hello", caller="alice")
        assert invocation.status is InvocationStatus.COMPLETED
        assert invocation.e2e_seconds > invocation.invoker_seconds

    def test_default_payload_is_built_once_per_action(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(cores=1, invokers=2))
        cluster.deploy(_action(small_python_profile, "c-default"))
        first = cluster.invoke_sync("c-default")
        second = cluster.invoke_sync("c-default")
        assert first.payload == b"x" * small_python_profile.input_bytes
        assert second.payload is first.payload
        assert first.report.result.response["result"] == second.report.result.response["result"]

    def test_containers_aggregates_across_invokers(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=1, invokers=3, scheduler_policy="round-robin")
        )
        cluster.deploy(_action(small_python_profile, "agg"), containers=2)
        assert len(cluster.containers("agg")) == 2  # only the home pre-warms

    def test_unknown_action_raises(self):
        cluster = FaaSCluster(SimulationConfig(invokers=2))
        with pytest.raises(ActionNotFoundError):
            cluster.invoke_sync("missing")

    def test_duplicate_deploy_rejected(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(invokers=2))
        cluster.deploy(_action(small_python_profile, "dup"))
        with pytest.raises(PlatformError):
            cluster.deploy(_action(small_python_profile, "dup"))

    def test_platform_is_single_invoker_special_case(self, small_python_profile):
        platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
        assert len(platform.invokers) == 1
        assert platform.invoker is platform.invokers[0]
        with pytest.raises(PlatformError):
            FaaSPlatform(SimulationConfig(invokers=2))

    def test_cluster_stats_reports_per_invoker_counters(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=1, invokers=2, scheduler_policy="round-robin")
        )
        cluster.deploy(_action(small_python_profile, "stats"))
        for _ in range(4):
            cluster.invoke_async("stats")
        cluster.run()
        stats = cluster.cluster_stats()
        assert [row["invoker"] for row in stats] == ["invoker-0", "invoker-1"]
        assert sum(row["routed"] for row in stats) == 4
        assert sum(row["completed"] for row in stats) == 4

    def test_multi_action_client_measures_per_action_throughput(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(cores=2, invokers=2, seed=3))
        names = [f"ma-{i}" for i in range(4)]
        for name in names:
            cluster.deploy(_action(small_python_profile, name))
        client = MultiActionSaturatingClient(
            cluster, names, in_flight_per_action=1, duration_seconds=2.0,
        )
        aggregate = client.run()
        per_action = client.per_action_throughput()
        assert set(per_action) == set(names)
        assert sum(per_action.values()) == pytest.approx(aggregate)

    def test_per_action_throughput_requires_run(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(invokers=1))
        cluster.deploy(_action(small_python_profile, "unrun"))
        client = MultiActionSaturatingClient(
            cluster, ["unrun"], in_flight_per_action=1, duration_seconds=1.0,
        )
        with pytest.raises(PlatformError):
            client.per_action_throughput()

    def test_cluster_config_preset_builds_a_cluster(self, small_python_profile):
        cluster = FaaSCluster(CLUSTER_CONFIG)
        assert len(cluster.invokers) == 4
        cluster.deploy(_action(small_python_profile, "preset"))
        result = cluster.invoke_sync("preset", b"x")
        assert result.status is InvocationStatus.COMPLETED

    def test_config_with_helpers(self):
        config = SimulationConfig().with_invokers(3).with_policy("least-loaded")
        assert config.invokers == 3
        assert config.scheduler_policy == "least-loaded"

    def test_config_validates_cluster_knobs(self):
        with pytest.raises(ValueError):
            SimulationConfig(invokers=0)
        with pytest.raises(ValueError):
            SimulationConfig(scheduler_policy="fifo")
        with pytest.raises(ValueError):
            SimulationConfig(containers_per_action=2, max_containers_per_action=1)
        with pytest.raises(ValueError):
            SimulationConfig(max_queue_per_action=0)
        with pytest.raises(ValueError):
            SimulationConfig(keep_alive_seconds=0.0)

    def test_hash_affinity_beats_round_robin_on_warm_hits(self, small_python_profile):
        def warm_rate(policy: str) -> float:
            cluster = FaaSCluster(
                SimulationConfig(
                    cores=2, containers_per_action=1, invokers=4,
                    scheduler_policy=policy, seed=7,
                )
            )
            names = [f"wh-{policy}-{i}" for i in range(8)]
            for name in names:
                cluster.deploy(_action(small_python_profile, name))
            for _ in range(4):
                for name in names:
                    cluster.invoke_async(name)
                cluster.run()  # drain: containers are idle before the next round
            return cluster.warm_hit_rate

        affinity = warm_rate("hash-affinity")
        round_robin = warm_rate("round-robin")
        assert affinity > round_robin
        assert affinity > 0.9  # every submission finds its home's warm container


class TestDynamicPools:
    def test_cold_start_on_demand_grows_pool(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=2)
        spec = _action(small_python_profile, "grow")
        invoker.deploy(spec, containers=1, max_containers=2)
        done = []
        invoker.submit(Invocation(action="grow", payload=b"x"), done.append)
        invoker.submit(Invocation(action="grow", payload=b"x"), done.append)
        # Bound the run so the keep-alive timer (10 min out) has not fired yet.
        loop.run(until=100.0)
        assert invoker.cold_starts == 1
        assert len(invoker.pool("grow")) == 2
        assert [inv.status for inv in done] == [InvocationStatus.COMPLETED] * 2
        # Draining the rest of virtual time reclaims the dynamic container.
        loop.run()
        assert invoker.evictions == 1
        assert len(invoker.pool("grow")) == 1

    def test_registered_action_serves_entirely_via_cold_start(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        spec = _action(small_python_profile, "cold-only")
        invoker.register(spec, max_containers=1)
        assert invoker.pool("cold-only") == []
        done = []
        invoker.submit(Invocation(action="cold-only", payload=b"x"), done.append)
        loop.run()
        assert done[0].status is InvocationStatus.COMPLETED
        # The request waited for the container boot, paid in virtual time.
        assert done[0].queue_seconds > 0
        assert invoker.cold_starts == 1

    def test_pool_never_exceeds_max_containers(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=4)
        spec = _action(small_python_profile, "capped")
        invoker.deploy(spec, containers=1, max_containers=2)
        done = []
        for _ in range(6):
            invoker.submit(Invocation(action="capped", payload=b"x"), done.append)
        loop.run(until=100.0)
        assert len(invoker.pool("capped")) == 2
        assert invoker.cold_starts == 1
        assert len(done) == 6

    def test_no_cold_start_when_core_bound(self, small_python_profile, small_c_profile):
        # Action B has an idle warm container; only the core is busy (with
        # action A).  Another container cannot help, so the pool must not grow.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(_action(small_python_profile, "hog"), containers=1, max_containers=4)
        invoker.deploy(_action(small_c_profile, "bystander"), containers=1, max_containers=4)
        done = []
        invoker.submit(Invocation(action="hog", payload=b"x"), done.append)
        invoker.submit(Invocation(action="bystander", payload=b"x"), done.append)
        loop.run(until=100.0)
        assert invoker.cold_starts == 0
        assert len(invoker.pool("bystander")) == 1
        assert len(done) == 2

    def test_cold_starts_match_outstanding_demand(self, small_python_profile):
        # Boots already in flight cover the queue: a second queued request
        # triggers a second boot, a third does not exceed the demand.
        loop = EventLoop()
        invoker = Invoker(loop, cores=4)
        spec = _action(small_python_profile, "demand")
        invoker.register(spec, max_containers=8)
        for _ in range(3):
            invoker.submit(Invocation(action="demand", payload=b"x"), lambda inv: None)
        assert invoker.cold_starts == 3  # one boot per queued request
        invoker.submit(Invocation(action="demand", payload=b"x"), lambda inv: None)
        assert invoker.cold_starts == 4

    def test_growth_capped_at_core_count(self, small_python_profile):
        # A container holds its core through execution and restoration, so
        # containers beyond the core count can never run concurrently and
        # must not be booted, whatever max_containers allows.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        spec = _action(small_python_profile, "core-capped")
        invoker.deploy(spec, containers=1, max_containers=4)
        done = []
        for _ in range(8):
            invoker.submit(Invocation(action="core-capped", payload=b"x"), done.append)
        loop.run(until=1000.0)
        assert invoker.cold_starts == 0
        assert len(invoker.pool("core-capped")) == 1
        assert len(done) == 8

    def test_deploy_rejects_ceiling_below_prewarm(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        with pytest.raises(PlatformError):
            invoker.deploy(_action(small_python_profile, "bad"), containers=2,
                           max_containers=1)

    def test_keep_alive_evicts_only_dynamic_containers(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=2, keep_alive_seconds=1.0)
        spec = _action(small_python_profile, "evict")
        invoker.deploy(spec, containers=1, max_containers=2)
        done = []
        invoker.submit(Invocation(action="evict", payload=b"x"), done.append)
        invoker.submit(Invocation(action="evict", payload=b"x"), done.append)
        loop.run()
        assert invoker.evictions == 1
        pool = invoker.pool("evict")
        assert len(pool) == 1
        assert not pool[0].dynamic  # the pre-warmed container survives
        # The eviction timer cancelled itself: the loop fully drained.
        assert loop.pending == 0

    def test_evicted_container_is_dead(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1, keep_alive_seconds=0.5)
        spec = _action(small_python_profile, "dead")
        invoker.register(spec, max_containers=1)
        invoker.submit(Invocation(action="dead", payload=b"x"), lambda inv: None)
        loop.run()
        assert invoker.pool("dead") == []
        assert invoker.evictions == 1

    def test_eviction_floor_prewarmed_containers_survive_forever(
        self, small_python_profile
    ):
        # The eviction floor: however long pre-warmed containers sit idle,
        # and however many eviction periods pass, they are never reclaimed
        # — only dynamic (on-demand) growth above the floor is.
        loop = EventLoop()
        invoker = Invoker(loop, cores=4, keep_alive_seconds=1.0)
        spec = _action(small_python_profile, "floor")
        invoker.deploy(spec, containers=2, max_containers=4)
        done = []
        for _ in range(8):
            invoker.submit(Invocation(action="floor", payload=b"x"), done.append)
        # Serve the burst, grow the pool, then idle across many keep-alive
        # periods to give the timer every chance to over-evict.
        loop.run()
        assert len(done) == 8
        assert invoker.cold_starts == 2  # grew to the 4-container ceiling
        assert invoker.evictions == 2  # ...and reclaimed only the growth
        survivors = invoker.pool("floor")
        assert len(survivors) == 2
        assert all(not c.dynamic for c in survivors)
        # The timer cancelled itself once no dynamic containers remained,
        # so a fully drained loop means no further eviction can ever fire.
        assert loop.pending == 0
        # The floor still serves traffic after the idle period.
        invoker.submit(Invocation(action="floor", payload=b"x"), done.append)
        loop.run(until=loop.now + 10.0)
        assert len(done) == 9


class TestBackpressure:
    def test_saturated_invoker_queues_fifo_per_action(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(_action(small_python_profile, "fifo"), containers=1)
        submitted = [Invocation(action="fifo", payload=b"x") for _ in range(4)]
        finished = []
        for invocation in submitted:
            invoker.submit(invocation, finished.append)
        # While saturated, the waiting invocations sit in FIFO order.
        assert invoker.queued_order("fifo") == submitted[1:]
        loop.run()
        assert finished == submitted  # completion preserves submission order
        queue_times = [inv.queue_seconds for inv in finished]
        assert queue_times == sorted(queue_times)

    def test_bounded_queue_rejects_with_distinct_status(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1, max_queue_per_action=2)
        invoker.deploy(_action(small_python_profile, "bounded"), containers=1)
        finished = []
        for _ in range(5):
            invoker.submit(Invocation(action="bounded", payload=b"x"), finished.append)
        # One dispatched + two queued fit; the last two are shed immediately.
        rejected = [inv for inv in finished if inv.status is InvocationStatus.REJECTED]
        assert len(rejected) == 2
        assert all(inv.status is not InvocationStatus.FAILED for inv in rejected)
        assert all("queue" in inv.error for inv in rejected)
        assert invoker.invocations_rejected == 2
        loop.run()
        completed = [inv for inv in finished if inv.status is InvocationStatus.COMPLETED]
        assert len(completed) == 3

    def test_shed_invocations_do_not_trigger_cold_starts(self, small_python_profile):
        # A request the bounded queue refuses is not demand: it must not
        # leave a surplus container booting behind it.
        loop = EventLoop()
        invoker = Invoker(loop, cores=4, max_queue_per_action=1)
        spec = _action(small_python_profile, "shed-no-boot")
        invoker.register(spec, max_containers=4)
        finished = []
        for _ in range(3):
            invoker.submit(Invocation(action="shed-no-boot", payload=b"x"), finished.append)
        assert invoker.invocations_rejected == 2
        assert invoker.cold_starts == 1  # one boot for the one queued request

    def test_rejections_reach_platform_metrics(self, small_python_profile):
        platform = FaaSPlatform(
            SimulationConfig(cores=1, containers_per_action=1, max_queue_per_action=1)
        )
        platform.deploy(_action(small_python_profile, "shed"))
        invocations = [platform.invoke_async("shed") for _ in range(6)]
        platform.run()
        metrics = platform.metrics
        assert metrics.num_rejected > 0
        assert metrics.num_completed + metrics.num_rejected == 6
        assert metrics.num_recorded == 6  # nothing silently dropped
        assert 0.0 < metrics.rejection_rate < 1.0
        # The invocations themselves carry the outcome the counts report.
        assert sum(
            invocation.status is InvocationStatus.REJECTED
            for invocation in invocations
        ) == metrics.num_rejected

    def test_saturating_rejections_terminate_with_zero_overhead(self, small_python_profile):
        # With no platform overhead a rejection completes at the same virtual
        # instant it was issued; the client's retry backoff must still move
        # time forward so the run terminates instead of looping at t=const.
        cluster = FaaSCluster(
            SimulationConfig(
                cores=1, containers_per_action=1, max_queue_per_action=1,
                platform_overhead_seconds=0.0, platform_jitter_seconds=0.0,
            )
        )
        cluster.deploy(_action(small_python_profile, "zero-ovh"))
        client = MultiActionSaturatingClient(
            cluster, ["zero-ovh"], in_flight_per_action=6, duration_seconds=0.5,
        )
        throughput = client.run()  # must return, not livelock
        assert cluster.now >= 0.5
        assert len(client.rejected) > 0
        assert throughput > 0

    def test_unbounded_queue_never_rejects(self, small_python_profile):
        platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
        platform.deploy(_action(small_python_profile, "patient"))
        for _ in range(6):
            platform.invoke_async("patient")
        platform.run()
        assert platform.metrics.num_rejected == 0
        assert platform.metrics.num_completed == 6
