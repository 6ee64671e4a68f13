"""Tests for the FaaS platform substrate: actions, containers, invoker, platform."""

from __future__ import annotations

import math

import pytest

from repro.config import SimulationConfig
from repro.errors import ActionNotFoundError, ContainerError, PlatformError
from repro.faas.action import ActionSpec
from repro.faas.container import Container, ContainerState
from repro.faas.invoker import Invoker
from repro.faas.loadgen import ClosedLoopClient, SaturatingClient
from repro.faas.metrics import LatencyStats, MetricsCollector, percentile, summarize
from repro.faas.platform import FaaSPlatform
from repro.faas.request import Invocation, InvocationStatus
from repro.sim.events import EventLoop


class TestInvocation:
    def test_ids_are_unique(self):
        a, b = Invocation(action="f"), Invocation(action="f")
        assert a.invocation_id != b.invocation_id

    def test_e2e_latency_requires_completion(self):
        inv = Invocation(action="f", submitted_at=1.0)
        assert math.isnan(inv.e2e_seconds)
        inv.mark_completed(3.0, {"ok": True})
        assert inv.e2e_seconds == pytest.approx(2.0)

    def test_mark_failed(self):
        inv = Invocation(action="f")
        inv.mark_failed(2.0, "boom")
        assert inv.status is InvocationStatus.FAILED
        assert inv.error == "boom"


class TestActionSpec:
    def test_for_profile_defaults(self, small_python_profile):
        spec = ActionSpec.for_profile(small_python_profile, "gh", tracker="uffd")
        assert spec.name == small_python_profile.name
        assert spec.mechanism == "gh"
        assert spec.mechanism_options == {"tracker": "uffd"}

    def test_name_required(self, small_python_profile):
        with pytest.raises(PlatformError):
            ActionSpec(name="", profile=small_python_profile)


class TestMetrics:
    def test_percentiles(self):
        samples = sorted(float(v) for v in range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 95) == pytest.approx(95.05)
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 100.0

    def test_percentile_single_sample(self):
        assert percentile([3.0], 75) == 3.0

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_latency_stats_from_samples(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.cov > 0

    def test_latency_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])

    def test_collector_throughput_window(self):
        collector = MetricsCollector()
        for index in range(10):
            inv = Invocation(action="f", submitted_at=float(index))
            inv.mark_completed(float(index) + 0.5, {})
            collector.record(inv)
        assert collector.throughput(0.0, 10.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            collector.throughput(5.0, 5.0)

    def test_collector_separates_failures(self):
        collector = MetricsCollector()
        ok = Invocation(action="f")
        ok.mark_completed(1.0, {})
        bad = Invocation(action="f")
        bad.mark_failed(1.0, "err")
        collector.record(ok)
        collector.record(bad)
        assert collector.num_completed == 1
        assert len(collector.failed) == 1


class TestContainer:
    def test_initialize_then_execute(self, small_python_profile):
        container = Container(ActionSpec.for_profile(small_python_profile, "gh"))
        container.initialize()
        assert container.state is ContainerState.IDLE
        execution = container.execute(Invocation(action="f", payload=b"x", caller="a"))
        assert execution.invoker_seconds > 0
        assert execution.unavailable_seconds > 0
        assert container.requests_served == 1

    def test_execute_requires_initialization(self, small_python_profile):
        container = Container(ActionSpec.for_profile(small_python_profile, "base"))
        with pytest.raises(ContainerError):
            container.execute(Invocation(action="f"))

    def test_double_initialize_rejected(self, small_python_profile):
        container = Container(ActionSpec.for_profile(small_python_profile, "base"))
        container.initialize()
        with pytest.raises(ContainerError):
            container.initialize()

    def test_invoker_latency_includes_proxy_overhead(self, small_python_profile):
        container = Container(ActionSpec.for_profile(small_python_profile, "base"))
        container.initialize()
        execution = container.execute(Invocation(action="f", payload=b"x", caller="a"))
        assert execution.invoker_seconds > execution.report.critical_seconds

    def test_leak_probe(self, small_python_profile):
        container = Container(ActionSpec.for_profile(small_python_profile, "base"))
        container.initialize()
        container.execute(Invocation(action="f", payload=b"topsecret", caller="a"))
        assert b"topsecret" in container.read_request_buffer()


class TestInvoker:
    def _invoker(self, cores=1):
        return Invoker(EventLoop(), cores=cores)

    def test_deploy_and_submit(self, small_python_profile):
        invoker = self._invoker()
        invoker.deploy(ActionSpec.for_profile(small_python_profile, "base"))
        done = []
        invoker.submit(Invocation(action=small_python_profile.name, payload=b"x"), done.append)
        invoker.loop.run()
        assert len(done) == 1
        assert done[0].status is InvocationStatus.COMPLETED
        assert done[0].invoker_seconds > 0

    def test_unknown_action_rejected(self, small_python_profile):
        invoker = self._invoker()
        with pytest.raises(ActionNotFoundError):
            invoker.submit(Invocation(action="missing"), lambda inv: None)

    def test_duplicate_deploy_rejected(self, small_python_profile):
        invoker = self._invoker()
        spec = ActionSpec.for_profile(small_python_profile, "base")
        invoker.deploy(spec)
        with pytest.raises(PlatformError):
            invoker.deploy(spec)

    def test_single_core_serializes_requests(self, small_python_profile):
        invoker = self._invoker(cores=1)
        invoker.deploy(ActionSpec.for_profile(small_python_profile, "gh"), containers=1)
        finished = []
        for index in range(3):
            invoker.submit(
                Invocation(action=small_python_profile.name, payload=b"x", caller=f"c{index}"),
                finished.append,
            )
        invoker.loop.run()
        assert len(finished) == 3
        # Later requests wait for the container (queue time grows).
        assert finished[2].queue_seconds > finished[0].queue_seconds

    def test_multiple_containers_run_in_parallel(self, small_python_profile):
        invoker = self._invoker(cores=2)
        invoker.deploy(ActionSpec.for_profile(small_python_profile, "base"), containers=2)
        finished = []
        for index in range(2):
            invoker.submit(
                Invocation(action=small_python_profile.name, payload=b"x"), finished.append
            )
        invoker.loop.run()
        assert finished[0].queue_seconds == pytest.approx(0.0)
        assert finished[1].queue_seconds == pytest.approx(0.0)

    def test_queued_pools_dispatch_in_creation_order(self, small_python_profile):
        # Everything after the first request queues behind the one busy
        # core.  Freed cores then serve the queued pools in creation order
        # (a, b, c), one dispatch per pool per pass, not in the order their
        # queues first filled (c before a before b).
        invoker = self._invoker(cores=1)
        for name in ("act-a", "act-b", "act-c"):
            invoker.deploy(
                ActionSpec.for_profile(small_python_profile, "base", name=name),
                containers=1,
            )
        dispatched = []
        for number, name in enumerate(("act-a", "act-c", "act-a", "act-c", "act-b")):
            label = f"{name[-1]}#{number}"
            invoker.submit(
                Invocation(action=name, payload=b"x"),
                lambda inv, label=label: dispatched.append((inv.dispatched_at, label)),
            )

        def record_is_exact() -> bool:
            return invoker._queued_pools == {
                pool.seq: pool for pool in invoker._pools.values() if pool.queue
            }

        assert record_is_exact()
        while invoker.loop.step():
            assert record_is_exact()
        assert sorted(dispatched) == dispatched
        assert [label for _at, label in dispatched] == [
            "a#0", "a#2", "b#4", "c#1", "c#3",
        ]


class TestPlatformAndLoadgen:
    def test_invoke_sync_round_trip(self, small_python_profile):
        platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
        platform.deploy(ActionSpec.for_profile(small_python_profile, "gh"))
        invocation = platform.invoke_sync(small_python_profile.name, b"hello", caller="alice")
        assert invocation.status is InvocationStatus.COMPLETED
        assert invocation.response["ok"] is True
        assert invocation.e2e_seconds > invocation.invoker_seconds

    def test_unknown_action_raises(self, small_python_profile):
        platform = FaaSPlatform()
        with pytest.raises(ActionNotFoundError):
            platform.invoke_sync("nope")

    def test_closed_loop_client_runs_all_requests(self, small_python_profile):
        platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
        platform.deploy(ActionSpec.for_profile(small_python_profile, "gh"))
        client = ClosedLoopClient(
            platform, small_python_profile.name, num_requests=8, think_time_seconds=0.05
        )
        completed = client.run()
        assert len(completed) == 8
        metrics = platform.action_metrics(small_python_profile.name)
        assert metrics.num_completed == 8
        assert metrics.e2e_stats().median > 0

    def test_closed_loop_requires_positive_requests(self, small_python_profile):
        platform = FaaSPlatform()
        platform.deploy(ActionSpec.for_profile(small_python_profile, "base"))
        with pytest.raises(PlatformError):
            ClosedLoopClient(platform, small_python_profile.name, num_requests=0)

    def test_saturating_client_measures_throughput(self, small_python_profile):
        platform = FaaSPlatform(SimulationConfig(cores=2, containers_per_action=2))
        platform.deploy(ActionSpec.for_profile(small_python_profile, "base"))
        client = SaturatingClient(
            platform, small_python_profile.name, in_flight=8,
            duration_seconds=2.0, warmup_seconds=0.2,
        )
        throughput = client.run()
        assert throughput > 0
        # Two cores running a ~10 ms function cannot exceed ~200 req/s plus
        # slack; sanity-check the magnitude.
        assert throughput < 400

    def test_metrics_isolated_per_action(self, small_python_profile, small_c_profile):
        platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
        platform.deploy(ActionSpec.for_profile(small_python_profile, "base"))
        platform.deploy(ActionSpec.for_profile(small_c_profile, "base"))
        platform.invoke_sync(small_python_profile.name)
        platform.invoke_sync(small_c_profile.name)
        assert platform.action_metrics(small_python_profile.name).num_completed == 1
        assert platform.action_metrics(small_c_profile.name).num_completed == 1
        assert platform.metrics.num_completed == 2
