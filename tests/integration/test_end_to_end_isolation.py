"""End-to-end integration tests: the security property through the platform.

These tests drive the full stack — platform, controller, invoker, container,
isolation mechanism, runtime, simulated kernel — exactly the way the
examples and benchmark harness do, and check the property Groundhog exists
to provide: no data from one request is observable by the next request,
while warm containers keep being reused.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.faas import ActionSpec, ClosedLoopClient, FaaSPlatform, summarize
from repro.proc.registers import RegisterSet
from repro.workloads import find_benchmark


def _platform(profile, mechanism, **options):
    platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
    platform.deploy(ActionSpec.for_profile(profile, mechanism, **options))
    return platform


class TestSequentialRequestIsolation:
    def test_base_leaks_across_callers(self, small_python_profile):
        platform = _platform(small_python_profile, "base")
        platform.invoke_sync(small_python_profile.name, b"alice-tax-return", caller="alice")
        bob = platform.invoke_sync(small_python_profile.name, b"bob-query", caller="bob")
        assert b"alice-tax-return" in bob.response["residual"]

    def test_groundhog_prevents_the_leak(self, small_python_profile):
        platform = _platform(small_python_profile, "gh")
        platform.invoke_sync(small_python_profile.name, b"alice-tax-return", caller="alice")
        bob = platform.invoke_sync(small_python_profile.name, b"bob-query", caller="bob")
        assert b"alice-tax-return" not in bob.response["residual"]

    def test_groundhog_prevents_the_leak_for_node(self, small_node_profile):
        platform = _platform(small_node_profile, "gh")
        platform.invoke_sync(small_node_profile.name, b"alice-photo", caller="alice")
        bob = platform.invoke_sync(small_node_profile.name, b"bob-doc", caller="bob")
        assert b"alice-photo" not in bob.response["residual"]

    def test_isolation_holds_over_many_sequential_requests(self, small_python_profile):
        platform = FaaSPlatform(
            SimulationConfig(cores=1, containers_per_action=1), verify_isolation=True
        )
        platform.deploy(ActionSpec.for_profile(small_python_profile, "gh"))
        secrets = []
        for index in range(10):
            secret = f"secret-{index}".encode()
            secrets.append(secret)
            response = platform.invoke_sync(
                small_python_profile.name, secret, caller=f"user-{index}"
            )
            residual = response.response["residual"]
            for previous in secrets[:-1]:
                assert previous not in residual

    def test_container_is_reused_not_recreated(self, small_python_profile):
        platform = _platform(small_python_profile, "gh")
        for index in range(5):
            platform.invoke_sync(small_python_profile.name, b"x", caller=f"c{index}")
        containers = platform.containers(small_python_profile.name)
        assert len(containers) == 1
        assert containers[0].requests_served == 5

    def test_skip_rollback_only_skips_for_same_caller(self, small_python_profile):
        platform = _platform(
            small_python_profile, "gh", skip_rollback_for_same_caller=True
        )
        name = small_python_profile.name
        platform.invoke_sync(name, b"alice-1", caller="alice")
        platform.invoke_sync(name, b"alice-2", caller="alice")
        bob = platform.invoke_sync(name, b"bob-1", caller="bob")
        # Alice's consecutive requests may see her own earlier data, but the
        # caller change forces a rollback before Bob runs.
        assert b"alice" not in bob.response["residual"]

    def test_real_benchmark_profile_isolated(self):
        spec = find_benchmark("md2html", "p")
        platform = _platform(spec.profile, "gh")
        platform.invoke_sync(spec.profile.name, b"# alice's private notes", caller="alice")
        bob = platform.invoke_sync(spec.profile.name, b"# bob", caller="bob")
        assert b"private notes" not in bob.response["residual"]


class TestRegisterFiles:
    """A thread's register file advances by count and is built only when read."""

    @pytest.mark.parametrize("profile_fixture", ["small_python_profile", "small_node_profile"])
    def test_a_gh_request_moves_registers_and_its_restore_undoes_that(
        self, profile_fixture, request
    ):
        profile = request.getfixturevalue(profile_fixture)
        platform = _platform(profile, "gh")
        platform.invoke_sync(profile.name, b"warm-up", caller="alice")
        manager = platform.containers(profile.name)[0].mechanism.manager
        threads = manager.process.threads
        clean = manager.snapshot.registers
        assert len(threads) == profile.threads
        manager.handle_request(b"bob-query", "req-bob")
        # Every thread ran code, so a restore has registers to write back:
        # a lazy advance that dropped its count would read as clean here.
        for thread in threads:
            assert thread.get_registers() != clean[thread.tid]
        manager.restore(verify=True)
        for thread in threads:
            assert thread.get_registers() == clean[thread.tid]

    @pytest.mark.parametrize("mechanism", ["base", "gh", "gh-nop"])
    def test_warm_requests_build_no_register_file(
        self, mechanism, small_python_profile, small_node_profile, monkeypatch
    ):
        built = []
        advanced = RegisterSet.advanced

        def counted(registers, instructions, stack_delta=0):
            built.append(instructions)
            return advanced(registers, instructions, stack_delta)

        for profile in (small_python_profile, small_node_profile):
            platform = _platform(profile, mechanism)
            platform.invoke_sync(profile.name, b"warm-up", caller="c0")
            monkeypatch.setattr(RegisterSet, "advanced", counted)
            for index in range(20):
                platform.invoke_sync(profile.name, b"x", caller=f"c{index}")
            monkeypatch.undo()
            assert built == [], f"{mechanism}: {len(built)} register files built"


class TestPlatformBehaviour:
    def test_closed_loop_latency_includes_platform_overhead(self, small_python_profile):
        platform = _platform(small_python_profile, "gh")
        client = ClosedLoopClient(
            platform, small_python_profile.name, num_requests=6, think_time_seconds=0.05
        )
        measured = client.run()[1:]
        e2e = summarize(inv.e2e_seconds for inv in measured)
        invoker = summarize(inv.invoker_seconds for inv in measured)
        assert e2e.median > invoker.median
        assert invoker.median > small_python_profile.exec_seconds

    def test_restoration_overlaps_think_time_under_low_load(self, small_python_profile):
        """With enough think time, GH latency matches GH-NOP latency."""
        def median_latency(mechanism):
            platform = _platform(small_python_profile, mechanism)
            client = ClosedLoopClient(
                platform, small_python_profile.name, num_requests=8,
                think_time_seconds=0.2,
            )
            measured = client.run()[2:]
            return summarize(inv.invoker_seconds for inv in measured).median

        gh = median_latency("gh")
        gh_nop = median_latency("gh-nop")
        assert gh == pytest.approx(gh_nop, rel=0.15)

    def test_multiple_actions_coexist(self, small_python_profile, small_c_profile):
        platform = FaaSPlatform(SimulationConfig(cores=2, containers_per_action=1))
        platform.deploy(ActionSpec.for_profile(small_python_profile, "gh"))
        platform.deploy(ActionSpec.for_profile(small_c_profile, "base"))
        a = platform.invoke_sync(small_python_profile.name, b"x", caller="a")
        b = platform.invoke_sync(small_c_profile.name, b"y", caller="b")
        assert a.response["ok"] and b.response["ok"]

    def test_queueing_under_high_load_increases_e2e(self, small_python_profile):
        platform = FaaSPlatform(SimulationConfig(cores=1, containers_per_action=1))
        platform.deploy(ActionSpec.for_profile(small_python_profile, "gh"))
        invocations = [
            platform.invoke_async(small_python_profile.name, b"x", caller=f"c{i}")
            for i in range(5)
        ]
        platform.run()
        latencies = [inv.e2e_seconds for inv in invocations]
        assert latencies[-1] > latencies[0]
