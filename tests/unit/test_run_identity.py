"""A run's names depend on its config and seed, not on what ran before it.

The cluster numbers the invocations it accepts, each invoker the
containers it builds and each invoker's kernel the pids of its
processes.  So two identical runs in one process fire the same labels and
name every invocation, container and process alike, and their trace
digests, which cover invocation ids, agree too, whatever ran between
them.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.platform import FaaSPlatform
from repro.faas.request import InvocationStatus
from repro.sim.events import EventLoop

ACTIONS = ("ids-a", "ids-b")


def _record_firings(patch: pytest.MonkeyPatch, fired: List[str]) -> None:
    """Record the label of every event any loop fires, in firing order."""

    class Recorded:
        def __init__(self, callback, label: str) -> None:
            self.callback, self.label = callback, label

        def __call__(self) -> None:
            fired.append(self.label)
            self.callback()

    for name in ("schedule_at", "schedule"):
        original = EventLoop.__dict__[name]

        def scheduling(loop, when, callback, label="", _original=original):
            if not isinstance(callback, Recorded):
                callback = Recorded(callback, label)
            return _original(loop, when, callback, label)

        patch.setattr(EventLoop, name, scheduling)


def _run(profile) -> Dict[str, object]:
    """A gh burst on a 2-invoker cluster: a cold start, steals, full tracing."""
    fired: List[str] = []
    with pytest.MonkeyPatch.context() as patch:
        _record_firings(patch, fired)
        cluster = FaaSCluster(
            SimulationConfig(
                cores=1,
                containers_per_action=1,
                max_containers_per_action=2,
                invokers=2,
                scheduler_policy="hash-affinity",
                work_stealing=True,
                tracing="full",
                seed=5,
            )
        )
        for name in ACTIONS:
            cluster.deploy(ActionSpec.for_profile(profile, "gh", name=name))
        invocations = [cluster.invoke_async("ids-a") for _ in range(16)]
        invocations += [cluster.invoke_async("ids-b") for _ in range(4)]
        # Stop before keep-alive reclaims the grown containers.
        cluster.run(until=5.0)
    assert all(inv.status is InvocationStatus.COMPLETED for inv in invocations)
    containers = [
        container for action in ACTIONS for container in cluster.containers(action)
    ]
    return {
        "labels": fired,
        "invocations": [inv.invocation_id for inv in invocations],
        "containers": [container.container_id for container in containers],
        "pids": [container.mechanism.process.pid for container in containers],
        "digest": cluster.trace().trace_digest(),
        "cold_starts": sum(invoker.cold_starts for invoker in cluster.invokers),
        "steals": cluster.steals,
    }


def _unrelated_run(profile) -> None:
    platform = FaaSPlatform(SimulationConfig(seed=9))
    platform.deploy(ActionSpec.for_profile(profile, "base", name="between"), 2)
    for _ in range(3):
        platform.invoke_sync("between")


def test_identical_runs_in_one_process_name_everything_alike(small_python_profile):
    first = _run(small_python_profile)
    _unrelated_run(small_python_profile)
    second = _run(small_python_profile)
    assert first["cold_starts"] >= 1 and first["steals"] >= 1
    assert any(label.startswith("coldstart:") for label in first["labels"])
    for key in ("labels", "invocations", "containers", "pids", "digest"):
        assert first[key] == second[key], key
    assert first["invocations"][0] == "inv-00000001"
    # Ids stay unique across the cluster without a shared counter.
    assert len(set(first["containers"])) == len(first["containers"])
