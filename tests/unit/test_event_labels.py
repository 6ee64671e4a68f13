"""The event-scheduling contract a layer tracer relies on.

perfbench's tracer (``perfbench/tracer.py``) wraps ``EventLoop.schedule_at``
and ``EventLoop.schedule`` in the class dict after the cluster is built,
and sorts each callback into a layer by its label's prefix.  That only
works if every hop of a request looks the two methods up when it calls
them (no bound ``schedule_at`` cached at construction, no direct heap
pushes) and keeps its label: ``route:<invocation id>``,
``respond:<invocation id>``, ``complete:<invocation id>`` and
``release:<container id>``.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.request import InvocationStatus
from repro.sim.events import EventLoop

HOP_PREFIXES = ("route", "complete", "respond", "release")


def _wrap_scheduling(monkeypatch, labels: List[str], fired: List[str]) -> None:
    """Wrap both scheduling methods at class level, as the tracer does.

    ``labels`` gets each scheduled event's label and ``fired`` each label
    again when its event fires; a callback is never wrapped twice.
    """

    class Counted:
        def __init__(self, callback, label: str) -> None:
            self.callback, self.label = callback, label

        def __call__(self) -> None:
            fired.append(self.label)
            self.callback()

    for name in ("schedule_at", "schedule"):
        original = EventLoop.__dict__[name]

        def scheduling(loop, when, callback, label="", _original=original):
            if not isinstance(callback, Counted):
                labels.append(label)
                callback = Counted(callback, label)
            return _original(loop, when, callback, label)

        monkeypatch.setattr(EventLoop, name, scheduling)


def test_every_hop_fires_through_the_class_level_wrappers(
    monkeypatch, small_python_profile
):
    cluster = FaaSCluster(
        SimulationConfig(
            cores=1,
            containers_per_action=1,
            max_containers_per_action=2,
            invokers=2,
            scheduler_policy="hash-affinity",
            work_stealing=True,
            seed=5,
        )
    )
    for name in ("labels-a", "labels-b"):
        cluster.deploy(ActionSpec.for_profile(small_python_profile, "base", name=name))
    # Set-up is done: patch now, as the tracer does.
    executed_before = cluster.loop.executed_events
    labels: List[str] = []
    fired: List[str] = []
    _wrap_scheduling(monkeypatch, labels, fired)

    # A burst on one action queues on its home invoker: the pool grows
    # (a cold start) and the idle peer steals.  The other action is warm.
    invocations = [cluster.invoke_async("labels-a") for _ in range(24)]
    invocations += [cluster.invoke_async("labels-b") for _ in range(8)]
    cluster.run()

    assert cluster.loop.executed_events - executed_before == len(fired)
    assert any(label.startswith("coldstart:") for label in labels)
    assert cluster.steals >= 1

    hops = Counter(label for label in fired if label.startswith(HOP_PREFIXES))
    # ``_dispatch`` schedules a request's completion, then its container's
    # release: pair each release with the invocation it follows.
    released_by = {
        labels[position - 1].partition(":")[2]: label.partition(":")[2]
        for position, label in enumerate(labels)
        if label.startswith("release:")
    }
    containers = {
        container.container_id: container
        for action in ("labels-a", "labels-b")
        for container in cluster.containers(action)
    }
    for invocation in invocations:
        assert invocation.status is InvocationStatus.COMPLETED
        rid = invocation.invocation_id
        assert hops[f"route:{rid}"] == 1
        assert hops[f"complete:{rid}"] == 1
        assert hops[f"respond:{rid}"] == 1
        assert containers[released_by[rid]].spec.name == invocation.action
    releases = Counter(
        label.partition(":")[2] for label in fired if label.startswith("release:")
    )
    assert sum(releases.values()) == len(invocations)
    assert releases == {
        container_id: container.requests_served
        for container_id, container in containers.items()
        if container.requests_served
    }
