"""Property tests for the capacity planner's safety envelope.

The planner moves real capacity around a live cluster, so its safety
properties must hold for *any* interleaving of arrivals, partial event
processing, and planning ticks — not just the scenarios the drivers run:

* **Budget** — planning never pushes the cluster's container count
  (warm containers plus boots in flight) above the global budget; if a
  deployment already exceeds the budget, the planner never adds to it.
* **Busy-container safety** — a container that is mid-request (in its
  pool but not idle) is never drained, killed, or lost by a plan.
* **No work lost** — every invocation submitted around arbitrary
  planning ticks still completes exactly once.
* **Determinism** — identical histories produce identical migration
  decisions.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.container import ContainerState
from repro.faas.controlplane import CapacityPlanner
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation, InvocationStatus
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _profile(name: str) -> FunctionProfile:
    return FunctionProfile(
        name=name,
        language=Language.PYTHON,
        suite="prop",
        exec_seconds=0.008,
        exec_jitter=0.0,
        total_kpages=1.0,
        dirtied_kpages=0.1,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=2,
        input_bytes=64,
        output_bytes=64,
        threads=1,
        init_fraction=0.8,
    )


ACTIONS = ("act-0", "act-1", "act-2")

#: One step: (action index, burst size, events to process before planning).
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(ACTIONS) - 1),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=12,
)


def _build(num_invokers: int) -> Tuple[EventLoop, List[Invoker]]:
    loop = EventLoop()
    invokers = [
        Invoker(loop, SimulationConfig(cores=2), invoker_id=f"invoker-{i}")
        for i in range(num_invokers)
    ]
    for index, name in enumerate(ACTIONS):
        spec = ActionSpec.for_profile(_profile(name), "base", name=name)
        home = index % num_invokers
        for position, invoker in enumerate(invokers):
            if position == home:
                invoker.deploy(spec, containers=1, max_containers=2)
            else:
                invoker.register(spec, max_containers=2)
    return loop, invokers


def _busy_containers(invokers: List[Invoker]):
    busy = []
    for invoker in invokers:
        for action in ACTIONS:
            idle = set(id(c) for c in invoker.idle_pool(action))
            busy.extend(
                (invoker, action, container)
                for container in invoker.pool(action)
                if id(container) not in idle
            )
    return busy


def _run_history(ops, num_invokers: int, budget: int):
    """Drive one full history; returns (planner, completed, submitted)."""
    loop, invokers = _build(num_invokers)
    planner = CapacityPlanner(budget=budget, queue_high=2, min_idle_seconds=0.0)
    completed: List[Invocation] = []
    submitted = 0
    for action_index, burst, events in ops:
        action = ACTIONS[action_index]
        home = invokers[action_index % num_invokers]
        for _ in range(burst):
            home.submit(
                Invocation(
                    action=action,
                    caller="t",
                    invocation_id=f"inv-{submitted}",
                    submitted_at=loop.now,
                ),
                completed.append,
            )
            submitted += 1
        loop.run(max_events=events)
        total_before = CapacityPlanner.total_containers(
            [invoker.snapshot() for invoker in invokers]
        )
        busy_before = _busy_containers(invokers)
        planner.plan(invokers, loop.now)
        total_after = CapacityPlanner.total_containers(
            [invoker.snapshot() for invoker in invokers]
        )
        assert total_after <= max(budget, total_before), (
            f"planner pushed the cluster to {total_after} containers "
            f"(budget {budget}, was {total_before})"
        )
        for invoker, action, container in busy_before:
            assert container in invoker.pool(action), (
                f"{container.container_id} was busy and disappeared from "
                f"{invoker.invoker_id}"
            )
            assert container.state is not ContainerState.DEAD
    loop.run()
    return planner, completed, submitted


@settings(max_examples=30, deadline=None)
@given(ops=OPS, num_invokers=st.integers(min_value=2, max_value=3),
       budget=st.integers(min_value=3, max_value=10))
def test_planner_respects_budget_and_busy_containers(ops, num_invokers, budget):
    planner, completed, submitted = _run_history(ops, num_invokers, budget)
    # Every submitted invocation completed exactly once despite the
    # planner shuffling capacity underneath the event flow.
    assert len(completed) == submitted
    assert all(inv.status is InvocationStatus.COMPLETED for inv in completed)
    seen = {inv.invocation_id for inv in completed}
    assert len(seen) == submitted


@settings(max_examples=15, deadline=None)
@given(ops=OPS, budget=st.integers(min_value=3, max_value=10))
def test_planner_is_deterministic(ops, budget):
    first, _, _ = _run_history(ops, 3, budget)
    second, _, _ = _run_history(ops, 3, budget)
    assert first.decisions == second.decisions
    assert first.prewarms == second.prewarms
    assert first.drains == second.drains
