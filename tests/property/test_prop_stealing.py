"""Property tests for cross-invoker work stealing.

Work stealing moves queued invocations between invokers, so it could in
principle reorder an action's requests or lose them.  These properties
check, over arbitrary submission patterns and cluster shapes, that it does
neither:

* every submitted invocation completes exactly once (none lost, none
  duplicated, none run twice) — boot steals included;
* with instant steals (the default kind), per-action requests are
  *dispatched* in submission order: a steal takes the queue head, the
  invocation that would have run next anyway, so the FIFO discipline of
  each action's queue survives the moves.  (A *boot* steal deliberately
  parks the queue tail behind a container boot; arrivals that keep
  landing on the victim afterwards may overtake that one request, which
  is the capacity-for-position trade the steal makes — so strict dispatch
  order is asserted for the instant-steal regime.);
* with jitter-free profiles and one warm container per invoker, per-action
  *completion* order equals submission order, steals included;
* two identical runs steal identically (determinism).
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.scheduler import HashAffinityPolicy, Scheduler
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _profile(name: str) -> FunctionProfile:
    """A small jitter-free profile: identical requests take identical time."""
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
    )


def _build_cluster(
    num_invokers: int,
    actions: List[str],
    warm_everywhere: bool,
    boot_steal_min_queue=4,
):
    """A stealing cluster; each action pre-warmed on every invoker or only
    registered off-home (the standard deployment geometry)."""
    loop = EventLoop()
    invokers = [
        Invoker(
            loop,
            SimulationConfig(cores=1),
            invoker_id=f"invoker-{i}",
        ) for i in range(num_invokers)
    ]
    scheduler = Scheduler(
        invokers,
        HashAffinityPolicy(),
        work_stealing=True,
        boot_steal_min_queue=boot_steal_min_queue,
    )
    for name in actions:
        spec = ActionSpec.for_profile(_profile(name), "base", name=name)
        if warm_everywhere:
            for invoker in invokers:
                invoker.deploy(spec, containers=1, max_containers=1)
        else:
            scheduler.deploy(spec, containers=1, max_containers=1)
    return loop, invokers, scheduler


def _run_pattern(
    num_invokers: int,
    pattern: List[int],
    warm_everywhere: bool,
    boot_steal_min_queue=4,
):
    """Submit ``pattern`` (a list of action indices) and run to completion.

    Returns ``(per-action submissions, per-action completions, steals)``.
    """
    num_actions = max(pattern) + 1
    actions = [f"act-{i}" for i in range(num_actions)]
    loop, invokers, scheduler = _build_cluster(
        num_invokers, actions, warm_everywhere, boot_steal_min_queue
    )
    submitted: dict = {name: [] for name in actions}
    completed: dict = {name: [] for name in actions}
    for index, action_index in enumerate(pattern):
        name = actions[action_index]
        invocation = Invocation(action=name, payload=b"x", invocation_id=f"inv-{index}")
        submitted[name].append(invocation)
        scheduler.submit(
            invocation, lambda inv: completed[inv.action].append(inv)
        )
    loop.run(until=500.0)
    return submitted, completed, scheduler.steals


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=4),
    pattern=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=24),
    warm_everywhere=st.booleans(),
)
def test_stealing_loses_nothing(num_invokers, pattern, warm_everywhere):
    # Boot steals enabled: whatever gets moved (heads into warm containers,
    # tails behind boots), every invocation completes exactly once.
    submitted, completed, _ = _run_pattern(num_invokers, pattern, warm_everywhere)
    for name, invocations in submitted.items():
        assert len(completed[name]) == len(invocations)
        assert {inv.invocation_id for inv in completed[name]} == {
            inv.invocation_id for inv in invocations
        }
        assert all(
            inv.status is InvocationStatus.COMPLETED for inv in invocations
        )


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=4),
    pattern=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=24),
    warm_everywhere=st.booleans(),
)
def test_instant_stealing_dispatches_fifo(num_invokers, pattern, warm_everywhere):
    # Instant steals only (boot steals disabled): a steal always takes the
    # queue head, so per-action dispatch order equals submission order —
    # stealing never lets a younger request overtake an older one onto a
    # core.
    submitted, _, _ = _run_pattern(
        num_invokers, pattern, warm_everywhere, boot_steal_min_queue=None
    )
    for invocations in submitted.values():
        dispatch_times = [inv.dispatched_at for inv in invocations]
        assert dispatch_times == sorted(dispatch_times)


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=3),
    pattern=st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=16),
)
def test_stealing_preserves_per_action_fifo_completion_order(num_invokers, pattern):
    # Warm container on every invoker + jitter-free profile: service times
    # are identical, so completion order is exactly dispatch order and any
    # steal-induced reordering would show up here.
    submitted, completed, _ = _run_pattern(num_invokers, pattern, True)
    for name, invocations in submitted.items():
        assert [inv.invocation_id for inv in completed[name]] == [
            inv.invocation_id for inv in invocations
        ]


@settings(max_examples=10, deadline=None)
@given(
    pattern=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=20),
)
def test_stealing_is_deterministic(pattern):
    first = _run_pattern(3, pattern, False)
    second = _run_pattern(3, pattern, False)
    assert first[2] == second[2]  # identical steal counts
    for name in first[0]:
        assert [inv.completed_at for inv in first[1][name]] == [
            inv.completed_at for inv in second[1][name]
        ]
