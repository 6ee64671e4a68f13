"""Property tests for the weighted-fair admission queue.

Deficit round robin makes three promises the fairness layer depends on:

* **No starvation** — with equal weights, a tenant with backlog is served
  once per round: between two consecutive services of a continuously
  backlogged tenant, no other tenant is served twice.
* **FIFO degeneration** — with a single tenant the round is trivial and
  the queue's pop order is exactly arrival order, matching
  :class:`~repro.faas.admission.FifoQueue` operation for operation over
  any push/pop interleaving.
* **Determinism** — a cluster running WFQ admission with work stealing
  (steal/adopt sequences dequeue through the fair order) completes every
  invocation exactly once and two identical runs behave identically.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.admission import FifoQueue, WeightedFairQueue
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.scheduler import HashAffinityPolicy, Scheduler
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _entry(tenant: str, stamp: int):
    invocation = Invocation(
        action="act", payload=b"x", caller=tenant, invocation_id=f"inv-{stamp}"
    )
    return (invocation, lambda inv: None, float(stamp))


#: An operation sequence: push for tenant i (0..3) or a pop (-1).
OPS = st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_wfq_never_starves_a_backlogged_tenant(ops):
    queue = WeightedFairQueue()
    backlog: Dict[str, int] = Counter()
    #: Services of other tenants since each tenant's last service, reset
    #: whenever the tenant's backlog drains (the guarantee only covers
    #: continuously backlogged tenants).
    waiting: Dict[str, Counter] = {}
    stamp = 0
    for op in ops:
        if op >= 0:
            tenant = f"tenant-{op}"
            queue.push(_entry(tenant, stamp))
            stamp += 1
            backlog[tenant] += 1
            waiting.setdefault(tenant, Counter())
        elif queue:
            served = queue.pop_next()[0].caller
            backlog[served] -= 1
            for tenant, others in waiting.items():
                if tenant == served:
                    continue
                others[served] += 1
                # Equal weights: one round serves every backlogged tenant
                # once, so nobody is served twice while another tenant
                # with backlog waits.
                assert backlog[tenant] == 0 or others[served] <= 1, (
                    f"{served} served twice while {tenant} had backlog"
                )
            waiting[served] = Counter()
            if backlog[served] == 0:
                del waiting[served]


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.booleans(), min_size=1, max_size=60))
def test_wfq_degenerates_to_fifo_with_one_tenant(ops):
    # True = push, False = pop; both queues see the identical sequence.
    wfq, fifo = WeightedFairQueue(), FifoQueue()
    stamp = 0
    for is_push in ops:
        if is_push:
            entry = _entry("solo", stamp)
            stamp += 1
            wfq.push(entry)
            fifo.push(entry)
        elif len(fifo):
            assert wfq.pop_next() is fifo.pop_next()
    assert [inv.invocation_id for inv in wfq.invocations()] == [
        inv.invocation_id for inv in fifo.invocations()
    ]


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
    )


def _run_wfq_steal_pattern(
    num_invokers: int, pattern: List[Tuple[int, int]]
) -> Tuple[List[Invocation], int, Tuple[float, ...]]:
    """Drive a stealing WFQ cluster with (action, tenant) submissions.

    Returns the submitted invocations, the steal count, and the completion
    timestamps in completion order.
    """
    num_actions = max(action for action, _ in pattern) + 1
    actions = [f"act-{i}" for i in range(num_actions)]
    loop = EventLoop()
    invokers = [
        Invoker(
            loop,
            SimulationConfig(cores=1, admission_policy="wfq"),
            invoker_id=f"invoker-{i}",
        )
        for i in range(num_invokers)
    ]
    scheduler = Scheduler(
        invokers, HashAffinityPolicy(), work_stealing=True, boot_steal_min_queue=4
    )
    for name in actions:
        spec = ActionSpec.for_profile(_profile(name), "base", name=name)
        scheduler.deploy(spec, containers=1, max_containers=1)
    submitted: List[Invocation] = []
    completions: List[float] = []

    def on_complete(invocation: Invocation) -> None:
        completions.append(invocation.completed_at)

    for action_index, tenant_index in pattern:
        invocation = Invocation(
            action=actions[action_index],
            payload=b"x",
            caller=f"tenant-{tenant_index}",
        )
        submitted.append(invocation)
        scheduler.submit(invocation, on_complete)
    loop.run(until=500.0)
    return submitted, scheduler.steals, tuple(completions)


@settings(max_examples=20, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=3),
    pattern=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_wfq_stealing_loses_nothing(num_invokers, pattern):
    submitted, _steals, completions = _run_wfq_steal_pattern(num_invokers, pattern)
    assert len(completions) == len(submitted)
    assert all(
        inv.status is InvocationStatus.COMPLETED for inv in submitted
    )


@settings(max_examples=10, deadline=None)
@given(
    pattern=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=4,
        max_size=20,
    ),
)
def test_wfq_stealing_is_deterministic(pattern):
    first = _run_wfq_steal_pattern(3, pattern)
    second = _run_wfq_steal_pattern(3, pattern)
    assert first[1] == second[1]  # identical steal counts
    assert first[2] == second[2]  # identical completion timelines
    assert [inv.status for inv in first[0]] == [inv.status for inv in second[0]]
