"""Property tests for the restoration-aware warmth spectrum.

With ``restorable_snapshots`` on, keep-alive eviction *demotes* idle
dynamic containers to held snapshots and demand revives them with an
on-core restore priced by the isolation mechanism.  These properties pin
the spectrum's contracts over arbitrary submission patterns:

* **zero-cost collapse** — a spectrum whose restores are free (pricer
  returns 0) and whose snapshot budget is unbounded is observationally
  identical, dispatch for dispatch, to never evicting at all (an
  infinite keep-alive): demote+promote at zero cost must be a pure
  no-op in the timing domain;
* **budget safety** — the invoker-wide snapshot budget is never
  exceeded at any observation point, and every demotion is accounted
  for (held + restored + discarded);
* **indexed ≡ scan with snapshots** — the cluster index's per-action
  snapshot sets keep routing bit-identical to the scan oracle in
  ``reference_routing`` when the middle warmth tier is live, and
  ``ClusterIndex.verify()`` holds at every submission boundary;
* **determinism** — two identical spectrum-on runs make identical
  decisions (demotion LRU order and snapshot-set iteration leak no
  nondeterminism).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st
from reference_routing import ReferenceScheduler

from repro.faas.action import ActionSpec
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation
from repro.faas.scheduler import (
    HashAffinityPolicy,
    LeastLoadedPolicy,
    Scheduler,
    WarmAwarePolicy,
)
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


def _run_cluster(
    num_invokers: int,
    pattern: List[int],
    *,
    policy_name: str = "least-loaded",
    keep_alive_seconds: float,
    spectrum: bool,
    snapshot_budget: Optional[int] = None,
    zero_cost: bool = False,
    reference: bool = False,
    gap_seconds: float = 0.5,
    verify: bool = False,
) -> Tuple[List[Invoker], Scheduler, List[Tuple[str, float, float]]]:
    """Run one cluster over ``pattern`` with staggered submission bursts.

    Each pattern step submits a *burst* of two invocations of the same
    action at the same instant: the second one queues, grows the pool,
    and boots a **dynamic** container — the only kind keep-alive
    eviction (and hence demotion) ever touches.  Bursts are spaced
    ``gap_seconds`` apart so short keep-alives actually fire between
    them.  ``reference=True`` routes through the scan oracle instead of
    the shipped scheduler.  Returns the invokers, the scheduler, and the
    per-invocation ``(action, dispatched_at, completed_at)`` trace.
    """
    num_actions = max(pattern) + 1
    actions = [f"act-{i}" for i in range(num_actions)]
    loop = EventLoop()
    invokers = [
        Invoker(
            loop,
            cores=2,
            invoker_id=f"invoker-{i}",
            keep_alive_seconds=keep_alive_seconds,
            restorable_snapshots=spectrum,
            snapshot_budget=snapshot_budget,
            restore_pricer=(lambda container: 0.0) if zero_cost else None,
        )
        for i in range(num_invokers)
    ]
    if policy_name == "warm-aware":
        policy = WarmAwarePolicy(cold_start_penalty=2.0)
    elif policy_name == "hash-affinity":
        policy = HashAffinityPolicy()
    else:
        policy = LeastLoadedPolicy()
    scheduler = (ReferenceScheduler if reference else Scheduler)(
        invokers, policy, work_stealing=False
    )
    for name in actions:
        spec = ActionSpec.for_profile(_profile(name), "base", name=name)
        scheduler.deploy(spec, containers=1, max_containers=2)
    done: List[Invocation] = []

    def _submit(action_index: int) -> None:
        for _ in range(2):
            invocation = Invocation(action=actions[action_index], payload=b"x")
            scheduler.submit(invocation, done.append)
        if verify and scheduler.index is not None:
            scheduler.index.verify()

    for step, action_index in enumerate(pattern):
        loop.schedule_at(step * gap_seconds, lambda i=action_index: _submit(i))
    loop.run(until=len(pattern) * gap_seconds + 500.0)
    if verify and scheduler.index is not None:
        scheduler.index.verify()
    trace = [
        (inv.action, inv.dispatched_at, inv.completed_at) for inv in done
    ]
    return invokers, scheduler, trace


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=4),
    pattern=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
    policy_name=st.sampled_from(["least-loaded", "hash-affinity"]),
)
def test_zero_cost_spectrum_is_infinite_keep_alive(
    num_invokers, pattern, policy_name
):
    # Free restores + unbounded budget means demotion loses nothing and
    # revival costs nothing: the spectrum must collapse to "never evict".
    # Keep-alive 0.2s with 0.5s gaps guarantees demotions actually fire
    # between requests in the spectrum cluster.
    spectrum_invokers, spectrum_sched, spectrum_trace = _run_cluster(
        num_invokers, pattern,
        policy_name=policy_name,
        keep_alive_seconds=0.2, spectrum=True, zero_cost=True,
    )
    eternal_invokers, eternal_sched, eternal_trace = _run_cluster(
        num_invokers, pattern,
        policy_name=policy_name,
        keep_alive_seconds=1e9, spectrum=False,
    )
    assert spectrum_trace == eternal_trace
    assert list(spectrum_sched.routed_per_invoker) == list(
        eternal_sched.routed_per_invoker
    )
    assert sum(i.cold_starts for i in spectrum_invokers) == sum(
        i.cold_starts for i in eternal_invokers
    )


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=1, max_value=3),
    pattern=st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=30),
    snapshot_budget=st.integers(min_value=0, max_value=3),
)
def test_snapshot_budget_never_exceeded(num_invokers, pattern, snapshot_budget):
    invokers, scheduler, _ = _run_cluster(
        num_invokers, pattern,
        keep_alive_seconds=0.2, spectrum=True,
        snapshot_budget=snapshot_budget,
    )
    for invoker in invokers:
        assert invoker.snapshots_held() <= snapshot_budget
        # Conservation: every demotion is either still held, was revived
        # by a restore, or was discarded by the budget LRU.
        assert invoker.demotes == (
            invoker.restores
            + invoker.snapshot_discards
            + invoker.snapshots_held()
        )


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=4),
    pattern=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
    policy_name=st.sampled_from(["warm-aware", "least-loaded"]),
)
def test_indexed_spectrum_routing_is_bit_identical_to_scan(
    num_invokers, pattern, policy_name
):
    # The snapshot sets are the index's newest maintained state; they must
    # not perturb the bit-identity contract — the scan oracle sees pool
    # snapshots directly, the index sees _touch deltas, and both must
    # route every invocation identically with the middle tier live.
    indexed = _run_cluster(
        num_invokers, pattern,
        policy_name=policy_name,
        keep_alive_seconds=0.2, spectrum=True, verify=True,
    )
    scan = _run_cluster(
        num_invokers, pattern,
        policy_name=policy_name,
        keep_alive_seconds=0.2, spectrum=True, reference=True,
    )
    assert indexed[2] == scan[2]  # per-invocation dispatch/completion times
    assert list(indexed[1].routed_per_invoker) == list(scan[1].routed_per_invoker)
    assert [i.restores for i in indexed[0]] == [i.restores for i in scan[0]]
    assert [i.demotes for i in indexed[0]] == [i.demotes for i in scan[0]]


@settings(max_examples=10, deadline=None)
@given(
    pattern=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=20),
)
def test_spectrum_runs_are_deterministic(pattern):
    first = _run_cluster(
        3, pattern, policy_name="warm-aware",
        keep_alive_seconds=0.2, spectrum=True, snapshot_budget=2,
    )
    second = _run_cluster(
        3, pattern, policy_name="warm-aware",
        keep_alive_seconds=0.2, spectrum=True, snapshot_budget=2,
    )
    assert first[2] == second[2]
    assert list(first[1].routed_per_invoker) == list(second[1].routed_per_invoker)
    assert [i.stats() for i in first[0]] == [i.stats() for i in second[0]]
