"""Property tests for the incrementally-maintained cluster index.

The :class:`~repro.faas.index.ClusterIndex` answers the scheduler's
per-request questions (least-loaded argmin, warm-aware scoring,
steal-victim search, is any steal possible at all) with O(log N)
incremental queries instead of scans.  The contract is *bit-identity*:
on the same seed and workload, the shipped scheduler makes exactly the
decisions of the scan oracle in ``reference_routing`` — same invoker
per invocation, same steals, same cold starts, same timestamps.  These
properties pin that contract over arbitrary submission patterns,
policies, and cluster shapes:

* **twin-cluster equivalence** — two identical clusters, one under the
  shipped :class:`~repro.faas.scheduler.Scheduler` and one under the
  oracle's ``ReferenceScheduler``, produce identical routing counts,
  steal counts (cluster-wide and per invoker), and per-invocation
  dispatch/completion timestamps, with actions pre-warmed on their home
  or on every invoker;
* **index integrity** — after any workload, the incrementally maintained
  loads, warm sets, and queue-depth maps equal a from-scratch recompute
  (``ClusterIndex.verify``), i.e. no state transition forgets to push
  its delta;
* **iteration determinism** — two identical indexed runs are identical,
  so nothing in the index (heap surfacing order, set iteration) leaks
  nondeterminism into routing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import example, given, settings, strategies as st
from reference_routing import ReferenceScheduler

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation
from repro.faas.scheduler import (
    HashAffinityPolicy,
    LeastLoadedPolicy,
    Scheduler,
    SchedulingPolicy,
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


def _policy(name: str) -> SchedulingPolicy:
    if name == "warm-aware":
        return WarmAwarePolicy(cold_start_penalty=2.0)
    if name == "hash-affinity":
        return HashAffinityPolicy()
    return LeastLoadedPolicy()


def _run_cluster(
    num_invokers: int,
    pattern: List[int],
    *,
    policy_name: str,
    work_stealing: bool,
    warm_everywhere: bool = False,
    reference: bool = False,
    boot_steal_min_queue: Optional[int] = 4,
    verify: bool = False,
) -> Tuple[
    List[int], int, List[Tuple[str, float, float]], List[Tuple[int, int]]
]:
    """Run one cluster over ``pattern`` and return its decision trace.

    ``warm_everywhere=True`` pre-warms each action on every invoker
    instead of only on its home, so several idle peers can steal the
    same queue.  ``reference=True`` routes through the scan oracle
    instead of the shipped scheduler.  Returns ``(routed_per_invoker,
    steals, [(action, dispatched_at, completed_at), ...], [(steals,
    stolen_away) per invoker])`` — everything a routing or steal
    divergence would perturb.  Identical 1-core invokers dispatch at
    the same times whichever peer steals, so only the per-invoker steal
    counts show which one did.
    """
    num_actions = max(pattern) + 1
    actions = [f"act-{i}" for i in range(num_actions)]
    loop = EventLoop()
    invokers = [
        Invoker(loop, SimulationConfig(cores=1), invoker_id=f"invoker-{i}")
        for i in range(num_invokers)
    ]
    scheduler = (ReferenceScheduler if reference else Scheduler)(
        invokers,
        _policy(policy_name),
        work_stealing=work_stealing,
        boot_steal_min_queue=boot_steal_min_queue,
    )
    for name in actions:
        spec = ActionSpec.for_profile(_profile(name), "base", name=name)
        if warm_everywhere:
            for invoker in invokers:
                invoker.deploy(spec, containers=1, max_containers=2)
        else:
            scheduler.deploy(spec, containers=1, max_containers=2)
    done: List[Invocation] = []
    for action_index in pattern:
        invocation = Invocation(action=actions[action_index], payload=b"x")
        scheduler.submit(invocation, done.append)
        if verify and scheduler.index is not None:
            # Mid-flight integrity: every submit's state transitions must
            # have pushed their deltas before the next routing decision.
            scheduler.index.verify()
    loop.run(until=500.0)
    if verify and scheduler.index is not None:
        scheduler.index.verify()
    trace = [
        (inv.action, inv.dispatched_at, inv.completed_at) for inv in done
    ]
    per_invoker = [(invoker.steals, invoker.stolen_away) for invoker in invokers]
    return (
        list(scheduler.routed_per_invoker), scheduler.steals, trace, per_invoker
    )


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=5),
    pattern=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
    policy_name=st.sampled_from(["warm-aware", "least-loaded", "hash-affinity"]),
    work_stealing=st.booleans(),
    warm_everywhere=st.booleans(),
)
# Two steal victims tie on queue depth (ties go to the lowest position),
# which the random patterns rarely produce.
@example(
    num_invokers=4,
    pattern=[0] * 6 + [1] * 6,
    policy_name="warm-aware",
    work_stealing=True,
    warm_everywhere=False,
)
# The thief order: act-0's home is invoker 1 and both peers hold an idle
# act-0 container, so the queued request goes to the lowest-index peer
# (per-invoker steals [1, 0, 0]; a highest-first search gives [0, 0, 1]).
@example(
    num_invokers=3,
    pattern=[0, 0],
    policy_name="hash-affinity",
    work_stealing=True,
    warm_everywhere=True,
)
def test_indexed_routing_is_bit_identical_to_scan(
    num_invokers, pattern, policy_name, work_stealing, warm_everywhere
):
    # The index changes the *cost* of routing and steal decisions, never
    # the decisions themselves.
    indexed = _run_cluster(
        num_invokers, pattern,
        policy_name=policy_name, work_stealing=work_stealing,
        warm_everywhere=warm_everywhere,
    )
    scan = _run_cluster(
        num_invokers, pattern,
        policy_name=policy_name, work_stealing=work_stealing,
        warm_everywhere=warm_everywhere, reference=True,
    )
    assert indexed[0] == scan[0]  # routed_per_invoker
    assert indexed[1] == scan[1]  # steal counts
    assert indexed[2] == scan[2]  # per-invocation dispatch/completion times
    assert indexed[3] == scan[3]  # which invokers stole and were stolen from


@settings(max_examples=25, deadline=None)
@given(
    num_invokers=st.integers(min_value=2, max_value=4),
    pattern=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
    work_stealing=st.booleans(),
    warm_everywhere=st.booleans(),
)
def test_index_matches_recompute_after_any_workload(
    num_invokers, pattern, work_stealing, warm_everywhere
):
    # ClusterIndex.verify() recomputes loads / warm sets / queue depths
    # from the invokers and asserts the incrementally maintained state
    # equals it — at every submission boundary and after the run drains.
    _run_cluster(
        num_invokers, pattern,
        policy_name="warm-aware", work_stealing=work_stealing,
        warm_everywhere=warm_everywhere, verify=True,
    )


@settings(max_examples=10, deadline=None)
@given(
    pattern=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=24),
)
def test_indexed_runs_are_deterministic(pattern):
    # Heap surfacing and warm-set iteration must not leak ordering
    # nondeterminism: two identical indexed runs are identical.
    first = _run_cluster(3, pattern, policy_name="warm-aware", work_stealing=True)
    second = _run_cluster(3, pattern, policy_name="warm-aware", work_stealing=True)
    assert first == second
