"""Scan-based routing and work stealing: the oracle for the cluster index.

Production routing (:mod:`repro.faas.scheduler`) answers every routing
and steal decision from the incrementally maintained
:class:`~repro.faas.index.ClusterIndex`.  This module keeps the plain
definitions of those decisions: full scans over every invoker's
:class:`~repro.faas.invoker.InvokerSnapshot` and queue depths, the way
the scheduler decided before the index existed.  Nothing here reads the
index.

* :func:`choose` — the invoker each of the four policies picks, as an
  argmin over snapshots;
* :func:`find_steal` — the steal the rebalance makes for one thief;
* :class:`ReferenceScheduler` — a :class:`~repro.faas.scheduler.Scheduler`
  that routes and steals through the two functions above and builds no
  index.  Swapped into a whole cluster with ``monkeypatch.setattr(
  repro.faas.cluster, "Scheduler", ReferenceScheduler)``, it runs the
  same simulation as the shipped scheduler, decision for decision.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.faas.invoker import CompletionCallback, Invoker, InvokerSnapshot
from repro.faas.request import Invocation
from repro.faas.scheduler import (
    HashAffinityPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Scheduler,
    SchedulingPolicy,
    WarmAwarePolicy,
    home_index,
)

Steal = Tuple[Invoker, str, bool]


def warm_aware_choose(
    snapshots: Sequence[InvokerSnapshot],
    action: str,
    cold_penalty: float,
    restore_penalty: float = 0.0,
) -> int:
    """The warm-aware argmin of ``(load + penalty, load, index)``.

    The penalty is 0 on invokers warm for ``action``, ``restore_penalty``
    on invokers holding only a restorable snapshot of it, and
    ``cold_penalty`` elsewhere.
    """

    def score(index: int) -> Tuple[float, int, int]:
        snap = snapshots[index]
        if snap.warmth(action) > 0:
            penalty = 0.0
        elif snap.snapshots_held.get(action, 0) > 0:
            penalty = restore_penalty
        else:
            penalty = cold_penalty
        return (snap.load + penalty, snap.load, index)

    return min(range(len(snapshots)), key=score)


def choose(
    policy: SchedulingPolicy,
    snapshots: Sequence[InvokerSnapshot],
    invocation: Invocation,
    *,
    turn: int,
) -> int:
    """The invoker ``policy`` routes ``invocation`` to, by a full scan.

    ``turn`` is the number of invocations routed before this one (the
    round-robin cursor).
    """
    if isinstance(policy, RoundRobinPolicy):
        return turn % len(snapshots)
    if isinstance(policy, HashAffinityPolicy):
        return home_index(invocation.action, len(snapshots))
    if isinstance(policy, LeastLoadedPolicy):
        return min(range(len(snapshots)), key=lambda i: (snapshots[i].load, i))
    if isinstance(policy, WarmAwarePolicy):
        action = invocation.action
        return warm_aware_choose(
            snapshots,
            action,
            policy.penalty_for(action),
            policy.restore_penalty_for(action),
        )
    raise TypeError(f"no reference routing for policy {policy.name!r}")


def steal_victim(
    invokers: Sequence[Invoker],
    action: str,
    thief: Invoker,
    *,
    min_queue: int,
    require_exhausted: bool = False,
) -> Optional[Invoker]:
    """The peer with the deepest queue for ``action`` (ties: lowest index).

    ``require_exhausted`` skips peers that can still boot a container
    for the action themselves.
    """
    best: Optional[Invoker] = None
    best_depth = 0
    for invoker in invokers:
        if invoker is thief:
            continue
        depth = invoker.queued_invocations(action)
        if depth < min_queue or depth <= best_depth:
            continue
        if require_exhausted and invoker.growth_headroom(action) > 0:
            continue
        best = invoker
        best_depth = depth
    return best


def find_steal(
    invokers: Sequence[Invoker],
    thief: Invoker,
    boot_steal_min_queue: Optional[int],
) -> Optional[Steal]:
    """The best ``(victim, action, steal-from-tail)`` for ``thief``, if any.

    Instant steals (an idle warm container on the thief) come first, in
    the thief's pool order; then boot steals from growth-exhausted peers
    with a queue of at least ``boot_steal_min_queue``, for the actions
    the thief can still grow and holds no idle container of.
    """
    if thief.cores_in_use >= thief.cores:
        return None
    snapshot = thief.snapshot()
    for action in snapshot.idle_warm:
        victim = steal_victim(invokers, action, thief, min_queue=1)
        if victim is not None:
            return victim, action, False
    if boot_steal_min_queue is None:
        return None
    for action, room in snapshot.growth_headroom.items():
        if room <= 0 or action in snapshot.idle_warm:
            continue
        if not thief.queue_capacity(action):
            continue
        victim = steal_victim(
            invokers, action, thief,
            min_queue=boot_steal_min_queue,
            require_exhausted=True,
        )
        if victim is not None:
            return victim, action, True
    return None


class ReferenceScheduler(Scheduler):
    """A scheduler that routes and steals by full scans, without an index."""

    def __init__(
        self,
        invokers: Sequence[Invoker],
        policy: SchedulingPolicy,
        *,
        work_stealing: bool = False,
        boot_steal_min_queue: Optional[int] = 8,
    ) -> None:
        # The abstract policy consumes no index and stealing is wired up
        # below, so the base constructor builds and binds none.
        super().__init__(
            invokers, SchedulingPolicy(), boot_steal_min_queue=boot_steal_min_queue
        )
        self.policy = policy
        self.work_stealing = work_stealing
        if work_stealing and len(self.invokers) > 1:
            for invoker in self.invokers:
                invoker.spare_capacity_callback = self._on_spare_capacity

    def submit(self, invocation: Invocation, callback: CompletionCallback) -> None:
        snapshots = [invoker.snapshot() for invoker in self.invokers]
        index = choose(
            self.policy, snapshots, invocation, turn=sum(self.routed_per_invoker)
        )
        self.routed_per_invoker[index] += 1
        if invocation.trace is not None:
            invocation.trace.route(self.policy.name, index)
        self.invokers[index].submit(invocation, callback)
        self._rebalance()

    def _rebalance(self) -> None:
        if not self.work_stealing or len(self.invokers) < 2 or self._rebalancing:
            return
        self._rebalancing = True
        try:
            progressed = True
            while progressed:
                progressed = False
                for thief in self.invokers:
                    steal = find_steal(self.invokers, thief, self.boot_steal_min_queue)
                    if steal is None:
                        continue
                    victim, action, newest = steal
                    entry = victim.release_queued(action, newest=newest)
                    thief.adopt(*entry)
                    self.steals += 1
                    progressed = True
        finally:
            self._rebalancing = False
