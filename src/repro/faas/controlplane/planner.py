"""Cross-invoker pre-warm capacity shifting under a global budget.

PR 2's tail boot-steal was an opportunistic scheduler trick: an idle
invoker only booted a container for a peer's action once that peer's
backlog was already eight deep.  The :class:`CapacityPlanner` generalises
it into a deliberate planning step with a cluster view: every control
tick it aggregates per-action demand from the invokers' structured
snapshots (queued work not covered by boots in flight), and *moves*
pre-warmed capacity toward it —

* **Seeding**: an action backlogged on one invoker gets a container
  booted on an underloaded peer *before* any steal needs it, so the
  scheduler's instant (warm-container) steals serve the backlog
  cold-start-free.
* **Draining**: idle dynamic containers are reclaimed early (not after
  the keep-alive) when the cluster is over its global container budget —
  including to *fund* a seed elsewhere, which is what makes this a
  capacity **shift** rather than unbounded growth.

The planner never exceeds the global container budget (counting every
container and boot in flight cluster-wide) and never touches a busy
container: draining is restricted to each pool's idle dynamic containers
by construction.  All scans run in sorted order over deterministic
snapshots, so two identical runs plan identically.

With the warmth spectrum on (``SimulationConfig.restorable_snapshots``)
both actuators get cheaper without any planner change: a funding *drain*
demotes its victim to a held snapshot instead of destroying it (the
container leaves the budget — demoted snapshots serve nothing and count
toward neither ``warm_total`` nor ``boots_in_flight`` — but its image is
retained), and a *seed* on an invoker that holds a restorable snapshot of
the action restores it on-core at a fraction of a boot's cost rather than
cold-starting.  The planner plans the same shifts; the invokers execute
them along the cheapest lifecycle path available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import PlatformError
from repro.faas.invoker import Invoker, InvokerSnapshot


@dataclass(frozen=True)
class MigrationDecision:
    """One capacity movement the planner actuated."""

    at: float
    action: str
    #: ``"prewarm"`` (a container was seeded on ``target`` to relieve
    #: ``source``) or ``"drain"`` (an idle container on ``source`` was
    #: reclaimed).
    kind: str
    source: Optional[str]
    target: Optional[str]

    def describe(self) -> str:
        """One-line human-readable rendering for driver/CLI output."""
        if self.kind == "prewarm":
            return (
                f"t={self.at:.2f}s prewarm {self.action} on {self.target} "
                f"(relieving {self.source})"
            )
        return f"t={self.at:.2f}s drain {self.action} on {self.source}"


class CapacityPlanner:
    """Plans and actuates cross-invoker pre-warm shifts each control tick."""

    #: Seeds (pre-warm shifts) the planner actuates per control tick at most.
    max_migrations_per_tick = 2

    def __init__(
        self,
        budget: int,
        *,
        queue_high: int = 4,
        min_idle_seconds: float = 1.0,
    ) -> None:
        if budget < 1:
            raise PlatformError("the global container budget must be >= 1")
        if queue_high < 1:
            raise PlatformError("planner queue_high must be >= 1")
        if min_idle_seconds < 0:
            raise PlatformError("min_idle_seconds must be >= 0")
        self.budget = budget
        self.queue_high = queue_high
        #: A container must have sat idle this long before the planner may
        #: drain it: reclaiming a container that served a request
        #: milliseconds ago just forces a cold start when the next one
        #: arrives — churn, not capacity management.
        self.min_idle_seconds = min_idle_seconds
        self.decisions: List[MigrationDecision] = []
        self.prewarms = 0
        self.drains = 0

    # ------------------------------------------------------------------
    # The planning step
    # ------------------------------------------------------------------

    @staticmethod
    def total_containers(snapshots: Sequence[InvokerSnapshot]) -> int:
        """Cluster-wide containers plus boots in flight (the budget metric)."""
        return sum(
            sum(snap.warm_total.values()) + sum(snap.boots_in_flight.values())
            for snap in snapshots
        )

    def plan(self, invokers: Sequence[Invoker], now: float) -> List[MigrationDecision]:
        """One tick: seed pre-warms toward backlog, reclaim over-budget idle.

        Returns the decisions made this tick (also appended to
        :attr:`decisions`).
        """
        snapshots = [invoker.snapshot() for invoker in invokers]
        total = self.total_containers(snapshots)
        made: List[MigrationDecision] = []
        seeds = 0
        for uncovered, src_index, action in self._pressures(snapshots):
            # Only seeds count against the per-tick cap: a funding drain is
            # half of one logical shift, not a migration of its own — at
            # the budget boundary the planner must not halve its relief
            # rate exactly when the cluster is saturated.
            if seeds >= self.max_migrations_per_tick:
                break
            target_index = self._pick_target(snapshots, src_index, action)
            if target_index is None:
                continue
            target = invokers[target_index]
            if not target.can_prewarm(action, raise_ceiling=True):
                # The seed could not land (pool at the core bound): skip
                # *before* funding it.  Draining first and discovering the
                # failure afterwards would reclaim a container for nothing
                # — an over-drain the budget bookkeeping never refunds.
                continue
            if total >= self.budget:
                funded = self._drain_one(
                    invokers, now, exclude_action=action, made=made
                )
                if funded is None:
                    break  # nothing drainable: the budget is genuinely spent
                total -= 1
            if target.growth_headroom(action) == 0:
                target.scale_action(action, +1)
            if not target.prewarm(action):
                continue
            total += 1
            decision = MigrationDecision(
                at=now,
                action=action,
                kind="prewarm",
                source=invokers[src_index].invoker_id,
                target=target.invoker_id,
            )
            made.append(decision)
            self.prewarms += 1
            seeds += 1
            # Refresh the target's snapshot so a second seed this tick sees
            # the boot already in flight (and does not double-place).
            snapshots[target_index] = target.snapshot()
        while total > self.budget:
            drained = self._drain_one(invokers, now, exclude_action=None, made=made)
            if drained is None:
                break
            total -= 1
        self.decisions.extend(made)
        return made

    # ------------------------------------------------------------------
    # Demand and placement
    # ------------------------------------------------------------------

    def _pressures(
        self, snapshots: Sequence[InvokerSnapshot]
    ) -> List[Tuple[int, int, str]]:
        """(uncovered backlog, invoker index, action), deepest first.

        Only backlog not already covered by a boot in flight counts —
        demand a reactive autoscaler (or an earlier plan) is already
        paying for needs no second container.
        """
        pressures: List[Tuple[int, int, str]] = []
        for index, snap in enumerate(snapshots):
            for action in sorted(snap.queued_per_action):
                uncovered = snap.queued_per_action[action] - snap.boots_in_flight.get(
                    action, 0
                )
                if uncovered >= self.queue_high:
                    pressures.append((uncovered, index, action))
        pressures.sort(key=lambda item: (-item[0], item[1], item[2]))
        return pressures

    def _pick_target(
        self,
        snapshots: Sequence[InvokerSnapshot],
        src_index: int,
        action: str,
    ) -> Optional[int]:
        """The least-loaded peer worth seeding ``action`` on, if any.

        A peer that already has an idle warm container (the scheduler can
        instant-steal onto it right now) or a boot in flight for the
        action (a seed is already paying off) is skipped; so is a peer
        with no free core (the seed's boot could not even start), and a
        peer with its own queued work for the action — that peer has
        demand of its own (the on-demand growth path covers it), and
        raising its ceiling from here would trigger an on-demand boot the
        planner's budget bookkeeping cannot see.  Among the rest, lowest
        load wins, ties to the fewest containers (spread the warm
        capacity), then the lowest index.
        """
        best: Optional[int] = None
        best_key: Tuple[int, int, int] = (0, 0, 0)
        for index, snap in enumerate(snapshots):
            if index == src_index:
                continue
            if snap.free_cores <= 0:
                continue
            if snap.idle_warm.get(action, 0) > 0 or snap.boots_in_flight.get(action, 0) > 0:
                continue
            if snap.queued_per_action.get(action, 0) > 0:
                continue
            key = (snap.load, sum(snap.warm_total.values()), index)
            if best is None or key < best_key:
                best = index
                best_key = key
        return best

    def _drain_one(
        self,
        invokers: Sequence[Invoker],
        now: float,
        *,
        exclude_action: Optional[str],
        made: List[MigrationDecision],
    ) -> Optional[MigrationDecision]:
        """Reclaim one idle dynamic container somewhere, deepest pool first.

        ``exclude_action`` protects the action a seed is being funded for —
        draining the very capacity the plan is about to re-create would be
        pure churn.  Only pools with no queued work are considered, and
        :meth:`~repro.faas.invoker.Invoker.drain` itself only ever touches
        idle dynamic containers, so a busy container can never be
        reclaimed.  Under the warmth spectrum the reclaim is a *demotion*:
        the freed budget is identical, but the victim survives as a
        restorable snapshot a later seed can revive for far less than a
        boot.
        """
        best: Optional[Tuple[int, int, str]] = None  # (-idle_dynamic, index, action)
        for index, invoker in enumerate(invokers):
            snap = invoker.snapshot()
            for action in sorted(snap.idle_warm):
                if action == exclude_action:
                    continue
                if snap.queued_per_action.get(action, 0) > 0:
                    continue
                idle_dynamic = sum(
                    1
                    for c in invoker.idle_pool(action)
                    if c.dynamic
                    and now - c.idle_since >= self.min_idle_seconds
                )
                if idle_dynamic == 0:
                    continue
                key = (-idle_dynamic, index, action)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        _, index, action = best
        invoker = invokers[index]
        if invoker.drain(action, 1, min_idle_seconds=self.min_idle_seconds) != 1:
            return None
        decision = MigrationDecision(
            at=now, action=action, kind="drain", source=invoker.invoker_id, target=None
        )
        made.append(decision)
        self.drains += 1
        return decision
