"""Incrementally-maintained cluster-state indices for O(log N) routing.

Routing by :class:`~repro.faas.scheduler.LeastLoadedPolicy` or
:class:`~repro.faas.scheduler.WarmAwarePolicy`, and the work-stealing
rebalance, need per-invoker state on every submitted invocation.
Recomputing it from scratch would cost invokers × deployed actions per
request.  :class:`ClusterIndex` inverts that: each
:class:`~repro.faas.invoker.Invoker` pushes O(1) deltas at its
state-transition points (container busy/idle, boot start/finish,
enqueue/dequeue, eviction — see ``Invoker._touch_pool``), and the index
maintains the structures the policies and the scheduler query:

* **A load-ordered lazy min-heap** over ``(load, position)`` pairs.  A
  load change pushes a fresh entry in O(log N) and leaves the old one
  behind as a *stale* entry (recognised by comparing its load against
  the authoritative ``_loads`` array and discarded when it surfaces).
  The heap is compacted — rebuilt from ``_loads`` — once stale entries
  outnumber live ones several times over, so amortised cost stays
  O(log N) per update and per query.
* **Per-action warm sets**: the positions whose invokers have at least
  one container (existing, booting, or restoring) for the action —
  exactly the ``snapshot.warmth(action) > 0`` predicate the warm-aware
  policy scores, without materialising a snapshot.  They also feed the
  steal search: an instant steal needs an idle warm container on the
  thief, so only the warm sets of queued actions hold possible thieves.
* **Per-action snapshot sets**: the positions holding at least one
  demoted restorable snapshot of the action — the middle tier of the
  warmth spectrum, scored between live-warm and cold by the warm-aware
  policy's restore penalty.  Maintained by the same O(1) ``_touch_pool``
  deltas as the warm sets; empty whenever the spectrum is off.
* **Per-action queue-depth maps** (sparse: only positions with a
  non-empty queue appear): the victim index for work stealing, and —
  via plain emptiness — the O(1) "is any steal possible at all?" guard
  that makes the post-submit rebalance event-driven.  Alongside them, a
  count of the queues at least ``boot_steal_min_queue`` deep answers the
  steal search's "is a boot steal possible anywhere?" in O(1).

Every query returns exactly what a full scan over the invokers would,
including tie-break order (load ties go to the lowest invoker index;
the warm-aware comparison key is the ``(load + penalty, load, index)``
tuple).  The scans live on only as the test oracle in
``tests/property/reference_routing.py``, which the index's unit tests
and the twin-cluster Hypothesis suites compare against.

The index is a pure observer: it never mutates invokers, consumes RNG,
or schedules events, so attaching it cannot perturb simulated behaviour.
"""

from __future__ import annotations

import heapq
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (invoker ← index)
    from repro.faas.invoker import Invoker

#: The heap is compacted once it holds more than this many entries per
#: invoker — beyond it, stale corpses dominate and pop-side cleanup
#: would degrade toward O(history) instead of O(live).
_HEAP_SLACK_FACTOR = 4


class ClusterIndex:
    """Live load/warmth/queue-depth indices over a fixed set of invokers.

    Construction attaches the index to every invoker (see
    :meth:`Invoker.attach_index`), which backfills the current state, so
    an index may be created before or after actions are deployed.
    ``boot_steal_min_queue`` is the scheduler's boot-steal depth (``None``:
    no boot steals, and :attr:`deep_queues` stays 0).
    """

    def __init__(
        self,
        invokers: Sequence["Invoker"],
        boot_steal_min_queue: Optional[int] = None,
    ) -> None:
        self.invokers = list(invokers)
        self.boot_steal_min_queue = boot_steal_min_queue
        #: Queues (action, position) at least ``boot_steal_min_queue`` deep.
        self.deep_queues = 0
        n = len(self.invokers)
        #: Authoritative per-position load (heap entries not matching
        #: this array are stale).
        self._loads: List[int] = [0] * n
        self._heap: List[Tuple[int, int]] = [(0, pos) for pos in range(n)]
        # Already heap-ordered: loads equal, positions ascending.
        self._warm: Dict[str, Set[int]] = {}
        self._snapshots: Dict[str, Set[int]] = {}
        self._depths: Dict[str, Dict[int, int]] = {}
        #: Lazy-heap bookkeeping (observability / test hooks).
        self.compactions = 0
        for position, invoker in enumerate(self.invokers):
            invoker.attach_index(self, position)

    # ------------------------------------------------------------------
    # Listener surface (fed by Invoker._touch / Invoker._touch_pool)
    # ------------------------------------------------------------------

    def load_changed(self, position: int, load: int) -> None:
        """Record ``position``'s new load; O(log N) amortised, dedup'd."""
        if load == self._loads[position]:
            return
        self._loads[position] = load
        heapq.heappush(self._heap, (load, position))
        if len(self._heap) > _HEAP_SLACK_FACTOR * len(self._loads) + 8:
            self._compact()

    def depth_changed(self, position: int, action: str, depth: int) -> None:
        """Record ``action``'s queue depth at ``position`` (sparse, dedup'd)."""
        per_action = self._depths.get(action)
        deep = self.boot_steal_min_queue
        if deep is not None:
            was = 0 if per_action is None else per_action.get(position, 0)
            if (was >= deep) is not (depth >= deep):
                self.deep_queues += 1 if depth >= deep else -1
        if depth > 0:
            if per_action is None:
                per_action = {}
                self._depths[action] = per_action
            per_action[position] = depth
        elif per_action is not None:
            per_action.pop(position, None)
            if not per_action:
                del self._depths[action]

    def warmth_changed(self, position: int, action: str, warm: bool) -> None:
        """Record whether ``position`` has any container/boot for ``action``."""
        positions = self._warm.get(action)
        if warm:
            if positions is None:
                positions = set()
                self._warm[action] = positions
            positions.add(position)
        elif positions is not None:
            positions.discard(position)
            if not positions:
                del self._warm[action]

    def snapshot_changed(self, position: int, action: str, held: bool) -> None:
        """Record whether ``position`` holds any restorable snapshot of
        ``action`` (sparse, dedup'd — the warmth-spectrum middle tier)."""
        positions = self._snapshots.get(action)
        if held:
            if positions is None:
                positions = set()
                self._snapshots[action] = positions
            positions.add(position)
        elif positions is not None:
            positions.discard(position)
            if not positions:
                del self._snapshots[action]

    def _compact(self) -> None:
        """Rebuild the heap from the authoritative loads (drops all corpses)."""
        self._heap = [(load, pos) for pos, load in enumerate(self._loads)]
        heapq.heapify(self._heap)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Policy queries
    # ------------------------------------------------------------------

    def least_loaded(self) -> int:
        """The position minimising ``(load, position)``.

        Pops stale heap entries until a live one surfaces; the heap
        always holds at least one live entry per position, so this
        terminates and the surfaced minimum is exact (ties break to the
        lowest position because entries order by ``(load, position)``).
        """
        heap, loads = self._heap, self._loads
        while True:
            load, position = heap[0]
            if load == loads[position]:
                return position
            heapq.heappop(heap)

    def warm_aware_choose(
        self, action: str, cold_penalty: float, restore_penalty: float = 0.0
    ) -> int:
        """The warm-aware argmin, without visiting every invoker.

        Returns ``min(range(n), key=lambda i: (load_i + penalty_i,
        load_i, i))`` where ``penalty_i`` is 0.0 for invokers warm for
        ``action``, ``restore_penalty`` for invokers holding only a
        restorable snapshot of it, and ``cold_penalty`` otherwise: the
        best candidate of each tier comes from its (small) set — warm
        set, snapshot set minus warm, and the load heap skipping both —
        and the final comparison uses those exact key tuples so float
        semantics and tie-breaks match a full scan bit for bit.
        """
        loads = self._loads
        warm = self._warm.get(action)
        snaps = self._snapshots.get(action)
        if not warm and not snaps:
            # Everyone pays the same penalty: plain least-loaded argmin.
            return self.least_loaded()

        def _tier_min(positions: Iterable[int], skip) -> Tuple[int, int]:
            best_pos = -1
            best_load = 0
            for position in positions:
                if skip is not None and position in skip:
                    continue
                load = loads[position]
                if (
                    best_pos < 0
                    or load < best_load
                    or (load == best_load and position < best_pos)
                ):
                    best_pos = position
                    best_load = load
            return best_pos, best_load

        keys: List[Tuple[float, int, int]] = []
        if warm:
            warm_pos, warm_load = _tier_min(warm, None)
            keys.append((warm_load + 0.0, warm_load, warm_pos))
        if snaps:
            snap_pos, snap_load = _tier_min(snaps, warm)
            if snap_pos >= 0:
                keys.append((snap_load + restore_penalty, snap_load, snap_pos))
        if warm and snaps:
            covered = len(warm | snaps)
        else:
            covered = len(warm or snaps or ())
        if covered < len(loads):
            # Walk the heap for the least-loaded *cold* position: stale
            # entries are discarded, live-but-covered entries are parked
            # and restored afterwards (they stay live for future queries).
            heap = self._heap
            parked: List[Tuple[int, int]] = []
            while True:
                load, position = heap[0]
                if load != loads[position]:
                    heapq.heappop(heap)
                    continue
                if (warm and position in warm) or (
                    snaps and position in snaps
                ):
                    parked.append(heapq.heappop(heap))
                    continue
                cold_pos, cold_load = position, load
                break
            for entry in parked:
                heapq.heappush(heap, entry)
            keys.append((cold_load + cold_penalty, cold_load, cold_pos))
        return min(keys)[2]

    # ------------------------------------------------------------------
    # Work-stealing queries
    # ------------------------------------------------------------------

    def any_queued(self) -> bool:
        """O(1): does any action have queued work anywhere in the cluster?

        False means no steal victim can exist (every steal needs queue
        depth >= 1 on some invoker), so the post-submit rebalance may
        return immediately instead of searching.
        """
        return bool(self._depths)

    def queued_actions(self) -> Iterable[str]:
        """Actions with queued work somewhere (superset of steal candidates)."""
        return self._depths.keys()

    def depths_for(self, action: str) -> Dict[int, int]:
        """Sparse ``{position: depth}`` of the action's non-empty queues."""
        return self._depths.get(action, {})

    def warm_positions(self, action: str) -> AbstractSet[int]:
        """The action's warm set: positions with a container, boot or restore.

        A superset of the invokers holding an idle warm container of the
        action, which is where an instant steal of it can land.
        """
        return self._warm.get(action, frozenset())

    # ------------------------------------------------------------------
    # Introspection / verification hooks
    # ------------------------------------------------------------------

    def load_of(self, position: int) -> int:
        """The indexed load of one position (test/verification surface)."""
        return self._loads[position]

    def verify(self) -> None:
        """Assert every index structure against a from-scratch recompute.

        Test hook: raises ``AssertionError`` on the first divergence
        between the incrementally maintained state and the ground truth
        recomputed from the invokers.  Each invoker's queued-pool record
        (the pools its dispatch walk visits) is checked the same way.
        """
        for position, invoker in enumerate(self.invokers):
            assert self._loads[position] == invoker.load, (
                f"load index stale at {position}: "
                f"{self._loads[position]} != {invoker.load}"
            )
        live = {(self._loads[pos], pos) for pos in range(len(self._loads))}
        assert live <= set(self._heap), "heap lost a live (load, position) entry"
        warm: Dict[str, Set[int]] = {}
        snapshots: Dict[str, Set[int]] = {}
        depths: Dict[str, Dict[int, int]] = {}
        for position, invoker in enumerate(self.invokers):
            queued = {}
            for pool in invoker._pools.values():
                action = pool.spec.name
                if len(pool.containers) + pool.cold_starting + pool.restoring > 0:
                    warm.setdefault(action, set()).add(position)
                if pool.snapshots:
                    snapshots.setdefault(action, set()).add(position)
                if len(pool.queue) > 0:
                    depths.setdefault(action, {})[position] = len(pool.queue)
                    queued[pool.seq] = pool
            assert invoker._queued_pools == queued, (
                f"queued-pool record stale at {position}: "
                f"{sorted(invoker._queued_pools)} != {sorted(queued)}"
            )
        assert warm == self._warm, f"warm sets diverged: {warm} != {self._warm}"
        assert snapshots == self._snapshots, (
            f"snapshot sets diverged: {snapshots} != {self._snapshots}"
        )
        assert depths == self._depths, (
            f"depth maps diverged: {depths} != {self._depths}"
        )
        deep = self.boot_steal_min_queue
        deep_queues = 0 if deep is None else sum(
            1
            for per_action in depths.values()
            for depth in per_action.values()
            if depth >= deep
        )
        assert deep_queues == self.deep_queues, (
            f"deep-queue count diverged: {deep_queues} != {self.deep_queues}"
        )
