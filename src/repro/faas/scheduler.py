"""Cluster scheduling: routing invocations across multiple invokers.

The paper's deployment has exactly one invoker, so its controller has no
routing decision to make.  Growing the substrate into a cluster introduces
the classic FaaS scheduling problem: which invoker should serve an
invocation, given that warm containers — the thing Groundhog's economics
depend on — live on specific invokers?

Four policies are provided.  The two load-based ones route from the
:class:`~repro.faas.index.ClusterIndex` the scheduler builds for them
(per-invoker load, warm and snapshot-holding invokers per action), so a
routing decision costs O(log N) rather than a scan over every invoker:

* ``round-robin`` — spread invocations evenly, ignoring warmth and load.
* ``least-loaded`` — send each invocation to the invoker with the fewest
  busy cores plus backlogged boots plus waiting invocations.
* ``hash-affinity`` — the OpenWhisk approach: every action hashes to a
  *home* invoker and its invocations go there, maximising warm-container
  hits at the price of per-action load skew.
* ``warm-aware`` — least-loaded with the cold start priced in: an invoker
  that would have to boot a container for the action carries a load
  penalty, so traffic prefers warm invokers until their backlog outweighs
  a boot.  With the warmth spectrum on, invokers holding a restorable
  snapshot of the action form a middle tier priced by the (much smaller)
  restore penalty.

Deployment follows the same geometry regardless of policy: an action's
pre-warmed containers live on its home invoker, and every other invoker
merely *registers* the action so it can cold-start containers on demand if
the routing policy sends traffic its way.  This keeps the topology identical
across policies, so measured differences are purely due to routing.

**Work stealing** (``work_stealing=True``) complements any routing policy:
whenever an invoker reports spare capacity, the scheduler moves queued
invocations from saturated peers onto it.  Two kinds of steal exist:

* *Instant* steals — the thief has an idle warm container and a free core,
  so it takes the *oldest* queued invocation (the queue head) and
  dispatches it immediately.  This preserves the per-action FIFO
  discipline: the stolen invocation is exactly the one that would have
  been dispatched next.
* *Boot* steals — the victim's backlog for an action is deep
  (``boot_steal_min_queue``), the victim has no growth headroom left, and
  the thief has some, so it takes the *newest* queued invocation (the
  queue tail) and boots a container for it.  The request that would have
  waited longest seeds a new warm container on the idle invoker; the
  older requests keep their FIFO positions on the victim and typically
  finish during the boot.  This deliberately trades the stolen request's
  queue position for cluster capacity: arrivals that keep landing on the
  victim afterwards may overtake the one parked request.  Strict
  per-action FIFO dispatch order is therefore a guarantee of the
  instant-steal regime (set ``boot_steal_min_queue=None`` for it).

The search visits only invokers that could steal.  An instant steal's
thief holds an idle warm container of a queued action, so it sits in
that action's warm set in the cluster index (which also counts booting
and restoring containers), and some other invoker holds a queue of the
action.  While no queue is ``boot_steal_min_queue`` deep (the index
counts the queues that are), those are the only invokers tried; once one
is, the pass visits every invoker, since a boot steal's thief need not
hold the action at all.  Either way thieves are tried in index order,
and all steals happen inside event callbacks, so runs remain
deterministic.
"""

from __future__ import annotations

import zlib
from collections import Counter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Type

from repro.config import SCHEDULER_POLICIES
from repro.errors import PlatformError
from repro.faas.action import ActionSpec
from repro.faas.container import Container
from repro.faas.index import ClusterIndex
from repro.faas.invoker import CompletionCallback, Invoker
from repro.faas.request import Invocation
from repro.runtime.profiles import FunctionProfile

#: One entry of the steal search's per-pass candidate list: a
#: queued action, its ``(position, depth)`` queues in ascending position,
#: and whether any depth reaches ``boot_steal_min_queue``.
StealCandidate = Tuple[str, List[Tuple[int, int]], bool]


def estimated_service_seconds(profile: FunctionProfile) -> float:
    """Rough per-request container occupancy of one function profile.

    Execution plus an estimate of restoration (pagemap scan of the
    footprint + copy-back of the write set) plus fixed platform handling —
    the sizing heuristic the experiment drivers use for measurement
    windows, and the denominator of the calibrated warm-aware cold-start
    penalty (a boot costs ``boot_seconds / service_seconds`` requests'
    worth of core time).
    """
    restore_estimate = (
        profile.total_pages * 0.2e-6 + profile.dirtied_pages * 2.4e-6 + 0.002
    )
    return profile.exec_seconds * 1.4 + restore_estimate + 0.005


def home_index(action: str, num_invokers: int) -> int:
    """The stable home invoker of an action (hash of its name).

    Uses CRC-32 rather than :func:`hash` so the assignment is stable across
    interpreter runs (``PYTHONHASHSEED`` does not perturb it).
    """
    if num_invokers < 1:
        raise PlatformError("a cluster needs at least one invoker")
    return zlib.crc32(action.encode("utf-8")) % num_invokers


class SchedulingPolicy:
    """Base class: picks the invoker index that should serve an invocation."""

    name = "abstract"
    #: True for policies whose :meth:`select` consults a bound
    #: :class:`~repro.faas.index.ClusterIndex` (the scheduler only builds
    #: one when a consumer exists).
    uses_index = False

    def __init__(self) -> None:
        #: Bound by the scheduler whenever it routes this policy over more
        #: than one invoker and the policy ``uses_index``.
        self._index: Optional[ClusterIndex] = None

    def bind_index(self, index: ClusterIndex) -> None:
        """Give the policy the live cluster index to route from."""
        self._index = index

    def select(self, invokers: Sequence[Invoker], invocation: Invocation) -> int:
        raise NotImplementedError


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through the invokers, one invocation each."""

    name = "round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def select(self, invokers: Sequence[Invoker], invocation: Invocation) -> int:
        index = self._next % len(invokers)
        self._next += 1
        return index


class LeastLoadedPolicy(SchedulingPolicy):
    """Pick the invoker with the smallest load (ties go to the lowest index)."""

    name = "least-loaded"
    uses_index = True

    def select(self, invokers: Sequence[Invoker], invocation: Invocation) -> int:
        if len(invokers) == 1:
            return 0  # no routing decision to make
        # O(log N) amortised from the load-ordered index.
        assert self._index is not None, "least-loaded routes through a ClusterIndex"
        return self._index.least_loaded()


class HashAffinityPolicy(SchedulingPolicy):
    """Route every invocation of an action to the action's home invoker."""

    name = "hash-affinity"

    def select(self, invokers: Sequence[Invoker], invocation: Invocation) -> int:
        return home_index(invocation.action, len(invokers))


class WarmAwarePolicy(SchedulingPolicy):
    """Least-loaded with the cold start priced in.

    An invoker that already has containers (or boots in flight) for the
    action competes on its load alone; an invoker that would have to boot
    a fresh container carries a cold-start penalty in extra load units —
    the requests' worth of core time a boot costs.  Traffic therefore
    sticks to warm invokers while they are competitive and spills to a
    cold invoker only once the warm backlog outweighs a boot, which is
    exactly when paying for the boot is worth it.

    The penalty is the fixed ``cold_start_penalty`` constant (32 load
    units — a container initialisation runs hundreds of milliseconds
    against typical millisecond-scale functions, hence the large default)
    unless the action was :meth:`calibrate`\\ d, in which case the
    workload-derived boot/service-time ratio is used: a deployment can
    register each action's measured boot time against its estimated
    per-request service time, so heavyweight functions (few requests'
    worth per boot) spill earlier than lightweight ones (many requests'
    worth per boot).  The constant remains the fallback for actions
    without a calibration.

    With the warmth spectrum on, a third tier sits between warm and
    cold: an invoker that holds only a demoted *restorable snapshot* of
    the action carries the (much smaller) ``snapshot_restore_penalty`` of
    2 load units — or, when calibrated with ``restore_seconds``, the
    restore/service ratio — so traffic prefers live-warm invokers, then snapshot
    holders, then cold boots, each priced by what serving there would
    actually cost.  With the spectrum off no snapshots exist, the middle
    tier never fires, and the scoring is byte-identical to before.
    """

    name = "warm-aware"
    uses_index = True
    #: Load units an uncalibrated action's snapshot restore costs.
    snapshot_restore_penalty = 2.0

    def __init__(self, cold_start_penalty: float = 32.0) -> None:
        super().__init__()
        if cold_start_penalty < 0:
            raise PlatformError("cold_start_penalty must be >= 0")
        self.cold_start_penalty = cold_start_penalty
        #: Per-action calibrated penalties (boot/service-time ratios).
        self._calibrated: Dict[str, float] = {}
        #: Per-action calibrated restore penalties (restore/service ratios).
        self._calibrated_restore: Dict[str, float] = {}

    def calibrate(
        self,
        action: str,
        *,
        boot_seconds: float,
        service_seconds: float,
        restore_seconds: Optional[float] = None,
    ) -> float:
        """Derive and register the action's penalty from workload estimates.

        Returns the cold penalty: how many requests' worth of core time
        one container boot costs for this action.  ``restore_seconds``
        additionally calibrates the snapshot-restore tier (the
        restore/service ratio) for spectrum-enabled clusters.
        """
        if boot_seconds < 0:
            raise PlatformError("boot_seconds must be >= 0")
        if service_seconds <= 0:
            raise PlatformError("service_seconds must be positive")
        penalty = boot_seconds / service_seconds
        self._calibrated[action] = penalty
        if restore_seconds is not None:
            if restore_seconds < 0:
                raise PlatformError("restore_seconds must be >= 0")
            self._calibrated_restore[action] = restore_seconds / service_seconds
        return penalty

    def penalty_for(self, action: str) -> float:
        """The action's cold-start penalty (calibrated, else the constant)."""
        return self._calibrated.get(action, self.cold_start_penalty)

    def restore_penalty_for(self, action: str) -> float:
        """The action's snapshot-restore penalty (calibrated, else constant)."""
        return self._calibrated_restore.get(action, self.snapshot_restore_penalty)

    def select(self, invokers: Sequence[Invoker], invocation: Invocation) -> int:
        if len(invokers) == 1:
            return 0  # no routing decision to make
        # Warm/snapshot sets plus the load heap: the argmin of
        # (load + penalty, load, index) without visiting every invoker.
        assert self._index is not None, "warm-aware routes through a ClusterIndex"
        action = invocation.action
        return self._index.warm_aware_choose(
            action, self.penalty_for(action), self.restore_penalty_for(action)
        )


_POLICY_CLASSES: Mapping[str, Type[SchedulingPolicy]] = MappingProxyType({
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    HashAffinityPolicy.name: HashAffinityPolicy,
    WarmAwarePolicy.name: WarmAwarePolicy,
})

# Unconditional (not an assert): must hold even under `python -O`, so a
# policy added to config.SCHEDULER_POLICIES without a class fails at import
# rather than deep inside cluster construction.
if set(_POLICY_CLASSES) != set(SCHEDULER_POLICIES):
    raise RuntimeError(
        "scheduler policy registry is out of sync with config.SCHEDULER_POLICIES"
    )


def create_policy(name: str) -> SchedulingPolicy:
    """Instantiate a scheduling policy by its registry name."""
    try:
        return _POLICY_CLASSES[name]()
    except KeyError:
        raise PlatformError(
            f"unknown scheduling policy {name!r}; choose one of {sorted(_POLICY_CLASSES)}"
        ) from None


class Scheduler:
    """Routes invocations across a set of invokers under one policy.

    Exposes the same ``submit(invocation, callback)`` surface as a single
    :class:`~repro.faas.invoker.Invoker`, so the controller can sit in front
    of either without knowing which it has.

    With ``work_stealing=True`` the scheduler additionally rebalances after
    every routing decision and whenever an invoker signals spare capacity,
    moving queued invocations from saturated invokers onto idle ones (see
    the module docstring for the two steal kinds and their FIFO
    guarantees).  ``boot_steal_min_queue`` is the backlog depth at which an
    idle invoker is allowed to boot a container for a peer's action;
    ``None`` restricts stealing to instant (warm-container) steals only.
    """

    def __init__(
        self,
        invokers: Sequence[Invoker],
        policy: SchedulingPolicy,
        *,
        work_stealing: bool = False,
        boot_steal_min_queue: Optional[int] = 8,
    ) -> None:
        if not invokers:
            raise PlatformError("a scheduler needs at least one invoker")
        if boot_steal_min_queue is not None and boot_steal_min_queue < 1:
            raise PlatformError("boot_steal_min_queue must be >= 1 or None")
        self.invokers = list(invokers)
        self.policy = policy
        self.work_stealing = work_stealing
        self.boot_steal_min_queue = boot_steal_min_queue
        self.routed_per_invoker: List[int] = [0] * len(self.invokers)
        #: Invocations moved between invokers by work stealing.
        self.steals = 0
        self._rebalancing = False
        #: The incrementally-maintained cluster index (``None`` when the
        #: cluster has one invoker or nothing consumes it: a policy that
        #: ``uses_index`` or work stealing).
        self.index: Optional[ClusterIndex] = None
        if len(self.invokers) > 1 and (work_stealing or policy.uses_index):
            # Only the steal search reads the index's deep-queue count.
            self.index = ClusterIndex(
                self.invokers, boot_steal_min_queue if work_stealing else None
            )
            policy.bind_index(self.index)
        if self.work_stealing and len(self.invokers) > 1:
            for invoker in self.invokers:
                invoker.spare_capacity_callback = self._on_spare_capacity

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(
        self,
        spec: ActionSpec,
        *,
        containers: int,
        max_containers: int,
    ) -> List[Container]:
        """Install an action cluster-wide; pre-warm only the home invoker.

        Returns the home invoker's pre-warmed containers (the cluster
        analogue of the single-invoker deploy result).
        """
        home = home_index(spec.name, len(self.invokers))
        deployed: List[Container] = []
        for index, invoker in enumerate(self.invokers):
            if index == home:
                deployed = invoker.deploy(
                    spec, containers=containers, max_containers=max_containers
                )
            else:
                invoker.register(spec, max_containers=max_containers)
        return deployed

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def submit(self, invocation: Invocation, callback: CompletionCallback) -> None:
        """Route one invocation to the invoker chosen by the policy."""
        index = self.policy.select(self.invokers, invocation)
        if not 0 <= index < len(self.invokers):
            raise PlatformError(
                f"policy {self.policy.name!r} selected invalid invoker {index}"
            )
        self.routed_per_invoker[index] += 1
        if invocation.trace is not None:
            # Fields only — the scheduler holds no clock; the matching
            # timestamp is the invoker-side arrival stamped next.
            invocation.trace.route(self.policy.name, index)
        self.invokers[index].submit(invocation, callback)
        self._rebalance()

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------

    def _on_spare_capacity(self, invoker: Invoker) -> None:
        self._rebalance()

    def _rebalance(self) -> None:
        """Steal queued work onto invokers with spare capacity.

        Runs passes until one makes no steal.  The search order (thieves
        by index, the thief's actions in pool order, victims by deepest
        queue with ties to the lowest index) is fixed, so two identical
        runs steal identically — determinism is preserved.

        Each pass asks the index which invokers could steal at all
        (:meth:`_possible_thieves`) and visits only those: every invoker
        while some queue is deep enough to boot-steal from, otherwise
        only those warm for a queued action that another invoker holds a
        queue of.  A pass of instant steals only lowers queues and
        dispatches at once on the thief, so no invoker becomes a possible
        thief later in it.  A thief without a free core is skipped before
        any per-action work.  The steal candidates are built for the
        first visited thief with a free core and rebuilt after every
        steal.
        """
        if not self.work_stealing or len(self.invokers) < 2 or self._rebalancing:
            return
        index = self.index
        assert index is not None  # work stealing over >1 invoker builds one
        if not index.any_queued():
            # Event-driven fast path: no queued work anywhere means no
            # steal victim can exist.  This is the common case after most
            # submits — the search only runs on real pressure.
            return
        self._rebalancing = True
        try:
            progressed = True
            while progressed:
                progressed = False
                candidates: Optional[List[StealCandidate]] = None
                for thief in self._possible_thieves():
                    if thief.cores_in_use >= thief.cores:
                        continue
                    if candidates is None:
                        candidates = self._steal_candidates()
                    steal = self._find_steal(thief, candidates)
                    if steal is None:
                        continue
                    victim, action, newest = steal
                    entry = victim.release_queued(action, newest=newest)
                    thief.adopt(*entry)
                    self.steals += 1
                    progressed = True
                    candidates = None  # the steal moved queued work
        finally:
            self._rebalancing = False

    def _steal_candidates(self) -> List[StealCandidate]:
        """The steal search's per-pass view of queued work.

        One entry per action with queued work somewhere: the action, its
        non-empty queues as ``(position, depth)`` pairs in ascending
        position (the victim search's walk order), and whether any depth
        reaches ``boot_steal_min_queue`` (without one, no boot steal of
        the action is possible).  Valid until a steal changes queue state.
        """
        index = self.index
        assert index is not None
        deep = self.boot_steal_min_queue
        candidates: List[StealCandidate] = []
        for action in index.queued_actions():
            depths = sorted(index.depths_for(action).items())
            boot = deep is not None and max(depth for _pos, depth in depths) >= deep
            candidates.append((action, depths, boot))
        return candidates

    def _possible_thieves(self) -> Sequence[Invoker]:
        """The invokers a steal pass visits, by ascending index.

        Every invoker while some queue is ``boot_steal_min_queue`` deep:
        a boot steal's thief need not hold the action at all.  Otherwise
        only instant steals are possible, and one needs an idle warm
        container of a queued action on the thief (so a position in the
        action's warm set) and a queue of the action at another position.
        Every invoker left out would find no steal.
        """
        index = self.index
        assert index is not None
        if index.deep_queues:
            return self.invokers
        positions: Set[int] = set()
        for action in index.queued_actions():
            depths = index.depths_for(action)
            warm = index.warm_positions(action)
            if len(depths) > 1:
                positions |= warm
            else:
                # The only queue's holder has no victim elsewhere.
                positions |= warm - depths.keys()
        return [self.invokers[position] for position in sorted(positions)]

    def _find_steal(
        self,
        thief: Invoker,
        candidates: Sequence[StealCandidate],
    ) -> Optional[Tuple[Invoker, str, bool]]:
        """The best (victim, action, steal-from-tail) for ``thief``, if any.

        Instant steals come first: an idle warm container plus a free core
        serves a victim's queue head right now, cold-start free.  Boot
        steals follow, only for deep backlogs on victims that cannot add
        capacity themselves, and only tail entries — the stolen request
        pays the boot it would have effectively waited for anyway, and the
        new container makes the thief warm.  Actions with an idle warm
        container here are never boot-stolen: booting another container
        while one sits idle would be pure waste.

        ``candidates`` is a :meth:`_steal_candidates` result (an action
        with no queued work anywhere can never yield a victim).  Within
        each kind, actions are tried in the thief's pool creation order
        and the first one with a victim wins.  Boot-steal headroom checks
        run only for actions with a queue deep enough to boot-steal from.
        """
        if thief.cores_in_use >= thief.cores:
            return None
        thief_position = thief.index_position
        instant: List[Tuple[int, str, List[Tuple[int, int]]]] = []
        for action, depths, _boot in candidates:
            if thief.has_idle(action):
                instant.append((thief.pool_order(action), action, depths))
        instant.sort()
        for _seq, action, depths in instant:
            victim = self._steal_victim(action, depths, thief_position, min_queue=1)
            if victim is not None:
                return victim, action, False
        if self.boot_steal_min_queue is None:
            return None
        growable: List[Tuple[int, str, List[Tuple[int, int]]]] = []
        for action, depths, boot in candidates:
            if (
                boot
                and not thief.has_idle(action)
                and thief.growth_headroom(action) > 0
            ):
                growable.append((thief.pool_order(action), action, depths))
        growable.sort()
        for _seq, action, depths in growable:
            if not thief.queue_capacity(action):
                # A boot steal parks the stolen invocation in the thief's
                # queue; never overfill a bounded queue to do so (adopted
                # work is exempt from shedding, so the bound is enforced
                # here, at the steal decision).
                continue
            victim = self._steal_victim(
                action, depths, thief_position,
                min_queue=self.boot_steal_min_queue,
                require_exhausted=True,
            )
            if victim is not None:
                return victim, action, True
        return None

    def _steal_victim(
        self,
        action: str,
        depths: Sequence[Tuple[int, int]],
        thief_position: int,
        *,
        min_queue: int,
        require_exhausted: bool = False,
    ) -> Optional[Invoker]:
        """The peer with the deepest queue for ``action`` (ties: lowest index).

        Walks the action's non-empty queues (``depths``, ascending
        position).  ``require_exhausted`` additionally demands the victim
        has no growth headroom left for the action: as long as it can
        still boot its own container, a transient burst is its problem to
        absorb — spending a peer's core on a boot is only justified once
        the victim is capped.
        """
        best: Optional[Invoker] = None
        best_depth = 0
        for position, depth in depths:
            if position == thief_position:
                continue
            if depth < min_queue or depth <= best_depth:
                continue
            invoker = self.invokers[position]
            if require_exhausted and invoker.growth_headroom(action) > 0:
                continue
            best = invoker
            best_depth = depth
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queued_by_tenant(self) -> Dict[str, int]:
        """Cluster-wide waiting invocations per tenant, across all invokers."""
        totals: Counter = Counter()
        for invoker in self.invokers:
            totals.update(invoker.queued_by_tenant())
        return dict(totals)

    def routing_skew(self) -> float:
        """Max/mean invocations routed per invoker (1.0 = perfectly even).

        The hash-affinity collapse made visible: a policy that funnels hot
        actions onto few invokers shows a skew well above 1.  Returns 0.0
        before any invocation was routed.
        """
        total = sum(self.routed_per_invoker)
        if total == 0:
            return 0.0
        mean = total / len(self.routed_per_invoker)
        return max(self.routed_per_invoker) / mean

    def stats(self) -> List[Dict[str, object]]:
        """Per-invoker counter snapshots plus routing counts."""
        rows = []
        for routed, invoker in zip(self.routed_per_invoker, self.invokers):
            row = invoker.stats()
            row["routed"] = routed
            rows.append(row)
        return rows
