"""The invoker: the component that hosts containers and runs functions.

Mirrors the OpenWhisk invoker used in the paper's deployment (§5.1): it owns
the warm container pool of each deployed action, dispatches at most one
request at a time to each container, and keeps a container out of the pool
while its isolation mechanism performs post-request work (restoration).
Each container is pinned to one core; the invoker never runs more containers
concurrently than it has cores.

Beyond the paper's fixed pre-warmed pools, the invoker supports the cluster
substrate built on top of it:

* **Registered actions** — an action can be *registered* without pre-warmed
  containers (``register``); a cluster deploys warm containers only on an
  action's home invoker and registers it everywhere else.
* **Dynamic pools** — when a request arrives and the pool may still grow
  (``max_containers``), the invoker cold-starts a container on demand,
  paying the full initialisation cost (environment, runtime boot, warm-up,
  snapshot) before the container joins the idle pool.  Dynamic containers
  idle longer than the keep-alive are evicted by a cancellable timer;
  pre-warmed containers are never evicted.
* **Core-charged cold starts** — a container boot is CPU work: it occupies
  one invoker core for the whole initialisation, serialised against
  executing containers and against other boots.  Boots the invoker cannot
  start immediately wait in a FIFO backlog until a core frees (dispatching
  queued requests to warm containers takes priority over starting boots).
  This charges cold-start storms honestly: a load-blind policy that
  scatters requests onto cold invokers pays for every boot in core time.
* **Warmth spectrum** — with ``restorable_snapshots`` on, container state
  is live-warm > restorable-snapshot > cold: keep-alive eviction and
  drains *demote* dynamic containers to held snapshots (bounded by an
  invoker-wide ``snapshot_budget``, oldest demotion discarded first),
  and demand that misses live-warm revives the newest snapshot with an
  on-core *restore* priced by the configured isolation mechanism's
  restore model (:mod:`repro.faas.restorecost`) — orders of magnitude
  cheaper than a boot, but still core time, serialised through the same
  backlog as boots.  The spectrum off reproduces binary warm-vs-cold
  bit for bit.
* **Admission layer** — enqueueing, dequeue order, and shed choice live in
  a pluggable :class:`~repro.faas.admission.AdmissionQueue` per action
  (``fifo`` reproduces the historical arrival-order behaviour bit for bit;
  ``wfq`` is tenant-fair deficit round robin), with optional per-tenant
  token-bucket quotas (:class:`~repro.faas.admission.TenantQuotas`) that
  refuse over-rate callers with the distinct
  :attr:`~repro.faas.request.InvocationStatus.THROTTLED` status.
* **Backpressure** — each action's queue can be bounded
  (``max_queue_per_action``); on overflow the admission queue decides who
  is shed with :attr:`~repro.faas.request.InvocationStatus.REJECTED`: the
  incoming invocation under FIFO, the dominant tenant's newest entry under
  WFQ (so one tenant's burst cannot shed another tenant's traffic).
* **Reactive autoscaling** — an attached
  :class:`~repro.faas.admission.ReactiveAutoscaler` raises each action's
  ``max_containers`` ceiling under queue/rejection pressure and lowers it
  when keep-alive eviction reclaims idle containers.
* **Warmth surface** — :meth:`Invoker.snapshot` exports a structured view
  (idle-warm containers per action, queue depth — total and per tenant —
  boots in flight, cores in use) that the control plane consumes instead
  of a single scalar load, the same state is pushed as O(1) deltas to an
  attached :class:`~repro.faas.index.ClusterIndex` for routing, and
  :meth:`Invoker.release_queued` /
  :meth:`Invoker.adopt` let a cluster scheduler move queued invocations
  between invokers (work stealing) *through the admission queue*, so
  steals dequeue in the same fair order as local dispatch.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.config import ADMISSION_POLICIES, DEFAULT_KEEP_ALIVE_SECONDS
from repro.errors import ActionNotFoundError, PlatformError
from repro.faas.action import ActionSpec
from repro.faas.admission import (
    AdmissionQueue,
    ReactiveAutoscaler,
    TenantQuotas,
    WeightedFairQueue,
    create_admission_queue,
)
from repro.faas.container import Container, ContainerExecution
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.restorecost import restore_seconds_for
from repro.kernel.kernel import SimKernel
from repro.sim.events import Event, EventLoop, RecurringTimer
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.rng import fallback_stream

CompletionCallback = Callable[[Invocation], None]

#: Cap on retained per-invoker cold-start/cold-dispatch timestamps.  The
#: stamps feed windowed attribution (e.g. "cold starts on the rising
#: diurnal edge"), which only ever looks at the recent past; keeping the
#: newest 64 Ki bounds invoker memory on million-invocation traces while
#: leaving every experiment in this repo (≪ the cap) byte-identical.
COLD_EVENT_SAMPLE_CAP = 65536

#: How an invoker builds per-action admission queues: a registry name
#: (``"fifo"``/``"wfq"``) or a zero-argument factory for custom policies
#: (e.g. a :class:`~repro.faas.admission.WeightedFairQueue` with weights).
AdmissionFactory = Union[str, Callable[[], AdmissionQueue]]


@dataclass
class _ActionPool:
    """Warm containers and the waiting queue of one action."""

    spec: ActionSpec
    #: The pluggable waiting queue (admission order + shed choice).
    queue: AdmissionQueue
    #: Ceiling on containers this invoker may host for the action.
    max_containers: int = 1
    #: How many containers were pre-warmed at deploy time (the eviction floor).
    prewarmed: int = 0
    containers: List[Container] = field(default_factory=list)
    idle: Deque[Container] = field(default_factory=deque)
    #: Cold starts in flight (booting on a core or waiting in the backlog,
    #: not yet in the pool).
    cold_starting: int = 0
    #: Held restorable snapshots (demoted containers) of this action, in
    #: demotion order — :meth:`Invoker._begin_restore` revives the newest
    #: first (the most recently live image).  Snapshots are not live
    #: containers: they serve nothing and count toward no warm pool until
    #: an on-core restore (priced by the configured isolation mechanism)
    #: returns them to ``idle``.
    snapshots: Deque[Container] = field(default_factory=deque)
    #: Snapshot restores in flight (on a core or waiting in the backlog,
    #: not yet back in the pool) — the restore-side twin of
    #: ``cold_starting``.
    restoring: int = 0
    #: Invocations shed from this action's queue over the pool's lifetime
    #: (the autoscaler's rejection-pressure signal).
    rejected: int = 0
    #: Invocations submitted to this pool over its lifetime (counted at
    #: arrival, before quota/backpressure decide their fate — the offered
    #: demand signal a forecaster consumes).  Adopted steals are not
    #: re-counted: the victim already recorded that arrival.
    arrivals: int = 0
    #: Recent arrival timestamps (bounded; oldest dropped first) — an
    #: observability surface finer-grained than the cumulative counter
    #: the forecaster consumes.
    arrival_times: Deque[float] = field(default_factory=lambda: deque(maxlen=4096))
    #: This pool's current contribution to the invoker's incrementally
    #: maintained uncovered-queue total: ``max(0, len(queue) -
    #: cold_starting - restoring)`` as of the last state transition.
    uncovered: int = 0
    #: Creation sequence number (== the pool's position in the invoker's
    #: insertion-ordered pool dict).  The steal search sorts candidate
    #: actions by this, and the invoker's queued-pool record is keyed by
    #: it, so both visit pools in creation order.
    seq: int = 0


@dataclass(frozen=True)
class InvokerSnapshot:
    """A structured view of one invoker's instantaneous state.

    This is the signal surface the control plane consumes: instead of a
    single scalar load it sees *where* the warm containers are, how much
    work is already waiting, and how many boots are in flight — the
    ingredients a warmth-aware placement decision needs.
    """

    invoker_id: str
    #: Total cores and cores currently occupied (execution, restoration,
    #: or a container boot — boots are charged to cores).
    cores: int
    cores_in_use: int
    #: Boots occupying a core right now / waiting in the backlog for one.
    booting: int
    pending_boots: int
    #: Invocations waiting in per-action queues, total.
    queued: int
    #: Waiting invocations not already covered by a cold start in flight.
    #: A queued invocation whose boot is underway represents the *same*
    #: unit of demand as that boot, so the load metric counts it once.
    queued_uncovered: int
    #: Waiting invocations per tenant across all actions (the fairness
    #: signal surface: who is occupying this invoker's queue slots).
    queued_by_tenant: Mapping[str, int]
    #: Idle warm containers per action (only actions with at least one).
    idle_warm: Mapping[str, int]
    #: All containers per action, busy or idle (only non-empty pools).
    warm_total: Mapping[str, int]
    #: Boots *and snapshot restores* in flight per action (only actions
    #: with at least one) — both occupy (or wait for) a core and both end
    #: with a container joining the pool, so warmth-aware consumers see
    #: them as capacity already underway.
    boots_in_flight: Mapping[str, int]
    #: Further containers the invoker may still boot, per action.
    growth_headroom: Mapping[str, int]
    #: Waiting invocations per action (only actions with at least one) —
    #: the cluster-level demand signal a capacity planner aggregates.
    queued_per_action: Mapping[str, int] = field(default_factory=dict)
    #: Deploy-time pre-warmed containers per action (the eviction floor;
    #: only actions with at least one).  Together with ``warm_total`` this
    #: makes planner-seeded capacity observable: ``warm_total - prewarmed``
    #: is the dynamic (migratable) part of each pool.
    prewarmed: Mapping[str, int] = field(default_factory=dict)
    #: Lifetime invocations submitted per action (only actions with at
    #: least one) — the arrival-demand signal a forecasting control plane
    #: differences tick over tick to estimate per-action arrival rates.
    arrivals_total: Mapping[str, int] = field(default_factory=dict)
    #: Held restorable snapshots per action (only actions with at least
    #: one): capacity the invoker can revive with a cheap on-core restore
    #: instead of a full boot — the middle tier of the warmth spectrum.
    snapshots_held: Mapping[str, int] = field(default_factory=dict)

    @property
    def load(self) -> int:
        """The least-loaded metric: busy cores + backlogged boots + queue.

        Queued invocations already covered by a boot in flight are not
        added again — the boot (on a core or in ``pending_boots``) already
        represents that demand.
        """
        return self.cores_in_use + self.pending_boots + self.queued_uncovered

    @property
    def free_cores(self) -> int:
        """Cores with nothing to run right now."""
        return self.cores - self.cores_in_use

    def warmth(self, action: str) -> int:
        """Containers (existing, booting, or restoring) for ``action``."""
        return self.warm_total.get(action, 0) + self.boots_in_flight.get(action, 0)

    def restorable(self, action: str) -> int:
        """Held snapshots of ``action`` (the restorable warmth tier)."""
        return self.snapshots_held.get(action, 0)


class _Dispatched:
    """One invocation running on one container, from dispatch to release.

    Holds what the two events a dispatch schedules need: ``complete``
    answers the caller when the critical path ends, ``release`` returns
    the container and its core once the mechanism's post-request work is
    done.  Its bound methods are those events' callbacks, so a dispatch
    builds this one record instead of two closures.  It keeps both event
    handles, which is what listing or cancelling in-flight work needs; a
    handle is dropped once its event has fired, so the record and the
    event do not keep each other alive.
    """

    __slots__ = (
        "invoker",
        "pool",
        "container",
        "invocation",
        "callback",
        "execution",
        "complete_event",
        "release_event",
    )

    def __init__(
        self,
        invoker: "Invoker",
        pool: _ActionPool,
        container: Container,
        invocation: Invocation,
        callback: CompletionCallback,
        execution: ContainerExecution,
    ) -> None:
        self.invoker = invoker
        self.pool = pool
        self.container = container
        self.invocation = invocation
        self.callback = callback
        self.execution = execution
        self.complete_event: Optional[Event] = None
        self.release_event: Optional[Event] = None

    def complete(self) -> None:
        """The critical path is over: record the result and answer."""
        self.complete_event = None
        invocation = self.invocation
        report = self.execution.report
        invocation.report = report
        invocation.mark_completed(self.invoker.loop.now, report.result.response)
        self.invoker.invocations_completed += 1
        self.callback(invocation)

    def release(self) -> None:
        """Post-request work is done: the container and its core are free."""
        self.release_event = None
        invoker = self.invoker
        container = self.container
        pool = self.pool
        invoker._cores_in_use -= 1
        container.idle_since = invoker.loop.now
        pool.idle.append(container)
        invoker._touch_pool(pool)
        invoker._drain_queues()


class Invoker:
    """Hosts containers and executes invocations on a fixed number of cores."""

    def __init__(
        self,
        loop: EventLoop,
        *,
        cores: int = 1,
        kernel: Optional[SimKernel] = None,
        cost_model: Optional[CostModel] = None,
        rng: Optional[random.Random] = None,
        verify_isolation: bool = False,
        invoker_id: str = "invoker-0",
        max_queue_per_action: Optional[int] = None,
        keep_alive_seconds: float = DEFAULT_KEEP_ALIVE_SECONDS,
        admission: AdmissionFactory = "fifo",
        quotas: Optional[TenantQuotas] = None,
        restorable_snapshots: bool = False,
        snapshot_budget: Optional[int] = None,
        isolation_mechanism: str = "gh",
        restore_pricer: Optional[Callable[[Container], float]] = None,
        tracer=None,
    ) -> None:
        if cores < 1:
            raise PlatformError("an invoker needs at least one core")
        if keep_alive_seconds <= 0:
            raise PlatformError("keep_alive_seconds must be positive")
        if max_queue_per_action is not None and max_queue_per_action < 1:
            raise PlatformError("max_queue_per_action must be >= 1 or None")
        if snapshot_budget is not None:
            if not restorable_snapshots:
                raise PlatformError("snapshot_budget requires restorable_snapshots")
            if snapshot_budget < 0:
                raise PlatformError("snapshot_budget must be >= 0 or None")
        if isinstance(admission, str) and admission not in ADMISSION_POLICIES:
            raise PlatformError(
                f"unknown admission policy {admission!r}; "
                f"choose one of {ADMISSION_POLICIES}"
            )
        self.loop = loop
        self.cores = cores
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.kernel = kernel if kernel is not None else SimKernel(self.cost_model)
        self.rng = rng if rng is not None else fallback_stream("faas.invoker")
        self.verify_isolation = verify_isolation
        self.invoker_id = invoker_id
        self.max_queue_per_action = max_queue_per_action
        self.keep_alive_seconds = keep_alive_seconds
        self._admission = admission
        #: Shared (usually cluster-wide) per-tenant admission quotas.
        self.quotas = quotas
        #: The warmth spectrum: when True, keep-alive eviction and drains
        #: *demote* dynamic containers to held restorable snapshots, and
        #: demand revives them with an on-core restore priced by
        #: ``isolation_mechanism`` instead of a full boot.  Off (the
        #: default), evictions destroy containers — the binary
        #: warm-vs-cold behaviour, bit for bit.
        self.restorable_snapshots = restorable_snapshots
        #: Cap on held snapshots across all pools (None = unbounded);
        #: exceeding demotes discard the least-recently-demoted snapshot.
        self.snapshot_budget = snapshot_budget
        #: Which mechanism's restore model prices snapshot restores.
        self.isolation_mechanism = isolation_mechanism
        #: Test/experiment override: a ``Container -> seconds`` pricer
        #: used instead of the mechanism model when provided.
        self.restore_pricer = restore_pricer
        #: Flight recorder (a ``repro.faas.obs.TraceRecorder``) shared
        #: cluster-wide, or ``None`` with tracing off — every
        #: instrumentation site below guards on that, so the untraced
        #: path allocates nothing and changes no scheduling.
        self.tracer = tracer
        #: Held snapshots across all pools in demotion order — the
        #: invoker-wide LRU the snapshot budget discards from.
        self._snapshot_lru: Deque[Tuple[_ActionPool, Container]] = deque()
        #: Attached by :meth:`ReactiveAutoscaler.attach`; None = static
        #: per-action container ceilings.
        self.autoscaler: Optional[ReactiveAutoscaler] = None
        self._pools: Dict[str, _ActionPool] = {}
        #: The pools with queued work, keyed by ``_ActionPool.seq`` and kept
        #: exact by :meth:`_touch_pool` (every queue push and pop passes
        #: through it).  Dispatch and the all-action queue totals visit these
        #: in ascending ``seq`` — the pool-order walk — instead of every
        #: deployed pool.
        self._queued_pools: Dict[int, _ActionPool] = {}
        self._cores_in_use = 0
        #: Boots currently occupying a core.
        self._booting = 0
        #: Boots and snapshot restores waiting for a free core, in request
        #: order.  The third element prices the work: ``None`` for a full
        #: boot (cost comes from ``initialize()``), or the restore's
        #: pre-computed core-seconds for a snapshot revival.
        self._boot_backlog: Deque[
            Tuple[_ActionPool, Container, Optional[float]]
        ] = deque()
        #: Incrementally maintained sum of ``max(0, queue - cold_starting)``
        #: over all pools — the queue term of :attr:`load`, kept O(1) by
        #: per-pool deltas at every state transition (see ``_touch_pool``).
        self._queued_uncovered = 0
        #: Monotone counter bumped at every cluster-visible state change;
        #: :meth:`snapshot` reuses its cached result while it is unchanged.
        self._state_version = 0
        self._snapshot_cache: Optional[InvokerSnapshot] = None
        self._snapshot_version = -1
        #: Cluster index attachment (see :class:`~repro.faas.index.
        #: ClusterIndex`): a listener fed O(1) load/queue-depth/warmth
        #: deltas at state-transition points, and this invoker's position
        #: in the cluster's invoker list.  ``None``/-1 when unattached.
        self.index_listener = None
        self.index_position = -1
        self._eviction_timer: Optional[RecurringTimer] = None
        #: Hook a cluster scheduler installs to learn when this invoker has
        #: a free core it cannot use (nothing dispatchable, no boot to
        #: start) — the moment work stealing becomes worthwhile.
        self.spare_capacity_callback: Optional[Callable[["Invoker"], None]] = None
        self.invocations_submitted = 0
        self.invocations_dispatched = 0
        self.invocations_completed = 0
        self.invocations_rejected = 0
        #: Invocations refused because their tenant exhausted its quota.
        self.invocations_throttled = 0
        #: Dispatches served by an already-warm container (every dispatch
        #: except the first request of a dynamically booted container whose
        #: boot completed after the request was submitted — i.e. the boot
        #: was on that request's critical path).
        self.warm_hits = 0
        #: Containers cold-started *on demand* over the invoker's lifetime
        #: (counted when the boot is requested; see ``boots_cancelled``).
        #: Control-plane seeds boot off the demand path and are counted in
        #: ``prewarms`` instead, so this counter keeps meaning "boots that
        #: queued work was waiting for".
        self.cold_starts = 0
        #: When each on-demand boot was requested (parallel to
        #: ``cold_starts``) — lets experiments attribute cold-start storms
        #: to windows of the run (e.g. the rising edge of a diurnal cycle).
        #: Bounded: only the most recent ``COLD_EVENT_SAMPLE_CAP`` stamps
        #: are retained so million-invocation traces stay O(1) per
        #: invoker; the scalar ``cold_starts`` counter is never truncated.
        self.cold_start_times: Deque[float] = deque(maxlen=COLD_EVENT_SAMPLE_CAP)
        #: When each *cold dispatch* happened: a request served by a
        #: container whose boot sat on its critical path (the complement
        #: of ``warm_hits``, time-resolved).  Bounded like
        #: ``cold_start_times``.
        self.cold_dispatch_times: Deque[float] = deque(maxlen=COLD_EVENT_SAMPLE_CAP)
        #: Backlogged boots cancelled before they reached a core (their
        #: demand disappeared, e.g. the queued work was stolen away).
        self.boots_cancelled = 0
        #: Core-seconds spent booting containers (the cold-start CPU bill).
        self.boot_core_seconds = 0.0
        #: Dynamic containers reclaimed by keep-alive eviction (or drained
        #: early by the control plane; see ``drains``).
        self.evictions = 0
        #: Containers booted proactively by a control plane (:meth:`prewarm`)
        #: rather than in response to queued demand.
        self.prewarms = 0
        #: Idle dynamic containers reclaimed early by :meth:`drain` (a
        #: subset of ``evictions``).
        self.drains = 0
        #: Invocations this invoker pulled from peers (work stealing).
        self.steals = 0
        #: Invocations peers pulled out of this invoker's queues.
        self.stolen_away = 0
        #: Dynamic containers demoted to held snapshots (instead of being
        #: destroyed) by keep-alive eviction or a drain.
        self.demotes = 0
        #: Held snapshots discarded to stay within ``snapshot_budget``.
        self.snapshot_discards = 0
        #: Snapshot restores begun (including zero-cost promotions).
        self.restores = 0
        #: When each restore was begun — the restore-side twin of
        #: ``cold_start_times``, same bound.
        self.restore_times: Deque[float] = deque(maxlen=COLD_EVENT_SAMPLE_CAP)
        #: Dispatches whose container was revived from a snapshot with the
        #: restore on the request's critical path — the middle dispatch
        #: class between ``warm_hits`` and cold dispatches.
        self.restore_dispatches = 0
        #: When each restore dispatch happened (bounded like
        #: ``cold_dispatch_times``).
        self.restore_dispatch_times: Deque[float] = deque(
            maxlen=COLD_EVENT_SAMPLE_CAP
        )
        #: Core-seconds spent restoring snapshots (the restore CPU bill,
        #: next to ``boot_core_seconds``).
        self.restore_core_seconds = 0.0

    # ------------------------------------------------------------------
    # Incremental state tracking (snapshot cache + cluster index feed)
    # ------------------------------------------------------------------

    def attach_index(self, listener, position: int) -> None:
        """Attach a cluster-index listener and backfill the current state.

        ``listener`` receives O(1) deltas at every state-transition point:
        ``load_changed(position, load)``, ``depth_changed(position, action,
        depth)``, ``warmth_changed(position, action, warm)`` and
        ``snapshot_changed(position, action, has_snapshot)``.  The
        listener is expected to deduplicate (notifications re-stating the
        current value are legal and common).
        """
        self.index_listener = listener
        self.index_position = position
        for pool in self._pools.values():
            listener.depth_changed(position, pool.spec.name, len(pool.queue))
            listener.warmth_changed(
                position,
                pool.spec.name,
                len(pool.containers) + pool.cold_starting + pool.restoring > 0,
            )
            listener.snapshot_changed(
                position, pool.spec.name, len(pool.snapshots) > 0
            )
        listener.load_changed(position, self.load)

    def _touch(self) -> None:
        """Mark cluster-visible state dirty; push the new load to the index."""
        self._state_version += 1
        listener = self.index_listener
        if listener is not None:
            listener.load_changed(
                self.index_position,
                self._cores_in_use + len(self._boot_backlog) + self._queued_uncovered,
            )

    def _touch_pool(self, pool: _ActionPool) -> None:
        """Re-derive one pool's demand contribution and notify the index.

        Called after any mutation that may have changed the pool's queue
        depth, cold-starts in flight, container set, or counters.  Keeps
        ``_queued_uncovered`` and the queued-pool record exact, then feeds
        the per-action queue depth and warmth to the attached index and
        bumps the snapshot version via :meth:`_touch`.
        """
        depth = len(pool.queue)
        if depth:
            self._queued_pools[pool.seq] = pool
        else:
            self._queued_pools.pop(pool.seq, None)
        uncovered = depth - pool.cold_starting - pool.restoring
        if uncovered < 0:
            uncovered = 0
        if uncovered != pool.uncovered:
            self._queued_uncovered += uncovered - pool.uncovered
            pool.uncovered = uncovered
        listener = self.index_listener
        if listener is not None:
            listener.depth_changed(self.index_position, pool.spec.name, depth)
            listener.warmth_changed(
                self.index_position,
                pool.spec.name,
                len(pool.containers) + pool.cold_starting + pool.restoring > 0,
            )
            listener.snapshot_changed(
                self.index_position, pool.spec.name, len(pool.snapshots) > 0
            )
        self._touch()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(
        self,
        spec: ActionSpec,
        containers: int = 1,
        *,
        max_containers: Optional[int] = None,
    ) -> List[Container]:
        """Deploy an action with ``containers`` pre-warmed container instances.

        Containers are initialised eagerly, mirroring the paper's setup that
        deliberately excludes cold starts from the measurements.  When
        ``max_containers`` exceeds ``containers``, the pool may additionally
        grow on demand (cold starts) up to that ceiling.
        """
        if containers < 1:
            raise PlatformError("an action needs at least one container")
        if max_containers is not None and max_containers < containers:
            raise PlatformError("max_containers must be >= the pre-warmed count")
        pool = self._new_pool(
            spec, containers if max_containers is None else max_containers
        )
        pool.prewarmed = containers
        for _ in range(containers):
            container = self._build_container(spec, dynamic=False)
            container.initialize()
            pool.containers.append(container)
            pool.idle.append(container)
        self._touch_pool(pool)
        return list(pool.containers)

    def register(self, spec: ActionSpec, *, max_containers: int = 1) -> None:
        """Make an action known without pre-warming any containers.

        The invoker will cold-start containers on demand (up to
        ``max_containers``) when invocations for the action arrive.  This is
        how a cluster installs an action on the invokers that are not its
        home: they can absorb overflow or rerouted traffic, but pay the
        cold-start cost when they do.
        """
        if max_containers < 1:
            raise PlatformError("a registered action needs max_containers >= 1")
        pool = self._new_pool(spec, max_containers)
        self._touch_pool(pool)

    def _new_pool(self, spec: ActionSpec, max_containers: int) -> _ActionPool:
        if spec.name in self._pools:
            raise PlatformError(f"action {spec.name!r} is already deployed")
        pool = _ActionPool(
            spec=spec,
            queue=self._new_queue(),
            max_containers=max_containers,
            seq=len(self._pools),
        )
        self._pools[spec.name] = pool
        return pool

    def _new_queue(self) -> AdmissionQueue:
        if callable(self._admission):
            return self._admission()
        return create_admission_queue(self._admission)

    def _build_container(self, spec: ActionSpec, *, dynamic: bool) -> Container:
        return Container(
            spec,
            kernel=self.kernel,
            cost_model=self.cost_model,
            rng=random.Random(self.rng.getrandbits(32)),
            dynamic=dynamic,
        )

    def pool(self, action: str) -> List[Container]:
        """The containers deployed for ``action``."""
        return list(self._require_pool(action).containers)

    def action_spec(self, action: str) -> ActionSpec:
        """The deployment descriptor of ``action``."""
        return self._require_pool(action).spec

    def hosts(self, action: str) -> bool:
        """True if the action is deployed or registered on this invoker."""
        return action in self._pools

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def submit(self, invocation: Invocation, callback: CompletionCallback) -> None:
        """Throttle, dispatch, queue, grow the pool for, or shed one invocation."""
        pool = self._require_pool(invocation.action)
        arrival = self.loop.now
        self.invocations_submitted += 1
        pool.arrivals += 1
        pool.arrival_times.append(arrival)
        trace = invocation.trace
        if trace is not None:
            trace.arrive(arrival, self.invoker_id)
        # Quota enforcement comes first: a tenant over its admission rate
        # is refused outright — even when capacity is free — with the
        # distinct THROTTLED status (policy, not backpressure).
        if self.quotas is not None and not self.quotas.admit(
            invocation.caller, arrival
        ):
            self.invocations_throttled += 1
            invocation.mark_throttled(
                arrival,
                f"{self.invoker_id}: tenant {invocation.caller!r} exceeded its "
                f"admission quota",
            )
            if trace is not None:
                trace.throttle(arrival)
            self._touch_pool(pool)
            callback(invocation)
            return
        invocation.status = InvocationStatus.QUEUED
        if self.restorable_snapshots:
            # A held snapshot whose restore is free is warm capacity in
            # all but name: promote it before the idle check so dispatch
            # sees it exactly as live-warm (the zero-cost spectrum is
            # observationally identical to never having demoted).
            self._promote_free_snapshot(pool)
        if pool.idle and self._cores_in_use < self.cores:
            self._dispatch(pool, invocation, callback, arrival)
            return
        # Shed before considering growth: an invocation the bounded queue
        # refuses is not demand, and must not trigger a container boot.
        # The admission queue picks the victim: FIFO always sheds the
        # newcomer; WFQ displaces the dominant tenant's newest entry so a
        # polite tenant's request still gets its slot.
        if (
            self.max_queue_per_action is not None
            and len(pool.queue) >= self.max_queue_per_action
        ):
            displaced = pool.queue.displace(invocation.caller)
            if displaced is None:
                self._shed(pool, invocation, callback)
                self._signal_autoscaler(pool)
                self._touch_pool(pool)
                return
            victim, victim_callback, _victim_arrival = displaced
            self._shed(pool, victim, victim_callback)
        self._maybe_cold_start(pool, waiting=len(pool.queue) + 1)
        if trace is not None:
            trace.enqueue(arrival)
        pool.queue.push((invocation, callback, arrival))
        self._signal_autoscaler(pool)
        self._touch_pool(pool)

    def _maybe_cold_start(self, pool: _ActionPool, *, waiting: int) -> None:
        """Grow the pool if ``waiting`` invocations outstrip the boots in flight.

        The demand-matched growth rule: boot another container only when
        the action is container-bound — no idle container exists and the
        boots already underway don't cover the waiting demand (``waiting``
        counts the queue plus any invocation about to join it).  When
        containers sit idle the bottleneck is cores, and another container
        would not help.

        Under the warmth spectrum, a held snapshot outranks a boot: the
        same demand that would have triggered a cold start instead begins
        an on-core *restore* (orders of magnitude cheaper), falling back
        to a boot only when no snapshot is held.
        """
        if pool.idle:
            return
        if pool.cold_starting + pool.restoring >= waiting:
            return
        if self.restorable_snapshots and pool.snapshots:
            self._begin_restore(pool)
            return
        if self._can_cold_start(pool):
            self._cold_start(pool)

    def _shed(
        self, pool: _ActionPool, invocation: Invocation, callback: CompletionCallback
    ) -> None:
        """Reject one invocation the bounded queue has no room for."""
        self.invocations_rejected += 1
        pool.rejected += 1
        invocation.mark_rejected(
            self.loop.now,
            f"{self.invoker_id}: queue for {invocation.action!r} is full "
            f"({self.max_queue_per_action} waiting)",
        )
        if invocation.trace is not None:
            invocation.trace.reject(self.loop.now, invocation.error)
        callback(invocation)

    def _signal_autoscaler(self, pool: _ActionPool) -> None:
        if self.autoscaler is not None:
            self.autoscaler.observe(pool.spec.name, len(pool.queue), pool.rejected)

    def _dispatch(
        self,
        pool: _ActionPool,
        invocation: Invocation,
        callback: CompletionCallback,
        arrival: float,
    ) -> None:
        container = pool.idle.popleft()
        self._cores_in_use += 1
        now = self.loop.now
        invocation.dispatched_at = now
        invocation.queue_seconds = now - arrival
        invocation.status = InvocationStatus.RUNNING
        self.invocations_dispatched += 1
        # Three dispatch classes, checked most-specific first.  A *restore*
        # dispatch is the first request of a container revived from a held
        # snapshot whose restore finished after the request was submitted
        # — the restore sat on its critical path (far shorter than a
        # boot, but not free).  A dispatch is a *cold* start only when it
        # is the first request of a dynamically booted container whose
        # boot finished after the request was submitted.  Everything else
        # — including the first request of a container pre-warmed or
        # restored *ahead* of it — is a warm hit: that is precisely the
        # service pre-warming (and snapshot-holding) buys.
        if (
            container.restored_from_snapshot
            and container.requests_served == container.requests_served_at_restore
            and container.ready_at > invocation.submitted_at
        ):
            self.restore_dispatches += 1
            self.restore_dispatch_times.append(now)
            dispatch_class = "restore"
        elif not (
            container.dynamic
            and container.requests_served == 0
            and container.ready_at > invocation.submitted_at
        ):
            self.warm_hits += 1
            dispatch_class = "warm"
        else:
            self.cold_dispatch_times.append(now)
            dispatch_class = "cold"
        trace = invocation.trace
        if trace is not None:
            trace.dispatch(
                now, dispatch_class, container.container_id, container.ready_at
            )

        execution = container.execute(invocation, verify=self.verify_isolation)
        invocation.invoker_seconds = execution.invoker_seconds
        if trace is not None:
            trace.execute_seconds = execution.invoker_seconds
        completion_time = now + execution.invoker_seconds
        available_time = completion_time + execution.unavailable_seconds
        run = _Dispatched(self, pool, container, invocation, callback, execution)
        run.complete_event = self.loop.schedule_at(
            completion_time, run.complete, label=f"complete:{invocation.invocation_id}"
        )
        run.release_event = self.loop.schedule_at(
            available_time, run.release, label=f"release:{container.container_id}"
        )
        self._touch_pool(pool)

    def _drain_queues(self) -> None:
        """Use freed cores: dispatch queued work, then start pending boots.

        Dispatching to warm containers takes priority over starting boots —
        a warm container serves a request in milliseconds while a boot
        occupies its core for the whole initialisation.  If cores remain
        free after both, the spare-capacity hook fires so a cluster
        scheduler can steal work from saturated peers.

        Each pass visits the pools with queued work in creation order, one
        dispatch per pool per pass; pools with empty queues are skipped
        without being looked at (a pass changes no other pool's queue).
        """
        progressed = True
        while progressed and self._cores_in_use < self.cores and self._queued_pools:
            progressed = False
            for _seq, pool in sorted(self._queued_pools.items()):
                if self.restorable_snapshots and pool.queue and not pool.idle:
                    self._promote_free_snapshot(pool)
                if pool.queue and pool.idle and self._cores_in_use < self.cores:
                    invocation, callback, arrival = pool.queue.pop_next()
                    self._dispatch(pool, invocation, callback, arrival)
                    progressed = True
        self._start_boots()
        if self._cores_in_use < self.cores and self.spare_capacity_callback is not None:
            self.spare_capacity_callback(self)

    # ------------------------------------------------------------------
    # Work stealing (driven by the cluster scheduler)
    # ------------------------------------------------------------------

    def release_queued(
        self, action: str, *, newest: bool = False
    ) -> Tuple[Invocation, CompletionCallback, float]:
        """Give up one queued invocation of ``action`` to a stealing peer.

        By default the invocation the admission queue would dispatch next
        is released (the queue head under FIFO, the fair-order head under
        WFQ), so the steal preserves the queue's discipline: the stolen
        invocation is the one that would have run next anyway, and a
        tenant-fair queue stays tenant-fair across the move.
        ``newest=True`` releases the most recently enqueued entry instead —
        used when the thief must boot a container first, so the request
        that would have waited longest seeds the new warm container while
        the older ones keep their positions here.

        Returns the ``(invocation, callback, arrival)`` entry; the arrival
        timestamp travels with the invocation so its queue time stays
        honest across the move.
        """
        pool = self._require_pool(action)
        if not pool.queue:
            raise PlatformError(
                f"{self.invoker_id}: no queued invocation of {action!r} to steal"
            )
        entry = pool.queue.pop_newest() if newest else pool.queue.pop_next()
        self.stolen_away += 1
        self._cancel_surplus_boot(pool)
        self._touch_pool(pool)
        return entry

    def adopt(
        self,
        invocation: Invocation,
        callback: CompletionCallback,
        arrival: float,
    ) -> None:
        """Take over an invocation stolen from a peer.

        Dispatches immediately when a warm container and a core are free;
        otherwise queues it here, booting a container on demand with the
        same demand-matching rule as :meth:`submit`.  The original arrival
        time is preserved.  Unlike :meth:`submit`, an adopted invocation is
        neither quota-checked nor shed: the victim already admitted it
        (spending its tenant's token), so throttling or rejecting it here
        would double-charge admission — the scheduler keeps bounded thief
        queues from overfilling by checking :meth:`queue_capacity` before
        stealing.
        """
        pool = self._require_pool(invocation.action)
        self.steals += 1
        trace = invocation.trace
        if trace is not None:
            trace.steal(self.loop.now, self.invoker_id)
        if self.tracer is not None:
            self.tracer.audit(
                self.loop.now,
                "steal",
                f"adopted {invocation.invocation_id} ({invocation.action})",
                actor=self.invoker_id,
            )
        if self.restorable_snapshots:
            self._promote_free_snapshot(pool)
        if pool.idle and self._cores_in_use < self.cores:
            self._dispatch(pool, invocation, callback, arrival)
            return
        self._maybe_cold_start(pool, waiting=len(pool.queue) + 1)
        if trace is not None:
            trace.enqueue(self.loop.now)
        pool.queue.push((invocation, callback, arrival))
        self._signal_autoscaler(pool)
        self._touch_pool(pool)

    # ------------------------------------------------------------------
    # Dynamic pools: cold start on demand, keep-alive eviction
    # ------------------------------------------------------------------

    def _growth_ceiling(self, pool: _ActionPool) -> int:
        # A container occupies its core through execution *and* post-request
        # restoration, so containers beyond the core count can never run
        # concurrently — growth is useful only up to min(ceiling, cores).
        return min(pool.max_containers, self.cores)

    def _can_cold_start(self, pool: _ActionPool) -> bool:
        return len(pool.containers) + pool.cold_starting < self._growth_ceiling(pool)

    def growth_headroom(self, action: str) -> int:
        """How many more containers this invoker may boot for ``action``."""
        pool = self._require_pool(action)
        return max(
            0, self._growth_ceiling(pool) - len(pool.containers) - pool.cold_starting
        )

    def max_containers(self, action: str) -> int:
        """The action's current container ceiling on this invoker."""
        return self._require_pool(action).max_containers

    def set_max_containers(self, action: str, value: int) -> None:
        """Set the action's container ceiling (>= the pre-warmed floor).

        Lowering the ceiling below the current container count only blocks
        further growth; existing containers drain through normal keep-alive
        eviction rather than being killed mid-flight.
        """
        pool = self._require_pool(action)
        if value < max(1, pool.prewarmed):
            raise PlatformError(
                f"{self.invoker_id}: max_containers for {action!r} cannot drop "
                f"below the pre-warmed floor ({max(1, pool.prewarmed)})"
            )
        pool.max_containers = value
        self._touch_pool(pool)

    def scale_action(self, action: str, delta: int) -> Optional[int]:
        """Nudge the action's container ceiling by ``delta``, clamped.

        The ceiling stays within ``[pre-warmed floor, cores]`` — growth
        beyond the core count can never run, and the floor is the deployed
        capacity the tenant paid for.  Returns the new ceiling, or ``None``
        when the clamp left it unchanged.  Scaling up immediately considers
        a demand-matched cold start so the new headroom is used.
        """
        pool = self._require_pool(action)
        floor = max(1, pool.prewarmed)
        target = max(floor, min(self.cores, pool.max_containers + delta))
        if target == pool.max_containers:
            return None
        pool.max_containers = target
        if delta > 0:
            self._maybe_cold_start(pool, waiting=len(pool.queue))
        self._touch_pool(pool)
        return target

    def queue_capacity(self, action: str) -> bool:
        """True if ``action``'s queue can take one more entry without
        breaching the backpressure bound (always true when unbounded)."""
        if self.max_queue_per_action is None:
            return True
        return self.queued_invocations(action) < self.max_queue_per_action

    # ------------------------------------------------------------------
    # Control-plane actuation: pre-warm, drain, runtime weights
    # ------------------------------------------------------------------

    def can_prewarm(self, action: str, *, raise_ceiling: bool = False) -> bool:
        """Whether a :meth:`prewarm` would actually boot a container now.

        ``raise_ceiling=True`` answers for the planner's actuation pattern
        — a one-step :meth:`scale_action` ceiling raise followed by the
        prewarm — so a planner can verify a seed will land *before* paying
        for it (e.g. before draining a container elsewhere to fund it).
        The core count stays a hard bound either way: containers beyond
        the cores can never run.  A held snapshot always answers yes —
        the pre-warm revives it with a cheap restore instead of a boot,
        and a revived container was within the ceiling when it was built.
        """
        pool = self._require_pool(action)
        if self.restorable_snapshots and pool.snapshots:
            return True
        ceiling = min(
            pool.max_containers + (1 if raise_ceiling else 0), self.cores
        )
        return len(pool.containers) + pool.cold_starting < ceiling

    def prewarm(self, action: str) -> bool:
        """Boot one container for ``action`` proactively (capacity seeding).

        Unlike the demand-matched growth of :meth:`submit`, a pre-warm is
        a *planning* decision: a cluster control plane seeds warm capacity
        on an invoker **before** traffic (or a work steal) lands there, so
        the boot happens off the critical path of any request.  The
        container is dynamic — if the planned demand never materialises,
        keep-alive eviction reclaims it like any other on-demand boot.

        Returns ``False`` (and boots nothing) when the action has no
        growth headroom left on this invoker.

        Under the warmth spectrum a held snapshot is seeded by *restore*
        instead: the pre-warm revives the newest snapshot at its priced
        restore cost — a far cheaper way for a planner to fund capacity
        than a full boot (and the reason demoting beats draining).
        """
        pool = self._require_pool(action)
        if self.restorable_snapshots and pool.snapshots:
            self.prewarms += 1
            self._begin_restore(pool)
            self._touch_pool(pool)
            return True
        if not self._can_cold_start(pool):
            return False
        self.prewarms += 1
        self._cold_start(pool, on_demand=False)
        self._touch_pool(pool)
        return True

    def drain(
        self, action: str, count: int = 1, *, min_idle_seconds: float = 0.0
    ) -> int:
        """Reclaim up to ``count`` idle *dynamic* containers immediately.

        The control plane's counterpart to keep-alive eviction: when
        capacity is needed elsewhere (a global container budget, a peer
        with real backlog), idle dynamic containers are released now
        instead of after the keep-alive expires.  Only containers that are
        in the idle pool are eligible — a container serving a request, or
        unavailable while its mechanism restores, is never touched — and
        pre-warmed containers (the deployed floor) are never drained.
        Nothing is drained while the action has queued work: those idle
        containers are about to be used.  ``min_idle_seconds`` further
        restricts eligibility to containers idle at least that long, so a
        planner reclaims genuinely cold capacity rather than churning a
        container that served a request milliseconds ago.

        With the warmth spectrum on, a drain *demotes* its victims to
        held snapshots (via the shared :meth:`_retire_idle` transition)
        instead of destroying them: the budget the planner frees is the
        same — a snapshot counts toward no warm pool — but the capacity
        stays revivable at restore cost rather than boot cost.

        Returns how many containers were reclaimed.
        """
        if count < 1:
            raise PlatformError("drain count must be >= 1")
        if min_idle_seconds < 0:
            raise PlatformError("min_idle_seconds must be >= 0")
        pool = self._require_pool(action)
        if pool.queue:
            return 0
        now = self.loop.now
        drained = 0
        while drained < count:
            victim = next(
                (
                    c
                    for c in pool.idle
                    if c.dynamic and now - c.idle_since >= min_idle_seconds
                ),
                None,
            )
            if victim is None:
                break
            self._retire_idle(pool, victim)
            self.evictions += 1
            self.drains += 1
            drained += 1
        if drained:
            self._touch_pool(pool)
        return drained

    def set_tenant_weight(self, tenant: str, weight: float) -> int:
        """Set ``tenant``'s WFQ weight on every fair queue of this invoker.

        Returns the number of queues updated (0 when the admission policy
        has no per-tenant weights, e.g. FIFO — the actuation is a no-op
        there rather than an error, so a control plane can drive mixed
        deployments).
        """
        updated = 0
        for pool in self._pools.values():
            if isinstance(pool.queue, WeightedFairQueue):
                pool.queue.set_weight(tenant, weight)
                updated += 1
        return updated

    def idle_pool(self, action: str) -> List[Container]:
        """The action's currently idle containers (dispatch order)."""
        return list(self._require_pool(action).idle)

    # ------------------------------------------------------------------
    # Warmth spectrum: demote on evict, restore on demand
    # ------------------------------------------------------------------

    def _restore_seconds(self, container: Container) -> float:
        """Core-seconds reviving this container's snapshot would take."""
        if self.restore_pricer is not None:
            return self.restore_pricer(container)
        init = container.init_report
        if init is None:
            return 0.0
        return restore_seconds_for(
            self.isolation_mechanism, init, self.cost_model
        )

    def _promote_free_snapshot(self, pool: _ActionPool) -> None:
        """Revive the newest held snapshot inline when its restore is free.

        A zero-cost restore needs no core and no time, so the snapshot is
        functionally an idle warm container; promoting it *before* the
        dispatch/idle checks keeps a zero-cost spectrum observationally
        identical to never having demoted (no timestamps move, no restore
        event is scheduled).  Priced restores never take this path — they
        go through the core-charged :meth:`_begin_restore`.
        """
        if pool.idle or not pool.snapshots:
            return
        container = pool.snapshots[-1]
        if self._restore_seconds(container) > 0.0:
            return
        pool.snapshots.pop()
        self._lru_remove(container)
        container.promote()
        self.restores += 1
        pool.containers.append(container)
        pool.idle.append(container)
        self._touch_pool(pool)

    def _lru_remove(self, container: Container) -> None:
        """Drop one container's entry from the demotion-order LRU."""
        for index, entry in enumerate(self._snapshot_lru):
            if entry[1] is container:
                del self._snapshot_lru[index]
                return

    def _begin_restore(self, pool: _ActionPool) -> None:
        """Start reviving the newest held snapshot on a core.

        The restore is CPU work exactly like a boot: it occupies one core
        for the priced duration, serialised against executions and other
        boots/restores, waiting in the same FIFO backlog when no core is
        free.  The newest snapshot is revived first — the most recently
        live image.
        """
        container = pool.snapshots.pop()
        self._lru_remove(container)
        price = self._restore_seconds(container)
        self.restores += 1
        self.restore_times.append(self.loop.now)
        if price <= 0.0:
            # Degenerate pricing (test override): an instant promotion.
            container.promote()
            pool.containers.append(container)
            pool.idle.append(container)
            self._touch_pool(pool)
            return
        container.begin_restore()
        pool.restoring += 1
        self._boot_backlog.append((pool, container, price))
        self._start_boots()

    def _retire_idle(self, pool: _ActionPool, container: Container) -> None:
        """The one eviction/drain transition: demote or destroy one idle
        dynamic container.

        Shared by keep-alive eviction and :meth:`drain` so the two paths
        cannot diverge: with the spectrum off the container is destroyed
        (the binary warm-vs-cold behaviour); with it on, the container is
        demoted to a held snapshot, and the least-recently-demoted
        snapshot is discarded if that breaches ``snapshot_budget``.
        Never dispatches, restores, or otherwise resurrects work — callers
        own the eviction counters and index touch.
        """
        pool.idle.remove(container)
        pool.containers.remove(container)
        if not self.restorable_snapshots:
            container.shutdown()
            if self.tracer is not None:
                self.tracer.audit(
                    self.loop.now,
                    "keep-alive",
                    f"evict {container.container_id} ({pool.spec.name})",
                    actor=self.invoker_id,
                )
            return
        container.demote()
        pool.snapshots.append(container)
        self._snapshot_lru.append((pool, container))
        self.demotes += 1
        if self.tracer is not None:
            self.tracer.audit(
                self.loop.now,
                "keep-alive",
                f"demote {container.container_id} ({pool.spec.name}) "
                f"to held snapshot",
                actor=self.invoker_id,
            )
        if self.snapshot_budget is not None:
            while len(self._snapshot_lru) > self.snapshot_budget:
                old_pool, old_container = self._snapshot_lru.popleft()
                old_pool.snapshots.remove(old_container)
                old_container.shutdown()
                self.snapshot_discards += 1
                if self.tracer is not None:
                    self.tracer.audit(
                        self.loop.now,
                        "snapshot-budget",
                        f"discard LRU snapshot {old_container.container_id} "
                        f"({old_pool.spec.name})",
                        actor=self.invoker_id,
                    )
                if old_pool is not pool:
                    self._touch_pool(old_pool)

    def snapshots_held(self, action: Optional[str] = None) -> int:
        """Held restorable snapshots (for one action or all of them).

        O(1) for the all-actions total (the budget LRU's length).  Returns
        0 for actions not hosted here.
        """
        if action is None:
            return len(self._snapshot_lru)
        pool = self._pools.get(action)
        if pool is None:
            return 0
        return len(pool.snapshots)

    def _cold_start(self, pool: _ActionPool, *, on_demand: bool = True) -> None:
        """Request one more container; the boot runs on a core when one frees.

        A boot is CPU work: building the environment, booting the runtime,
        warming the function and taking the snapshot all execute on an
        invoker core for ``init.total_seconds``, serialised against running
        containers and against other boots.  Requests therefore cannot hide
        cold starts — a storm of boots visibly eats the invoker's capacity.
        ``on_demand=False`` marks a control-plane seed: the boot is
        identical, but it is accounted under ``prewarms`` rather than
        ``cold_starts`` (no queued work is waiting for it).
        """
        container = self._build_container(pool.spec, dynamic=True)
        pool.cold_starting += 1
        if on_demand:
            self.cold_starts += 1
            self.cold_start_times.append(self.loop.now)
        self._boot_backlog.append((pool, container, None))
        self._start_boots()

    def _start_boots(self) -> None:
        """Move backlogged boots/restores onto free cores (FIFO, one each)."""
        started = False
        while self._boot_backlog and self._cores_in_use < self.cores:
            started = True
            pool, container, restore_price = self._boot_backlog.popleft()
            self._cores_in_use += 1
            if restore_price is not None:
                self.restore_core_seconds += restore_price
                if self.tracer is not None:
                    # Both span boundaries are known at begin time — the
                    # priced duration is deterministic — so the recorder
                    # never holds open spans.
                    self.tracer.record_container_span(
                        kind="restore",
                        invoker=self.invoker_id,
                        container_id=container.container_id,
                        action=pool.spec.name,
                        start=self.loop.now,
                        end=self.loop.now + restore_price,
                    )

                def restored(
                    pool: _ActionPool = pool, container: Container = container
                ) -> None:
                    self._cores_in_use -= 1
                    pool.restoring -= 1
                    container.complete_restore(self.loop.now)
                    pool.containers.append(container)
                    pool.idle.append(container)
                    self._touch_pool(pool)
                    self._ensure_eviction_timer()
                    self._drain_queues()

                self.loop.schedule(
                    restore_price,
                    restored,
                    label=f"restore:{container.container_id}",
                )
                continue
            self._booting += 1
            init = container.initialize()
            self.boot_core_seconds += init.total_seconds
            if self.tracer is not None:
                self.tracer.record_container_span(
                    kind="boot",
                    invoker=self.invoker_id,
                    container_id=container.container_id,
                    action=pool.spec.name,
                    start=self.loop.now,
                    end=self.loop.now + init.total_seconds,
                )

            def ready(pool: _ActionPool = pool, container: Container = container) -> None:
                self._cores_in_use -= 1
                self._booting -= 1
                pool.cold_starting -= 1
                container.idle_since = self.loop.now
                container.ready_at = self.loop.now
                pool.containers.append(container)
                pool.idle.append(container)
                self._touch_pool(pool)
                self._ensure_eviction_timer()
                self._drain_queues()

            self.loop.schedule(
                init.total_seconds, ready, label=f"coldstart:{container.container_id}"
            )
        if started:
            # Backlog shrank and cores filled (net-zero load, but the
            # booting/pending split the snapshot exports changed).
            self._touch()

    def _cancel_surplus_boot(self, pool: _ActionPool) -> None:
        """Drop one backlogged boot whose demand disappeared (if any).

        Only boots still waiting for a core can be cancelled; a boot
        already executing on a core runs to completion (its core time is
        spent either way, and the container will be warm for the next
        request).  Restores in flight count toward covering the remaining
        demand but are never cancelled themselves — a restore is cheap
        enough to finish, and the revived container is warm capacity.
        """
        if pool.cold_starting + pool.restoring <= len(pool.queue):
            return
        for index, (backlog_pool, _container, price) in enumerate(
            self._boot_backlog
        ):
            if backlog_pool is pool and price is None:
                del self._boot_backlog[index]
                pool.cold_starting -= 1
                self.boots_cancelled += 1
                return

    def _ensure_eviction_timer(self) -> None:
        if self._eviction_timer is None or not self._eviction_timer.active:
            self._eviction_timer = self.loop.schedule_recurring(
                self.keep_alive_seconds,
                self._evict_expired,
                label=f"keep-alive:{self.invoker_id}",
            )

    def _evict_expired(self) -> None:
        """Reclaim dynamic containers idle longer than the keep-alive.

        Each victim goes through the shared :meth:`_retire_idle`
        transition: destroyed with the spectrum off, demoted to a held
        restorable snapshot with it on.
        """
        now = self.loop.now
        for pool in self._pools.values():
            if pool.queue:
                # Work is waiting; idle containers are about to be used.
                continue
            expired = [
                c
                for c in pool.idle
                if c.dynamic and now - c.idle_since >= self.keep_alive_seconds
            ]
            for container in expired:
                self._retire_idle(pool, container)
                self.evictions += 1
                if self.autoscaler is not None:
                    # Demand faded enough for keep-alive to fire: lower the
                    # growth ceiling back toward the pre-warmed floor.
                    self.autoscaler.on_reclaim(pool.spec.name)
            if expired:
                self._touch_pool(pool)
        if not self._any_dynamic_containers() and self._eviction_timer is not None:
            # Without dynamic containers there is nothing left to evict;
            # cancelling lets drain-style event-loop runs terminate.
            self._eviction_timer.cancel()
            self._eviction_timer = None

    def _any_dynamic_containers(self) -> bool:
        return any(
            pool.cold_starting > 0 or any(c.dynamic for c in pool.containers)
            for pool in self._pools.values()
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cores_in_use(self) -> int:
        """Cores occupied by executing, restoring, or *booting* containers."""
        return self._cores_in_use

    @property
    def booting(self) -> int:
        """Boots currently occupying a core."""
        return self._booting

    @property
    def pending_boots(self) -> int:
        """Boots requested but still waiting for a free core."""
        return len(self._boot_backlog)

    @property
    def load(self) -> int:
        """Busy cores + backlogged boots + uncovered waiting invocations.

        Counts every cold start in flight: boots on a core are inside
        ``cores_in_use`` and backlogged boots are added explicitly, so
        load-based policies are never blind to boots already underway.
        Queued invocations already covered by one of those boots are *not*
        added again — each unit of demand is counted exactly once, not
        once as the boot it triggered and once as the queue entry waiting
        for that boot.

        O(1): the queue term is the incrementally maintained
        ``_queued_uncovered`` counter, not a re-sum over all pools.
        """
        return (
            self._cores_in_use + len(self._boot_backlog) + self._queued_uncovered
        )

    def queued_uncovered(self) -> int:
        """Waiting invocations not already represented by a boot in flight.

        O(1): returns the counter ``_touch_pool`` keeps exact at every
        queue/boot transition (``sum(max(0, queue - cold_starting))``
        over all pools).
        """
        return self._queued_uncovered

    def has_idle(self, action: str) -> bool:
        """True when ``action`` has at least one idle warm container here."""
        pool = self._pools.get(action)
        return pool is not None and bool(pool.idle)

    def pool_order(self, action: str) -> int:
        """The action's pool creation sequence number (insertion order).

        The steal search tries candidate actions in this order.
        """
        return self._require_pool(action).seq

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of dispatched invocations served by a warm container."""
        if self.invocations_dispatched == 0:
            return 0.0
        return self.warm_hits / self.invocations_dispatched

    def queued_invocations(self, action: Optional[str] = None) -> int:
        """Number of invocations waiting for a container.

        The all-action total sums only the pools with queued work.
        """
        if action is not None:
            return len(self._require_pool(action).queue)
        return sum(len(pool.queue) for pool in self._queued_pools.values())

    def queued_order(self, action: str) -> List[Invocation]:
        """The waiting invocations of one action in arrival order."""
        return self._require_pool(action).queue.invocations()

    def queued_by_tenant(self, action: Optional[str] = None) -> Dict[str, int]:
        """Waiting invocations per tenant (for one action or all of them).

        The all-action totals visit only the pools with queued work, in
        creation order, so tenants keep their first-seen key order.
        """
        if action is not None:
            return self._require_pool(action).queue.tenants()
        totals: Counter = Counter()
        for _seq, pool in sorted(self._queued_pools.items()):
            totals.update(pool.queue.tenants())
        return dict(totals)

    def arrivals_total(self, action: Optional[str] = None) -> int:
        """Lifetime invocations submitted (for one action or all of them)."""
        if action is not None:
            return self._require_pool(action).arrivals
        return sum(pool.arrivals for pool in self._pools.values())

    def recent_arrival_times(self, action: str, *, since: float = 0.0) -> List[float]:
        """Recent arrival timestamps of ``action`` at or after ``since``.

        The per-pool buffer is bounded (oldest entries drop first), so
        this is a *recent-history* surface for forecasting, not a full
        arrival log.
        """
        pool = self._require_pool(action)
        return [at for at in pool.arrival_times if at >= since]

    def snapshot(self) -> InvokerSnapshot:
        """Export the structured warmth/load view the control plane consumes.

        Dirty-flag cached: every state mutation bumps ``_state_version``,
        and while it is unchanged the previously built snapshot is
        returned as-is — control-plane ticks over a mostly-quiet cluster
        reuse unchanged snapshots instead of rebuilding the per-action
        dicts.  Snapshots are frozen and treated as read-only by all
        consumers; callers must not mutate the mapping fields.
        """
        if (
            self._snapshot_cache is not None
            and self._snapshot_version == self._state_version
        ):
            return self._snapshot_cache
        idle_warm: Dict[str, int] = {}
        warm_total: Dict[str, int] = {}
        boots: Dict[str, int] = {}
        headroom: Dict[str, int] = {}
        queued_per_action: Dict[str, int] = {}
        prewarmed: Dict[str, int] = {}
        arrivals_total: Dict[str, int] = {}
        snapshots_held: Dict[str, int] = {}
        for name, pool in self._pools.items():
            if pool.idle:
                idle_warm[name] = len(pool.idle)
            if pool.containers:
                warm_total[name] = len(pool.containers)
            if pool.cold_starting or pool.restoring:
                boots[name] = pool.cold_starting + pool.restoring
            if pool.snapshots:
                snapshots_held[name] = len(pool.snapshots)
            if pool.queue:
                queued_per_action[name] = len(pool.queue)
            if pool.prewarmed:
                prewarmed[name] = pool.prewarmed
            if pool.arrivals:
                arrivals_total[name] = pool.arrivals
            room = (
                self._growth_ceiling(pool) - len(pool.containers) - pool.cold_starting
            )
            if room > 0:
                headroom[name] = room
        snap = InvokerSnapshot(
            invoker_id=self.invoker_id,
            cores=self.cores,
            cores_in_use=self._cores_in_use,
            booting=self._booting,
            pending_boots=len(self._boot_backlog),
            queued=self.queued_invocations(),
            queued_uncovered=self.queued_uncovered(),
            queued_by_tenant=self.queued_by_tenant(),
            idle_warm=idle_warm,
            warm_total=warm_total,
            boots_in_flight=boots,
            growth_headroom=headroom,
            queued_per_action=queued_per_action,
            prewarmed=prewarmed,
            arrivals_total=arrivals_total,
            snapshots_held=snapshots_held,
        )
        self._snapshot_cache = snap
        self._snapshot_version = self._state_version
        return snap

    def stats(self) -> Dict[str, object]:
        """A snapshot of the invoker's counters (for tables and debugging)."""
        return {
            "invoker": self.invoker_id,
            "submitted": self.invocations_submitted,
            "dispatched": self.invocations_dispatched,
            "completed": self.invocations_completed,
            "rejected": self.invocations_rejected,
            "throttled": self.invocations_throttled,
            "warm_hits": self.warm_hits,
            "cold_starts": self.cold_starts,
            "boot_core_seconds": round(self.boot_core_seconds, 6),
            "evictions": self.evictions,
            "scale_ups": self.autoscaler.scale_ups if self.autoscaler else 0,
            "scale_downs": self.autoscaler.scale_downs if self.autoscaler else 0,
            "steals": self.steals,
            "stolen_away": self.stolen_away,
            "containers": sum(len(p.containers) for p in self._pools.values()),
            "prewarmed": sum(p.prewarmed for p in self._pools.values()),
            "prewarms": self.prewarms,
            "drains": self.drains,
            "demotes": self.demotes,
            "restores": self.restores,
            "restore_dispatches": self.restore_dispatches,
            "snapshots_held": len(self._snapshot_lru),
            "snapshot_discards": self.snapshot_discards,
            "restore_core_seconds": round(self.restore_core_seconds, 6),
        }

    def _require_pool(self, action: str) -> _ActionPool:
        if action not in self._pools:
            raise ActionNotFoundError(action)
        return self._pools[action]
