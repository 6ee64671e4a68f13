"""The admission layer: who gets a queue slot, and in what order.

The paper's request-isolation model is *per caller* — an
:class:`~repro.faas.request.Invocation` carries the tenant identity whose
data must not leak into the next request.  This module gives the same
identity a voice in *admission*: which invocations enter an action's
bounded queue, which one is dispatched next, and which one is shed when
the queue overflows.  Before this layer existed the queueing path was
caller-blind: one tenant's burst filled the FIFO and shed everyone else's
traffic.

Three cooperating pieces:

* :class:`AdmissionQueue` — the pluggable per-action waiting queue the
  invoker enqueues into and dispatches from.  :class:`FifoQueue` preserves
  the historical behaviour bit for bit; :class:`WeightedFairQueue`
  implements deficit-round-robin (DRR) fair queueing across tenants within
  the action, and on overflow displaces the *dominant* tenant's newest
  entry instead of shedding the incoming request of a polite tenant.
* :class:`TenantQuotas` — token-bucket rate limiting per tenant, enforced
  at submit time.  Over-quota invocations are refused with the distinct
  :attr:`~repro.faas.request.InvocationStatus.THROTTLED` status, accounted
  separately from queue-overflow ``REJECTED`` sheds.
* :class:`ReactiveAutoscaler` — raises and lowers an invoker's per-action
  container ceiling (``max_containers``) from the observed admission
  signals (queue depth, rejections) instead of a static configuration
  value: sustained pressure grows the pool toward the core count,
  keep-alive evictions shrink the ceiling back toward the pre-warmed
  floor.

Everything here is deterministic: queues use insertion-ordered structures,
token buckets refill from virtual time, and the autoscaler reacts to
events in the simulation's fixed order — two identical runs admit, shed,
and scale identically.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TYPE_CHECKING,
)

from repro.config import ADMISSION_POLICIES
from repro.errors import PlatformError
from repro.faas.request import Invocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (invoker imports us)
    from repro.faas.invoker import Invoker

#: One waiting invocation: ``(invocation, completion callback, arrival time)``.
#: The arrival timestamp travels with the entry so queue time stays honest
#: across requeues and cross-invoker steals.
QueueEntry = Tuple[Invocation, Callable[[Invocation], None], float]


class AdmissionQueue:
    """The waiting queue of one action: pluggable order and shed policy.

    The invoker owns *capacity* (its ``max_queue_per_action`` bound); the
    queue owns *order* (which waiting invocation dispatches next, which one
    a stealing peer receives) and *shed choice* (whose entry is displaced
    when an arrival hits a full queue).
    """

    name = "abstract"

    def push(self, entry: QueueEntry) -> None:
        """Enqueue one invocation."""
        raise NotImplementedError

    def pop_next(self) -> QueueEntry:
        """Remove and return the invocation that should be served next."""
        raise NotImplementedError

    def pop_newest(self) -> QueueEntry:
        """Remove and return the most recently enqueued invocation.

        Used by tail (boot) steals: the request that would have waited
        longest seeds a new warm container on the stealing invoker.
        """
        raise NotImplementedError

    def displace(self, incoming_tenant: str) -> Optional[QueueEntry]:
        """Make room for ``incoming_tenant`` by evicting someone else's entry.

        Called when the queue is at its capacity bound.  Returns the entry
        the caller should shed instead of the incoming invocation, or
        ``None`` when the incoming invocation itself should be shed (the
        FIFO policy always sheds the newcomer; the fair policy sheds the
        newcomer only when its tenant already dominates the queue).
        """
        raise NotImplementedError

    def invocations(self) -> List[Invocation]:
        """The waiting invocations in arrival order (introspection only)."""
        raise NotImplementedError

    def tenants(self) -> Dict[str, int]:
        """Waiting invocations per tenant (the fairness signal surface)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class FifoQueue(AdmissionQueue):
    """Arrival-order queueing, blind to tenants — the historical behaviour.

    ``push``/``pop_next``/``pop_newest`` map one-to-one onto the
    ``append``/``popleft``/``pop`` calls the invoker used to issue against
    a raw deque, and ``displace`` never evicts, so a deployment configured
    with FIFO admission reproduces the pre-refactor runs bit for bit.
    """

    name = "fifo"

    def __init__(self) -> None:
        self._entries: Deque[QueueEntry] = deque()
        #: Incrementally maintained per-tenant depths: :meth:`tenants` sits
        #: on the snapshot (routing) hot path and must not walk the queue.
        self._depths: Dict[str, int] = {}

    def push(self, entry: QueueEntry) -> None:
        self._entries.append(entry)
        tenant = entry[0].caller
        self._depths[tenant] = self._depths.get(tenant, 0) + 1

    def pop_next(self) -> QueueEntry:
        if not self._entries:
            raise PlatformError("cannot pop from an empty admission queue")
        return self._drop_depth(self._entries.popleft())

    def pop_newest(self) -> QueueEntry:
        if not self._entries:
            raise PlatformError("cannot pop from an empty admission queue")
        return self._drop_depth(self._entries.pop())

    def _drop_depth(self, entry: QueueEntry) -> QueueEntry:
        tenant = entry[0].caller
        remaining = self._depths[tenant] - 1
        if remaining:
            self._depths[tenant] = remaining
        else:
            del self._depths[tenant]
        return entry

    def displace(self, incoming_tenant: str) -> Optional[QueueEntry]:
        return None  # FIFO sheds the newcomer, whoever they are

    def invocations(self) -> List[Invocation]:
        return [entry[0] for entry in self._entries]

    def tenants(self) -> Dict[str, int]:
        return dict(self._depths)

    def __len__(self) -> int:
        return len(self._entries)


class WeightedFairQueue(AdmissionQueue):
    """Deficit-round-robin fair queueing across tenants within one action.

    Each tenant (the invocation's ``caller``) gets its own FIFO sub-queue;
    dispatch cycles the backlogged tenants in deterministic round-robin
    order, granting each visit ``quantum × weight`` deficit credit and
    serving one invocation per unit of credit.  With equal weights every
    backlogged tenant is served once per round, so no tenant can be starved
    by another's burst; with one tenant the round is trivial and the queue
    degenerates to exact FIFO.

    On overflow, :meth:`displace` evicts the newest entry of the tenant
    with the *deepest* sub-queue — a longest-queue-drop policy — so a
    burst only ever sheds its own traffic once it dominates the queue.
    A tenant's deficit is forfeited when its backlog drains (standard DRR:
    credit cannot be hoarded while idle).
    """

    name = "wfq"
    #: Deficit credit a unit-weight tenant earns per round-robin visit.
    quantum = 1.0

    def __init__(self) -> None:
        #: Per-tenant weights set by :meth:`set_weight` (1.0 when unset).
        self._weights: Dict[str, float] = {}
        #: Per-tenant FIFO sub-queues of ``(push sequence, entry)``.
        self._subqueues: Dict[str, Deque[Tuple[int, QueueEntry]]] = {}
        #: Backlogged tenants in round-robin order (head is served next).
        self._round: Deque[str] = deque()
        self._deficit: Dict[str, float] = {}
        self._pushes = 0
        self._length = 0

    def weight(self, tenant: str) -> float:
        """The tenant's configured weight (1.0 when unconfigured)."""
        return self._weights.get(tenant, 1.0)

    def set_weight(self, tenant: str, weight: float) -> None:
        """Adjust one tenant's weight at runtime (control-plane actuation).

        Takes effect from the tenant's next service visit: deficit already
        banked is kept (it is bounded by one service unit), so a weight
        change never lets a tenant replay credit accrued under the old
        weight.
        """
        if weight <= 0:
            raise PlatformError(
                f"WFQ weight for tenant {tenant!r} must be positive"
            )
        self._weights[tenant] = float(weight)

    def push(self, entry: QueueEntry) -> None:
        tenant = entry[0].caller
        if tenant not in self._subqueues:
            self._subqueues[tenant] = deque()
            self._deficit[tenant] = 0.0
            self._round.append(tenant)
        self._subqueues[tenant].append((self._pushes, entry))
        self._pushes += 1
        self._length += 1

    def pop_next(self) -> QueueEntry:
        if not self._length:
            raise PlatformError("cannot pop from an empty admission queue")
        while True:
            tenant = self._round[0]
            if self._deficit[tenant] < 1.0:
                self._deficit[tenant] += self.quantum * self.weight(tenant)
            if self._deficit[tenant] < 1.0:
                # A fractional-weight tenant accumulates credit over
                # multiple rounds before being served.
                self._round.rotate(-1)
                continue
            self._deficit[tenant] -= 1.0
            _seq, entry = self._subqueues[tenant].popleft()
            self._length -= 1
            if not self._subqueues[tenant]:
                self._forget(tenant)
            elif self._deficit[tenant] < 1.0:
                self._round.rotate(-1)  # credit spent: next tenant's turn
            return entry

    def pop_newest(self) -> QueueEntry:
        if not self._length:
            raise PlatformError("cannot pop from an empty admission queue")
        victim = max(self._subqueues, key=lambda t: self._subqueues[t][-1][0])
        _seq, entry = self._subqueues[victim].pop()
        self._length -= 1
        if not self._subqueues[victim]:
            self._forget(victim)
        return entry

    def displace(self, incoming_tenant: str) -> Optional[QueueEntry]:
        if not self._length:
            return None
        incoming_depth = len(self._subqueues.get(incoming_tenant, ()))
        victim: Optional[str] = None
        victim_depth = incoming_depth
        for tenant, subqueue in self._subqueues.items():
            # Strictly deeper than the incoming tenant's backlog: when the
            # newcomer already dominates (or ties), it is shed itself.
            if len(subqueue) > victim_depth:
                victim = tenant
                victim_depth = len(subqueue)
        if victim is None:
            return None
        _seq, entry = self._subqueues[victim].pop()
        self._length -= 1
        if not self._subqueues[victim]:
            self._forget(victim)
        return entry

    def _forget(self, tenant: str) -> None:
        del self._subqueues[tenant]
        del self._deficit[tenant]
        self._round.remove(tenant)

    def invocations(self) -> List[Invocation]:
        ordered: List[Tuple[int, QueueEntry]] = []
        for subqueue in self._subqueues.values():
            ordered.extend(subqueue)
        ordered.sort(key=lambda item: item[0])
        return [entry[0] for _seq, entry in ordered]

    def tenants(self) -> Dict[str, int]:
        return {tenant: len(q) for tenant, q in self._subqueues.items()}

    def __len__(self) -> int:
        return self._length


_QUEUE_CLASSES: Mapping[str, Type[AdmissionQueue]] = MappingProxyType({
    FifoQueue.name: FifoQueue,
    WeightedFairQueue.name: WeightedFairQueue,
})

# Unconditional (not an assert): must hold even under `python -O`, so a
# policy added to config.ADMISSION_POLICIES without a class fails at import
# rather than deep inside invoker construction.
if set(_QUEUE_CLASSES) != set(ADMISSION_POLICIES):
    raise RuntimeError(
        "admission queue registry is out of sync with config.ADMISSION_POLICIES"
    )


def create_admission_queue(name: str) -> AdmissionQueue:
    """Instantiate an admission queue policy by its registry name."""
    try:
        queue_class = _QUEUE_CLASSES[name]
    except KeyError:
        raise PlatformError(
            f"unknown admission policy {name!r}; "
            f"choose one of {sorted(_QUEUE_CLASSES)}"
        ) from None
    return queue_class()


class TenantQuotas:
    """Token-bucket admission quotas, one bucket per tenant.

    Each tenant accrues ``rate_rps`` tokens per second of virtual time up
    to ``burst`` banked tokens; admitting an invocation spends one token.
    A tenant over its rate is *throttled* — a deliberate policy refusal,
    distinct from the capacity shed of a full queue — so callers can tell
    "you asked for more than you bought" apart from "the platform is
    overloaded".

    One instance is shared by every invoker of a cluster, making the quota
    a property of the tenant rather than of whichever invoker the
    scheduler happened to route to.  Refill arithmetic uses the caller's
    virtual ``now``, so runs remain deterministic.
    """

    def __init__(
        self,
        rate_rps: float,
        *,
        burst: Optional[float] = None,
    ) -> None:
        if rate_rps <= 0:
            raise PlatformError("tenant quota rate must be positive")
        if burst is not None and burst < 1:
            raise PlatformError("tenant quota burst must allow at least one token")
        self.rate_rps = float(rate_rps)
        #: Bucket capacity: how many invocations a tenant may issue back to
        #: back after an idle spell.  Defaults to half a second's worth.
        self.burst = float(burst) if burst is not None else max(1.0, rate_rps / 2)
        self._rates: Dict[str, float] = {}
        #: Per-tenant burst overrides (set alongside a rate override, so a
        #: control loop tightening one tenant's rate also shrinks the bank
        #: that tenant may draw down — a cut that left the default burst in
        #: place would take seconds to bite).
        self._bursts: Dict[str, float] = {}
        #: Per-tenant bucket state: (tokens, last refill time).
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self.admitted = 0
        self.throttled = 0

    def set_rate(
        self, tenant: str, rate_rps: float, *, burst: Optional[float] = None
    ) -> None:
        """Override the refill rate (and optionally burst) for one tenant.

        Takes effect from the tenant's next admission check; a bank larger
        than the new burst is clamped at the next refill, so lowering a
        rate at runtime (control-plane actuation) bites within one request.
        """
        if rate_rps <= 0:
            raise PlatformError("tenant quota rate must be positive")
        if burst is not None and burst < 1:
            raise PlatformError("tenant quota burst must allow at least one token")
        self._rates[tenant] = float(rate_rps)
        if burst is not None:
            self._bursts[tenant] = float(burst)

    def clear_rate(self, tenant: str) -> None:
        """Drop the tenant's rate/burst overrides (back to the defaults).

        The control plane's "fully recovered" actuation: a tenant whose
        cut has been walked all the way back must end up genuinely
        unlimited again (under the permissive control-plane default),
        not permanently capped at the demand it happened to show when
        first cut.
        """
        self._rates.pop(tenant, None)
        self._bursts.pop(tenant, None)

    def rate(self, tenant: str) -> float:
        """The tenant's refill rate (the default unless overridden)."""
        return self._rates.get(tenant, self.rate_rps)

    def burst_for(self, tenant: str) -> float:
        """The tenant's bucket capacity (the default unless overridden)."""
        return self._bursts.get(tenant, self.burst)

    def admit(self, tenant: str, now: float) -> bool:
        """Spend one token for ``tenant`` if its bucket has one."""
        burst = self.burst_for(tenant)
        tokens, last = self._buckets.get(tenant, (burst, now))
        tokens = min(burst, tokens + (now - last) * self.rate(tenant))
        if tokens >= 1.0:
            self._buckets[tenant] = (tokens - 1.0, now)
            self.admitted += 1
            return True
        self._buckets[tenant] = (tokens, now)
        self.throttled += 1
        return False


class ReactiveAutoscaler:
    """Scales an invoker's per-action container ceilings from live signals.

    Instead of a static ``max_containers_per_action``, the autoscaler
    watches the admission layer's structured signals on every submission:
    a queue at or above ``queue_high``, or any rejection since the last
    look, means the action is container-bound and the ceiling rises by one
    (capped at the invoker's core count — more containers than cores can
    never run).  Demand fading is signalled by keep-alive eviction: each
    idle container the invoker reclaims lowers the ceiling by one, down to
    the pre-warmed floor.  ``cooldown_seconds`` of virtual time must pass
    between scaling steps of one action, so a single burst does not slam
    the ceiling to the maximum in one event.

    The autoscaler is driven by the invoker's own deterministic event flow
    (no timers of its own), so it never keeps a drained event loop alive
    and two identical runs scale identically.
    """

    def __init__(
        self,
        *,
        queue_high: int = 4,
        cooldown_seconds: float = 0.25,
    ) -> None:
        if queue_high < 1:
            raise PlatformError("autoscaler queue_high must be >= 1")
        if cooldown_seconds <= 0:
            raise PlatformError("autoscaler cooldown must be positive")
        self.queue_high = queue_high
        self.cooldown_seconds = cooldown_seconds
        self._invoker: Optional["Invoker"] = None
        #: Per-action (last scale time, rejections already seen).
        self._state: Dict[str, Tuple[float, int]] = {}
        self.scale_ups = 0
        self.scale_downs = 0

    def attach(self, invoker: "Invoker") -> "ReactiveAutoscaler":
        """Bind to ``invoker`` (one autoscaler per invoker) and return self."""
        if self._invoker is not None:
            raise PlatformError("a ReactiveAutoscaler serves exactly one invoker")
        self._invoker = invoker
        invoker.autoscaler = self
        return self

    def observe(self, action: str, queue_depth: int, rejected_total: int) -> None:
        """React to one admission event (called by the invoker on submit)."""
        invoker = self._require_invoker()
        now = invoker.loop.now
        last_scale, rejected_seen = self._state.get(action, (-self.cooldown_seconds, 0))
        pressure = queue_depth >= self.queue_high or rejected_total > rejected_seen
        if (
            pressure
            and now - last_scale >= self.cooldown_seconds
            and invoker.scale_action(action, +1) is not None
        ):
            last_scale = now
            self.scale_ups += 1
        self._state[action] = (last_scale, rejected_total)

    def on_reclaim(self, action: str) -> None:
        """React to a keep-alive eviction: demand faded, lower the ceiling."""
        invoker = self._require_invoker()
        now = invoker.loop.now
        last_scale, rejected_seen = self._state.get(action, (-self.cooldown_seconds, 0))
        if (
            now - last_scale >= self.cooldown_seconds
            and invoker.scale_action(action, -1) is not None
        ):
            self._state[action] = (now, rejected_seen)
            self.scale_downs += 1

    def _require_invoker(self) -> "Invoker":
        if self._invoker is None:
            raise PlatformError("autoscaler is not attached to an invoker")
        return self._invoker
