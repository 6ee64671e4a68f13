"""Flight-recorder core: lifecycle spans, audit events, trace recorder.

This module is the **single source of truth for the trace record schema**.
Every exporter (:mod:`repro.faas.obs.export`) and analyzer
(:mod:`repro.faas.obs.decompose`) consumes exactly the records described
here; nothing else defines trace fields.

Trace record schema
===================

``InvocationTrace`` — one sampled invocation's lifecycle timeline
-----------------------------------------------------------------

Identity (stamped at submit by :meth:`TraceRecorder.begin_invocation`):

``invocation_id``
    The invocation's id (``Invocation.invocation_id``), numbered by the
    cluster that accepted it, so identical runs repeat it exactly.
``action`` / ``tenant``
    Deployed action name and calling tenant (``Invocation.caller``).
``submitted_at``
    Simulated time the controller accepted the request (client edge).

Routing (stamped by ``Scheduler.submit`` — the scheduler holds no clock,
so these are fields only; the matching timestamp is the invoker arrival):

``policy``
    Name of the :class:`~repro.faas.scheduler.SchedulingPolicy` that
    chose the invoker.
``invoker_index``
    Index of the winning invoker in the scheduler's list (−1 until
    routed; stays −1 on the single-invoker fast path with no scheduler).

Invoker-side lifecycle (stamped by ``Invoker``):

``invoker_id`` / ``invoker_arrival_at``
    Identity of the first invoker the request reached and the simulated
    arrival time there (end of the controller's inbound hop).  A steal
    keeps the original arrival; the adopting invoker is recorded as a
    ``steal`` event.
``dispatched_at``
    Time a core + container pair started executing the request.
``dispatch_class``
    ``"warm"`` (paused container re-used), ``"restore"`` (first request
    into a container restored from a snapshot), or ``"cold"`` (first
    request into a freshly booted container).  Empty until dispatch.
``container_id`` / ``container_ready_at``
    The serving container and the time it became ready; for cold and
    restore dispatches ``ready_at − invoker_arrival_at`` bounds the
    boot/restore-blocked share of the wait.
``execute_seconds``
    Invoker-side service time (``Invocation.invoker_seconds``).

Completion (stamped by the cluster's record hook, after the controller's
outbound hop has delivered the response):

``completed_at`` / ``status``
    Final delivery time and terminal status (``"completed"``,
    ``"rejected"``, or ``"throttled"``).

``events``
    Clock-ordered ``(at, name, detail)`` point marks for transitions that
    are not already implied by the fields above: ``submit``, ``arrive``,
    ``enqueue``, ``steal`` (detail = adopting invoker), ``throttle``,
    ``reject`` (detail = shed reason).

Phase decomposition (:meth:`InvocationTrace.phases`)
----------------------------------------------------

For a completed trace the end-to-end latency decomposes *exactly* into
six contiguous phases::

    inbound   = invoker_arrival_at − submitted_at        (controller hop in)
    boot      = blocked wait, cold dispatches only
    restore   = blocked wait, restore dispatches only
    queue     = remaining wait for a core/container
    execute   = execute_seconds
    outbound  = completed_at − (dispatched_at + execute_seconds)

where the blocked wait is ``min(wait, max(0, container_ready_at −
invoker_arrival_at))`` and ``wait = dispatched_at − invoker_arrival_at``.
``queue`` is computed as the remainder, so ``boot + restore + queue ==
wait`` exactly and the six phases telescope to ``completed_at −
submitted_at`` up to float associativity.

``AuditEvent`` — one control-plane decision
-------------------------------------------

``at``
    Simulated time of the decision.
``category``
    ``"tuner"`` (AIMD raise/cut/boost, detail carries the triggering SLO
    window when one exists), ``"planner"`` (a
    :class:`~repro.faas.controlplane.planner.MigrationDecision`,
    detail = ``decision.describe()``), ``"keep-alive"`` (idle-expiry
    demote-to-snapshot or evict), ``"snapshot-budget"`` (LRU snapshot
    discard), or ``"steal"`` (a queued invocation adopted by a peer).
``actor``
    ``"control-plane"`` or the acting invoker's id.
``detail``
    Human-readable description of the decision.

``Span`` — one container provisioning interval
----------------------------------------------

``name`` (``"boot"`` or ``"restore"``), ``start``/``end`` simulated
times, ``track`` (owning invoker id), ``detail`` (container id and
action).  Emitted at *begin* time — both boundaries are known when the
work is scheduled, so the recorder never holds open spans.

Sampling determinism
====================

In ``"sampled"`` mode an invocation is recorded iff::

    zlib.crc32(f"{seed}:{ordinal}".encode()) % sample_period == 0

where ``ordinal`` is a run-local counter (0, 1, …) incremented once per
submitted invocation, so the sampled set is a pure function of ``(seed,
arrival order)``: ``run_replicated`` fan-out reproduces the identical
trace whether replicas run serially in one process or in spawned
workers.  CRC-32 is used (as for hash-affinity routing) because it is
stable across processes regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "PHASES",
    "TRACING_MODES",
    "Span",
    "AuditEvent",
    "InvocationTrace",
    "TraceRecorder",
]

#: Phase names in decomposition (and display) order.
PHASES: Tuple[str, ...] = (
    "inbound", "queue", "boot", "restore", "execute", "outbound",
)

#: Recorder modes (mirrors ``repro.config.TRACING_MODES``).
TRACING_MODES: Tuple[str, ...] = ("off", "sampled", "full")


@dataclass(frozen=True)
class Span:
    """A closed interval on a named track (see module docstring)."""

    name: str
    start: float
    end: float
    track: str = ""
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class AuditEvent:
    """One control-plane decision on the shared timeline."""

    at: float
    category: str
    actor: str
    detail: str


class InvocationTrace:
    """Mutable per-invocation lifecycle record (schema in module docstring)."""

    __slots__ = (
        "invocation_id", "action", "tenant", "submitted_at",
        "policy", "invoker_index", "invoker_id", "invoker_arrival_at",
        "dispatched_at", "dispatch_class", "container_id",
        "container_ready_at", "execute_seconds",
        "completed_at", "status", "events",
    )

    def __init__(
        self, invocation_id: str, action: str, tenant: str, submitted_at: float
    ) -> None:
        self.invocation_id = invocation_id
        self.action = action
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.policy = ""
        self.invoker_index = -1
        self.invoker_id = ""
        self.invoker_arrival_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None
        self.dispatch_class = ""
        self.container_id = ""
        self.container_ready_at: Optional[float] = None
        self.execute_seconds = 0.0
        self.completed_at: Optional[float] = None
        self.status = ""
        self.events: List[Tuple[float, str, str]] = [
            (submitted_at, "submit", action)
        ]

    # -- transition stamps (each called from exactly one instrumentation
    # site; all sites are guarded by ``trace is not None``) --------------

    def mark(self, at: float, name: str, detail: str = "") -> None:
        self.events.append((at, name, detail))

    def route(self, policy: str, invoker_index: int) -> None:
        """Scheduler's pick — fields only; the scheduler holds no clock."""
        self.policy = policy
        self.invoker_index = invoker_index

    def arrive(self, at: float, invoker_id: str) -> None:
        if self.invoker_arrival_at is None:
            self.invoker_arrival_at = at
            self.invoker_id = invoker_id
            self.events.append((at, "arrive", invoker_id))

    def enqueue(self, at: float) -> None:
        self.events.append((at, "enqueue", ""))

    def steal(self, at: float, thief: str) -> None:
        self.events.append((at, "steal", thief))

    def throttle(self, at: float) -> None:
        self.events.append((at, "throttle", ""))

    def reject(self, at: float, detail: str = "") -> None:
        self.events.append((at, "reject", detail))

    def dispatch(
        self,
        at: float,
        dispatch_class: str,
        container_id: str,
        container_ready_at: float,
    ) -> None:
        self.dispatched_at = at
        self.dispatch_class = dispatch_class
        self.container_id = container_id
        self.container_ready_at = container_ready_at

    def finish(self, status: str, completed_at: Optional[float]) -> None:
        self.status = status
        self.completed_at = completed_at

    # -- derived views ----------------------------------------------------

    @property
    def e2e_seconds(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def phases(self) -> Optional[Dict[str, float]]:
        """Exact-sum six-phase decomposition (see module docstring).

        ``None`` for traces that never dispatched (throttled/rejected) or
        never completed.
        """
        if (
            self.completed_at is None
            or self.dispatched_at is None
            or self.invoker_arrival_at is None
        ):
            return None
        inbound = self.invoker_arrival_at - self.submitted_at
        wait = self.dispatched_at - self.invoker_arrival_at
        boot = restore = 0.0
        if self.dispatch_class in ("cold", "restore") and (
            self.container_ready_at is not None
        ):
            blocked = min(
                wait,
                max(0.0, self.container_ready_at - self.invoker_arrival_at),
            )
            if self.dispatch_class == "cold":
                boot = blocked
            else:
                restore = blocked
        queue = wait - boot - restore
        outbound = self.completed_at - (
            self.dispatched_at + self.execute_seconds
        )
        return {
            "inbound": inbound,
            "queue": queue,
            "boot": boot,
            "restore": restore,
            "execute": self.execute_seconds,
            "outbound": outbound,
        }


def _sampled(seed: int, ordinal: int, period: int) -> bool:
    key = f"{seed}:{ordinal}".encode("ascii")
    return zlib.crc32(key) % period == 0


class TraceRecorder:
    """Bounded, seed-deterministic flight recorder.

    Holds three clock-stamped ring buffers (``collections.deque`` with
    ``maxlen=capacity``, so the recorder is bounded regardless of run
    length): finished :class:`InvocationTrace` records, container
    boot/restore :class:`Span` records, and control-plane
    :class:`AuditEvent` records.  Constructed by
    :class:`~repro.faas.cluster.FaaSCluster` only when
    ``SimulationConfig.tracing != "off"`` — the off path carries no
    recorder at all, so instrumentation sites reduce to a single
    ``is not None`` check.
    """

    def __init__(
        self,
        mode: str = "sampled",
        *,
        seed: int = 0,
        sample_period: int = 16,
        capacity: int = 65536,
    ) -> None:
        if mode not in TRACING_MODES:
            raise ValueError(
                f"tracing mode must be one of {TRACING_MODES}, got {mode!r}"
            )
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.mode = mode
        self.seed = seed
        self.sample_period = sample_period
        self.capacity = capacity
        self.seen = 0       # invocations observed: the next one's ordinal
        self.started = 0    # traces begun (sampled in)
        self.finished = 0   # traces that reached finish_invocation
        self.invocations: Deque[InvocationTrace] = deque(maxlen=capacity)
        self.container_spans: Deque[Span] = deque(maxlen=capacity)
        self.audit_log: Deque[AuditEvent] = deque(maxlen=capacity)

    # -- invocation lifecycle ---------------------------------------------

    def begin_invocation(self, invocation) -> Optional[InvocationTrace]:
        """Issue an ordinal and, if sampled in, a fresh trace context.

        Returns ``None`` (no trace, no allocation beyond the counter
        bump) when the invocation is sampled out.
        """
        ordinal = self.seen
        self.seen += 1
        if self.mode == "off":
            return None
        if self.mode == "sampled" and not _sampled(
            self.seed, ordinal, self.sample_period
        ):
            return None
        self.started += 1
        return InvocationTrace(
            invocation.invocation_id,
            invocation.action,
            invocation.caller,
            invocation.submitted_at,
        )

    def finish_invocation(self, invocation) -> None:
        """Seal a trace once the controller has delivered the response."""
        trace = invocation.trace
        if trace is None:
            return
        status = getattr(invocation.status, "value", str(invocation.status))
        trace.finish(status, invocation.completed_at)
        self.finished += 1
        self.invocations.append(trace)

    # -- container spans and audit timeline -------------------------------

    def record_container_span(
        self,
        *,
        kind: str,
        invoker: str,
        container_id: str,
        action: str,
        start: float,
        end: float,
    ) -> None:
        self.container_spans.append(
            Span(
                name=kind,
                start=start,
                end=end,
                track=invoker,
                detail=f"{container_id} {action}",
            )
        )

    def audit(
        self, at: float, category: str, detail: str, *, actor: str = ""
    ) -> None:
        self.audit_log.append(
            AuditEvent(at=at, category=category, actor=actor, detail=detail)
        )

    # -- summaries ---------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Finished traces evicted from the bounded ring."""
        return self.finished - len(self.invocations)

    def counts(self) -> Dict[str, int]:
        return {
            "seen": self.seen,
            "started": self.started,
            "finished": self.finished,
            "retained": len(self.invocations),
            "dropped": self.dropped,
            "container_spans": len(self.container_spans),
            "audit_events": len(self.audit_log),
        }

    def trace_digest(self) -> str:
        """Process-stable CRC-32 digest of the retained sampled traces.

        Which invocation, who, when and how dispatched: identical for
        identical ``(seed, workload)``, in one process or across several.
        """
        parts = sorted(
            (
                trace.invocation_id,
                trace.action,
                trace.tenant,
                trace.status,
                trace.dispatch_class,
                round(trace.submitted_at, 9),
                round(-1.0 if trace.completed_at is None
                      else trace.completed_at, 9),
            )
            for trace in self.invocations
        )
        payload = repr(parts).encode("utf-8")
        return f"{zlib.crc32(payload):08x}"
