"""Invocations: the requests flowing through the platform.

An :class:`Invocation` carries the caller identity that motivates sequential
request isolation in the first place (§2 "Access control"): different
invocations of the same function may run on behalf of differently privileged
end-clients, and nothing from one caller's invocation may be visible to the
next caller's.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import InvokeReport

_invocation_counter = itertools.count(1)  # detlint: ignore[D005] unique-id mint; ids are labels, never ordering inputs


class InvocationStatus(enum.Enum):
    """Lifecycle of one invocation."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    #: Shed by backpressure: the action's bounded queue was full, so the
    #: platform refused the invocation instead of queueing it.
    REJECTED = "rejected"
    #: Refused by per-tenant quota enforcement: the caller exhausted its
    #: token-bucket admission rate.  Deliberately distinct from
    #: ``REJECTED`` — a quota refusal is policy ("you exceeded your
    #: rate"), not capacity ("the platform is overloaded").
    THROTTLED = "throttled"


@dataclass(slots=True)
class Invocation:
    """One request to one action.

    Every arrival builds one, so it has slots: no per-instance ``__dict__``.
    """

    action: str
    payload: bytes = b""
    caller: str = "anonymous"
    invocation_id: str = ""
    submitted_at: float = 0.0
    dispatched_at: float = 0.0
    completed_at: float = 0.0
    status: InvocationStatus = InvocationStatus.PENDING
    response: Optional[Dict[str, object]] = None
    #: Time spent inside the invoker (function execution + mechanism critical
    #: path), the paper's "invoker latency".
    invoker_seconds: float = 0.0
    #: Time spent waiting for a free, clean container.
    queue_seconds: float = 0.0
    error: str = ""
    #: Flight-recorder context (an ``repro.faas.obs.InvocationTrace``)
    #: when this invocation was sampled in; ``None`` otherwise — every
    #: instrumentation site guards on that, so the untraced path does no
    #: work.  Excluded from comparison/repr: tracing is observability,
    #: not identity.
    trace: Optional[object] = field(default=None, repr=False, compare=False)
    #: The isolation mechanism's report on serving this invocation
    #: (restore, faults, result), left by the invoker that completed it;
    #: ``None`` for an invocation that never ran.  Nothing on the platform
    #: keeps it: it lives exactly as long as the caller keeps the
    #: invocation.  Excluded from comparison/repr like ``trace``.
    report: Optional["InvokeReport"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.invocation_id:
            self.invocation_id = f"inv-{next(_invocation_counter):08d}"

    @property
    def e2e_seconds(self) -> float:
        """End-to-end latency as the client saw it."""
        if self.status is not InvocationStatus.COMPLETED:
            return float("nan")
        return self.completed_at - self.submitted_at

    def mark_completed(self, now: float, response: Dict[str, object]) -> None:
        """Record completion."""
        self.completed_at = now
        self.response = response
        self.status = InvocationStatus.COMPLETED

    def mark_failed(self, now: float, error: str) -> None:
        """Record failure."""
        self.completed_at = now
        self.error = error
        self.status = InvocationStatus.FAILED

    def mark_rejected(self, now: float, reason: str = "queue full") -> None:
        """Record that backpressure shed this invocation."""
        self.completed_at = now
        self.error = reason
        self.status = InvocationStatus.REJECTED

    def mark_throttled(self, now: float, reason: str = "tenant over quota") -> None:
        """Record that per-tenant quota enforcement refused this invocation."""
        self.completed_at = now
        self.error = reason
        self.status = InvocationStatus.THROTTLED
