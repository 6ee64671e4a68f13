"""Containers: one warm function instance behind an isolation mechanism.

A :class:`Container` corresponds to one OpenWhisk container instance: it
hosts exactly one function, serves at most one request at a time (the
one-at-a-time property Groundhog relies on, §3.1) and, between requests,
performs whatever post-request work its isolation mechanism requires
(restoration for GH, nothing for BASE, a full rebuild for cold-start).
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple, Optional

from repro.errors import ContainerError
from repro.baselines.registry import create_mechanism
from repro.core.policy import InitReport, InvokeReport, IsolationMechanism
from repro.faas.action import ActionSpec
from repro.faas.proxy import ActionLoopProxy
from repro.faas.request import Invocation
from repro.kernel.kernel import SimKernel
from repro.sim.costs import CostModel


class ContainerState(enum.Enum):
    """Scheduling state of a container as seen by the invoker."""

    CREATED = "created"
    INITIALIZING = "initializing"
    IDLE = "idle"
    BUSY = "busy"
    RESTORING = "restoring"
    #: Demoted to a held restorable snapshot: the live instance is gone
    #: (it occupies no warm slot and serves nothing) but its image is
    #: retained, so an on-core restore — far cheaper than a boot —
    #: brings it back to IDLE.  See the invoker's warmth spectrum.
    SNAPSHOTTED = "snapshotted"
    DEAD = "dead"


class ContainerExecution(NamedTuple):
    """What executing one invocation in a container produced.

    Every request builds one, so it is a named tuple.
    """

    report: InvokeReport
    #: Critical-path time including the invoker-side proxy overhead: this is
    #: the paper's invoker latency for the request.
    invoker_seconds: float
    #: Post-request work that keeps the container unavailable afterwards.
    unavailable_seconds: float


class Container:
    """One warm container instance for one action."""

    def __init__(
        self,
        spec: ActionSpec,
        *,
        container_id: str,
        kernel: SimKernel,
        cost_model: CostModel,
        rng: random.Random,
        dynamic: bool = False,
    ) -> None:
        self.spec = spec
        #: True for containers cold-started on demand (autoscaled pools).
        #: Only dynamic containers are subject to keep-alive eviction;
        #: pre-warmed containers form the permanent floor of the pool.
        self.dynamic = dynamic
        #: Virtual time at which the container last became idle; maintained
        #: by the invoker and used by its keep-alive eviction timer.
        self.idle_since = 0.0
        #: Virtual time at which the container finished initialising and
        #: joined its pool; maintained by the invoker.  A request submitted
        #: *before* this instant waited on the boot (a cold start on its
        #: path); one submitted after finds the container already warm.
        self.ready_at = 0.0
        #: Named by the invoker that built it (see ``Invoker._build_container``).
        self.container_id = container_id
        self.cost_model = cost_model
        self.kernel = kernel
        self.rng = rng
        self.proxy = ActionLoopProxy(self.cost_model)
        self.mechanism: IsolationMechanism = create_mechanism(
            spec.mechanism,
            spec.profile,
            kernel=self.kernel,
            cost_model=self.cost_model,
            rng=self.rng,
            dummy_payload=spec.dummy_payload,
            **spec.mechanism_options,
        )
        self.state = ContainerState.CREATED
        self.init_report: Optional[InitReport] = None
        self.requests_served = 0
        #: How many times this container was restored from a held snapshot.
        self.restored_from_snapshot = 0
        #: ``requests_served`` as of the last snapshot restore.  Together
        #: with ``ready_at`` this classifies the first post-restore
        #: dispatch as a ``restore`` (not warm, not cold) under the same
        #: honesty rule pre-warms use.
        self.requests_served_at_restore = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def initialize(self) -> InitReport:
        """Build the container: process, runtime, warm-up, mechanism prep."""
        if self.state is not ContainerState.CREATED:
            raise ContainerError(f"{self.container_id}: already initialised")
        self.state = ContainerState.INITIALIZING
        self.init_report = self.mechanism.initialize()
        self.state = ContainerState.IDLE
        return self.init_report

    def shutdown(self) -> None:
        """Mark the container dead (the platform reclaims it)."""
        self.state = ContainerState.DEAD

    def demote(self) -> None:
        """Demote an idle container to a held restorable snapshot."""
        if self.state is not ContainerState.IDLE:
            raise ContainerError(
                f"{self.container_id}: cannot demote while {self.state.value}"
            )
        self.state = ContainerState.SNAPSHOTTED

    def begin_restore(self) -> None:
        """Start restoring a held snapshot back to a live instance."""
        if self.state is not ContainerState.SNAPSHOTTED:
            raise ContainerError(
                f"{self.container_id}: cannot restore while {self.state.value}"
            )
        self.state = ContainerState.RESTORING

    def complete_restore(self, now: float) -> None:
        """Finish a restore: the container is live and idle again."""
        if self.state is not ContainerState.RESTORING:
            raise ContainerError(
                f"{self.container_id}: restore did not begin"
            )
        self.state = ContainerState.IDLE
        self.ready_at = now
        self.idle_since = now
        self.restored_from_snapshot += 1
        self.requests_served_at_restore = self.requests_served

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        invocation: Invocation,
        *,
        verify: bool = False,
    ) -> ContainerExecution:
        """Serve one invocation synchronously.

        The invoker drives the actual timing: ``invoker_seconds`` is how long
        the container is busy on the request's critical path, and
        ``unavailable_seconds`` is how long it remains unavailable afterwards
        while the mechanism does its post-request work.
        """
        if self.state is not ContainerState.IDLE:
            raise ContainerError(
                f"{self.container_id}: cannot execute while {self.state.value}"
            )
        self.state = ContainerState.BUSY
        try:
            report = self.mechanism.invoke(
                invocation.payload,
                invocation.invocation_id,
                caller=invocation.caller,
                verify=verify,
            )
        finally:
            self.state = ContainerState.IDLE
        proxy_overhead = self.proxy.request_overhead_seconds(
            len(invocation.payload), report.result.response_bytes
        )
        self.requests_served += 1
        return ContainerExecution(
            report=report,
            invoker_seconds=report.critical_seconds + proxy_overhead,
            unavailable_seconds=report.post_seconds,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def read_request_buffer(self) -> bytes:
        """Probe the function's leak channel (used by tests and examples)."""
        return self.mechanism.read_request_buffer()
