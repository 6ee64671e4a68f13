"""The controller / load balancer in front of the invoker.

In the paper's distributed OpenWhisk deployment, one VM runs the controller
and the other core components while the invoker runs on a separate VM; the
controller contributes a fixed platform latency to every request (HTTP
handling, authentication, scheduling, the message bus between controller and
invoker).  That overhead is present identically in the baseline and in every
Groundhog configuration, which is why end-to-end overheads look smaller than
invoker-level overheads (§5.3.1).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Protocol

from repro.faas.request import Invocation
from repro.sim.events import EventLoop
from repro.sim.rng import fallback_stream

CompletionCallback = Callable[[Invocation], None]


class InvocationBackend(Protocol):
    """Anything the controller can hand invocations to.

    Both a single :class:`~repro.faas.invoker.Invoker` and a cluster
    :class:`~repro.faas.scheduler.Scheduler` satisfy this, so the same
    controller fronts the paper's one-box deployment and an N-invoker
    cluster.
    """

    def submit(self, invocation: Invocation, callback: CompletionCallback) -> None:
        ...


class Controller:
    """Routes client requests to the invoker(s), adding platform latency."""

    def __init__(
        self,
        loop: EventLoop,
        invoker: InvocationBackend,
        *,
        platform_overhead_seconds: float = 0.026,
        platform_jitter_seconds: float = 0.004,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.loop = loop
        self.invoker = invoker
        self.platform_overhead_seconds = platform_overhead_seconds
        self.platform_jitter_seconds = platform_jitter_seconds
        self.rng = rng if rng is not None else fallback_stream("faas.controller")
        self.requests_routed = 0

    def _overhead_sample(self) -> float:
        """One sample of platform overhead (half charged on each direction)."""
        if self.platform_jitter_seconds <= 0:
            return self.platform_overhead_seconds
        return max(
            0.0,
            self.rng.gauss(self.platform_overhead_seconds, self.platform_jitter_seconds),
        )

    def submit(self, invocation: Invocation, callback: CompletionCallback) -> None:
        """Accept a client request and route it through the platform."""
        self.requests_routed += 1
        overhead = self._overhead_sample()
        inbound = overhead / 2.0
        hop = _RoutedRequest(self, invocation, callback, overhead - inbound)
        self.loop.schedule(inbound, hop.route, label=f"route:{invocation.invocation_id}")


class _RoutedRequest:
    """One request's trip through the controller: in to the invoker, back out.

    Its bound methods are the request's event callbacks, so an arrival
    builds this one record instead of a closure per hop.
    """

    __slots__ = ("controller", "invocation", "callback", "outbound")

    def __init__(
        self,
        controller: Controller,
        invocation: Invocation,
        callback: CompletionCallback,
        outbound: float,
    ) -> None:
        self.controller = controller
        self.invocation = invocation
        self.callback = callback
        #: The outbound half of the platform overhead sample.
        self.outbound = outbound

    def route(self) -> None:
        """The inbound hop is over: hand the request to the backend."""
        self.controller.invoker.submit(self.invocation, self.respond)

    def respond(self, finished: Invocation) -> None:
        """The backend is done: send the response back to the client."""
        self.invocation = finished
        self.controller.loop.schedule(
            self.outbound, self.deliver, label=f"respond:{finished.invocation_id}"
        )

    def deliver(self) -> None:
        """The response reaches the client."""
        finished = self.invocation
        # End-to-end latency is measured when the response reaches the
        # client, i.e. after the outbound platform hop.
        finished.completed_at = self.controller.loop.now
        self.callback(finished)
