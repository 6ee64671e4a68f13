"""Pipes between the FaaS platform, the Groundhog manager and the function.

The OpenWhisk actionloop proxy talks to the function runtime over stdin and
stdout.  Groundhog interposes on exactly these pipes: it buffers incoming
requests until the function process has been restored to a clean state, and
relays responses back to the platform (§4.1, §4.5).  The relay cost is
proportional to the payload size, which is why Node.js functions with large
inputs (``json``: 200 kB, ``img-resize``: 76 kB) show higher invoker-latency
overhead under Groundhog (§5.3.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.sim.costs import CostModel, DEFAULT_COST_MODEL


@dataclass(frozen=True)
class Message:
    """A framed message on a pipe (one request or one response)."""

    payload_bytes: int
    body: object = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")


class Pipe:
    """A unidirectional message pipe with per-transfer cost accounting."""

    def __init__(self, name: str, cost_model: Optional[CostModel] = None) -> None:
        self.name = name
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self._queue: Deque[Message] = deque()
        self.bytes_transferred = 0
        self.messages_transferred = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        """True if nothing is waiting to be read."""
        return not self._queue

    def write(self, message: Message) -> float:
        """Enqueue a message; returns the time spent copying it in."""
        self._queue.append(message)
        self.bytes_transferred += message.payload_bytes
        self.messages_transferred += 1
        return self.transfer_cost(message)

    def read(self) -> Message:
        """Dequeue the oldest message."""
        if not self._queue:
            raise LookupError(f"pipe {self.name!r} is empty")
        return self._queue.popleft()

    def drain(self) -> int:
        """Discard all buffered messages; returns how many were dropped."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def transfer_cost(self, message: Message) -> float:
        """Cost of relaying ``message`` across this pipe once."""
        return (
            self.cost_model.pipe_message_seconds
            + message.payload_bytes * self.cost_model.pipe_copy_per_byte_seconds
        )
