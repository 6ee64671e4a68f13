"""Virtual clock for deterministic simulated time.

Every duration in the reproduction flows through a :class:`VirtualClock`.
Nothing reads wall-clock time, which keeps experiments deterministic and lets
the benchmark harness replay the paper's multi-minute workloads in
milliseconds of real time.
"""

from __future__ import annotations

from repro.errors import ClockError


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    The clock counts seconds as floats.  It can only move forward; attempts
    to rewind raise :class:`~repro.errors.ClockError`.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError("clock cannot start before time zero")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp``.

        Advancing to the current time is a no-op; moving backwards raises.
        """
        if timestamp < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"
