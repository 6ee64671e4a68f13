"""The event loop as it was before its heap held tuples: a test oracle.

:class:`ReferenceEventLoop` keeps :class:`ReferenceEvent` dataclass
objects in its heap, ordered by a hand-written ``__lt__`` over
``(time, sequence)``, and its :meth:`ReferenceEventLoop.run` peeks past
cancelled corpses (``_peek_next``) and then fires through
:meth:`ReferenceEventLoop.step`, once per event.  ``repro.sim.events``
replaced all three with a heap of ``(time, sequence, event)`` tuples and a
single-pop run loop; the property suite drives both through the same
operations and requires the same firings, return values and counters.
The cancellation accounting, compaction (at the shipped
``COMPACT_MIN_CANCELLED``) and the recurring timer's event reuse are
kept as they were.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import EventLoopError
from repro.sim.clock import VirtualClock
from repro.sim.events import COMPACT_MIN_CANCELLED


@dataclass
class ReferenceEvent:
    """A scheduled callback.

    Events order by ``(time, sequence)`` so simultaneous events fire in the
    order they were scheduled, which keeps runs deterministic.  ``__lt__``
    is hand-written rather than dataclass-generated: the heap compares
    events millions of times per long run, and comparing two fields
    directly avoids building a pair of tuples per comparison.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: True once the loop has removed the event from its heap (fired or
    #: discarded).  Guards the cancelled-event accounting: cancelling an
    #: event that is no longer queued must not count against the heap.
    popped: bool = field(default=False, compare=False)
    #: Back-reference for cancellation accounting (None in unit tests
    #: that construct bare events).
    loop: Optional["ReferenceEventLoop"] = field(default=None, compare=False, repr=False)

    def __lt__(self, other: "ReferenceEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.loop is not None and not self.popped:
            self.loop._note_cancelled()


class ReferenceRecurringTimer:
    """A cancellable timer that re-arms itself after every firing.

    Each firing schedules a fresh heap entry through the normal
    ``(time, sequence)`` path, so recurring timers interleave with one-shot
    events deterministically: two runs that create the same timers in the
    same order produce identical execution traces.  As an allocation
    fast path, the timer *reuses* its just-fired :class:`ReferenceEvent` object for
    the next arming (same ordering semantics — a fresh sequence number is
    drawn) instead of constructing a new one per tick.

    The timer stays armed until :meth:`cancel` is called (the callback may
    cancel its own timer).  Because an armed timer always has one pending
    event, holders must cancel it when the periodic work is no longer
    needed, or a drain-style ``run()`` will keep firing it forever.
    """

    def __init__(
        self,
        loop: "ReferenceEventLoop",
        interval: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        if interval <= 0:
            raise EventLoopError(f"recurring timer interval must be positive (got {interval})")
        self.loop = loop
        self.interval = interval
        self.callback = callback
        self.label = label
        self.fires = 0
        self._cancelled = False
        self._event: Optional[ReferenceEvent] = None
        self._arm()

    @property
    def active(self) -> bool:
        """True while the timer will keep firing."""
        return not self._cancelled

    def _arm(self) -> None:
        event = self._event
        if event is not None and event.popped and not event.cancelled:
            # Fast path: the previous firing's event is out of the heap
            # and nobody else holds it — recycle it for the next tick.
            self._event = self.loop.reschedule(event, self.interval)
        else:
            self._event = self.loop.schedule(self.interval, self._fire, label=self.label)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        self.callback()
        if not self._cancelled:
            self._arm()

    def cancel(self) -> None:
        """Stop the timer; the pending firing (if any) is discarded."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()


class ReferenceEventLoop:
    """A minimal deterministic discrete-event loop."""

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._queue: List[ReferenceEvent] = []
        self._sequence = itertools.count()
        self._running = False
        self._executed_events = 0
        self._cancelled_in_queue = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._queue)

    @property
    def pending_live(self) -> int:
        """Number of queued events that will actually fire.

        Excludes lazily-cancelled corpses still awaiting their pop (or the
        next compaction), so idle-detection heuristics and tests see real
        load rather than phantom entries.
        """
        return len(self._queue) - self._cancelled_in_queue

    @property
    def executed_events(self) -> int:
        """Number of events executed since the loop was created."""
        return self._executed_events

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> ReferenceEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise EventLoopError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self.clock.now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> ReferenceEvent:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self.clock.now:
            raise EventLoopError(
                f"cannot schedule event at {time} before current time {self.clock.now}"
            )
        event = ReferenceEvent(
            time=time,
            sequence=next(self._sequence),
            callback=callback,
            label=label,
            loop=self,
        )
        heapq.heappush(self._queue, event)
        return event

    def reschedule(self, event: ReferenceEvent, delay: float) -> ReferenceEvent:
        """Re-queue an already-popped event ``delay`` seconds from now.

        The allocation fast path for recurring timers: the event object is
        recycled with a fresh ``(time, sequence)`` pair, so ordering and
        determinism are identical to scheduling a brand-new event.
        """
        if delay < 0:
            raise EventLoopError(f"cannot schedule event in the past (delay={delay})")
        if not event.popped:
            raise EventLoopError("cannot reschedule an event that is still queued")
        event.time = self.clock.now + delay
        event.sequence = next(self._sequence)
        event.cancelled = False
        event.popped = False
        event.loop = self
        heapq.heappush(self._queue, event)
        return event

    def schedule_recurring(
        self, interval: float, callback: Callable[[], None], label: str = ""
    ) -> ReferenceRecurringTimer:
        """Schedule ``callback`` to run every ``interval`` seconds until cancelled.

        The first firing happens ``interval`` seconds from now.  Returns the
        :class:`RecurringTimer`, whose :meth:`ReferenceRecurringTimer.cancel` stops it.
        """
        return ReferenceRecurringTimer(self, interval, callback, label=label)

    def _note_cancelled(self) -> None:
        """Account a newly-cancelled queued event; compact if corpses win."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event and re-heapify the survivors."""
        for event in self._queue:
            if event.cancelled:
                event.popped = True
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        Cancelled events are discarded without running.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            event.popped = True
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self.clock.advance_to(event.time)
            self._executed_events += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of events executed.

        ``until`` is an absolute simulated time; events scheduled strictly
        after it remain queued and the clock is advanced to ``until``.
        """
        if self._running:
            raise EventLoopError("event loop is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                next_event = self._peek_next()
                if next_event is None:
                    break
                if until is not None and next_event.time > until:
                    break
                if self.step():
                    executed += 1
            if until is not None and self.clock.now < until:
                self.clock.advance_to(until)
        finally:
            self._running = False
        return executed

    def _peek_next(self) -> Optional[ReferenceEvent]:
        """Return the next non-cancelled event without removing it."""
        while self._queue and self._queue[0].cancelled:
            corpse = heapq.heappop(self._queue)
            corpse.popped = True
            self._cancelled_in_queue -= 1
        return self._queue[0] if self._queue else None
