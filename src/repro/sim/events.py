"""Discrete-event simulation loop.

The FaaS platform substrate (invoker, containers, load generators) is a
discrete-event simulation: components schedule callbacks at future virtual
times and the :class:`EventLoop` executes them in timestamp order, advancing
the shared :class:`~repro.sim.clock.VirtualClock` as it goes.

The loop is deliberately small.  Groundhog's own work (snapshot, restore,
tracking) is computed synchronously with cost models; the event loop only
captures the *concurrency structure* of the platform — which requests wait on
which containers, and whether restoration overlaps idle time (low load) or
delays the next request (high load).

Cancellation is lazy (an event is flagged and skipped when popped), which
is O(1) but lets churny cancel/re-schedule patterns — keep-alive eviction
timers, control-plane stand-downs — accumulate dead entries in the heap
for the lifetime of a long run.  The loop therefore counts its cancelled
residents and *compacts* the heap whenever they outnumber the live ones
(:data:`COMPACT_MIN_CANCELLED` guards against thrashing on tiny queues),
keeping memory proportional to live events.  :attr:`EventLoop.pending_live`
exposes the live count so idle-detection heuristics do not see phantom
load from corpses.

The heap holds ``(time, sequence, event)`` tuples.  ``sequence`` is unique,
so ``heapq`` orders entries by comparing floats and ints in C and never
reaches the :class:`Event` itself; that is the same ``(time, sequence)``
order an event-to-event comparison would give.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import EventLoopError
from repro.sim.clock import VirtualClock

#: Compaction never triggers below this many cancelled events: rebuilding
#: a 10-entry heap to reclaim 6 corpses costs more than it saves.
COMPACT_MIN_CANCELLED = 32


class Event:
    """A scheduled callback: the handle :meth:`EventLoop.schedule` returns.

    Events fire in ``(time, sequence)`` order, so simultaneous events fire
    in the order they were scheduled, which keeps runs deterministic.  The
    loop's heap orders ``(time, sequence, event)`` entries, so an event is
    never compared with another one.
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled", "popped", "loop")

    time: float
    sequence: int
    callback: Callable[[], None]
    label: str
    cancelled: bool
    #: True once the loop has removed the event from its heap (fired or
    #: discarded).  Guards the cancelled-event accounting: cancelling an
    #: event that is no longer queued must not count against the heap.
    popped: bool
    #: Back-reference for cancellation accounting (None for an event
    #: built outside a loop).
    loop: Optional["EventLoop"]

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        loop: Optional["EventLoop"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.popped = False
        self.loop = loop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, sequence={self.sequence}, label={self.label!r}, "
            f"cancelled={self.cancelled}, popped={self.popped})"
        )

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.loop is not None and not self.popped:
            self.loop._note_cancelled()


#: One heap entry: the event's ``(time, sequence)`` key, then the event.
_Entry = Tuple[float, int, Event]


class RecurringTimer:
    """A cancellable timer that re-arms itself after every firing.

    Each firing schedules a fresh event through the normal
    ``(time, sequence)`` path, so recurring timers interleave with one-shot
    events deterministically: two runs that create the same timers in the
    same order produce identical execution traces.

    The timer stays armed until :meth:`cancel` is called (the callback may
    cancel its own timer).  Because an armed timer always has one pending
    event, holders must cancel it when the periodic work is no longer
    needed, or a drain-style ``run()`` will keep firing it forever.
    """

    def __init__(
        self,
        loop: "EventLoop",
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
        self._event: Optional[Event] = None
        self._arm()

    @property
    def active(self) -> bool:
        """True while the timer will keep firing."""
        return not self._cancelled

    def _arm(self) -> None:
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


class EventLoop:
    """A minimal deterministic discrete-event loop."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self._queue: List[_Entry] = []
        self._sequence = itertools.count()
        self._running = False
        self._executed_events = 0
        self._cancelled_in_queue = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time (the clock's, read in one step)."""
        return self.clock._now

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

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise EventLoopError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self.clock._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        now = self.clock._now
        if time < now:
            raise EventLoopError(
                f"cannot schedule event at {time} before current time {now}"
            )
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, label, self)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def schedule_recurring(
        self, interval: float, callback: Callable[[], None], label: str = ""
    ) -> RecurringTimer:
        """Schedule ``callback`` to run every ``interval`` seconds until cancelled.

        The first firing happens ``interval`` seconds from now.  Returns the
        :class:`RecurringTimer`, whose :meth:`RecurringTimer.cancel` stops it.
        """
        return RecurringTimer(self, interval, callback, label=label)

    def _note_cancelled(self) -> None:
        """Account a newly-cancelled queued event; compact if corpses win."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event and re-heapify the survivors.

        The heap list is rebuilt in place: a cancellation inside a callback
        compacts while :meth:`run` holds the list.
        """
        queue = self._queue
        for _time, _sequence, event in queue:
            if event.cancelled:
                event.popped = True
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        Cancelled events are discarded without running.
        """
        queue = self._queue
        while queue:
            time, _sequence, event = heapq.heappop(queue)
            event.popped = True
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self.clock.advance_to(time)
            self._executed_events += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of events executed.

        ``until`` is an absolute simulated time; events scheduled strictly
        after it remain queued and the clock is advanced to ``until``.
        Cancelled events at the head of the heap are discarded as they
        surface, whatever their time.
        """
        if self._running:
            raise EventLoopError("event loop is not re-entrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        advance_to = self.clock.advance_to
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                time, _sequence, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    event.popped = True
                    self._cancelled_in_queue -= 1
                    continue
                if until is not None and time > until:
                    break
                heappop(queue)
                event.popped = True
                advance_to(time)
                self._executed_events += 1
                executed += 1
                event.callback()
            if until is not None and self.clock.now < until:
                self.clock.advance_to(until)
        finally:
            self._running = False
        return executed
