"""Tests for the virtual clock and the discrete-event loop."""

from __future__ import annotations

import pytest

from repro.errors import ClockError, EventLoopError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now == 5.0

    def test_cannot_start_negative(self):
        with pytest.raises(ClockError):
            VirtualClock(-1.0)

    def test_advance_to_absolute(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_same_time_is_noop(self):
        clock = VirtualClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_advance_to_past_rejected(self):
        clock = VirtualClock(2.0)
        with pytest.raises(ClockError):
            clock.advance_to(1.0)


class TestEventLoop:
    def test_schedule_and_run_in_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        executed = loop.run()
        assert executed == 3
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_simultaneous_events_run_in_schedule_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append(1))
        loop.schedule(1.0, lambda: order.append(2))
        loop.run()
        assert order == [1, 2]

    def test_schedule_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(EventLoopError):
            loop.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        loop = EventLoop()
        loop.clock.advance_to(5.0)
        with pytest.raises(EventLoopError):
            loop.schedule_at(1.0, lambda: None)

    def test_cancelled_events_do_not_run(self):
        loop = EventLoop()
        ran = []
        event = loop.schedule(1.0, lambda: ran.append("x"))
        event.cancel()
        loop.run()
        assert ran == []

    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        ran = []
        loop.schedule(1.0, lambda: ran.append("early"))
        loop.schedule(10.0, lambda: ran.append("late"))
        loop.run(until=5.0)
        assert ran == ["early"]
        assert loop.now == 5.0
        assert loop.pending == 1

    def test_run_max_events(self):
        loop = EventLoop()
        for delay in (1.0, 2.0, 3.0):
            loop.schedule(delay, lambda: None)
        executed = loop.run(max_events=2)
        assert executed == 2
        assert loop.pending == 1

    def test_events_can_schedule_more_events(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.schedule(1.0, lambda: seen.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert seen == ["first", "second"]
        assert loop.now == 2.0

    def test_step_returns_false_when_empty(self):
        assert EventLoop().step() is False

    def test_executed_events_counter(self):
        loop = EventLoop()
        loop.schedule(0.5, lambda: None)
        loop.schedule(1.0, lambda: None)
        loop.run()
        assert loop.executed_events == 2


class TestRecurringTimer:
    def test_fires_at_interval_multiples_until_cancelled(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_recurring(1.0, lambda: fired.append(loop.now))
        loop.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]
        assert timer.fires == 3
        timer.cancel()
        loop.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert not timer.active

    def test_callback_can_cancel_own_timer(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_recurring(1.0, lambda: (fired.append(loop.now),
                                                      timer.cancel() if len(fired) >= 2 else None))
        loop.run()  # terminates because the timer cancels itself
        assert fired == [1.0, 2.0]
        assert loop.pending == 0

    def test_cancel_before_first_fire(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_recurring(1.0, lambda: fired.append(loop.now))
        timer.cancel()
        loop.run()
        assert fired == []

    def test_non_positive_interval_rejected(self):
        loop = EventLoop()
        with pytest.raises(EventLoopError):
            loop.schedule_recurring(0.0, lambda: None)
        with pytest.raises(EventLoopError):
            loop.schedule_recurring(-1.0, lambda: None)

    def test_interleaves_deterministically_with_one_shots(self):
        def trace() -> list:
            loop = EventLoop()
            seen = []
            timer = loop.schedule_recurring(1.0, lambda: seen.append(("tick", loop.now)))
            loop.schedule(1.0, lambda: seen.append(("shot", loop.now)))
            loop.schedule(2.5, lambda: (seen.append(("stop", loop.now)), timer.cancel()))
            loop.run()
            return seen

        first, second = trace(), trace()
        assert first == second
        # The recurring firing at t=1.0 was scheduled before the one-shot,
        # so (time, sequence) ordering runs it first.
        assert first == [("tick", 1.0), ("shot", 1.0), ("tick", 2.0), ("stop", 2.5)]


class TestHeapHygiene:
    """Cancelled-event accounting, compaction, and event recycling."""

    def test_pending_live_excludes_cancelled_corpses(self):
        loop = EventLoop()
        events = [loop.schedule(float(i + 1), lambda: None) for i in range(6)]
        assert loop.pending == 6
        assert loop.pending_live == 6
        for event in events[:4]:
            event.cancel()
        # Lazy cancellation: corpses still sit in the heap ...
        assert loop.pending == 6
        # ... but the live count sees through them.
        assert loop.pending_live == 2

    def test_cancel_is_idempotent_in_the_accounting(self):
        loop = EventLoop()
        event = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert loop.pending_live == 1

    def test_cancelling_a_fired_event_does_not_count(self):
        # A callback cancelling its own just-popped event (the recurring
        # timer's cancel-after-fire shape) must not be booked as a heap
        # corpse — there is nothing in the heap to reclaim.
        loop = EventLoop()
        holder = {}
        holder["event"] = loop.schedule(1.0, lambda: holder["event"].cancel())
        loop.schedule(2.0, lambda: None)
        loop.run()
        assert loop.pending == 0
        assert loop.pending_live == 0
        assert loop._cancelled_in_queue == 0

    def test_compaction_triggers_when_corpses_outnumber_live(self):
        from repro.sim.events import COMPACT_MIN_CANCELLED

        loop = EventLoop()
        doomed = [
            loop.schedule(float(i + 1), lambda: None)
            for i in range(COMPACT_MIN_CANCELLED)
        ]
        survivors = [
            loop.schedule(float(i + 100), lambda: None)
            for i in range(COMPACT_MIN_CANCELLED - 2)
        ]
        assert loop.compactions == 0
        for event in doomed:
            event.cancel()
        # Corpses (32) now outnumber the live events (30): one compaction
        # rebuilt the heap with only the survivors.
        assert loop.compactions == 1
        assert loop.pending == len(survivors)
        assert loop.pending_live == len(survivors)
        assert loop._cancelled_in_queue == 0

    def test_no_compaction_below_the_floor(self):
        loop = EventLoop()
        doomed = [loop.schedule(float(i + 1), lambda: None) for i in range(8)]
        for event in doomed:
            event.cancel()
        # 8 corpses vs 0 live would compact by ratio, but the floor keeps
        # tiny heaps from thrashing.
        assert loop.compactions == 0
        assert loop.pending == 8
        assert loop.pending_live == 0

    def test_compacted_run_executes_survivors_in_order(self):
        from repro.sim.events import COMPACT_MIN_CANCELLED

        loop = EventLoop()
        seen = []
        doomed = [
            loop.schedule(float(i + 1), lambda: seen.append("doomed"))
            for i in range(COMPACT_MIN_CANCELLED + 4)
        ]
        for offset in (3.5, 1.5, 2.5):
            loop.schedule(offset, lambda at=offset: seen.append(at))
        for event in doomed:
            event.cancel()
        assert loop.compactions >= 1
        loop.run()
        assert seen == [1.5, 2.5, 3.5]

    def test_keep_alive_churn_keeps_heap_small(self):
        # The motivating pattern: schedule-then-cancel over and over (a
        # keep-alive timer reset by every request).  Without compaction
        # the heap grows with the churn count; with it, memory stays
        # proportional to live events.
        loop = EventLoop()
        for _ in range(500):
            event = loop.schedule(1000.0, lambda: None)
            event.cancel()
        assert loop.pending_live == 0
        assert loop.pending < 500  # corpses were reclaimed along the way
        assert loop.compactions >= 1

