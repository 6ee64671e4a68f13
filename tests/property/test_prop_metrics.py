"""Twin property suite: the metrics collector against the per-sample oracle.

:class:`~repro.faas.metrics.MetricsCollector` folds finished invocations
into time-bucket sketches and keeps none of them;
``reference_metrics.ReferenceMetrics`` keeps every one.  Hypothesis
feeds both the same stream — four outcome statuses, one to three tenants,
finish times on and off bucket edges, recorded in finish order as the
event loop records them — into a collector with a small live-bucket cap,
so the run-lifetime archive absorbs evicted buckets.

The properties hold in the regime where the collector documents parity:

* **Windows** — for every window that starts on a live bucket edge and
  ends at the last finish, ``window()`` and each tenant of
  ``by_caller()`` count every outcome exactly like the oracle's closed
  interval;
* **Whole run** — the archive is lossless: run-lifetime counts and the
  unwindowed per-tenant split equal the oracle's;
* **Latency** — ``e2e_stats()`` count, minimum and maximum are equal;
  p50 and p99 lie within the sketch's relative accuracy (0.5 %) of the
  order statistics that bracket the percentile's rank.

A second twin checks the running window fold behind bounded
``by_caller(since=..., until=...)`` calls against a cold start: one
collector answers a sequence of windows that move forward, keep their
start, slide, jump back or are inverted, between records that are
sometimes late, with a live-bucket cap small enough that evictions land
inside and below the fold.  After every query its answer must equal,
field for field and bit for bit, the answer of a fresh collector fed the
same records.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st
from reference_metrics import ReferenceMetrics

from repro.faas.metrics import MetricsCollector
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.sketch import DEFAULT_MAX_BINS, DEFAULT_RELATIVE_ACCURACY

#: Bucket width: finish times are multiples of 1/16 s, so a quarter of
#: them sit on a bucket edge and the rest fall inside a bucket.
BUCKET = 0.25
TICKS_PER_SECOND = 16
TICKS_PER_BUCKET = 4
STATUSES = (
    InvocationStatus.COMPLETED,
    InvocationStatus.REJECTED,
    InvocationStatus.THROTTLED,
    InvocationStatus.FAILED,
)

samples = st.tuples(
    st.integers(min_value=0, max_value=40 * TICKS_PER_BUCKET),  # finish tick
    st.sampled_from(STATUSES),
    st.integers(min_value=0, max_value=2),  # tenant
    st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),  # e2e latency
)


def _finished(tick: int, status: InvocationStatus, tenant: int, latency: float) -> Invocation:
    at = tick / TICKS_PER_SECOND
    inv = Invocation(action="act", caller=f"tenant-{tenant}", submitted_at=at - latency)
    if status is InvocationStatus.COMPLETED:
        inv.mark_completed(at, {})
    elif status is InvocationStatus.REJECTED:
        inv.mark_rejected(at)
    elif status is InvocationStatus.THROTTLED:
        inv.mark_throttled(at)
    else:
        inv.mark_failed(at, "boom")
    return inv


def _assert_counts_equal(got, want) -> None:
    for name in ("num_completed", "num_failed", "num_rejected",
                 "num_throttled", "num_recorded"):
        assert getattr(got, name) == getattr(want, name), name


def _assert_within_accuracy(estimate: float, ordered: List[float], pct: float,
                            alpha: float) -> None:
    rank = pct / 100.0 * (len(ordered) - 1)
    low, high = ordered[math.floor(rank)], ordered[math.ceil(rank)]
    alpha *= 1.0001  # float-dust headroom
    assert (1.0 - alpha) * low <= estimate <= (1.0 + alpha) * high, (pct, estimate, low, high)


def _assert_twins(got: MetricsCollector, want: ReferenceMetrics) -> None:
    _assert_counts_equal(got, want)
    if not want.num_completed:
        return
    stats, exact = got.e2e_stats(), want.e2e_stats()
    assert stats.count == exact.count
    assert stats.minimum == exact.minimum
    assert stats.maximum == exact.maximum
    ordered = sorted(inv.e2e_seconds for inv in want.completed)
    _assert_within_accuracy(stats.median, ordered, 50, got.relative_accuracy)
    _assert_within_accuracy(stats.p99, ordered, 99, got.relative_accuracy)


@given(
    stream=st.lists(samples, min_size=1, max_size=120),
    max_buckets=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_collector_is_the_oracle_in_its_parity_regime(stream, max_buckets, data):
    stream = sorted(stream, key=lambda sample: sample[0])
    collector = MetricsCollector(bucket_seconds=BUCKET, max_buckets=max_buckets)
    oracle = ReferenceMetrics()
    for sample in stream:
        invocation = _finished(*sample)
        collector.record(invocation)
        oracle.record(invocation)

    # Whole run: the archive keeps everything evicted buckets held.
    _assert_twins(collector, oracle)
    assert set(collector.by_caller()) == set(oracle.by_caller())
    for tenant, want in oracle.by_caller().items():
        _assert_twins(collector.by_caller()[tenant], want)

    # Windows: start on a live bucket edge, end at the last finish.  With
    # finishes recorded in order, the live buckets are the last
    # ``max_buckets`` distinct bucket indices.
    indices = sorted({tick // TICKS_PER_BUCKET for tick, *_ in stream})
    live_from = indices[-max_buckets] if len(indices) > max_buckets else 0
    first = data.draw(st.integers(min_value=live_from, max_value=indices[-1]))
    start = first * BUCKET
    end = stream[-1][0] / TICKS_PER_SECOND
    _assert_twins(collector.window(start, end), oracle.window(start, end))
    got = collector.by_caller(since=start, until=end)
    want = oracle.by_caller(since=start, until=end)
    assert set(got) == set(want)
    for tenant in want:
        _assert_twins(got[tenant], want[tenant])


# ----------------------------------------------------------------------
# The running window fold against a cold start
# ----------------------------------------------------------------------

#: A record ``("record", tick, status, tenant, e2e latency)`` or a query
#: ``("query", since, until)``, in seconds.
Op = Tuple


def _moment_bits(sketch) -> tuple:
    moments = sketch.moments
    return (moments.count, moments.mean.hex(), moments._m2.hex(),
            moments.minimum.hex(), moments.maximum.hex())


def _slice_state(slice_) -> tuple:
    """Everything a slice holds: counts, zero counts, bins, moment bits."""
    return (
        slice_.completed, slice_.failed, slice_.rejected, slice_.throttled,
        slice_.e2e.quantiles._zero, slice_.e2e.quantiles._bins,
        _moment_bits(slice_.e2e),
    )


def _split_state(split) -> list:
    """A by_caller() answer: tenant order, and per tenant its whole state."""
    return [
        (
            tenant,
            [collector.num_completed, collector.num_failed,
             collector.num_rejected, collector.num_throttled],
            [(name, _slice_state(slice_))
             for name, slice_ in collector._archive.tenants.items()],
            _slice_state(collector._archive.total),
        )
        for tenant, collector in split.items()
    ]


def _replay_windows(ops: Sequence[Op], max_buckets: int) -> List[List[str]]:
    """Run ``ops`` on one collector, checking each answer against a cold start.

    Returns each query's tenants, in the order the answer lists them.
    """
    warm = MetricsCollector(bucket_seconds=BUCKET, max_buckets=max_buckets)
    recorded: List[Invocation] = []
    answers: List[List[str]] = []
    for op in ops:
        if op[0] == "record":
            invocation = _finished(*op[1:])
            warm.record(invocation)
            recorded.append(invocation)
            continue
        _, since, until = op
        cold = MetricsCollector(bucket_seconds=BUCKET, max_buckets=max_buckets)
        for invocation in recorded:
            cold.record(invocation)
        got = warm.by_caller(since=since, until=until)
        assert _split_state(got) == _split_state(
            cold.by_caller(since=since, until=until)
        ), (since, until)
        answers.append(list(got))
    return answers


#: How a query's window moves against the previous one.
MOVES = ("forward", "keep", "back", "end-back", "inverted")

steps = st.one_of(
    st.tuples(
        st.just("record"),
        st.integers(min_value=0, max_value=6),  # ticks the clock advances
        st.integers(min_value=-12, max_value=12).map(lambda k: max(k, 0)),  # lateness
        st.sampled_from(STATUSES),
        st.integers(min_value=0, max_value=2),  # tenant
        st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=5.0)),
    ),
    st.tuples(
        st.just("query"),
        st.sampled_from(MOVES),
        st.integers(min_value=0, max_value=24),  # ticks
    ),
)


def _absolute(drawn: Sequence[tuple]) -> List[Op]:
    """Turn drawn steps (clock advances, window moves) into absolute ops."""
    ops: List[Op] = []
    clock = 0
    since: Optional[int] = None
    until = 0
    for step in drawn:
        if step[0] == "record":
            _, advance, late, status, tenant, latency = step
            clock += advance
            ops.append(("record", max(clock - late, 0), status, tenant, latency))
            continue
        _, move, ticks = step
        if since is None or move == "forward":
            since, until = clock - ticks, clock
        elif move == "keep":
            until = max(clock, since)
        elif move == "back":
            since, until = since - ticks, clock
        elif move == "end-back":
            until = max(until - ticks, since)
        else:  # inverted
            since, until = clock, clock - ticks - 1
        ops.append(("query", since / TICKS_PER_SECOND, until / TICKS_PER_SECOND))
    return ops


@given(
    drawn=st.lists(steps, min_size=1, max_size=80),
    max_buckets=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_window_fold_answers_like_a_cold_start(drawn, max_buckets):
    _replay_windows(_absolute(drawn), max_buckets)


def _record(tick: int, tenant: int = 0, latency: float = 0.01) -> Op:
    return ("record", tick, InvocationStatus.COMPLETED, tenant, latency)


def _query(since_tick: int, until_tick: int) -> Op:
    return ("query", since_tick / TICKS_PER_SECOND, until_tick / TICKS_PER_SECOND)


class TestWindowFoldExamples:
    """Pinned cases for each way the fold must be rebuilt or trimmed."""

    def test_a_late_record_into_a_folded_bucket(self):
        ops = [_record(tick, latency=0.01 * (tick + 1)) for tick in range(12)]
        ops += [
            _query(0, 12),  # folds buckets 0-2, bucket 3 is open
            _record(1, tenant=1, latency=3.0),  # lands in folded bucket 0
            _query(0, 13),
            _query(4, 14),  # and the fold slides past it
        ]
        assert _replay_windows(ops, max_buckets=8) == [
            ["tenant-0"], ["tenant-0", "tenant-1"], ["tenant-0"],
        ]

    def test_an_eviction_inside_the_fold(self):
        ops = [_record(tick, latency=0.01 * (tick + 1)) for tick in range(12)]
        ops += [
            _query(0, 11),  # folds buckets 0-1
            _record(12),  # bucket 3 evicts bucket 0, inside the fold
            _query(0, 12),
            _record(16),  # bucket 4 evicts bucket 1
            _query(0, 16),
        ]
        assert _replay_windows(ops, max_buckets=3) == [["tenant-0"]] * 3

    def test_an_eviction_below_the_fold_keeps_it(self):
        ops = [_record(tick) for tick in range(0, 24, 2)]
        ops += [_query(16, 22), _record(24), _query(16, 24), _query(20, 25)]
        assert _replay_windows(ops, max_buckets=3) == [["tenant-0"]] * 3

    def test_a_tenant_leaving_the_window(self):
        ops = [_record(0, tenant=1, latency=2.0)]
        ops += [_record(tick, tenant=0) for tick in range(0, 20, 2)]
        ops += [
            _query(0, 12),  # tenant 1 is first, in bucket 0
            _query(4, 16),  # bucket 0 leaves: tenant 1 drops out
            _query(8, 20),
        ]
        assert _replay_windows(ops, max_buckets=8) == [
            ["tenant-1", "tenant-0"], ["tenant-0"], ["tenant-0"],
        ]

    def test_a_fold_pushed_past_the_bucket_cap(self):
        # Three buckets of 1,500 distinct e2e-latency sketch buckets
        # each: alone each bucket fits, but their fold spans 4,500 sketch
        # buckets, more than DEFAULT_MAX_BINS, and collapses.  A collapse
        # cannot be subtracted, so the slide that follows must not start
        # from it.
        gamma = (1 + DEFAULT_RELATIVE_ACCURACY) / (1 - DEFAULT_RELATIVE_ACCURACY)
        per_bucket = 1500
        assert 3 * per_bucket > DEFAULT_MAX_BINS
        ops: List[Op] = []
        for bucket in range(3):
            for k in range(per_bucket):
                key = bucket * per_bucket + k - 2250
                ops.append(_record(bucket * TICKS_PER_BUCKET, tenant=0,
                                   latency=gamma ** (key - 0.5)))
        ops.append(_record(3 * TICKS_PER_BUCKET))
        ops += [
            _query(0, 3 * TICKS_PER_BUCKET),  # folds buckets 0-2: collapses
            _query(TICKS_PER_BUCKET, 3 * TICKS_PER_BUCKET),
            _query(2 * TICKS_PER_BUCKET, 3 * TICKS_PER_BUCKET),
        ]
        assert _replay_windows(ops, max_buckets=8) == [["tenant-0"]] * 3
