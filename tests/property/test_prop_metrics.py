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
"""

from __future__ import annotations

import math
from typing import List

from hypothesis import given, settings, strategies as st
from reference_metrics import ReferenceMetrics

from repro.faas.metrics import MetricsCollector
from repro.faas.request import Invocation, InvocationStatus

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
