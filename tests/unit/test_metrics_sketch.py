"""``MetricsCollector``: bounded memory, parity with the per-sample oracle.

The collector serves the control plane's whole signal surface —
``window``/``by_caller``/``e2e_stats``/counters — while holding
O(buckets) state instead of O(run).  Each parity test feeds one stream to
the collector and to the exact per-sample oracle in
``tests/property/reference_metrics.py``.  These tests pin:

* window/by_caller parity with the oracle when the window starts on a
  bucket boundary and nothing finished after its end (the regime the
  collector documents as exact);
* counters staying exact (they are scalars, not sketched);
* the retention archive absorbing evicted buckets losslessly for
  whole-run queries;
* sample-level accessors failing loudly instead of silently returning
  nothing.
"""

from __future__ import annotations

import pytest
from reference_metrics import ReferenceMetrics

from repro.errors import PlatformError
from repro.faas.metrics import MetricsCollector
from repro.faas.request import Invocation, InvocationStatus


def _finished(caller: str, at: float, *, status=InvocationStatus.COMPLETED,
              latency: float = 0.010) -> Invocation:
    inv = Invocation(action="act", caller=caller, submitted_at=at - latency)
    if status is InvocationStatus.COMPLETED:
        inv.mark_completed(at, {})
    elif status is InvocationStatus.REJECTED:
        inv.mark_rejected(at)
    elif status is InvocationStatus.THROTTLED:
        inv.mark_throttled(at)
    else:
        inv.mark_failed(at, "boom")
    return inv


def _pair(**kwargs):
    """The exact per-sample oracle and a collector, to be fed identically."""
    return ReferenceMetrics(), MetricsCollector(**kwargs)


def _feed(collectors, invocations):
    for inv in invocations:
        for collector in collectors:
            collector.record(inv)


class TestModeValidation:
    def test_bad_bucket_shape_rejected(self):
        with pytest.raises(PlatformError):
            MetricsCollector(bucket_seconds=0.0)
        with pytest.raises(PlatformError):
            MetricsCollector(max_buckets=0)

    def test_sample_accessors_raise_in_sketch_mode(self):
        # The collector keeps no invocation, so it has no per-sample
        # surface that could silently return an empty list.
        collector = MetricsCollector()
        collector.record(_finished("t", 1.0))
        for surface in ("completed", "failed", "rejected", "throttled",
                        "e2e_latencies", "invoker_latencies"):
            with pytest.raises(AttributeError):
                getattr(collector, surface)


class TestExactParity:
    def test_counters_and_rates_match_exact(self):
        exact, sketch = _pair()
        stream = [
            _finished("a", 0.1),
            _finished("b", 0.2, status=InvocationStatus.REJECTED),
            _finished("a", 0.3, status=InvocationStatus.THROTTLED),
            _finished("b", 0.4, status=InvocationStatus.FAILED),
            _finished("a", 0.6),
        ]
        _feed((exact, sketch), stream)
        for name in ("num_completed", "num_failed", "num_rejected",
                     "num_throttled", "num_recorded"):
            assert getattr(sketch, name) == getattr(exact, name), name

    def test_control_loop_window_counts_match_exact(self):
        # The control-loop shape: window edges at multiples of the bucket
        # width and ``end`` = now (nothing recorded later).  That is the
        # regime where the quantised sketch window covers exactly the
        # oracle's closed interval.
        exact, sketch = _pair(bucket_seconds=0.25)
        stream = [_finished("t", round(0.05 * i, 2)) for i in range(1, 80)]
        _feed((exact, sketch), stream)
        now = 3.95
        for start in (0.0, 0.25, 1.5, 3.75):
            got = sketch.window(start, now)
            want = exact.window(start, now)
            assert got.num_completed == want.num_completed, start
        assert (
            sketch.window(2.0, None).num_completed
            == exact.window(2.0, None).num_completed
        )

    def test_quantisation_overshoot_is_bounded_by_one_bucket(self):
        # With samples *after* the window end, the sketch window may
        # include stragglers from the end bucket — but never anything
        # outside ``[floor(start), end + bucket)``.  Pinned so the
        # documented quantisation cannot silently widen.
        exact, sketch = _pair(bucket_seconds=0.25)
        stream = [_finished("t", round(0.05 * i, 2)) for i in range(1, 80)]
        _feed((exact, sketch), stream)
        got = sketch.window(0.25, 1.0).num_completed
        exact_closed = exact.window(0.25, 1.0).num_completed
        exact_widened = exact.window(0.25, 1.0 + 0.25 - 1e-9).num_completed
        assert exact_closed <= got <= exact_widened

    def test_windowed_stats_match_exact_within_bound(self):
        exact, sketch = _pair(bucket_seconds=0.25)
        stream = [
            _finished("t", 0.25 * i, latency=0.005 + 0.001 * (i % 7))
            for i in range(1, 41)
        ]
        _feed((exact, sketch), stream)
        got = sketch.window(2.0, 8.0).e2e_stats()
        want = exact.window(2.0, 8.0).e2e_stats()
        assert got.count == want.count
        assert got.mean == pytest.approx(want.mean)
        assert got.minimum == want.minimum
        assert got.maximum == want.maximum
        alpha = sketch.relative_accuracy
        assert abs(got.p99 - want.p99) <= alpha * want.p99 * 1.0001
        assert abs(got.median - want.median) <= alpha * want.median * 1.0001

    def test_by_caller_matches_exact_per_tenant(self):
        exact, sketch = _pair(bucket_seconds=0.25)
        stream = [
            _finished(f"tenant-{i % 3}", 0.25 * i,
                      status=(InvocationStatus.REJECTED if i % 5 == 0
                              else InvocationStatus.COMPLETED))
            for i in range(1, 61)
        ]
        _feed((exact, sketch), stream)
        got = sketch.by_caller(since=5.0, until=12.0)
        want = exact.by_caller(since=5.0, until=12.0)
        assert set(got) == set(want)
        for tenant in want:
            assert got[tenant].num_completed == want[tenant].num_completed
            assert got[tenant].num_rejected == want[tenant].num_rejected
            if want[tenant].num_completed:
                assert got[tenant].e2e_stats().mean == pytest.approx(
                    want[tenant].e2e_stats().mean
                )

    def test_by_caller_unwindowed_covers_whole_run(self):
        exact, sketch = _pair()
        stream = [_finished(f"t{i % 2}", 0.1 * i) for i in range(1, 30)]
        _feed((exact, sketch), stream)
        got = sketch.by_caller()
        want = exact.by_caller()
        assert {t: c.num_completed for t, c in got.items()} == {
            t: c.num_completed for t, c in want.items()
        }


class TestBoundedMemory:
    def test_live_buckets_never_exceed_cap(self):
        collector = MetricsCollector(bucket_seconds=1.0, max_buckets=8)
        for i in range(100):
            collector.record(_finished("t", float(i) + 0.5))
        assert len(collector._buckets) <= 8
        # Nothing was lost to the cap: the archive holds the history.
        assert collector.num_completed == 100
        assert collector.e2e_stats().count == 100

    def test_windows_see_only_live_buckets(self):
        collector = MetricsCollector(bucket_seconds=1.0, max_buckets=4)
        for i in range(20):
            collector.record(_finished("t", float(i) + 0.5))
        # The last 4 seconds are live; a window over them is exact.
        assert collector.window(16.0, 20.0).num_completed == 4
        # A window reaching past the retention horizon sees only what is
        # still live (documented), not the archived history.
        assert collector.window(0.0, 20.0).num_completed == 4

    def test_late_stragglers_fold_into_the_archive(self):
        collector = MetricsCollector(bucket_seconds=1.0, max_buckets=4)
        for i in range(10):
            collector.record(_finished("t", float(i) + 0.5))
        # Bucket 0 has been archived; a record landing there must not
        # resurrect it (which would breach the cap and unsort history).
        collector.record(_finished("t", 0.25))
        assert len(collector._buckets) <= 4
        assert collector.num_completed == 11
        assert collector.e2e_stats().count == 11

    def test_state_is_independent_of_sample_count(self):
        small = MetricsCollector(bucket_seconds=1.0, max_buckets=16)
        big = MetricsCollector(bucket_seconds=1.0, max_buckets=16)
        for i in range(100):
            small.record(_finished("t", (i % 10) + 0.5))
        for i in range(10_000):
            big.record(_finished("t", (i % 10) + 0.5))
        assert len(big._buckets) == len(small._buckets)
        assert big.num_completed == 10_000
