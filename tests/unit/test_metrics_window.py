"""Regression tests pinning the windowed-metrics semantics.

The control plane's whole signal surface flows through
:meth:`MetricsCollector.window` and :meth:`MetricsCollector.by_caller`:
a boundary off-by-one here silently mis-scores every tenant every tick.
Windows are quantised to the collector's time buckets, so every case
here finishes its samples and puts its window edges on bucket edges (the
control-loop regime, where membership is exact).  These tests pin the
membership rules:

* the window is the **closed** interval ``[start, end]`` — both
  boundaries are members (a control tick at ``now`` must see completions
  recorded earlier in the same instant);
* adjacent windows sharing a boundary therefore both count the boundary
  sample (deliberate — pinned so a "fix" cannot slip in silently);
* an inverted window is empty, empty buckets are fine;
* out-of-order recordings (a caller replaying history) land in their own
  time buckets, so windows stay correct;
* a control loop's windowed ``by_caller`` does work that does not grow
  with the number of buckets in its window.

Samples whose membership matters get a latency that names their finish
time (:func:`_tagged`), so a window's exact ``e2e_stats()`` minimum and
maximum say which samples it holds.
"""

from __future__ import annotations

from repro.faas import metrics as metrics_module
from repro.faas.metrics import DEFAULT_BUCKET_SECONDS, MetricsCollector
from repro.faas.request import Invocation, InvocationStatus

#: One time bucket of the default collector: the window-edge resolution.
BUCKET = DEFAULT_BUCKET_SECONDS


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


def _tagged(at: float) -> Invocation:
    """A completion whose e2e latency (``at`` milliseconds) names its finish time."""
    return _finished("t", at, latency=at / 1000.0)


def _finish_range(collector: MetricsCollector):
    """The (first, last) finish times of a window of :func:`_tagged` samples."""
    stats = collector.e2e_stats()
    return round(stats.minimum * 1000.0, 9), round(stats.maximum * 1000.0, 9)


class TestWindowBoundaries:
    def test_both_boundaries_are_inclusive(self):
        metrics = MetricsCollector()
        for at in (1.0, 2.0, 3.0):
            metrics.record(_finished("t", at))
        window = metrics.window(1.0, 3.0)
        assert window.num_completed == 3  # == start and == end both count
        assert metrics.window(1.0, 2.0).num_completed == 2
        assert metrics.window(2.0, 2.0).num_completed == 1  # degenerate point
        # One bucket inside both boundaries excludes both boundary samples.
        assert metrics.window(1.0 + BUCKET, 3.0 - BUCKET).num_completed == 1

    def test_exact_membership_is_pinned(self):
        metrics = MetricsCollector()
        stamps = (0.5, 1.0, 1.25, 2.0, 2.75)
        for at in stamps:
            metrics.record(_tagged(at))
        clipped = metrics.window(1.0, 2.0)
        # Three members, the first finishing at 1.0 and the last at 2.0:
        # exactly 1.0, 1.25 and 2.0.
        assert clipped.num_completed == 3
        assert _finish_range(clipped) == (1.0, 2.0)

    def test_adjacent_windows_share_the_boundary_sample(self):
        # The closed-interval corollary, pinned deliberately: adjacent
        # windows are NOT a partition — the boundary sample is in both.
        metrics = MetricsCollector()
        for at in (1.0, 2.0, 3.0):
            metrics.record(_finished("t", at))
        first = metrics.window(1.0, 2.0)
        second = metrics.window(2.0, 3.0)
        assert first.num_completed == 2
        assert second.num_completed == 2
        assert first.num_completed + second.num_completed == 4  # 3 samples

    def test_inverted_and_out_of_range_windows_are_empty(self):
        metrics = MetricsCollector()
        metrics.record(_finished("t", 5.0))
        assert metrics.window(6.0, 4.0).num_recorded == 0  # inverted
        assert metrics.window(10.0, 20.0).num_recorded == 0  # past the data
        assert metrics.window(0.0, 1.0).num_recorded == 0  # before the data

    def test_empty_collector_windows_are_empty(self):
        metrics = MetricsCollector()
        assert metrics.window(0.0, 10.0).num_recorded == 0
        assert metrics.window(0.0).num_recorded == 0

    def test_open_right_window(self):
        metrics = MetricsCollector()
        for at in (1.0, 2.0, 3.0):
            metrics.record(_finished("t", at))
        assert metrics.window(2.0).num_completed == 2
        assert metrics.window(3.5).num_completed == 0

    def test_window_spans_every_outcome_bucket(self):
        metrics = MetricsCollector()
        metrics.record(_finished("t", 1.0))
        metrics.record(_finished("t", 1.0, status=InvocationStatus.REJECTED))
        metrics.record(_finished("t", 1.0, status=InvocationStatus.THROTTLED))
        metrics.record(_finished("t", 1.0, status=InvocationStatus.FAILED))
        clipped = metrics.window(1.0, 1.0)
        assert clipped.num_recorded == 4
        assert clipped.num_rejected == 1
        assert clipped.num_throttled == 1
        assert clipped.num_failed == 1


class TestOutOfOrderRecording:
    def test_out_of_order_recordings_keep_windows_correct(self):
        """A replayed history (descending timestamps) must window exactly
        like the same history recorded in order."""
        stamps = (5.0, 1.0, 3.0, 2.0, 4.0)
        replayed = MetricsCollector()
        for at in stamps:
            replayed.record(_tagged(at))
        ordered = MetricsCollector()
        for at in sorted(stamps):
            ordered.record(_tagged(at))
        for window in ((1.0, 3.0), (2.0, 2.0), (3.5, 5.0), (0.0, 10.0)):
            assert (
                replayed.window(*window).num_completed
                == ordered.window(*window).num_completed
            )
        clipped = replayed.window(2.0, 4.0)
        assert clipped.num_completed == 3
        assert _finish_range(clipped) == (2.0, 4.0)

    def test_buckets_stay_sorted_after_interleaved_inserts(self):
        stamps = (2.0, 1.0, 2.0, 1.5, 3.0, 0.5)
        metrics = MetricsCollector()
        for at in stamps:
            metrics.record(_tagged(at))
        ordered = MetricsCollector()
        for at in sorted(stamps):
            ordered.record(_tagged(at))
        # Every bucket-aligned window of the interleaved history holds
        # what the same history recorded in order holds.
        edges = [BUCKET * k for k in range(14)]
        for start in edges:
            for end in edges:
                got = metrics.window(start, end)
                want = ordered.window(start, end)
                assert got.num_completed == want.num_completed, (start, end)
                if want.num_completed:
                    assert _finish_range(got) == _finish_range(want)

    def test_out_of_order_across_outcome_buckets(self):
        metrics = MetricsCollector()
        metrics.record(_finished("t", 4.0))
        metrics.record(_finished("t", 2.0, status=InvocationStatus.REJECTED))
        metrics.record(_finished("t", 1.0))  # out of order in _completed
        metrics.record(_finished("t", 3.0, status=InvocationStatus.REJECTED))
        clipped = metrics.window(1.0, 3.0)
        assert clipped.num_completed == 1
        assert clipped.num_rejected == 2


class TestWindowedByCaller:
    def test_interleaved_multi_tenant_completions_split_exactly(self):
        """The satellite coverage: by_caller(since/until) under a dense
        interleaving of three tenants with mixed outcomes."""
        metrics = MetricsCollector()
        # alice completes at 1.0, 2.0, ..., bob at 1.25, 2.25, ...,
        # carol alternates completions and rejections at 1.5, 2.5, ...
        for tick in range(8):
            base = 1.0 + tick
            metrics.record(_finished("alice", base, latency=0.010))
            metrics.record(_finished("bob", base + 0.25, latency=0.050))
            metrics.record(_finished(
                "carol", base + 0.5,
                status=(
                    InvocationStatus.COMPLETED
                    if tick % 2 == 0
                    else InvocationStatus.REJECTED
                ),
            ))
        split = metrics.by_caller(since=3.0, until=6.0)
        assert set(split) == {"alice", "bob", "carol"}
        # alice: completions at 3.0, 4.0, 5.0, 6.0 (closed interval).
        assert split["alice"].num_completed == 4
        # bob: 3.25, 4.25, 5.25 — 6.25 is outside.
        assert split["bob"].num_completed == 3
        # carol: 3.5 (completed, tick 2), 4.5 (rejected, tick 3),
        # 5.5 (completed, tick 4).
        assert split["carol"].num_completed == 2
        assert split["carol"].num_rejected == 1

    def test_windowed_percentiles_come_from_the_window_only(self):
        metrics = MetricsCollector()
        metrics.record(_finished("t", 1.0, latency=9.0))  # ancient outlier
        for at in (5.0, 5.1, 5.2):
            metrics.record(_finished("t", at, latency=0.010))
        split = metrics.by_caller(since=4.0, until=6.0)
        stats = split["t"].e2e_stats()
        assert stats.count == 3
        assert stats.p99 < 0.1  # the outlier aged out

    def test_until_only_and_since_only(self):
        metrics = MetricsCollector()
        metrics.record(_finished("early", 1.0))
        metrics.record(_finished("late", 9.0))
        assert set(metrics.by_caller(until=5.0)) == {"early"}
        assert set(metrics.by_caller(since=5.0)) == {"late"}
        assert set(metrics.by_caller()) == {"early", "late"}

    def test_tenant_quiet_in_window_is_absent(self):
        metrics = MetricsCollector()
        metrics.record(_finished("quiet", 1.0))
        metrics.record(_finished("busy", 5.0))
        split = metrics.by_caller(since=4.0, until=6.0)
        assert "quiet" not in split

    def test_split_preserves_outcome_ordering_per_tenant(self):
        metrics = MetricsCollector()
        for at in (1.0, 3.0, 2.0):  # deliberately out of order
            metrics.record(_tagged(at))
        ordered = MetricsCollector()
        for at in (1.0, 2.0, 3.0):
            ordered.record(_tagged(at))
        split = metrics.by_caller(since=0.0, until=10.0)
        assert split["t"].num_completed == 3
        assert _finish_range(split["t"]) == (1.0, 3.0)
        assert (
            split["t"].e2e_stats()
            == ordered.by_caller(since=0.0, until=10.0)["t"].e2e_stats()
        )


class TestByCallerBulkAdoption:
    """Regression: the bucket-merging ``by_caller`` equals per-sample recording.

    ``by_caller`` merges the tenant slices of whole time buckets instead of
    re-``record()``-ing every sample into fresh collectors.  This pins the
    optimisation to the semantics of the naive implementation: recording
    each windowed invocation one by one must produce identical per-tenant
    counts and statistics.
    """

    def test_windowed_by_caller_equals_per_sample_recording(self):
        metrics = MetricsCollector()
        stamps_and_states = [
            (0.4, InvocationStatus.COMPLETED),
            (0.8, InvocationStatus.REJECTED),
            (1.0, InvocationStatus.COMPLETED),
            (1.3, InvocationStatus.THROTTLED),
            (1.3, InvocationStatus.COMPLETED),
            (1.9, InvocationStatus.FAILED),
            (2.0, InvocationStatus.COMPLETED),
            (2.6, InvocationStatus.COMPLETED),
        ]
        invocations = [
            _finished(f"tenant-{i % 3}", at, status=status)
            for i, (at, status) in enumerate(stamps_and_states)
        ]
        for inv in invocations:
            metrics.record(inv)

        since, until = 1.0, 2.0
        fast = metrics.by_caller(since=since, until=until)

        naive: dict = {}
        for inv in invocations:
            if since <= inv.completed_at <= until:
                naive.setdefault(inv.caller, MetricsCollector()).record(inv)

        assert set(fast) == set(naive)
        for tenant, want in naive.items():
            got = fast[tenant]
            # Same counts in every outcome, same statistics.
            assert got.num_completed == want.num_completed
            assert got.num_failed == want.num_failed
            assert got.num_rejected == want.num_rejected
            assert got.num_throttled == want.num_throttled
            if want.num_completed:
                assert got.e2e_stats() == want.e2e_stats()

    def test_unwindowed_by_caller_equals_per_sample_recording(self):
        metrics = MetricsCollector()
        invocations = [
            _finished(f"t{i % 2}", 0.3 * i + 0.1) for i in range(1, 12)
        ]
        for inv in invocations:
            metrics.record(inv)
        fast = metrics.by_caller()
        naive: dict = {}
        for inv in invocations:
            naive.setdefault(inv.caller, MetricsCollector()).record(inv)
        assert set(fast) == set(naive)
        for tenant, want in naive.items():
            assert fast[tenant].num_completed == want.num_completed
            assert fast[tenant].e2e_stats() == want.e2e_stats()


class TestWindowFoldCost:
    """The control loop's windowed read costs what enters and leaves the window."""

    def test_slice_merges_per_tick_do_not_grow_with_the_window(self, monkeypatch):
        # A 300 s window over 1 s buckets, two tenants, a tick every
        # 0.25 s: the read at tick 300 s must merge no more tenant slices
        # than the read at tick 10 s, although its window holds 30 times
        # as many buckets.
        merges = []
        merge = metrics_module._SketchSlice.merge

        def counting_merge(self, other):
            merges.append(1)
            merge(self, other)

        monkeypatch.setattr(metrics_module._SketchSlice, "merge", counting_merge)
        metrics = MetricsCollector(bucket_seconds=1.0)
        per_tick = {}
        for quarter in range(1, 4 * 300 + 1):
            now = quarter / 4
            metrics.record(_finished("alice", now, latency=0.010 + now / 1e4))
            metrics.record(_finished("bob", now, latency=0.020 + now / 1e4))
            del merges[:]
            split = metrics.by_caller(since=max(0.0, now - 300.0), until=now)
            per_tick[now] = len(merges)
            assert split["alice"].num_completed == quarter
        assert per_tick[300.0] == per_tick[10.0] <= 4
