"""Latency and throughput metrics.

The paper reports two latencies per benchmark — the end-to-end latency seen
by the client and the invoker latency that excludes the rest of the platform
— plus the peak sustained throughput of a saturated 4-container deployment.
This module reduces latency samples to the summary statistics the tables and
figures need, and keeps the platform's run-time metrics.

:class:`MetricsCollector` keeps nothing per invocation.  Each finished
:class:`~repro.faas.request.Invocation` is folded into ring-buffered
*time-bucket sketches* (per status, per tenant) built on
:mod:`repro.faas.sketch`: memory O(buckets), counts/mean/std/min/max
exact, percentiles within the sketch's documented relative value-error
bound.  ``window()`` and ``e2e_stats()`` reduce over bucket sketches in
O(buckets), so the control plane
(:class:`~repro.faas.controlplane.slo.SLOMonitor` and everything above it)
runs on million-invocation traces in bounded memory.  Callers that need
raw per-invocation samples (the paper's closed-loop latency figures) take
them from the invocations their own client holds.

The control plane asks ``by_caller(since=now - w, until=now)`` at every
tick, over windows that mostly share their buckets.  The collector keeps
one running per-tenant fold of the *closed* buckets of the last bounded
window it answered (every bucket but the one holding ``until``, which may
still receive records), so a tick costs O(buckets entering or leaving the
window) bin updates, not O(buckets in it): buckets entering are merged
on, in the order a fresh walk merges them; buckets leaving have their
integer state (status counts, sketch bucket counts) subtracted, and only
the moment floats, which cannot be subtracted, are refolded over what
stays.  The fold is rebuilt from the buckets when it cannot be updated:
when there is none yet, when the window's start or end moves back, when a
record lands below its end, when an eviction takes a bucket at or above
its start, or when a sketch in it reaches its bucket cap.  Every answer
equals a fresh walk over the buckets field for field, and the fold costs
O(tenants × sketch buckets) of memory.

Windows are quantised to bucket boundaries: ``window(start, end)`` covers
every bucket intersecting the closed interval, which is *identical* to the
closed-interval membership of the raw samples whenever ``start`` falls on a
bucket edge and no sample has finished after ``end``.  A control loop
asking about ``[now - w, now]`` meets the second condition by construction;
a ``start`` off a bucket edge widens the window by less than one bucket of
older samples.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import PlatformError
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    LatencySketch,
    StreamingMoments,
)

#: Default time-bucket width.  Matches the control plane's default tick
#: interval, so a monitor window spans a whole number of buckets.
DEFAULT_BUCKET_SECONDS = 0.25

#: Default cap on live time buckets before the oldest are folded into the
#: run-lifetime archive (4096 buckets × 0.25 s ≈ 17 simulated minutes of
#: full-resolution history — far more than any control window).
DEFAULT_MAX_BUCKETS = 4096


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of latency samples (seconds)."""

    count: int
    mean: float
    std: float
    minimum: float
    p10: float
    p25: float
    median: float
    p75: float
    p90: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Compute statistics over ``samples`` (must be non-empty)."""
        if not samples:
            raise ValueError("cannot summarise an empty sample set")
        ordered = sorted(samples)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((x - mean) ** 2 for x in ordered) / n
        return cls(
            count=n,
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            p10=percentile(ordered, 10),
            p25=percentile(ordered, 25),
            median=percentile(ordered, 50),
            p75=percentile(ordered, 75),
            p90=percentile(ordered, 90),
            p95=percentile(ordered, 95),
            p99=percentile(ordered, 99),
            maximum=ordered[-1],
        )

    @property
    def cov(self) -> float:
        """Coefficient of variation (std / mean)."""
        return self.std / self.mean if self.mean else 0.0


def percentile(sorted_samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile over already sorted samples."""
    if not sorted_samples:
        raise ValueError("cannot take a percentile of no samples")
    if len(sorted_samples) == 1:
        return float(sorted_samples[0])
    if pct <= 0:
        return float(sorted_samples[0])
    if pct >= 100:
        return float(sorted_samples[-1])
    rank = (pct / 100.0) * (len(sorted_samples) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(sorted_samples[low])
    fraction = rank - low
    value = sorted_samples[low] * (1 - fraction) + sorted_samples[high] * fraction
    # Clamp against floating-point drift so interpolated percentiles never
    # fall outside the bracketing samples (which would break monotonicity).
    return float(min(max(value, sorted_samples[low]), sorted_samples[high]))


def summarize(samples: Iterable[float]) -> LatencyStats:
    """Shorthand for :meth:`LatencyStats.from_samples` over any iterable."""
    return LatencyStats.from_samples(list(samples))


class _SketchSlice:
    """Status counts plus latency sketches for one (bucket, tenant) cell."""

    __slots__ = ("completed", "failed", "rejected", "throttled", "e2e", "invoker")

    def __init__(self, relative_accuracy: float) -> None:
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.throttled = 0
        self.e2e = LatencySketch(relative_accuracy)
        self.invoker = LatencySketch(relative_accuracy)

    def add_completed(
        self, e2e: float, e2e_key: Optional[int], invoker: float, invoker_key: Optional[int]
    ) -> None:
        """Count one completion whose latencies' sketch keys are known."""
        self.completed += 1
        self.e2e.add_keyed(e2e, e2e_key)
        self.invoker.add_keyed(invoker, invoker_key)

    def count_unserved(self, status: InvocationStatus) -> None:
        """Count one invocation that finished without completing."""
        if status is InvocationStatus.REJECTED:
            self.rejected += 1
        elif status is InvocationStatus.THROTTLED:
            self.throttled += 1
        else:
            self.failed += 1

    def merge(self, other: "_SketchSlice") -> None:
        self.completed += other.completed
        self.failed += other.failed
        self.rejected += other.rejected
        self.throttled += other.throttled
        self.e2e.merge(other.e2e)
        self.invoker.merge(other.invoker)

    def subtract(self, other: "_SketchSlice") -> None:
        """Take a merged-in slice's integer state back out.

        The counts and both sketches' bucket counts are exact; the
        moments are left alone, for the caller to refold (floats cannot
        be subtracted).
        """
        self.completed -= other.completed
        self.failed -= other.failed
        self.rejected -= other.rejected
        self.throttled -= other.throttled
        self.e2e.quantiles.subtract(other.e2e.quantiles)
        self.invoker.quantiles.subtract(other.invoker.quantiles)

    def copy(self) -> "_SketchSlice":
        """An independent copy, equal field for field."""
        twin = _SketchSlice.__new__(_SketchSlice)
        twin.completed = self.completed
        twin.failed = self.failed
        twin.rejected = self.rejected
        twin.throttled = self.throttled
        twin.e2e = self.e2e.copy()
        twin.invoker = self.invoker.copy()
        return twin

    @property
    def at_capacity(self) -> bool:
        """True when either sketch holds its maximum number of buckets."""
        return self.e2e.quantiles.at_capacity or self.invoker.quantiles.at_capacity


class _TimeBucket:
    """One time bucket: a total slice plus per-tenant slices."""

    __slots__ = ("total", "tenants")

    def __init__(self, relative_accuracy: float) -> None:
        self.total = _SketchSlice(relative_accuracy)
        self.tenants: Dict[str, _SketchSlice] = {}

    def record(self, invocation: Invocation, relative_accuracy: float) -> None:
        """Add one finished invocation to the total and to its tenant's slice.

        Every sketch here has the same relative accuracy, so each latency's
        sketch key is computed once and added to both slices.
        """
        status = invocation.status
        tenant = self.tenants.get(invocation.caller)
        if tenant is None:
            tenant = self.tenants[invocation.caller] = _SketchSlice(relative_accuracy)
        if status is not InvocationStatus.COMPLETED:
            self.total.count_unserved(status)
            tenant.count_unserved(status)
            return
        e2e = invocation.completed_at - invocation.submitted_at
        invoker = invocation.invoker_seconds
        quantiles = self.total.e2e.quantiles
        e2e_key = quantiles.key(e2e)
        invoker_key = quantiles.key(invoker)
        self.total.add_completed(e2e, e2e_key, invoker, invoker_key)
        tenant.add_completed(e2e, e2e_key, invoker, invoker_key)

    def merge(self, other: "_TimeBucket", relative_accuracy: float) -> None:
        self.total.merge(other.total)
        for caller, slice_ in other.tenants.items():
            mine = self.tenants.get(caller)
            if mine is None:
                mine = self.tenants[caller] = _SketchSlice(relative_accuracy)
            mine.merge(slice_)


class _WindowFold:
    """Per-tenant fold of the live buckets ``start .. end - 1``.

    Each tenant's slice equals the merge, in bucket order and starting
    from an empty slice, of that tenant's slices of those buckets, and
    ``tenants`` lists the tenants in order of first appearance: exactly
    what a fresh walk over the buckets builds.
    """

    __slots__ = ("start", "end", "tenants")

    def __init__(self, start: int) -> None:
        self.start = start
        self.end = start
        self.tenants: Dict[str, _SketchSlice] = {}


class MetricsCollector:
    """Folds finished invocations into time-bucket sketches.

    ``bucket_seconds`` is the time resolution of windows, ``max_buckets``
    the number of live buckets kept before the oldest fold into the
    run-lifetime archive, and ``relative_accuracy`` the percentile error
    bound of every sketch (see the module docstring).
    """

    def __init__(
        self,
        *,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> None:
        if bucket_seconds <= 0:
            raise PlatformError(
                f"metrics bucket width must be positive (got {bucket_seconds})"
            )
        if max_buckets < 1:
            raise PlatformError(
                f"metrics bucket cap must be at least 1 (got {max_buckets})"
            )
        self.bucket_seconds = bucket_seconds
        self.max_buckets = max_buckets
        self.relative_accuracy = relative_accuracy
        # Live time buckets keyed by floor(completed_at / bucket_seconds),
        # an eviction heap of those keys, and an archive bucket absorbing
        # everything evicted.
        self._buckets: Dict[int, _TimeBucket] = {}
        self._bucket_heap: List[int] = []
        self._archive = _TimeBucket(relative_accuracy)
        self._archived_through: Optional[int] = None
        # Scalar totals keep num_* O(1).
        self._n_completed = 0
        self._n_failed = 0
        self._n_rejected = 0
        self._n_throttled = 0
        # The closed part of the last bounded by_caller() window (None
        # until one is asked for, and after anything it folded changed).
        self._fold: Optional[_WindowFold] = None

    def _sibling(self) -> "MetricsCollector":
        """A fresh empty collector with this one's shape."""
        return MetricsCollector(
            bucket_seconds=self.bucket_seconds,
            max_buckets=self.max_buckets,
            relative_accuracy=self.relative_accuracy,
        )

    def record(self, invocation: Invocation) -> None:
        """Record a finished invocation."""
        index = math.floor(invocation.completed_at / self.bucket_seconds)
        fold = self._fold
        if fold is not None and index < fold.end:
            self._fold = None  # a late record changes a folded bucket
        if self._archived_through is not None and index <= self._archived_through:
            # The sample's bucket was already folded away: archive it
            # directly so run-lifetime aggregates stay exact.
            bucket = self._archive
        else:
            bucket = self._buckets.get(index)
            if bucket is None:
                bucket = self._buckets[index] = _TimeBucket(self.relative_accuracy)
                heapq.heappush(self._bucket_heap, index)
                while len(self._buckets) > self.max_buckets:
                    oldest = heapq.heappop(self._bucket_heap)
                    if self._fold is not None and oldest >= self._fold.start:
                        # The window loses a live bucket; evictions below
                        # it leave the fold alone.
                        self._fold = None
                    self._archive.merge(
                        self._buckets.pop(oldest), self.relative_accuracy
                    )
                    if self._archived_through is None or oldest > self._archived_through:
                        self._archived_through = oldest
        bucket.record(invocation, self.relative_accuracy)
        status = invocation.status
        if status is InvocationStatus.COMPLETED:
            self._n_completed += 1
        elif status is InvocationStatus.REJECTED:
            self._n_rejected += 1
        elif status is InvocationStatus.THROTTLED:
            self._n_throttled += 1
        else:
            self._n_failed += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _iter_buckets(self) -> Iterator[_TimeBucket]:
        """Archive first, then live buckets in time order."""
        yield self._archive
        for index in sorted(self._buckets):
            yield self._buckets[index]

    def _iter_buckets_in(
        self, start: float, end: Optional[float]
    ) -> Iterator[_TimeBucket]:
        """Live buckets intersecting the closed window ``[start, end]``.

        The archive is excluded: it aggregates history older than every
        live bucket, and windowed queries are the control plane asking
        about *recent* behaviour.  Windows reaching past the retention
        horizon therefore see only what is still live (documented in
        :meth:`window`).
        """
        lo = None if math.isinf(start) else math.floor(start / self.bucket_seconds)
        hi = None if end is None else math.floor(end / self.bucket_seconds)
        return self._live_buckets(lo, hi)

    def _live_buckets(
        self, lo: Optional[int], hi: Optional[int]
    ) -> Iterator[_TimeBucket]:
        """Live buckets with index in ``lo .. hi`` (``None``: unbounded), in order."""
        if lo is not None and hi is not None and hi - lo < len(self._buckets):
            # Control-loop fast path: a short window probes its own few
            # bucket indices directly instead of scanning every live key.
            for index in range(lo, hi + 1):
                bucket = self._buckets.get(index)
                if bucket is not None:
                    yield bucket
            return
        for index in sorted(self._buckets):
            if lo is not None and index < lo:
                continue
            if hi is not None and index > hi:
                break
            yield self._buckets[index]

    def _absorb_bucket(self, bucket: _TimeBucket) -> None:
        """Fold a bucket into this collector's archive, updating totals."""
        self._archive.merge(bucket, self.relative_accuracy)
        total = bucket.total
        self._n_completed += total.completed
        self._n_failed += total.failed
        self._n_rejected += total.rejected
        self._n_throttled += total.throttled

    def _merge_tenants(
        self, buckets: Iterable[_TimeBucket], into: Dict[str, _SketchSlice]
    ) -> Dict[str, _SketchSlice]:
        """Merge each bucket's tenant slices into ``into``, in bucket order.

        A tenant new to ``into`` gets an empty slice first, so ``into``
        keeps the tenants in order of first appearance.
        """
        for bucket in buckets:
            for caller, slice_ in bucket.tenants.items():
                mine = into.get(caller)
                if mine is None:
                    mine = into[caller] = _SketchSlice(self.relative_accuracy)
                mine.merge(slice_)
        return into

    def _folded_window(self, lo: int, hi: int) -> Dict[str, _SketchSlice]:
        """The per-tenant fold of the live buckets ``lo .. hi - 1``.

        Updates the fold of the previous call in O(buckets entering or
        leaving it): buckets entering at the end are merged on, and
        buckets leaving at the start have their integer state subtracted;
        the moments and the tenant order are then refolded over the
        buckets that stay.  A fold that cannot be updated (none yet,
        either edge moved back, every folded bucket left) is rebuilt
        from the buckets.  One that reaches a sketch's bucket cap is
        answered but not kept, because a collapse cannot be subtracted.
        The caller must not change the returned slices.
        """
        fold = self._fold
        if fold is None or lo < fold.start or lo >= fold.end or hi < fold.end:
            fold = _WindowFold(lo)
        elif lo > fold.start:
            tenants = fold.tenants
            for bucket in self._live_buckets(fold.start, lo - 1):
                for caller, slice_ in bucket.tenants.items():
                    tenants[caller].subtract(slice_)
            kept: Dict[str, _SketchSlice] = {}
            for bucket in self._live_buckets(lo, fold.end - 1):
                for caller, slice_ in bucket.tenants.items():
                    mine = kept.get(caller)
                    if mine is None:
                        mine = kept[caller] = tenants[caller]
                        mine.e2e.moments = StreamingMoments()
                        mine.invoker.moments = StreamingMoments()
                    mine.e2e.moments.merge(slice_.e2e.moments)
                    mine.invoker.moments.merge(slice_.invoker.moments)
            fold.tenants = kept  # a tenant with no slice left drops out
            fold.start = lo
        if hi > fold.end:
            self._merge_tenants(self._live_buckets(fold.end, hi - 1), fold.tenants)
            fold.end = hi
        full = any(slice_.at_capacity for slice_ in fold.tenants.values())
        self._fold = None if full else fold
        return fold.tenants

    def _tenant_collector(self, caller: str, slice_: _SketchSlice) -> "MetricsCollector":
        """A collector holding one tenant's slice (it takes ``slice_`` over)."""
        collector = self._sibling()
        archive = collector._archive
        archive.tenants[caller] = slice_
        archive.total = slice_.copy()
        collector._n_completed = slice_.completed
        collector._n_failed = slice_.failed
        collector._n_rejected = slice_.rejected
        collector._n_throttled = slice_.throttled
        return collector

    def _merged_sketch(self, which: str) -> LatencySketch:
        merged = LatencySketch(self.relative_accuracy)
        for bucket in self._iter_buckets():
            merged.merge(getattr(bucket.total, which))
        return merged

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def num_completed(self) -> int:
        """Number of completed invocations."""
        return self._n_completed

    @property
    def num_failed(self) -> int:
        """Number of failed invocations."""
        return self._n_failed

    @property
    def num_rejected(self) -> int:
        """Number of invocations shed by backpressure."""
        return self._n_rejected

    @property
    def num_throttled(self) -> int:
        """Number of invocations refused by per-tenant quotas."""
        return self._n_throttled

    @property
    def num_recorded(self) -> int:
        """Total invocations recorded (completed/failed/rejected/throttled)."""
        return (
            self._n_completed
            + self._n_failed
            + self._n_rejected
            + self._n_throttled
        )

    @property
    def rejection_rate(self) -> float:
        """Fraction of recorded invocations that were shed."""
        total = self.num_recorded
        return self.num_rejected / total if total else 0.0

    @property
    def throttle_rate(self) -> float:
        """Fraction of recorded invocations refused by quotas."""
        total = self.num_recorded
        return self.num_throttled / total if total else 0.0

    def window(
        self, start: float, end: Optional[float] = None
    ) -> "MetricsCollector":
        """A collector restricted to invocations that *finished* in a window.

        ``start``/``end`` bound the invocation's ``completed_at`` timestamp
        (the instant a completion, rejection, or throttle was recorded);
        ``end=None`` leaves the window open on the right.  This is the
        surface a control loop consumes: recent behaviour, not run-lifetime
        aggregates — a tenant that misbehaved a minute ago but is currently
        within its SLO must not look violating forever.

        The window is the **closed** interval ``[start, end]``: a sample
        finishing exactly at either boundary is a member.  A control loop
        assessing at ``now`` over ``window(now - w, now)`` must see the
        completions recorded earlier in this very instant — the half-open
        alternative would blind every tick to its own timestamp.  The
        corollary (deliberate, and pinned by tests): two *adjacent* calls
        sharing a boundary both count a sample that finished exactly on
        it, so adjacent windows are not a partition.  Callers that need
        disjoint coverage must subtract the boundary themselves.  An
        inverted window (``end < start``) is empty, not an error.

        The result merges every live time bucket intersecting
        ``[start, end]`` — O(buckets in window) regardless of sample
        count, quantised to ``bucket_seconds``: it covers the buckets
        ``floor(start / bucket_seconds)`` through ``floor(end /
        bucket_seconds)`` (exact membership when ``start`` sits on a
        bucket edge and no sample finished after ``end``).  History
        already folded into the retention archive is out of reach of
        windows; control loops only ask about the recent past, which is
        always live.  :meth:`by_caller` quantises the same way.
        """
        clipped = self._sibling()
        if end is not None and end < start:
            return clipped
        for bucket in self._iter_buckets_in(start, end):
            clipped._absorb_bucket(bucket)
        return clipped

    def by_caller(
        self,
        *,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Dict[str, "MetricsCollector"]:
        """Split the recorded invocations into per-tenant collectors.

        ``since``/``until`` restrict the split to invocations that finished
        inside the window (see :meth:`window`, whose bucket quantisation
        it shares), so windowed per-tenant percentiles come from recent
        samples rather than the whole run.  Each tenant's collector holds
        the merge, in bucket order, of its slices of the covered buckets;
        tenants come in order of first appearance.

        With both bounds given, the closed buckets come from the running
        fold (see the module docstring): a call costs O(buckets entering
        or leaving the window since the last call) bin updates, plus
        O(buckets in it) moment merges when the start moves, plus merging
        the bucket holding ``until`` into the returned copies.  The fold
        is rebuilt, O(buckets × tenants), when there is none, when either
        edge moves back, after a record below its end or an eviction at
        or above its start, and while a sketch in it is at its bucket
        cap.  With ``since`` or ``until`` left out the split walks the
        covered buckets, and with neither it also takes in the archive.
        Never O(samples).
        """
        tenants: Dict[str, _SketchSlice]
        if since is None and until is None:
            tenants = self._merge_tenants(self._iter_buckets(), {})
        else:
            start = since if since is not None else float("-inf")
            if until is not None and until < start:
                return {}
            if until is None or math.isinf(start):
                tenants = self._merge_tenants(self._iter_buckets_in(start, until), {})
            else:
                # The closed buckets come from the running fold; the open
                # one, holding ``until``, is merged into the copies only.
                hi = math.floor(until / self.bucket_seconds)
                folded = self._folded_window(
                    math.floor(start / self.bucket_seconds), hi
                )
                tenants = {caller: slice_.copy() for caller, slice_ in folded.items()}
                open_bucket = self._buckets.get(hi)
                if open_bucket is not None:
                    self._merge_tenants((open_bucket,), tenants)
        return {
            caller: self._tenant_collector(caller, slice_)
            for caller, slice_ in tenants.items()
        }

    def _run_sketch(self, which: str) -> LatencySketch:
        """The run's ``which`` sketch: the archive's own when nothing is live."""
        if not self._buckets:
            # Every window()/by_caller() result: no copy needed to reduce it.
            return getattr(self._archive.total, which)
        return self._merged_sketch(which)

    def e2e_stats(self) -> LatencyStats:
        """Summary of end-to-end latencies.

        Count/mean/std/min/max are exact; percentiles carry the sketch's
        relative value-error bound.
        """
        return self._run_sketch("e2e").stats()

    def invoker_stats(self) -> LatencyStats:
        """Summary of invoker latencies (see :meth:`e2e_stats`)."""
        return self._run_sketch("invoker").stats()
