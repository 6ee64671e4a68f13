"""Streaming latency summaries with bounded memory.

Million-invocation traces cannot afford to retain every
:class:`~repro.faas.request.Invocation` and re-sort windows on each
control tick.  This module provides the bounded-memory summaries the
:class:`~repro.faas.metrics.MetricsCollector` is built from:

* :class:`StreamingMoments` — one-pass Welford mean/variance plus
  min/max, mergeable with Chan's parallel formula.  Mean, std, min and
  max are *exact* regardless of stream length.
* :class:`QuantileSketch` — a DDSketch-style log-bucketed histogram.
  Each positive sample lands in bucket ``ceil(log_gamma(x))`` with
  ``gamma = (1 + alpha) / (1 - alpha)``, so any reported quantile is the
  geometric midpoint of a bucket that brackets the true same-rank sample
  within **relative value error ``alpha``** (default 0.5%).  Ranks are
  exact — the sketch stores exact counts — so the only approximation is
  the bucket width.  Merging two sketches adds bucket counts and is
  therefore *lossless*: ``merge(a, b)`` equals the sketch of the
  concatenated stream, which is what makes per-bucket time windows and
  multi-process fan-out reductions exact reductions rather than
  re-approximations.
* :class:`LatencySketch` — the pair of the above, reducing to the same
  :class:`~repro.faas.metrics.LatencyStats` surface raw samples reduce
  to (exact count/mean/std/min/max, alpha-bounded percentiles).

Bucket counts are integers, so :meth:`QuantileSketch.subtract` undoes a
merge exactly as long as neither sketch collapsed; the moments are
floats and cannot be subtracted, only refolded.  The metrics collector's
sliding window fold relies on both facts.

Everything here is deterministic (pure integer/float arithmetic over
sorted bucket indices — no sampling, no randomised compression) and
picklable, so multi-seed fan-out workers can ship sketches back to the
parent process and merge them bit-identically to a serial run.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (metrics imports us)
    from repro.faas.metrics import LatencyStats

#: Default relative value-error bound for quantile estimates.  0.5%
#: halves the 1% contract the perf benchmark documents, leaving headroom
#: for the bucket-midpoint rounding at the extreme ranks.
DEFAULT_RELATIVE_ACCURACY = 0.005

#: Values at or below this threshold are counted in a dedicated zero
#: bucket rather than log-indexed (log of 0 is undefined; latencies this
#: small are indistinguishable from zero for any reporting purpose).
MIN_TRACKABLE = 1e-12

#: Default cap on the number of log buckets a sketch may hold.  With
#: alpha=0.005 the full range [1e-12, 1e12] spans ~5500 buckets; real
#: latency streams (microseconds to hours) use a few hundred.  On
#: overflow the lowest buckets collapse together, preserving counts and
#: the accuracy of every upper quantile.
DEFAULT_MAX_BINS = 4096

#: The percentiles :meth:`LatencySketch.stats` reports, in field order.
_STATS_PERCENTILES = (10, 25, 50, 75, 90, 95, 99)


class StreamingMoments:
    """Exact one-pass count/mean/variance/min/max (Welford + Chan merge)."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the running moments."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def copy(self) -> "StreamingMoments":
        """An independent copy holding the same five values."""
        twin = StreamingMoments.__new__(StreamingMoments)
        twin.count = self.count
        twin.mean = self.mean
        twin._m2 = self._m2
        twin.minimum = self.minimum
        twin.maximum = self.maximum
        return twin

    def merge(self, other: "StreamingMoments") -> None:
        """Fold ``other``'s moments into this one (Chan's formula)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingMoments):
            return NotImplemented
        return (
            self.count == other.count
            and self.mean == other.mean
            and self._m2 == other._m2
            and self.minimum == other.minimum
            and self.maximum == other.maximum
        )

    @property
    def variance(self) -> float:
        """Population variance (matches ``LatencyStats``'s ``/ n``)."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(max(0.0, self.variance))


class QuantileSketch:
    """DDSketch-style log-bucketed quantile estimator.

    Guarantee: for any rank ``r`` the reported value lies within relative
    error ``relative_accuracy`` of the sample at a rank adjacent to ``r``
    (ranks are exact; interpolation between neighbouring order statistics
    is replaced by nearest-rank selection).  Bucket counts are exact
    integers, so :meth:`merge` is lossless and deterministic.
    """

    __slots__ = ("relative_accuracy", "_gamma", "_log_gamma", "_zero", "_bins", "max_bins")

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative accuracy must be in (0, 1) (got {relative_accuracy})"
            )
        if max_bins < 2:
            raise ValueError(f"max_bins must be at least 2 (got {max_bins})")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._zero = 0
        self._bins: Dict[int, int] = {}
        self.max_bins = max_bins

    @property
    def count(self) -> int:
        """Total number of samples folded in."""
        return self._zero + sum(self._bins.values())

    def key(self, value: float) -> Optional[int]:
        """The bucket a non-negative sample falls in (``None``: the zero bucket).

        The key depends only on the relative accuracy, so a sample added to
        several sketches of one accuracy needs its key computed once.
        """
        if math.isnan(value):
            raise ValueError("cannot sketch a NaN sample")
        if value < 0:
            raise ValueError(f"cannot sketch a negative latency ({value})")
        if value <= MIN_TRACKABLE:
            return None
        return math.ceil(math.log(value) / self._log_gamma)

    def add(self, value: float) -> None:
        """Fold one non-negative sample into the sketch."""
        self.add_key(self.key(value))

    def add_key(self, key: Optional[int]) -> None:
        """Count one sample whose :meth:`key` is ``key``."""
        if key is None:
            self._zero += 1
            return
        bins = self._bins
        bins[key] = bins.get(key, 0) + 1
        if len(bins) > self.max_bins:
            self._collapse_lowest()

    def _collapse_lowest(self) -> None:
        """Fold the lowest bucket into its neighbour to stay bounded.

        Collapsing from the bottom preserves the accuracy of every upper
        quantile (p50 and above are what the control plane consumes);
        only extreme low quantiles of pathological ranges degrade.
        """
        ordered = sorted(self._bins)
        lowest, second = ordered[0], ordered[1]
        self._bins[second] += self._bins.pop(lowest)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other``'s buckets into this sketch (lossless)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        self._zero += other._zero
        bins = self._bins
        for index, count in other._bins.items():
            bins[index] = bins.get(index, 0) + count
        while len(bins) > self.max_bins:
            self._collapse_lowest()

    def subtract(self, other: "QuantileSketch") -> None:
        """Take ``other``'s counts back out: the exact inverse of :meth:`merge`.

        ``other`` must have been merged into this sketch and neither may
        have collapsed since (a collapse moves counts between buckets).
        A bucket whose count reaches zero is deleted, so the result
        compares equal to a sketch that never held ``other``.
        """
        self._zero -= other._zero
        bins = self._bins
        for index, count in other._bins.items():
            left = bins[index] - count
            if left:
                bins[index] = left
            else:
                del bins[index]

    @property
    def at_capacity(self) -> bool:
        """True once the sketch holds ``max_bins`` buckets.

        A sketch that collapsed is at capacity right after the collapse,
        so one never seen at capacity has never collapsed.
        """
        return len(self._bins) >= self.max_bins

    def copy(self) -> "QuantileSketch":
        """An independent copy with the same accuracy, cap and counts."""
        twin = QuantileSketch.__new__(QuantileSketch)
        twin.relative_accuracy = self.relative_accuracy
        twin._gamma = self._gamma
        twin._log_gamma = self._log_gamma
        twin._zero = self._zero
        twin._bins = dict(self._bins)
        twin.max_bins = self.max_bins
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.relative_accuracy == other.relative_accuracy
            and self.max_bins == other.max_bins
            and self._zero == other._zero
            and self._bins == other._bins
        )

    def _bucket_value(self, index: int) -> float:
        """Representative value for a bucket: its geometric midpoint.

        Every sample in bucket ``i`` lies in ``(gamma^(i-1), gamma^i]``;
        ``2 * gamma^i / (gamma + 1)`` is within ``relative_accuracy`` of
        any point in that interval.
        """
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, pct: float) -> float:
        """Nearest-rank quantile estimate for percentile ``pct`` in [0, 100].

        Uses the same rank convention as
        :func:`repro.faas.metrics.percentile` (``rank = pct/100 * (n-1)``)
        rounded to the nearest order statistic.
        """
        return self.quantiles_at((pct,))[0]

    def quantiles_at(self, pcts: Sequence[float]) -> List[float]:
        """:meth:`quantile` for each of ``pcts``, in one sorted walk.

        The count is summed and the buckets sorted once; each rank then
        resumes the walk where the previous, lower rank stopped.
        """
        total = self.count
        if total == 0:
            raise ValueError("cannot take a quantile of an empty sketch")
        ranks = []
        for pct in pcts:
            if pct <= 0:
                rank = 0
            elif pct >= 100:
                rank = total - 1
            else:
                rank = min(total - 1, int((pct / 100.0) * (total - 1) + 0.5))
            ranks.append(rank)
        values = [0.0] * len(ranks)
        bins = self._bins
        walk = iter(sorted(bins))
        cumulative = self._zero
        index = 0
        for position in sorted(range(len(ranks)), key=ranks.__getitem__):
            rank = ranks[position]
            if rank < self._zero:
                continue  # the zero bucket reports 0.0
            # The first bucket whose cumulative count passes the rank; it
            # exists because the last bucket's cumulative count is total.
            while cumulative <= rank:
                index = next(walk)
                cumulative += bins[index]
            values[position] = self._bucket_value(index)
        return values


class LatencySketch:
    """Bounded-memory replacement for a list of latency samples.

    Pairs exact streaming moments with an alpha-accurate quantile sketch
    and reduces to the same :class:`~repro.faas.metrics.LatencyStats`
    shape the exact path produces: ``count``/``mean``/``std``/``min``/
    ``max`` are exact, percentiles carry the sketch's documented relative
    value-error bound (and are clamped to the exact [min, max] envelope).
    """

    __slots__ = ("moments", "quantiles")

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        self.moments = StreamingMoments()
        self.quantiles = QuantileSketch(relative_accuracy, max_bins)

    @property
    def count(self) -> int:
        """Number of samples folded in."""
        return self.moments.count

    @property
    def relative_accuracy(self) -> float:
        """The documented relative value-error bound for percentiles."""
        return self.quantiles.relative_accuracy

    def add(self, value: float) -> None:
        """Fold one latency sample (seconds) into the sketch."""
        self.quantiles.add(value)
        self.moments.add(value)

    def add_keyed(self, value: float, key: Optional[int]) -> None:
        """Fold one sample whose quantile key (:meth:`QuantileSketch.key`) is known."""
        self.quantiles.add_key(key)
        self.moments.add(value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the sketch."""
        for value in values:
            self.add(value)

    def merge(self, other: "LatencySketch") -> None:
        """Fold another sketch in; equivalent to sketching both streams."""
        self.quantiles.merge(other.quantiles)
        self.moments.merge(other.moments)

    def copy(self) -> "LatencySketch":
        """An independent copy that compares equal to this sketch."""
        twin = LatencySketch.__new__(LatencySketch)
        twin.moments = self.moments.copy()
        twin.quantiles = self.quantiles.copy()
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySketch):
            return NotImplemented
        return self.moments == other.moments and self.quantiles == other.quantiles

    def stats(self) -> "LatencyStats":
        """Reduce to a :class:`~repro.faas.metrics.LatencyStats`."""
        from repro.faas.metrics import LatencyStats

        moments = self.moments
        if moments.count == 0:
            raise ValueError("cannot summarise an empty sample set")
        low, high = moments.minimum, moments.maximum
        p10, p25, median, p75, p90, p95, p99 = (
            min(max(value, low), high)
            for value in self.quantiles.quantiles_at(_STATS_PERCENTILES)
        )
        return LatencyStats(
            count=moments.count,
            mean=moments.mean,
            std=moments.std,
            minimum=low,
            p10=p10,
            p25=p25,
            median=median,
            p75=p75,
            p90=p90,
            p95=p95,
            p99=p99,
            maximum=high,
        )


def merged(sketches: Iterable[LatencySketch]) -> Optional[LatencySketch]:
    """Merge an iterable of sketches into a fresh one (``None`` if empty)."""
    result: Optional[LatencySketch] = None
    for sketch in sketches:
        if result is None:
            result = LatencySketch(sketch.relative_accuracy, sketch.quantiles.max_bins)
        result.merge(sketch)
    return result
