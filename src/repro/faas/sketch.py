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

Everything here is deterministic (pure integer/float arithmetic over
sorted bucket indices — no sampling, no randomised compression) and
picklable, so multi-seed fan-out workers can ship sketches back to the
parent process and merge them bit-identically to a serial run.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, TYPE_CHECKING

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

    def add(self, value: float) -> None:
        """Fold one non-negative sample into the sketch."""
        if math.isnan(value):
            raise ValueError("cannot sketch a NaN sample")
        if value < 0:
            raise ValueError(f"cannot sketch a negative latency ({value})")
        if value <= MIN_TRACKABLE:
            self._zero += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        bins = self._bins
        bins[index] = bins.get(index, 0) + 1
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
        total = self.count
        if total == 0:
            raise ValueError("cannot take a quantile of an empty sketch")
        if pct <= 0:
            rank = 0
        elif pct >= 100:
            rank = total - 1
        else:
            rank = min(total - 1, int((pct / 100.0) * (total - 1) + 0.5))
        if rank < self._zero:
            return 0.0
        cumulative = self._zero
        for index in sorted(self._bins):
            cumulative += self._bins[index]
            if cumulative > rank:
                return self._bucket_value(index)
        # Unreachable: cumulative == total > rank by the guard above.
        raise AssertionError("quantile rank walked past the sketch")  # pragma: no cover


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

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the sketch."""
        for value in values:
            self.add(value)

    def merge(self, other: "LatencySketch") -> None:
        """Fold another sketch in; equivalent to sketching both streams."""
        self.quantiles.merge(other.quantiles)
        self.moments.merge(other.moments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencySketch):
            return NotImplemented
        return self.moments == other.moments and self.quantiles == other.quantiles

    def _clamped_quantile(self, pct: float) -> float:
        value = self.quantiles.quantile(pct)
        return min(max(value, self.moments.minimum), self.moments.maximum)

    def stats(self) -> "LatencyStats":
        """Reduce to a :class:`~repro.faas.metrics.LatencyStats`."""
        from repro.faas.metrics import LatencyStats

        moments = self.moments
        if moments.count == 0:
            raise ValueError("cannot summarise an empty sample set")
        return LatencyStats(
            count=moments.count,
            mean=moments.mean,
            std=moments.std,
            minimum=moments.minimum,
            p10=self._clamped_quantile(10),
            p25=self._clamped_quantile(25),
            median=self._clamped_quantile(50),
            p75=self._clamped_quantile(75),
            p90=self._clamped_quantile(90),
            p95=self._clamped_quantile(95),
            p99=self._clamped_quantile(99),
            maximum=moments.maximum,
        )


def merged(sketches: Iterable[LatencySketch]) -> Optional[LatencySketch]:
    """Merge an iterable of sketches into a fresh one (``None`` if empty)."""
    result: Optional[LatencySketch] = None
    for sketch in sketches:
        if result is None:
            result = LatencySketch(sketch.relative_accuracy, sketch.quantiles.max_bins)
        result.merge(sketch)
    return result
