"""Unit tests for the streaming sketch primitives (``repro.faas.sketch``).

The sketch is the foundation of the metrics collector: percentile
queries must stay inside the documented relative value-error bound,
moments must be *exact* (Welford/Chan, not approximations), and merging
two sketches must be lossless — identical to sketching the concatenated
stream.  Everything here is deterministic; the randomised/adversarial
exploration lives in ``tests/property/test_prop_sketch.py``.
"""

from __future__ import annotations

import pickle
import random
import statistics

import pytest

from repro.faas.metrics import LatencyStats, percentile, summarize
from repro.faas.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    LatencySketch,
    QuantileSketch,
    StreamingMoments,
    merged,
)


class TestStreamingMoments:
    def test_matches_batch_statistics(self):
        rng = random.Random(7)
        samples = [rng.expovariate(10.0) for _ in range(500)]
        moments = StreamingMoments()
        for sample in samples:
            moments.add(sample)
        assert moments.count == len(samples)
        assert moments.mean == pytest.approx(statistics.fmean(samples))
        assert moments.std == pytest.approx(statistics.pstdev(samples))
        assert moments.minimum == min(samples)
        assert moments.maximum == max(samples)

    def test_merge_equals_single_stream(self):
        rng = random.Random(11)
        left = [rng.random() for _ in range(100)]
        right = [rng.random() * 10 for _ in range(37)]
        a, b, both = StreamingMoments(), StreamingMoments(), StreamingMoments()
        for sample in left:
            a.add(sample)
            both.add(sample)
        for sample in right:
            b.add(sample)
            both.add(sample)
        a.merge(b)
        assert a.count == both.count
        assert a.mean == pytest.approx(both.mean)
        assert a.std == pytest.approx(both.std)
        assert a.minimum == both.minimum
        assert a.maximum == both.maximum

    def test_merge_into_empty_and_with_empty(self):
        filled = StreamingMoments()
        for sample in (1.0, 2.0, 3.0):
            filled.add(sample)
        empty = StreamingMoments()
        empty.merge(filled)
        assert empty == filled
        before = pickle.loads(pickle.dumps(filled))
        filled.merge(StreamingMoments())
        assert filled == before

    def test_empty_moments(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.variance == 0.0
        assert moments.std == 0.0


class TestQuantileSketch:
    def test_quantile_within_relative_accuracy(self):
        rng = random.Random(3)
        samples = sorted(rng.lognormvariate(-3.5, 1.0) for _ in range(2000))
        sketch = QuantileSketch()
        for sample in samples:
            sketch.add(sample)
        for pct in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            rank = min(len(samples) - 1, int(pct / 100 * (len(samples) - 1) + 0.5))
            exact = samples[rank]
            estimate = sketch.quantile(pct)
            assert abs(estimate - exact) <= DEFAULT_RELATIVE_ACCURACY * exact * 1.0001

    def test_extremes_hit_min_and_max_buckets(self):
        sketch = QuantileSketch()
        for sample in (0.001, 0.002, 0.004, 1.5):
            sketch.add(sample)
        assert sketch.quantile(0) == pytest.approx(0.001, rel=0.01)
        assert sketch.quantile(100) == pytest.approx(1.5, rel=0.01)

    def test_zero_and_tiny_values_use_the_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.add(0.0)
        sketch.add(0.0)
        sketch.add(1.0)
        assert sketch.count == 3
        assert sketch.quantile(0) == 0.0
        assert sketch.quantile(100) == pytest.approx(1.0, rel=0.01)

    def test_rejects_negative_and_nan(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-0.5)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(50)

    def test_merge_is_lossless(self):
        rng = random.Random(5)
        left = [rng.expovariate(1.0) for _ in range(400)]
        right = [rng.expovariate(100.0) for _ in range(300)]
        a, b, both = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for sample in left:
            a.add(sample)
            both.add(sample)
        for sample in right:
            b.add(sample)
            both.add(sample)
        a.merge(b)
        assert a == both

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.005).merge(
                QuantileSketch(relative_accuracy=0.01)
            )

    def test_bin_cap_collapses_lowest_buckets(self):
        # Samples spanning many orders of magnitude overflow a tiny bin
        # budget; the sketch folds the *lowest* bins together so the tail
        # (what SLOs look at) keeps full resolution.
        sketch = QuantileSketch(max_bins=16)
        for exponent in range(64):
            sketch.add(1.5 ** (exponent - 32))
        assert len(sketch._bins) <= 16
        assert sketch.count == 64
        top = 1.5 ** 31
        assert sketch.quantile(100) == pytest.approx(top, rel=DEFAULT_RELATIVE_ACCURACY * 2)

    def test_memory_is_bounded_by_value_range_not_count(self):
        sketch = QuantileSketch()
        rng = random.Random(9)
        for _ in range(50_000):
            sketch.add(0.020 + rng.random() * 0.020)  # 20-40 ms latencies
        # log-bucketed: a 2x value range at 0.5 % accuracy is ~70 buckets.
        assert len(sketch._bins) < 100
        assert sketch.count == 50_000


class TestLatencySketch:
    def test_stats_shape_and_exact_fields(self):
        rng = random.Random(13)
        samples = [rng.uniform(0.010, 0.200) for _ in range(1500)]
        sketch = LatencySketch()
        sketch.extend(samples)
        stats = sketch.stats()
        exact = summarize(samples)
        assert isinstance(stats, LatencyStats)
        # count/mean/std/min/max are exact by construction.
        assert stats.count == exact.count
        assert stats.mean == pytest.approx(exact.mean)
        assert stats.std == pytest.approx(exact.std)
        assert stats.minimum == exact.minimum
        assert stats.maximum == exact.maximum
        # Percentiles carry the documented relative bound.
        for name in ("p10", "p25", "median", "p75", "p90", "p95", "p99"):
            got = getattr(stats, name)
            want = getattr(exact, name)
            assert abs(got - want) <= DEFAULT_RELATIVE_ACCURACY * want * 1.0001

    def test_percentiles_clamped_to_observed_envelope(self):
        sketch = LatencySketch()
        sketch.add(0.5)
        stats = sketch.stats()
        assert stats.minimum == stats.maximum == 0.5
        assert stats.median == 0.5
        assert stats.p99 == 0.5

    def test_empty_stats_raises(self):
        with pytest.raises(ValueError):
            LatencySketch().stats()

    def test_merge_matches_concatenation(self):
        rng = random.Random(17)
        left = [rng.expovariate(30.0) for _ in range(200)]
        right = [rng.expovariate(5.0) for _ in range(90)]
        a, b, both = LatencySketch(), LatencySketch(), LatencySketch()
        a.extend(left)
        b.extend(right)
        both.extend(left + right)
        a.merge(b)
        # Bucket counts merge losslessly (integer arithmetic) ...
        assert a.quantiles == both.quantiles
        # ... while Chan-merged moments agree with the one-pass stream up
        # to float round-off (means/variances are not associative in fp).
        assert a.moments.count == both.moments.count
        assert a.moments.mean == pytest.approx(both.moments.mean)
        assert a.moments.std == pytest.approx(both.moments.std)
        assert a.moments.minimum == both.moments.minimum
        assert a.moments.maximum == both.moments.maximum

    def test_merged_helper(self):
        sketches = []
        for offset in range(3):
            sketch = LatencySketch()
            sketch.extend([0.01 * (offset + 1)] * 10)
            sketches.append(sketch)
        pooled = merged(sketches)
        assert pooled is not None
        assert pooled.count == 30
        assert merged([]) is None

    def test_round_trips_through_pickle(self):
        # The multi-seed fan-out ships sketches across process boundaries.
        sketch = LatencySketch()
        sketch.extend([0.001, 0.030, 2.5])
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone == sketch
        assert clone.stats() == sketch.stats()

    def test_rank_convention_matches_metrics_percentile(self):
        # Degenerate single-bucket streams reproduce percentile() exactly.
        samples = [0.042] * 101
        sketch = LatencySketch()
        sketch.extend(samples)
        assert sketch.stats().p99 == pytest.approx(percentile(samples, 99), rel=1e-9)
