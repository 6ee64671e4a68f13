"""Property tests for the streaming sketch (``repro.faas.sketch``).

The sketch replaces exact per-sample percentile math in million-request
runs, so its guarantees are stated — and checked here — against the exact
implementation in :mod:`repro.faas.metrics`:

* **Quantile accuracy**: for every percentile, the estimate is within the
  documented relative value error of a *bracketing* pair of exact order
  statistics.  DDSketch's guarantee is per-value, so the estimate must
  sit inside the alpha-widened envelope ``[(1-a)·x_lo, (1+a)·x_hi]``
  where ``x_lo``/``x_hi`` are the order statistics adjacent to the
  queried rank.
* **Merge consistency**: sketch(A) merged with sketch(B) equals
  sketch(A + B) — bucket counts are integers, so this is exact equality,
  not an approximation.
* **Determinism**: the same stream always yields the same sketch,
  regardless of when queries interleave with inserts.
* **One walk**: ``quantiles_at`` resolves several ranks in one sorted
  walk, in any order, exactly as a fresh walk per rank does.
* **LatencyStats parity**: count/mean/std/min/max reduce exactly to the
  values :func:`repro.faas.metrics.summarize` computes.
* **The p99 read**: ``LatencySketch.p99`` (and ``MetricsCollector.e2e_p99``,
  what the SLO monitor reads) equals ``stats().p99`` bit for bit, zero
  bucket and collapsed bins included.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.faas.metrics import MetricsCollector, percentile, summarize
from repro.faas.request import Invocation
from repro.faas.sketch import LatencySketch, QuantileSketch

#: Latency-shaped positive samples: microseconds to minutes, plus the
#: occasional exact zero (sub-resolution timings).
latencies = st.one_of(
    st.floats(min_value=1e-6, max_value=120.0, allow_nan=False, allow_infinity=False),
    st.just(0.0),
)

streams = st.lists(latencies, min_size=1, max_size=300)

percentiles = st.sampled_from([0, 1, 10, 25, 50, 75, 90, 95, 99, 100])


@given(samples=streams, pct=percentiles)
@settings(max_examples=200, deadline=None)
def test_quantile_within_rank_error_of_exact(samples, pct):
    sketch = QuantileSketch()
    for sample in samples:
        sketch.add(sample)
    estimate = sketch.quantile(pct)

    ordered = sorted(samples)
    n = len(ordered)
    rank = min(n - 1, int(pct / 100.0 * (n - 1) + 0.5))
    # Bracketing order statistics around the queried rank: nearest-rank
    # rounding means the answer corresponds to rank, but float rounding
    # at the .5 boundary may legitimately land one rank either side.
    lo = ordered[max(0, rank - 1)]
    hi = ordered[min(n - 1, rank + 1)]
    alpha = sketch.relative_accuracy * 1.0001  # float-dust headroom
    assert (1.0 - alpha) * lo <= estimate <= (1.0 + alpha) * hi


@given(samples=streams, pcts=st.lists(percentiles, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_one_walk_answers_every_rank_like_its_own_walk(samples, pcts):
    sketch = QuantileSketch()
    for sample in samples:
        sketch.add(sample)
    assert sketch.quantiles_at(pcts) == [
        sketch.quantiles_at((pct,))[0] for pct in pcts
    ]


@given(left=streams, right=streams)
@settings(max_examples=150, deadline=None)
def test_merge_equals_sketch_of_concatenation(left, right):
    a = QuantileSketch()
    b = QuantileSketch()
    both = QuantileSketch()
    for sample in left:
        a.add(sample)
        both.add(sample)
    for sample in right:
        b.add(sample)
        both.add(sample)
    a.merge(b)
    assert a == both


@given(samples=streams)
@settings(max_examples=100, deadline=None)
def test_merge_is_commutative_on_bucket_counts(samples):
    half = len(samples) // 2
    ab, ba = QuantileSketch(), QuantileSketch()
    a1, b1 = QuantileSketch(), QuantileSketch()
    for sample in samples[:half]:
        a1.add(sample)
    for sample in samples[half:]:
        b1.add(sample)
    ab.merge(a1)
    ab.merge(b1)
    ba.merge(b1)
    ba.merge(a1)
    assert ab == ba


@given(samples=streams)
@settings(max_examples=100, deadline=None)
def test_same_stream_same_sketch(samples):
    first = QuantileSketch()
    second = QuantileSketch()
    for sample in samples:
        first.add(sample)
    # Interleave queries with inserts on the second copy: reads must not
    # perturb state.
    for index, sample in enumerate(samples):
        second.add(sample)
        if index % 7 == 0:
            second.quantile(50)
    assert first == second
    assert first.quantile(99) == second.quantile(99)


@given(samples=streams)
@settings(max_examples=150, deadline=None)
def test_latency_stats_parity_with_summarize(samples):
    sketch = LatencySketch()
    sketch.extend(samples)
    stats = sketch.stats()
    exact = summarize(samples)
    assert stats.count == exact.count
    assert stats.minimum == exact.minimum
    assert stats.maximum == exact.maximum
    assert abs(stats.mean - exact.mean) <= 1e-9 * max(1.0, abs(exact.mean))
    assert abs(stats.std - exact.std) <= 1e-6 * max(1.0, exact.std)


@given(samples=st.lists(latencies, min_size=2, max_size=120), pct=percentiles)
@settings(max_examples=100, deadline=None)
def test_percentile_estimates_clamped_to_envelope(samples, pct):
    sketch = LatencySketch()
    sketch.extend(samples)
    stats = sketch.stats()
    for value in (stats.p10, stats.p25, stats.median, stats.p75,
                  stats.p90, stats.p95, stats.p99):
        assert stats.minimum <= value <= stats.maximum


@given(samples=st.lists(latencies, min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_single_bucket_streams_reproduce_percentile_exactly(samples):
    # All-equal streams collapse into one bucket whose representative
    # value is within alpha of the true (constant) sample — and clamping
    # to [min, max] then makes the answer *exact*.
    constant = samples[0]
    stream = [constant] * len(samples)
    sketch = LatencySketch()
    sketch.extend(stream)
    assert sketch.stats().p99 == percentile(stream, 99)


@given(samples=streams, max_bins=st.sampled_from([2, 3, 8, 2048]))
@example(samples=[0.0, 0.0], max_bins=2048)  # the zero bucket alone
@example(samples=[0.0] * 99 + [5.0], max_bins=2048)  # p99 in the zero bucket
@example(samples=[1e-6 * 3 ** k for k in range(30)], max_bins=2)  # collapsed bins
@settings(max_examples=300, deadline=None)
def test_p99_read_equals_the_stats_p99_bit_for_bit(samples, max_bins):
    sketch = LatencySketch(max_bins=max_bins)
    sketch.extend(samples)
    # Bit for bit: compare the floats' exact values, signs of zero included.
    assert sketch.p99().hex() == sketch.stats().p99.hex()


@given(
    st.lists(
        st.tuples(latencies, st.sampled_from(["tenant-a", "tenant-b"])),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_collector_p99_read_equals_its_stats_p99(samples):
    # The per-tenant windowed collectors the SLO monitor reads.
    collector = MetricsCollector(bucket_seconds=0.25)
    for index, (latency, caller) in enumerate(samples):
        at = 1.0 + index * 0.01
        invocation = Invocation(action="act", caller=caller, submitted_at=at - latency)
        invocation.mark_completed(at, {})
        collector.record(invocation)
    tenants = collector.by_caller(since=0.5, until=1.0 + len(samples) * 0.01)
    assert tenants
    for tenant in tenants.values():
        assert tenant.e2e_p99().hex() == tenant.e2e_stats().p99.hex()
