"""Statistics helpers for overhead reporting.

The paper's headline numbers are medians and 95th percentiles of *relative*
overheads across the 58 benchmarks (e.g. "median 1.5 %, 95p 7 % end-to-end
latency overhead").  These helpers compute exactly those reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.faas.metrics import percentile


def relative_overhead_percent(value: float, baseline: float) -> float:
    """Overhead of ``value`` relative to ``baseline``, in percent.

    Positive means slower/worse than the baseline; negative means better.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (value / baseline - 1.0) * 100.0


@dataclass(frozen=True)
class OverheadSummary:
    """Distribution of relative overheads across a benchmark population."""

    count: int
    median_percent: float
    p95_percent: float
    maximum_percent: float
    minimum_percent: float
    mean_percent: float

    def describe(self, label: str = "overhead") -> str:
        """One-line human-readable summary."""
        return (
            f"{label}: median {self.median_percent:+.1f}%, "
            f"95p {self.p95_percent:+.1f}%, max {self.maximum_percent:+.1f}% "
            f"(n={self.count})"
        )


def summarize_overheads(overheads_percent: Sequence[float]) -> OverheadSummary:
    """Summarise a list of relative overheads (percent)."""
    values = [float(v) for v in overheads_percent]
    if not values:
        raise ValueError("cannot summarise an empty overhead list")
    ordered = sorted(values)
    return OverheadSummary(
        count=len(ordered),
        median_percent=percentile(ordered, 50),
        p95_percent=percentile(ordered, 95),
        maximum_percent=ordered[-1],
        minimum_percent=ordered[0],
        mean_percent=sum(ordered) / len(ordered),
    )


def reductions_percent(values: Iterable[float], baselines: Iterable[float]) -> List[float]:
    """Relative *reductions* (positive = lower than baseline), e.g. throughput loss."""
    result = []
    for value, baseline in zip(values, baselines):
        if baseline <= 0:
            raise ValueError("baseline must be positive")
        result.append((1.0 - value / baseline) * 100.0)
    return result
