"""Per-sample metrics: the oracle for the time-bucket metrics collector.

:class:`~repro.faas.metrics.MetricsCollector` keeps nothing per
invocation: it folds every finished invocation into time-bucket sketches.
This module keeps the plain definition of what it summarises: every
finished :class:`~repro.faas.request.Invocation`, sorted by
``completed_at``, with windows as exact closed intervals and statistics
as exact percentiles over the raw samples (the way the platform kept its
metrics before the sketch became the only collector).

The collector documents parity with this oracle in one regime: a window
whose start sits on a bucket edge and that nothing finished after.  There
the counts are equal, and so are a window's latency count, minimum and
maximum; percentiles agree within the sketch's relative accuracy.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional

from repro.faas.metrics import LatencyStats, summarize
from repro.faas.request import Invocation, InvocationStatus


def _finished_at(invocation: Invocation) -> float:
    return invocation.completed_at


class ReferenceMetrics:
    """Every finished invocation, sorted by finish time."""

    def __init__(self, invocations: Iterable[Invocation] = ()) -> None:
        self.invocations: List[Invocation] = []
        for invocation in invocations:
            self.record(invocation)

    def record(self, invocation: Invocation) -> None:
        """Keep one finished invocation, in finish-time order."""
        bisect.insort(self.invocations, invocation, key=_finished_at)

    def _with_status(self, status: InvocationStatus) -> List[Invocation]:
        return [inv for inv in self.invocations if inv.status is status]

    @property
    def completed(self) -> List[Invocation]:
        """Completed invocations in finish-time order."""
        return self._with_status(InvocationStatus.COMPLETED)

    @property
    def num_completed(self) -> int:
        return len(self.completed)

    @property
    def num_rejected(self) -> int:
        return len(self._with_status(InvocationStatus.REJECTED))

    @property
    def num_throttled(self) -> int:
        return len(self._with_status(InvocationStatus.THROTTLED))

    @property
    def num_failed(self) -> int:
        # Like the collector, anything not completed, rejected or
        # throttled counts as failed.
        return (
            self.num_recorded
            - self.num_completed
            - self.num_rejected
            - self.num_throttled
        )

    @property
    def num_recorded(self) -> int:
        return len(self.invocations)

    def window(self, start: float, end: Optional[float] = None) -> "ReferenceMetrics":
        """The invocations that finished in the closed interval ``[start, end]``."""
        if end is not None and end < start:
            return ReferenceMetrics()
        return ReferenceMetrics(
            inv
            for inv in self.invocations
            if start <= inv.completed_at and (end is None or inv.completed_at <= end)
        )

    def by_caller(
        self, *, since: Optional[float] = None, until: Optional[float] = None
    ) -> Dict[str, "ReferenceMetrics"]:
        """One oracle per tenant, over the window when one is given."""
        source = self
        if since is not None or until is not None:
            source = self.window(since if since is not None else -math.inf, until)
        per_tenant: Dict[str, ReferenceMetrics] = {}
        for inv in source.invocations:
            per_tenant.setdefault(inv.caller, ReferenceMetrics()).record(inv)
        return per_tenant

    def e2e_stats(self) -> LatencyStats:
        """Exact statistics of the completed invocations' e2e latencies."""
        return summarize(inv.e2e_seconds for inv in self.completed)

    def e2e_p99(self) -> float:
        """The exact e2e p99 (what the SLO monitor reads)."""
        return self.e2e_stats().p99
