"""Memory stays flat as runs get longer: nothing is kept per invocation.

Replays the perf-trace shape (the diurnal metrics trace on its 4 × 4-core
cluster, eight ``day-*`` actions, a lean lazy open-loop client that
keeps no finished invocation) at two lengths and measures the live heap
the replay leaves behind while the cluster is still alive.  Everything
the platform keeps is bounded (metric time buckets, capped per-action
arrival history, capped cold-event lists), so the heap may grow only by
bounded state that has not yet reached its cap; a record kept per
request (an execution log, a per-invocation metrics list) costs hundreds
of bytes per arrival and fails the bound.

``tracemalloc`` starts after the client is built, so the arrival trace
it replays is not counted.  A second test pins that serving requests
leaves no reference cycles, which only the garbage collector could free.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.analysis.perf import build_client

#: Arrivals of the short and the long replay (the long is 4× the short).
SHORT, LONG = 3_000, 12_000
#: Most live-heap bytes the long replay may keep per extra arrival.
MAX_BYTES_PER_ARRIVAL = 64


def _live_heap_after_replay(invocations: int):
    """(arrivals issued, live traced bytes) after one replay, cluster alive."""
    client = build_client("metrics", "run", invocations=invocations)
    gc.collect()
    tracemalloc.start()
    try:
        result = client.run()
        gc.collect()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert client.platform.metrics.num_recorded == result.issued
    return result.issued, live


def test_live_heap_growth_per_arrival_is_bounded():
    short_arrivals, short_heap = _live_heap_after_replay(SHORT)
    long_arrivals, long_heap = _live_heap_after_replay(LONG)
    assert long_arrivals >= 3 * short_arrivals
    per_arrival = (long_heap - short_heap) / (long_arrivals - short_arrivals)
    assert per_arrival <= MAX_BYTES_PER_ARRIVAL, (
        f"live heap grew {per_arrival:.0f} B per extra arrival "
        f"({short_heap:,} B after {short_arrivals:,} arrivals, "
        f"{long_heap:,} B after {long_arrivals:,})"
    )


def test_served_requests_leave_no_cyclic_garbage():
    """A request's hop records are freed by reference counting.

    Each dispatch record keeps the handles of the events it scheduled, and
    each event's callback is a bound method of that record; the record
    drops a handle when its event fires, so no cycle is left behind for the
    garbage collector.  A per-request cycle leaves at least one object per
    arrival; what remains here is the fixed few of the replay's set-up.
    """
    client = build_client("metrics", "run", invocations=SHORT)
    gc.collect()
    gc.disable()
    try:
        result = client.run()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage * 10 < result.issued, (
        f"{garbage:,} objects in reference cycles after {result.issued:,} arrivals"
    )
