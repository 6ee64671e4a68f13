"""Load generators for the workload regimes the evaluation exercises.

* :class:`ClosedLoopClient` — the latency setup (§5.3 "Latency"): a single
  closed-loop client submits requests one at a time, with enough think time
  for Groundhog to finish restoration before the next request arrives.  The
  measured latencies therefore only include in-function overheads.
* :class:`SaturatingClient` — the throughput setup (§5.3 "Measuring
  Throughput"): a client keeps a large number of requests in flight so the
  platform is always saturated; restoration time now delays subsequent
  requests and shows up in throughput.
* :class:`MultiActionSaturatingClient` — the cluster variant: one saturating
  stream per deployed action, so a scheduler has many actions to spread
  across invokers.  Rejected (shed) invocations are re-issued to keep the
  offered load constant, and are excluded from measured throughput.
* :class:`OpenLoopClient` — open-loop (Poisson or trace-driven) arrivals:
  requests are issued at externally determined instants, *independent of
  completions*, so a platform that falls behind accumulates backlog instead
  of silently slowing the client down.  This is the regime that produces
  honest latency-under-load curves and exposes cold-start storms.

All clients drive any deployment that exposes the platform surface
(``invoke_async`` / ``now`` / ``run`` / ``loop``) — both the single-invoker
:class:`~repro.faas.platform.FaaSPlatform` and the multi-invoker
:class:`~repro.faas.cluster.FaaSCluster`.
"""

from __future__ import annotations

import bisect
import csv
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import PlatformError
from repro.faas.cluster import FaaSCluster
from repro.faas.metrics import LatencyStats
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.sketch import LatencySketch


def _default_caller(index: int) -> str:
    """Cycle through eight distinct callers (different security domains)."""
    return f"user-{index % 8:02d}"


class TenantMix:
    """Deterministic weighted assignment of arrivals to tenants.

    A multi-tenant arrival stream: each issued request is tagged with a
    caller identity drawn from a weighted mix of tenants (e.g. an
    aggressive tenant at 4x a polite tenant's rate).  Assignment uses the
    smooth weighted-round-robin schedule (each step the tenant with the
    highest accumulated credit is chosen and pays back the total weight),
    so the interleaving is maximally even, exactly proportional over any
    long window, and a pure function of the request index — thinning a
    Poisson arrival process through it yields per-tenant streams at the
    weighted rates without consuming any randomness.

    Instances are callables compatible with :class:`OpenLoopClient`'s
    ``caller_for`` parameter.
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        if not weights:
            raise PlatformError("a tenant mix needs at least one tenant")
        for tenant, weight in weights.items():
            if weight <= 0:
                raise PlatformError(
                    f"tenant {tenant!r} needs a positive weight (got {weight})"
                )
        self.weights: Dict[str, float] = {t: float(w) for t, w in weights.items()}
        self._total = sum(self.weights.values())
        self._credit: Dict[str, float] = {tenant: 0.0 for tenant in self.weights}
        self._schedule: List[str] = []

    @property
    def tenants(self) -> List[str]:
        """The tenants of the mix, in declaration order."""
        return list(self.weights)

    def share(self, tenant: str) -> float:
        """The fraction of arrivals assigned to ``tenant``."""
        return self.weights[tenant] / self._total

    def __call__(self, index: int) -> str:
        if index < 0:
            raise PlatformError("arrival index must be >= 0")
        while len(self._schedule) <= index:
            for tenant in self._credit:
                self._credit[tenant] += self.weights[tenant]
            # max() returns the first maximum in iteration (declaration)
            # order, so ties break deterministically.
            chosen = max(self._credit, key=self._credit.get)
            self._credit[chosen] -= self._total
            self._schedule.append(chosen)
        return self._schedule[index]


def azure_functions_arrivals(
    actions: Sequence[str],
    *,
    duration_seconds: float,
    mean_rps: float,
    rng: random.Random,
    skew: float = 1.5,
) -> Tuple[List[float], List[str]]:
    """Generate an Azure-Functions-shaped arrival trace over ``actions``.

    The production characteristic of the Azure Functions traces is a
    heavy-tailed per-function invocation mix: a handful of functions
    receive the overwhelming majority of invocations while the long tail
    is invoked rarely.  This generator reproduces that shape with a
    Zipf-like rate assignment — action ``i`` (in the given order) gets a
    rate proportional to ``1 / (i + 1) ** skew`` — and an independent
    Poisson arrival process per action at its assigned rate, merged into
    one chronologically sorted trace.

    Returns ``(offsets, action_sequence)``: arrival time offsets (sorted,
    starting at >= 0) and the action each arrival targets, ready for
    :class:`OpenLoopClient`'s trace mode (``trace=offsets,
    action_sequence=action_sequence``).  Generation draws only from
    ``rng``, so identical inputs reproduce identical traces.
    """
    if not actions:
        raise PlatformError("an arrival trace needs at least one action")
    if duration_seconds <= 0:
        raise PlatformError("duration must be positive")
    if mean_rps <= 0:
        raise PlatformError("mean_rps must be positive")
    if skew < 0:
        raise PlatformError("skew must be >= 0")
    weights = []
    for index in range(len(actions)):
        try:
            weights.append(1.0 / (index + 1) ** skew)
        except OverflowError:
            # A deep tail under a steep skew overflows the denominator —
            # that action's share is an exact 0.0 (handled below).
            weights.append(0.0)
    total_weight = sum(weights)
    arrivals: List[Tuple[float, str]] = []
    for action, weight in zip(actions, weights):
        rate = mean_rps * weight / total_weight
        if rate <= 0.0 or not math.isfinite(rate):
            # A rate that underflowed to zero (deep tail under a steep
            # skew) contributes no arrivals; drawing from expovariate(0)
            # would divide by zero instead.
            continue
        offset = rng.expovariate(rate)
        while offset <= duration_seconds:
            arrivals.append((offset, action))
            offset += rng.expovariate(rate)
    if not arrivals:
        raise PlatformError(
            "the requested rate and duration produced no arrivals "
            "(every per-action rate was zero or too low); "
            "raise mean_rps or duration_seconds"
        )
    arrivals.sort(key=lambda pair: pair[0])
    return [offset for offset, _ in arrivals], [action for _, action in arrivals]


def azure_diurnal_arrivals(
    actions: Sequence[str],
    *,
    duration_seconds: float,
    mean_rps: float,
    rng: random.Random,
    skew: float = 1.5,
    period_seconds: Optional[float] = None,
    amplitude: float = 0.6,
    burst_multiplier: float = 4.0,
    burst_fraction: float = 0.1,
    burst_dwell_seconds: Optional[float] = None,
) -> Tuple[List[float], List[str]]:
    """Azure-shaped arrivals with the *temporal* production components.

    :func:`azure_functions_arrivals` reproduces the published traces'
    heavy-tailed per-function rate mix but drives it with a stationary
    Poisson process.  The traces' other two signatures are temporal:

    * a **diurnal cycle** — load swings smoothly around the mean over the
      day (here one sinusoidal cycle per ``period_seconds``, default one
      cycle over the run, peak-to-trough set by ``amplitude``), and
    * **bursts** — short windows in which the whole workload's rate jumps
      (here a renewal on/off process: exponential quiet gaps, exponential
      burst dwells of mean ``burst_dwell_seconds``, rate multiplied by
      ``burst_multiplier`` while a burst is on, with bursts covering
      ``burst_fraction`` of the timeline in expectation).  Bursts are
      *correlated across actions* — a traffic spike hits the platform,
      not one function — which is exactly what makes them hard: every
      queue deepens at once.

    The base rate is normalised so the run's expected mean stays
    ``mean_rps``; sampling is non-homogeneous Poisson via thinning, drawn
    only from ``rng`` (identical inputs reproduce identical traces).
    Returns ``(offsets, action_sequence)`` for
    :class:`OpenLoopClient`'s trace mode, like the stationary generator.
    """
    if not actions:
        raise PlatformError("an arrival trace needs at least one action")
    if duration_seconds <= 0:
        raise PlatformError("duration must be positive")
    if mean_rps <= 0:
        raise PlatformError("mean_rps must be positive")
    if skew < 0:
        raise PlatformError("skew must be >= 0")
    if not 0.0 <= amplitude < 1.0:
        raise PlatformError("diurnal amplitude must be in [0, 1)")
    if burst_multiplier < 1.0:
        raise PlatformError("burst_multiplier must be >= 1")
    if not 0.0 <= burst_fraction < 1.0:
        raise PlatformError("burst_fraction must be in [0, 1)")
    period = period_seconds if period_seconds is not None else duration_seconds
    if period <= 0:
        raise PlatformError("diurnal period must be positive")
    dwell = (
        burst_dwell_seconds
        if burst_dwell_seconds is not None
        else duration_seconds / 20
    )
    if dwell <= 0:
        raise PlatformError("burst dwell must be positive")

    # One burst schedule for the whole workload (correlated bursts): the
    # timeline alternates exponential off gaps (mean sized so bursts cover
    # burst_fraction of time) and exponential on dwells.
    burst_edges: List[float] = []  # even index = burst start, odd = burst end
    if burst_fraction > 0 and burst_multiplier > 1.0:
        off_mean = dwell * (1.0 - burst_fraction) / burst_fraction
        t = rng.expovariate(1.0 / off_mean)
        while t < duration_seconds:
            end = t + rng.expovariate(1.0 / dwell)
            burst_edges.append(t)
            burst_edges.append(min(end, duration_seconds))
            t = end + rng.expovariate(1.0 / off_mean)

    def in_burst(t: float) -> bool:
        # Odd insertion index = inside a [start, end) burst window.
        return bisect.bisect_right(burst_edges, t) % 2 == 1

    expected_multiplier = 1.0 + (burst_multiplier - 1.0) * burst_fraction
    base_mean = mean_rps / expected_multiplier

    def rate_factor(t: float) -> float:
        diurnal = 1.0 + amplitude * math.sin(2.0 * math.pi * t / period)
        return diurnal * (burst_multiplier if in_burst(t) else 1.0)

    # The thinning envelope only needs to dominate rates that can actually
    # occur: without any realised burst window the factor never exceeds
    # 1 + amplitude, and paying the burst multiplier there would reject
    # (multiplier - 1)/multiplier of all candidate draws for nothing.
    peak_factor = (1.0 + amplitude) * (burst_multiplier if burst_edges else 1.0)
    weights = []
    for index in range(len(actions)):
        try:
            weights.append(1.0 / (index + 1) ** skew)
        except OverflowError:
            # A deep tail under a steep skew overflows the denominator —
            # that action's share is an exact 0.0 (handled below).
            weights.append(0.0)
    total_weight = sum(weights)
    arrivals: List[Tuple[float, str]] = []
    for action, weight in zip(actions, weights):
        base_rate = base_mean * weight / total_weight
        peak_rate = base_rate * peak_factor
        if peak_rate <= 0.0 or not math.isfinite(peak_rate):
            # A zero (or underflowed) thinning envelope means the action's
            # instantaneous rate is zero everywhere: it legitimately
            # produces no arrivals.  Sampling would instead divide by zero
            # in expovariate — or, for subnormal rates, emit a single
            # arrival at an astronomically distant offset.
            continue
        offset = rng.expovariate(peak_rate)
        while offset <= duration_seconds:
            # Thinning: a candidate drawn at the peak rate survives with
            # probability rate(t)/peak, yielding the non-homogeneous
            # process exactly.
            if rng.random() < rate_factor(offset) / peak_factor:
                arrivals.append((offset, action))
            offset += rng.expovariate(peak_rate)
    if not arrivals:
        raise PlatformError(
            "the requested rate and duration produced no arrivals "
            "(every per-action rate was zero or too low); "
            "raise mean_rps or duration_seconds"
        )
    arrivals.sort(key=lambda pair: pair[0])
    return [offset for offset, _ in arrivals], [action for _, action in arrivals]


def load_azure_trace_csv(
    path: str,
    actions: Sequence[str],
    *,
    duration_seconds: float,
    rng: random.Random,
    mean_rps: Optional[float] = None,
) -> Tuple[List[float], List[str]]:
    """Load a published Azure Functions invocation-count trace into arrivals.

    Understands the format of the released dataset's
    ``invocations_per_function_md.anon.dXX.csv`` files: identity columns
    (``HashOwner``, ``HashApp``, ``HashFunction``, ``Trigger`` — any
    column whose header is not an integer) followed by one column per
    minute of the day (headers ``"1"``..``"1440"``) holding that
    function's invocation count in that minute.

    The loader keeps the top ``len(actions)`` functions by total
    invocations (the deployed actions stand in for them, heaviest first —
    the same heavy-tailed shape the synthetic generator mimics), compresses
    the trace's timeline onto ``duration_seconds`` of virtual time, and
    scatters each minute's invocations uniformly within that minute's
    compressed window using ``rng``.  ``mean_rps`` rescales the totals to
    a target aggregate rate (fractional expectations are resolved by a
    Bernoulli draw, so the expected rate is exact); ``None`` replays the
    selected functions' absolute counts.

    Returns ``(offsets, action_sequence)`` for :class:`OpenLoopClient`'s
    trace mode.  Identical file, arguments, and ``rng`` state reproduce
    identical traces.
    """
    if not actions:
        raise PlatformError("an arrival trace needs at least one action")
    if duration_seconds <= 0:
        raise PlatformError("duration must be positive")
    if mean_rps is not None and mean_rps <= 0:
        raise PlatformError("mean_rps must be positive (or None to replay counts)")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise PlatformError(f"Azure trace {path!r} is empty") from None
        minute_columns = [
            index for index, name in enumerate(header) if name.strip().isdigit()
        ]
        if not minute_columns:
            raise PlatformError(
                f"Azure trace {path!r} has no per-minute count columns "
                "(expected integer column headers like '1'..'1440')"
            )
        id_column = None
        for index, name in enumerate(header):
            if name.strip() == "HashFunction":
                id_column = index
                break
        rows: List[Tuple[str, List[int]]] = []
        for row_index, row in enumerate(reader):
            if not row or all(not cell.strip() for cell in row):
                # Blank lines (and rows of empty cells, a common CSV
                # export artefact) are skipped, not an error.
                continue
            try:
                counts = [int(float(row[index])) for index in minute_columns]
            except (ValueError, IndexError, OverflowError):
                # OverflowError covers int(float("inf")): a count column
                # holding "inf" is malformed data, not a huge workload.
                raise PlatformError(
                    f"Azure trace {path!r} row {row_index + 2}: "
                    "per-minute counts must be finite numbers"
                ) from None
            if any(count < 0 for count in counts):
                raise PlatformError(
                    f"Azure trace {path!r} row {row_index + 2}: "
                    "per-minute counts must be >= 0"
                )
            identity = (
                row[id_column]
                if id_column is not None and id_column < len(row)
                else f"row-{row_index}"
            )
            rows.append((identity, counts))
    if not rows:
        raise PlatformError(f"Azure trace {path!r} has no function rows")
    # Heaviest functions first; ties break on first appearance so the
    # mapping onto actions is stable.
    order = sorted(
        range(len(rows)), key=lambda i: (-sum(rows[i][1]), i)
    )[: len(actions)]
    selected = [rows[i] for i in order]
    grand_total = sum(sum(counts) for _, counts in selected)
    if grand_total == 0:
        raise PlatformError(
            f"Azure trace {path!r}: the selected functions have no invocations"
        )
    scale = (
        mean_rps * duration_seconds / grand_total if mean_rps is not None else 1.0
    )
    minutes = len(minute_columns)
    window = duration_seconds / minutes
    arrivals: List[Tuple[float, str]] = []
    for action, (_identity, counts) in zip(actions, selected):
        for minute, count in enumerate(counts):
            if count == 0:
                continue
            expected = count * scale
            emit = int(expected)
            if rng.random() < expected - emit:
                emit += 1
            start = minute * window
            for _ in range(emit):
                arrivals.append((start + rng.random() * window, action))
    if not arrivals:
        raise PlatformError(
            f"Azure trace {path!r}: rescaling produced no arrivals; "
            "raise mean_rps or duration_seconds"
        )
    arrivals.sort(key=lambda pair: pair[0])
    return [offset for offset, _ in arrivals], [action for _, action in arrivals]


class ClosedLoopClient:
    """One client issuing requests back to back, optionally with think time."""

    def __init__(
        self,
        platform: FaaSCluster,
        action: str,
        *,
        num_requests: int,
        think_time_seconds: float = 0.050,
    ) -> None:
        if num_requests < 1:
            raise PlatformError("a closed-loop run needs at least one request")
        self.platform = platform
        self.action = action
        self.num_requests = num_requests
        self.think_time_seconds = think_time_seconds
        self.completed: List[Invocation] = []

    def run(self) -> List[Invocation]:
        """Issue all requests sequentially and return them in order."""
        issued = 0

        def issue_next() -> None:
            nonlocal issued
            if issued >= self.num_requests:
                return
            index = issued
            issued += 1
            self.platform.invoke_async(
                self.action, caller=_default_caller(index), on_complete=on_complete
            )

        def on_complete(invocation: Invocation) -> None:
            self.completed.append(invocation)
            if issued < self.num_requests:
                self.platform.loop.schedule(self.think_time_seconds, issue_next,
                                            label="closed-loop next request")

        issue_next()
        self.platform.run()
        if len(self.completed) != self.num_requests:
            raise PlatformError(
                f"closed-loop run finished {len(self.completed)} of "
                f"{self.num_requests} requests"
            )
        return list(self.completed)


class MultiActionSaturatingClient:
    """Saturates several actions at once (the cluster throughput workload).

    Keeps ``in_flight_per_action`` requests outstanding against every action
    in ``actions`` for ``duration_seconds`` of virtual time and reports the
    *aggregate* sustained throughput.  With many actions, a cluster
    scheduler has real routing decisions to make — hash affinity keeps each
    action on its home invoker while round-robin scatters it — so this is
    the workload the scaling experiments drive.
    """

    #: Virtual seconds a shed or throttled request waits before its retry.
    RETRY_BACKOFF_SECONDS = 0.001

    def __init__(
        self,
        platform: FaaSCluster,
        actions: Sequence[str],
        *,
        in_flight_per_action: int,
        duration_seconds: float,
        warmup_seconds: float = 0.0,
    ) -> None:
        if not actions:
            raise PlatformError("multi-action client needs at least one action")
        if in_flight_per_action < 1:
            raise PlatformError("saturating client needs at least one in-flight request")
        if duration_seconds <= 0:
            raise PlatformError("duration must be positive")
        self.platform = platform
        self.actions = list(actions)
        self.in_flight_per_action = in_flight_per_action
        self.duration_seconds = duration_seconds
        self.warmup_seconds = warmup_seconds
        self.completed: List[Invocation] = []
        self.rejected: List[Invocation] = []
        self.throttled: List[Invocation] = []
        self._issued = 0
        self._start_time = 0.0

    def run(self) -> float:
        """Run the experiment; returns aggregate sustained throughput (req/s)."""
        self._start_time = self.platform.now
        deadline = self._start_time + self.duration_seconds

        def issue_one(action: str) -> None:
            index = self._issued
            self._issued += 1
            self.platform.invoke_async(
                action, caller=_default_caller(index), on_complete=on_complete
            )

        def on_complete(invocation: Invocation) -> None:
            if invocation.status in (
                InvocationStatus.REJECTED,
                InvocationStatus.THROTTLED,
            ):
                (
                    self.rejected
                    if invocation.status is InvocationStatus.REJECTED
                    else self.throttled
                ).append(invocation)
                if self.platform.now < deadline:
                    # Back off before retrying a shed (or quota-refused)
                    # request: with a zero-overhead platform a
                    # same-timestamp re-issue would be refused again without
                    # advancing virtual time, looping the event loop forever
                    # at one instant.
                    self.platform.loop.schedule(
                        self.RETRY_BACKOFF_SECONDS,
                        lambda: issue_one(invocation.action),
                        label="shed-retry",
                    )
            else:
                self.completed.append(invocation)
                if self.platform.now < deadline:
                    issue_one(invocation.action)

        for action in self.actions:
            for _ in range(self.in_flight_per_action):
                issue_one(action)
        self.platform.run(until=deadline)
        return len(self._in_window()) / self._window_seconds()

    def _window_seconds(self) -> float:
        window = self.duration_seconds - self.warmup_seconds
        if window <= 0:
            raise PlatformError("warmup consumed the whole measurement window")
        return window

    def _in_window(self) -> List[Invocation]:
        """Completions inside the post-warmup measurement window."""
        window_start = self._start_time + self.warmup_seconds
        deadline = self._start_time + self.duration_seconds
        return [
            inv for inv in self.completed
            if inv.status is InvocationStatus.COMPLETED
            and window_start <= inv.completed_at <= deadline
        ]


class SaturatingClient(MultiActionSaturatingClient):
    """Keeps a fixed number of requests in flight against one action.

    The single-action special case of :class:`MultiActionSaturatingClient`
    — the paper's §5.3 throughput setup, where one saturating client drives
    one deployed benchmark.
    """

    def __init__(
        self,
        platform: FaaSCluster,
        action: str,
        *,
        in_flight: int,
        duration_seconds: float,
        warmup_seconds: float = 0.0,
    ) -> None:
        super().__init__(
            platform,
            [action],
            in_flight_per_action=in_flight,
            duration_seconds=duration_seconds,
            warmup_seconds=warmup_seconds,
        )
        self.action = action
        self.in_flight = in_flight


@dataclass(frozen=True)
class OpenLoopResult:
    """What one open-loop run measured.

    ``achieved_rps`` counts completions inside the post-warmup measurement
    window; under overload it plateaus at the platform's capacity while
    ``offered_rps`` keeps growing — the gap between the two curves *is* the
    latency-under-load story.
    """

    #: Mean arrival rate the client drove (requests/second).
    offered_rps: float
    #: Virtual-time length of the whole run and of the measurement window.
    duration_seconds: float
    window_seconds: float
    #: Arrivals issued over the run.
    issued: int
    #: Completions / rejections over the run (any time, not just in-window).
    completed: int
    rejected: int
    #: Arrivals refused by per-tenant quota enforcement over the run.
    throttled: int
    #: Completions inside the measurement window, per second of window.
    achieved_rps: float
    #: End-to-end latency over in-window completions (``None`` if none).
    e2e: Optional[LatencyStats]
    #: Mean time in-window completions spent waiting for a container.
    queue_seconds_mean: float

    @property
    def goodput_fraction(self) -> float:
        """Achieved / offered throughput (1.0 = the platform kept up)."""
        if self.offered_rps <= 0:
            return 0.0
        return self.achieved_rps / self.offered_rps


class OpenLoopClient:
    """Issues arrivals at externally determined instants (open loop).

    Arrivals come either from a Poisson process of mean rate ``rate_rps``
    (exponential inter-arrival gaps drawn from the platform's
    ``"open-loop"`` RNG stream) or from an explicit
    ``trace`` of arrival offsets, and are issued *regardless of what the
    platform does with them* — completions do not gate the next arrival,
    and shed (rejected) or quota-refused (throttled) invocations are lost,
    not retried.  With several actions, each arrival is assigned to an
    action uniformly at random (thinning: the per-action processes are
    then Poisson too), unless a trace supplies an explicit
    ``action_sequence`` (e.g. the heavy-tailed per-action mix of
    :func:`azure_functions_arrivals`).  Multi-tenant streams are a matter
    of ``caller_for`` — pass a :class:`TenantMix` to tag arrivals with
    skewed tenant identities.

    The run lasts ``duration_seconds`` of virtual time; completions are
    measured inside the post-``warmup_seconds`` window.  After the last
    arrival the simulation drains so in-flight requests finish, but
    completions past the deadline do not count toward ``achieved_rps``.
    Poisson or trace-driven, one arrival event is pending at a time:
    each arrival schedules the next, so the event heap holds O(in-flight)
    events, not the whole trace.

    ``keep_samples=False`` keeps million-arrival traces affordable: the
    client stops retaining finished
    :class:`~repro.faas.request.Invocation` objects (``completed``/
    ``rejected``/``throttled`` stay empty) — outcomes are counted and
    in-window latencies folded into a bounded
    :class:`~repro.faas.sketch.LatencySketch`, so the returned
    :class:`OpenLoopResult` is unchanged except that its ``e2e``
    percentiles carry the sketch's documented relative error
    (count/mean/std/min/max stay exact).
    """

    def __init__(
        self,
        platform: FaaSCluster,
        actions: Union[str, Sequence[str]],
        *,
        rate_rps: Optional[float] = None,
        trace: Optional[Sequence[float]] = None,
        action_sequence: Optional[Sequence[str]] = None,
        duration_seconds: Optional[float] = None,
        warmup_seconds: float = 0.0,
        caller_for: Optional[Callable[[int], str]] = None,
        keep_samples: bool = True,
    ) -> None:
        self.actions = [actions] if isinstance(actions, str) else list(actions)
        if not self.actions:
            raise PlatformError("open-loop client needs at least one action")
        if (rate_rps is None) == (trace is None):
            raise PlatformError(
                "open-loop client needs exactly one of rate_rps or trace"
            )
        if rate_rps is not None:
            if rate_rps <= 0:
                raise PlatformError("rate_rps must be positive")
            if duration_seconds is None:
                raise PlatformError("a Poisson run needs duration_seconds")
        if trace is not None:
            if not trace:
                raise PlatformError("an arrival trace must not be empty")
            if any(b < a for a, b in zip(trace, trace[1:])) or trace[0] < 0:
                raise PlatformError("trace offsets must be non-negative and sorted")
            if duration_seconds is None:
                duration_seconds = float(trace[-1])
        if action_sequence is not None:
            if trace is None:
                raise PlatformError("action_sequence requires an arrival trace")
            if len(action_sequence) != len(trace):
                raise PlatformError(
                    "action_sequence must assign one action per trace arrival"
                )
            unknown = set(action_sequence) - set(self.actions)
            if unknown:
                raise PlatformError(
                    f"action_sequence names undeployed actions: {sorted(unknown)}"
                )
        if duration_seconds is None or duration_seconds <= 0:
            raise PlatformError("duration must be positive")
        if not 0 <= warmup_seconds < duration_seconds:
            raise PlatformError("warmup must fall inside the run")
        self.platform = platform
        self.rate_rps = rate_rps
        self.trace = list(trace) if trace is not None else None
        self.action_sequence = (
            list(action_sequence) if action_sequence is not None else None
        )
        self.duration_seconds = float(duration_seconds)
        self.warmup_seconds = warmup_seconds
        self.caller_for = caller_for if caller_for is not None else _default_caller
        # The platform's named RNG stream, so open-loop arrivals never
        # perturb any other subsystem's sequence.  Gaps are drawn through
        # the streams; ``rng`` is the same stream, for the action choice.
        self._streams = platform.rng_streams
        self.rng = self._streams.stream("open-loop")
        self.keep_samples = keep_samples
        self.completed: List[Invocation] = []
        self.rejected: List[Invocation] = []
        self.throttled: List[Invocation] = []
        self._issued = 0
        # Lean-mode accumulators (used when keep_samples is False).
        self._n_completed = 0
        self._n_rejected = 0
        self._n_throttled = 0
        self._window_completions = 0
        self._window_e2e = LatencySketch()
        self._window_queue_seconds = 0.0

    def _arrival_gap(self) -> float:
        """One exponential inter-arrival gap of the Poisson process."""
        return self._streams.expovariate("open-loop", self.rate_rps)

    def run(self) -> OpenLoopResult:
        """Drive the arrivals, drain the platform, return the measurements."""
        start = self.platform.now
        deadline = start + self.duration_seconds
        window_start = start + self.warmup_seconds

        def on_complete(invocation: Invocation) -> None:
            if invocation.status is InvocationStatus.REJECTED:
                self.rejected.append(invocation)
            elif invocation.status is InvocationStatus.THROTTLED:
                self.throttled.append(invocation)
            else:
                self.completed.append(invocation)

        def on_complete_lean(invocation: Invocation) -> None:
            status = invocation.status
            if status is InvocationStatus.REJECTED:
                self._n_rejected += 1
            elif status is InvocationStatus.THROTTLED:
                self._n_throttled += 1
            else:
                self._n_completed += 1
                if (
                    status is InvocationStatus.COMPLETED
                    and window_start <= invocation.completed_at <= deadline
                ):
                    self._window_completions += 1
                    self._window_e2e.add(invocation.e2e_seconds)
                    self._window_queue_seconds += invocation.queue_seconds

        handler = on_complete if self.keep_samples else on_complete_lean

        def issue_one(action: Optional[str] = None) -> None:
            index = self._issued
            self._issued += 1
            if action is None:
                if len(self.actions) == 1:
                    action = self.actions[0]
                else:
                    action = self.actions[self.rng.randrange(len(self.actions))]
            self.platform.invoke_async(
                action,
                caller=self.caller_for(index),
                on_complete=handler,
            )

        if self.trace is not None:
            cutoff = bisect.bisect_right(self.trace, self.duration_seconds)

            def issue_from(position: int) -> None:
                action = (
                    self.action_sequence[position]
                    if self.action_sequence is not None
                    else None
                )
                issue_one(action)
                nxt = position + 1
                if nxt < cutoff:
                    self.platform.loop.schedule_at(
                        start + self.trace[nxt],
                        lambda: issue_from(nxt),
                        label="open-loop arrival",
                    )

            if cutoff > 0:
                self.platform.loop.schedule_at(
                    start + self.trace[0],
                    lambda: issue_from(0),
                    label="open-loop arrival",
                )
        else:

            def arrive() -> None:
                issue_one()
                schedule_next()

            def schedule_next() -> None:
                gap = self._arrival_gap()
                if self.platform.now + gap <= deadline:
                    self.platform.loop.schedule(gap, arrive, label="open-loop arrival")

            schedule_next()

        self.platform.run()

        window = self.duration_seconds - self.warmup_seconds
        offered = (
            self.rate_rps
            if self.rate_rps is not None
            else self._issued / self.duration_seconds
        )
        if not self.keep_samples:
            in_window_count = self._window_completions
            return OpenLoopResult(
                offered_rps=offered,
                duration_seconds=self.duration_seconds,
                window_seconds=window,
                issued=self._issued,
                completed=self._n_completed,
                rejected=self._n_rejected,
                throttled=self._n_throttled,
                achieved_rps=in_window_count / window,
                e2e=self._window_e2e.stats() if in_window_count else None,
                queue_seconds_mean=(
                    self._window_queue_seconds / in_window_count
                    if in_window_count
                    else 0.0
                ),
            )
        in_window = [
            inv
            for inv in self.completed
            if inv.status is InvocationStatus.COMPLETED
            and window_start <= inv.completed_at <= deadline
        ]
        latencies = [inv.e2e_seconds for inv in in_window]
        queue_times = [inv.queue_seconds for inv in in_window]
        return OpenLoopResult(
            offered_rps=offered,
            duration_seconds=self.duration_seconds,
            window_seconds=window,
            issued=self._issued,
            completed=len(self.completed),
            rejected=len(self.rejected),
            throttled=len(self.throttled),
            achieved_rps=len(in_window) / window,
            e2e=LatencyStats.from_samples(latencies) if latencies else None,
            queue_seconds_mean=(
                sum(queue_times) / len(queue_times) if queue_times else 0.0
            ),
        )
