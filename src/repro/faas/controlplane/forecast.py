"""Forecast-driven pre-warming: predictive capacity planning.

PR 4's :class:`~repro.faas.controlplane.planner.CapacityPlanner` reacts to
*observed* backlog: a container is seeded on a peer only once queued work
has already piled up somewhere.  Under a diurnal arrival cycle that is
exactly one boot time too late — every rising edge pays a cold-start storm
before the reactive seeds land.  This module closes that gap the way
production keep-alive policies do (Azure Functions' histogram-based
policies provision *ahead* of the predicted next invocation):

* :class:`DemandForecaster` maintains a per-action arrival-rate estimate
  from the arrival counters the invokers export each control tick.  The
  model is deliberately small and fully deterministic: a Holt
  (level + trend) double-exponential smoother over the deseasonalised
  rate — so ramps are *extrapolated*, not just tracked — optionally
  multiplied by a seasonal component fitted online from bucketed history
  when the operator declares the cycle period (the diurnal signature of
  the Azure traces).
* :class:`PredictivePlanner` extends the reactive planner: each tick it
  feeds the forecaster, then pre-warms each action toward
  ``forecast(now + lead_time)`` — where ``lead_time`` is the action's
  calibrated boot time — so the seeded containers finish booting right
  when the predicted wave lands.  Everything else (placement, funding
  drains, the global container budget, per-tick caps) is inherited from
  the reactive planner, and so are its safety properties.  When an
  action's history is too short to forecast, the planner degrades
  gracefully: it simply plans like the reactive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlatformError
from repro.faas.controlplane.planner import CapacityPlanner, MigrationDecision
from repro.faas.invoker import Invoker, InvokerSnapshot

#: Floor used wherever a fitted quantity divides another, so a quiet
#: action can never produce a 0/0 or an infinite seasonal factor.
_EPSILON = 1e-9

#: Seasonal factors are clamped to this band: a bucket observed only
#: during an extreme burst must not multiply every later forecast by an
#: unbounded amount (and a dead bucket must not zero the forecast out).
_SEASONAL_FLOOR = 0.05
_SEASONAL_CEIL = 20.0

#: Forecast rates are clamped to this ceiling so the planner's
#: ``desired = rate * service_seconds`` arithmetic stays finite even if a
#: pathological trend extrapolation runs away.
_RATE_CEIL = 1e12


@dataclass
class _ActionForecast:
    """The fitted state of one action's arrival process."""

    level: float
    trend: float = 0.0
    #: Multiplicative seasonal factor per phase bucket (empty when the
    #: forecaster runs without a declared season period).
    seasonal: List[float] = field(default_factory=list)
    first_at: float = 0.0
    last_at: float = 0.0
    observations: int = 0


class DemandForecaster:
    """Online per-action arrival-rate forecasts (Holt + seasonal buckets).

    Observations arrive as *(count, interval)* pairs — how many requests
    for the action were submitted cluster-wide over the last control tick
    — and are folded into three online components:

    * **level** — an EWMA of the deseasonalised arrival rate (``alpha``),
    * **trend** — a Holt-style smoothed slope (``beta``), so a ramp is
      extrapolated into the future instead of chased from behind,
    * **seasonal** — when ``season_period_seconds`` is declared, the
      timeline is folded into ``season_buckets`` phase buckets and each
      bucket keeps a multiplicative factor (rate over level, smoothed by
      :attr:`gamma`) fitted online from the bucketed history.

    Everything is plain float arithmetic over the observation stream: no
    randomness, no wall clock — two identical observation histories
    produce bit-identical forecasts.
    """

    #: Smoothing of the seasonal factors.
    gamma = 0.4

    def __init__(
        self,
        *,
        alpha: float = 0.1,
        beta: float = 0.05,
        trend_damping: float = 0.8,
        season_period_seconds: Optional[float] = None,
        season_buckets: int = 16,
        min_history_seconds: float = 2.0,
        min_observations: int = 4,
    ) -> None:
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not 0.0 < value <= 1.0:
                raise PlatformError(f"forecaster {name} must be in (0, 1]")
        if not 0.0 < trend_damping <= 1.0:
            raise PlatformError("forecaster trend_damping must be in (0, 1]")
        if season_period_seconds is not None and season_period_seconds <= 0:
            raise PlatformError("season_period_seconds must be positive (or None)")
        if season_buckets < 2:
            raise PlatformError("season_buckets must be >= 2")
        if min_history_seconds < 0:
            raise PlatformError("min_history_seconds must be >= 0")
        if min_observations < 1:
            raise PlatformError("min_observations must be >= 1")
        self.alpha = alpha
        self.beta = beta
        self.trend_damping = trend_damping
        self.season_period_seconds = season_period_seconds
        self.season_buckets = season_buckets
        self.min_history_seconds = min_history_seconds
        self.min_observations = min_observations
        self._actions: Dict[str, _ActionForecast] = {}

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _bucket(self, at: float) -> int:
        period = self.season_period_seconds
        phase = (at % period) / period
        return min(self.season_buckets - 1, int(phase * self.season_buckets))

    def observe(self, action: str, count: float, now: float, interval_seconds: float) -> None:
        """Fold one tick's arrival count for ``action`` into the model."""
        if interval_seconds <= 0 or not math.isfinite(interval_seconds):
            raise PlatformError("observation interval must be positive and finite")
        if count < 0 or not math.isfinite(count):
            raise PlatformError("arrival count must be >= 0 and finite")
        rate = count / interval_seconds
        state = self._actions.get(action)
        if state is None:
            state = _ActionForecast(
                level=rate,
                seasonal=(
                    [1.0] * self.season_buckets
                    if self.season_period_seconds is not None
                    else []
                ),
                first_at=now,
                last_at=now,
                observations=1,
            )
            self._actions[action] = state
            return
        if self.season_period_seconds is not None:
            bucket = self._bucket(now)
            factor = state.seasonal[bucket]
            deseason = rate / max(factor, _EPSILON)
        else:
            deseason = rate
        previous_level = state.level
        state.level = self.alpha * deseason + (1.0 - self.alpha) * (
            state.level + self.trend_damping * state.trend * interval_seconds
        )
        state.level = min(max(state.level, 0.0), _RATE_CEIL)
        slope = (state.level - previous_level) / interval_seconds
        state.trend = self.beta * slope + (1.0 - self.beta) * state.trend
        if self.season_period_seconds is not None:
            observed_factor = rate / max(state.level, _EPSILON)
            updated = self.gamma * observed_factor + (1.0 - self.gamma) * factor
            state.seasonal[bucket] = min(max(updated, _SEASONAL_FLOOR), _SEASONAL_CEIL)
            # Renormalise the factors to mean 1: without this the level
            # and the seasonal component trade off against each other (a
            # drifting level inflates every factor, which deflates the
            # next level estimate, and the fit diverges — the classic
            # multiplicative Holt-Winters instability).
            mean_factor = sum(state.seasonal) / len(state.seasonal)
            if mean_factor > _EPSILON:
                state.seasonal = [f / mean_factor for f in state.seasonal]
        state.last_at = now
        state.observations += 1

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------

    def forecast(self, action: str, at: float) -> float:
        """Predicted arrival rate (requests/second) for ``action`` at ``at``.

        Unknown actions forecast 0.0.  The returned rate is always finite
        and non-negative, whatever history was observed.
        """
        state = self._actions.get(action)
        if state is None:
            return 0.0
        horizon = max(0.0, at - state.last_at)
        rate = state.level + self.trend_damping * state.trend * horizon
        if self.season_period_seconds is not None:
            rate *= state.seasonal[self._bucket(at)]
        if not math.isfinite(rate):
            return 0.0
        return min(max(rate, 0.0), _RATE_CEIL)

    def ready(self, action: str) -> bool:
        """True once ``action`` has enough history to forecast from.

        Until then a predictive planner must fall back to reacting to the
        measured backlog — extrapolating a trend from two points would
        pre-warm toward noise.
        """
        state = self._actions.get(action)
        if state is None:
            return False
        return (
            state.observations >= self.min_observations
            and state.last_at - state.first_at >= self.min_history_seconds
        )

    def tracked_actions(self) -> List[str]:
        """Actions with any observed history, sorted."""
        return sorted(self._actions)

    def snapshot(self, action: str) -> Dict[str, object]:
        """The fitted components of one action (observability/tests)."""
        state = self._actions.get(action)
        if state is None:
            return {}
        return {
            "level": state.level,
            "trend": state.trend,
            "observations": state.observations,
            "history_seconds": state.last_at - state.first_at,
            "ready": self.ready(action),
            "seasonal": list(state.seasonal),
        }


class PredictivePlanner(CapacityPlanner):
    """A capacity planner that pre-warms toward the *forecast* demand.

    Each tick it aggregates the invokers' per-action arrival counters into
    the :class:`DemandForecaster`, then plans exactly like the reactive
    :class:`~repro.faas.controlplane.planner.CapacityPlanner` — with one
    extra pressure source: every action whose forecast at
    ``now + lead_time`` implies more concurrent containers than the
    cluster currently holds (warm plus boots in flight, by Little's law
    ``rate × service_seconds``) is seeded toward that target *before* any
    queue has formed.  ``lead_time`` defaults to the action's calibrated
    boot time, so a seed started now becomes ready exactly when the
    predicted wave lands.

    Reactive pressures always rank first for the same action (real
    backlog beats anticipated backlog), the per-tick seed cap and the
    global container budget are inherited unchanged, and an action whose
    history is too short simply contributes no predictive pressure — the
    planner degrades to the reactive behaviour it extends.
    """

    def __init__(
        self,
        budget: int,
        *,
        forecaster: Optional[DemandForecaster] = None,
        horizon_margin_seconds: float = 0.0,
        default_boot_seconds: float = 0.5,
        default_service_seconds: float = 0.05,
        target_utilization: float = 0.7,
        **kwargs: object,
    ) -> None:
        super().__init__(budget, **kwargs)
        if horizon_margin_seconds < 0:
            raise PlatformError("horizon_margin_seconds must be >= 0")
        if default_boot_seconds < 0:
            raise PlatformError("default_boot_seconds must be >= 0")
        if default_service_seconds <= 0:
            raise PlatformError("default_service_seconds must be positive")
        if not 0.0 < target_utilization <= 1.0:
            raise PlatformError("target_utilization must be in (0, 1]")
        self.forecaster = forecaster if forecaster is not None else DemandForecaster()
        self.horizon_margin_seconds = horizon_margin_seconds
        self.default_boot_seconds = default_boot_seconds
        self.default_service_seconds = default_service_seconds
        #: Containers are sized so the predicted load would run them at
        #: this utilisation, not at 100%: ``desired = rate × service / ρ``.
        #: Bare Little's-law concurrency leaves no headroom — any jitter
        #: above the mean immediately queues (and, at a rising edge, the
        #: mean itself is already above the forecast by the time the
        #: seeds land).
        self.target_utilization = target_utilization
        self._boot_seconds: Dict[str, float] = {}
        self._service_seconds: Dict[str, float] = {}
        self._last_counts: Dict[str, int] = {}
        self._last_at: Optional[float] = None
        self._now: float = 0.0
        #: Actions whose pressure this tick came from the forecast alone.
        self._tick_predictive_actions: Set[str] = set()
        #: Prewarm decisions attributable to forecast pressure (no
        #: reactive backlog asked for them).
        self.predictive_seeds = 0
        #: Ticks in which arrivals were observed but *no* action had
        #: enough history to forecast — the planner ran purely reactive.
        self.fallback_ticks = 0

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def calibrate(
        self, action: str, *, boot_seconds: float, service_seconds: float
    ) -> None:
        """Register the action's measured boot time and service estimate.

        The boot time becomes the forecast lead (seed a boot-time ahead so
        the container is ready when the wave lands); the service time is
        the Little's-law factor converting a predicted arrival rate into a
        concurrent-container target.
        """
        if boot_seconds < 0:
            raise PlatformError("boot_seconds must be >= 0")
        if service_seconds <= 0:
            raise PlatformError("service_seconds must be positive")
        self._boot_seconds[action] = boot_seconds
        self._service_seconds[action] = service_seconds

    def lead_seconds(self, action: str) -> float:
        """How far ahead the planner forecasts for ``action``."""
        return (
            self._boot_seconds.get(action, self.default_boot_seconds)
            + self.horizon_margin_seconds
        )

    def service_seconds(self, action: str) -> float:
        """Estimated per-request container occupancy of ``action``."""
        return self._service_seconds.get(action, self.default_service_seconds)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, invokers: Sequence[Invoker], now: float) -> List[MigrationDecision]:
        self._now = now
        self._tick_predictive_actions = set()
        made = super().plan(invokers, now)
        self.predictive_seeds += sum(
            1
            for decision in made
            if decision.kind == "prewarm"
            and decision.action in self._tick_predictive_actions
        )
        return made

    def _ingest(self, snapshots: Sequence[InvokerSnapshot], now: float) -> None:
        """Feed the tick-over-tick arrival deltas into the forecaster."""
        totals: Dict[str, int] = {}
        for snap in snapshots:
            for action, count in snap.arrivals_total.items():
                totals[action] = totals.get(action, 0) + count
        if self._last_at is not None:
            interval = now - self._last_at
            if interval > 0:
                for action in sorted(set(totals) | set(self._last_counts)):
                    delta = totals.get(action, 0) - self._last_counts.get(action, 0)
                    self.forecaster.observe(action, max(0, delta), now, interval)
        self._last_counts = totals
        self._last_at = now

    def _pressures(
        self, snapshots: Sequence[InvokerSnapshot]
    ) -> List[Tuple[int, int, str]]:
        # The base plan() hands this hook the snapshots it just took, so
        # ingesting here (rather than re-snapshotting in plan()) observes
        # the very state this tick plans against, once per tick.
        self._ingest(snapshots, self._now)
        reactive = super()._pressures(snapshots)
        reactive_actions = {action for _, _, action in reactive}
        predicted = self._predicted_pressures(snapshots, skip=reactive_actions)
        if not predicted:
            return reactive
        merged = reactive + predicted
        merged.sort(key=lambda item: (-item[0], item[1], item[2]))
        return merged

    def _predicted_pressures(
        self, snapshots: Sequence[InvokerSnapshot], *, skip: Set[str]
    ) -> List[Tuple[int, int, str]]:
        """Forecast-implied seeding pressure per action, reactive-shaped.

        Entries reuse the reactive tuple form ``(magnitude, src, action)``
        where ``src`` is the invoker holding the most of the action's warm
        capacity (its effective home — the invoker the wave will
        concentrate on, and the one a seed on a peer relieves).  An action
        already under reactive pressure is skipped: the measured backlog
        is the stronger, non-speculative version of the same signal.
        """
        actions = sorted(
            {action for snap in snapshots for action in snap.arrivals_total}
        )
        entries: List[Tuple[int, int, str]] = []
        saw_unready = False
        saw_ready = False
        for action in actions:
            if not self.forecaster.ready(action):
                saw_unready = True
                continue
            saw_ready = True
            if action in skip:
                continue
            rate = self.forecaster.forecast(
                action, self._now + self.lead_seconds(action)
            )
            desired = math.ceil(
                rate * self.service_seconds(action) / self.target_utilization
                - 1e-9
            )
            supply = sum(
                snap.warm_total.get(action, 0) + snap.boots_in_flight.get(action, 0)
                for snap in snapshots
            )
            deficit = desired - supply
            if deficit <= 0:
                continue
            src = min(
                range(len(snapshots)),
                key=lambda index: (-snapshots[index].warm_total.get(action, 0), index),
            )
            self._tick_predictive_actions.add(action)
            for _ in range(min(deficit, self.max_migrations_per_tick)):
                entries.append((deficit, src, action))
        if actions and saw_unready and not saw_ready:
            self.fallback_ticks += 1
        return entries

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def forecast_stats(self) -> Dict[str, object]:
        """Forecast counters for ``control_plane_stats()`` tables."""
        tracked = self.forecaster.tracked_actions()
        return {
            "predictive_seeds": self.predictive_seeds,
            "forecast_fallback_ticks": self.fallback_ticks,
            "forecast_tracked_actions": len(tracked),
            "forecast_ready_actions": sum(
                1 for action in tracked if self.forecaster.ready(action)
            ),
        }
