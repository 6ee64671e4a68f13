"""Tests for forecast-driven pre-warming: the demand forecaster, the
predictive planner, and their wiring into the control plane/cluster."""

from __future__ import annotations

import math

import pytest

from repro.config import SimulationConfig
from repro.errors import PlatformError
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.controlplane import (
    CapacityPlanner,
    DemandForecaster,
    PredictivePlanner,
)
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation
from repro.sim.events import EventLoop


def _action(profile, name: str) -> ActionSpec:
    return ActionSpec.for_profile(profile, "base", name=name)


class TestDemandForecaster:
    def test_validation(self):
        with pytest.raises(PlatformError):
            DemandForecaster(season_period_seconds=0.0)
        with pytest.raises(PlatformError):
            DemandForecaster(min_history_seconds=-1.0)

    def test_observation_validation(self):
        forecaster = DemandForecaster()
        with pytest.raises(PlatformError):
            forecaster.observe("a", -1.0, 1.0, 0.25)
        with pytest.raises(PlatformError):
            forecaster.observe("a", float("inf"), 1.0, 0.25)
        with pytest.raises(PlatformError):
            forecaster.observe("a", 1.0, 1.0, 0.0)

    def test_unknown_action_forecasts_zero(self):
        assert DemandForecaster().forecast("never-seen", 10.0) == 0.0

    def test_converges_on_a_constant_rate(self):
        forecaster = DemandForecaster()
        interval = 0.25
        for tick in range(1, 200):
            forecaster.observe("flat", 5.0 * interval, tick * interval, interval)
        now = 199 * interval
        assert forecaster.forecast("flat", now + 1.0) == pytest.approx(5.0, rel=0.05)

    def test_converges_on_a_step_load(self):
        """After a step the level re-converges and the trend dies out."""
        forecaster = DemandForecaster()
        interval = 0.25
        t = 0.0
        while t < 25.0:
            t += interval
            rate = 5.0 if t < 10.0 else 20.0
            forecaster.observe("step", rate * interval, t, interval)
        assert forecaster.forecast("step", t + 1.0) == pytest.approx(20.0, rel=0.1)
        assert abs(forecaster.snapshot("step")["trend"]) < 1.0

    def test_extrapolates_a_ramp_beyond_the_current_rate(self):
        """The Holt trend predicts *above* today's rate on a steady ramp."""
        forecaster = DemandForecaster()
        interval = 0.25
        t = 0.0
        while t < 10.0:
            t += interval
            forecaster.observe("ramp", (2.0 + 2.0 * t) * interval, t, interval)
        current = 2.0 + 2.0 * t
        prediction = forecaster.forecast("ramp", t + 1.0)
        assert prediction > 0.9 * current  # not lagging far behind
        level = forecaster.snapshot("ramp")["level"]
        assert prediction > level  # the trend term extrapolates forward

    def test_seasonal_forecast_beats_persistence_on_a_sinusoid(self):
        """With a declared period, forecasting t+1s across several cycles
        is more accurate than assuming the current rate persists."""
        period = 8.0
        interval = 0.25
        forecaster = DemandForecaster(season_period_seconds=period)

        def rate(at: float) -> float:
            return 10.0 * (1.0 + 0.6 * math.sin(2.0 * math.pi * at / period))

        t = 0.0
        forecast_error = persistence_error = 0.0
        samples = 0
        while t < 4 * period:
            t += interval
            forecaster.observe("wave", rate(t) * interval, t, interval)
            if t > 2 * period:
                target = t + 1.0
                forecast_error += abs(forecaster.forecast("wave", target) - rate(target))
                persistence_error += abs(rate(t) - rate(target))
                samples += 1
        assert samples > 0
        assert forecast_error < 0.6 * persistence_error
        # The level converged to the deseasonalised mean.
        assert forecaster.snapshot("wave")["level"] == pytest.approx(10.0, rel=0.1)

    def test_ready_requires_history(self):
        forecaster = DemandForecaster(min_history_seconds=2.0, min_observations=4)
        assert not forecaster.ready("a")
        forecaster.observe("a", 1.0, 0.0, 0.25)
        forecaster.observe("a", 1.0, 0.25, 0.25)
        assert not forecaster.ready("a")  # too few observations, too short
        for tick in range(2, 12):
            forecaster.observe("a", 1.0, tick * 0.25, 0.25)
        assert forecaster.ready("a")

    def test_forecasts_are_finite_and_non_negative_after_decay(self):
        """A crash to zero arrivals must never drive a forecast negative."""
        forecaster = DemandForecaster()
        interval = 0.25
        t = 0.0
        while t < 5.0:
            t += interval
            forecaster.observe("crash", 50.0 * interval, t, interval)
        while t < 10.0:
            t += interval
            forecaster.observe("crash", 0.0, t, interval)
        for horizon in (0.0, 0.5, 5.0, 500.0):
            value = forecaster.forecast("crash", t + horizon)
            assert math.isfinite(value)
            assert value >= 0.0

    def test_determinism(self):
        def build() -> DemandForecaster:
            forecaster = DemandForecaster(season_period_seconds=4.0)
            for tick in range(1, 60):
                forecaster.observe(
                    "d", (tick % 7) * 0.25, tick * 0.25, 0.25
                )
            return forecaster

        first, second = build(), build()
        for at in (15.0, 15.5, 20.0):
            assert first.forecast("d", at) == second.forecast("d", at)
        assert first.snapshot("d") == second.snapshot("d")


class TestPredictivePlanner:
    def _cluster(self, profile, *, invokers=3, cores=2):
        loop = EventLoop()
        built = []
        spec = _action(profile, "hot")
        for index in range(invokers):
            invoker = Invoker(
                loop,
                SimulationConfig(cores=cores),
                invoker_id=f"invoker-{index}",
            )
            if index == 0:
                invoker.deploy(spec, containers=1, max_containers=cores)
            else:
                invoker.register(spec, max_containers=cores)
            built.append(invoker)
        return loop, built

    def _feed(self, planner, invokers, loop, *, rps=40.0, seconds=4.0,
              interval=0.25):
        """Drive a smooth arrival stream so the forecaster gains history.

        Arrivals are evenly spaced (no backlog bursts), so any seeding the
        planner does comes from the forecast, not from reactive pressure.
        """
        home = invokers[0]
        start = loop.now
        end = start + seconds
        gap = 1.0 / rps
        next_arrival = start + gap
        next_plan = start + interval
        while next_plan <= end:
            while next_arrival <= next_plan:
                loop.run(until=next_arrival)
                home.submit(
                    Invocation(action="hot", caller="t", submitted_at=loop.now),
                    lambda inv: None,
                )
                next_arrival += gap
            loop.run(until=next_plan)
            planner.plan(invokers, loop.now)
            next_plan += interval
        loop.run(until=end + 5.0)

    def test_validation(self):
        with pytest.raises(PlatformError):
            PredictivePlanner(4, horizon_margin_seconds=-1.0)
        with pytest.raises(PlatformError):
            PredictivePlanner(4, default_service_seconds=0.0)
        planner = PredictivePlanner(4)
        with pytest.raises(PlatformError):
            planner.calibrate("a", boot_seconds=-1.0, service_seconds=0.1)
        with pytest.raises(PlatformError):
            planner.calibrate("a", boot_seconds=0.5, service_seconds=0.0)

    def test_lead_defaults_and_calibration(self):
        planner = PredictivePlanner(
            4, default_boot_seconds=0.4, horizon_margin_seconds=0.1
        )
        assert planner.lead_seconds("uncalibrated") == pytest.approx(0.5)
        planner.calibrate("hot", boot_seconds=0.8, service_seconds=0.02)
        assert planner.lead_seconds("hot") == pytest.approx(0.9)
        assert planner.service_seconds("hot") == pytest.approx(0.02)

    def test_seeds_ahead_of_demand_without_backlog(self, small_python_profile):
        """A sustained arrival rate seeds peers even with empty queues."""
        loop, invokers = self._cluster(small_python_profile)
        planner = PredictivePlanner(
            budget=8,
            forecaster=DemandForecaster(min_history_seconds=1.0),
        )
        planner.calibrate("hot", boot_seconds=0.3, service_seconds=0.05)
        self._feed(planner, invokers, loop)
        # Demand ~40 rps x 50 ms service / 0.7 target utilisation wants ~3
        # containers; the cluster started with one.  The planner seeded the
        # difference proactively — queues never reached queue_high.
        assert planner.predictive_seeds > 0
        assert sum(inv.prewarms for inv in invokers) > 0
        assert planner.forecast_stats()["forecast_ready_actions"] == 1

    def test_falls_back_to_reactive_with_short_history(self, small_python_profile):
        """With insufficient history the plans equal the reactive planner's."""

        def drive(planner):
            loop, invokers = self._cluster(small_python_profile)
            decisions = []
            home = invokers[0]
            for step in range(8):
                for _ in range(3):
                    home.submit(
                        Invocation(action="hot", caller="t", submitted_at=loop.now),
                        lambda inv: None,
                    )
                loop.run(max_events=20)
                decisions.extend(planner.plan(invokers, loop.now))
            return decisions

        never_ready = DemandForecaster(min_history_seconds=1e9)
        predictive = drive(PredictivePlanner(budget=6, forecaster=never_ready))
        reactive = drive(CapacityPlanner(budget=6))
        assert predictive == reactive

    def test_never_exceeds_budget_while_seeding(self, small_python_profile):
        loop, invokers = self._cluster(small_python_profile)
        budget = 3
        planner = PredictivePlanner(
            budget=budget,
            forecaster=DemandForecaster(min_history_seconds=0.5),
        )
        planner.calibrate("hot", boot_seconds=0.3, service_seconds=0.05)
        self._feed(planner, invokers, loop, rps=80.0)
        snapshots = [invoker.snapshot() for invoker in invokers]
        assert CapacityPlanner.total_containers(snapshots) <= budget

    def test_plan_determinism(self, small_python_profile):
        def history():
            loop, invokers = self._cluster(small_python_profile)
            planner = PredictivePlanner(
                budget=8, forecaster=DemandForecaster(min_history_seconds=1.0)
            )
            planner.calibrate("hot", boot_seconds=0.3, service_seconds=0.05)
            self._feed(planner, invokers, loop)
            return planner

        first, second = history(), history()
        assert first.decisions == second.decisions
        assert first.predictive_seeds == second.predictive_seeds

    def test_forecast_stats_shape(self):
        stats = PredictivePlanner(4).forecast_stats()
        assert set(stats) == {
            "predictive_seeds",
            "forecast_fallback_ticks",
            "forecast_tracked_actions",
            "forecast_ready_actions",
        }


class TestArrivalSurfaces:
    def test_snapshot_exports_arrival_totals(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=1))
        invoker.register(_action(small_python_profile, "seen"), max_containers=1)
        assert invoker.snapshot().arrivals_total == {}
        for _ in range(3):
            invoker.submit(
                Invocation(action="seen", submitted_at=loop.now), lambda inv: None
            )
        assert invoker.snapshot().arrivals_total == {"seen": 3}

    def test_cluster_aggregates_arrivals(self, small_python_profile):
        cluster = FaaSCluster(SimulationConfig(cores=1, invokers=2, seed=5))
        cluster.deploy(_action(small_python_profile, "agg"))
        for _ in range(4):
            cluster.invoke_async("agg")
        # Arrivals register when the controller delivers them to invokers.
        cluster.run()
        counts = [inv.snapshot().arrivals_total.get("agg", 0) for inv in cluster.invokers]
        assert sum(counts) == 4

    def test_cold_start_and_dispatch_times_recorded(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=1))
        invoker.register(_action(small_python_profile, "cold"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="cold", submitted_at=loop.now), done.append)
        loop.run(until=100.0)
        assert len(invoker.cold_start_times) == invoker.cold_starts == 1
        # The request waited on its own boot: one cold dispatch, after the
        # boot was requested.
        assert len(invoker.cold_dispatch_times) == 1
        assert invoker.cold_dispatch_times[0] >= invoker.cold_start_times[0]

    def test_can_prewarm_reflects_ceiling_and_raise(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2))
        invoker.register(_action(small_python_profile, "room"), max_containers=1)
        assert invoker.can_prewarm("room")
        invoker.prewarm("room")
        loop.run(until=100.0)
        # Ceiling 1 is full; only a ceiling raise (clamped at cores=2)
        # would admit another container.
        assert not invoker.can_prewarm("room")
        assert invoker.can_prewarm("room", raise_ceiling=True)
        invoker.scale_action("room", +1)
        invoker.prewarm("room")
        loop.run(until=200.0)
        # Both cores' worth of containers exist: not even a raise helps.
        assert not invoker.can_prewarm("room", raise_ceiling=True)


class TestDiurnalRisingWindows:
    def test_windows_cover_the_trough_to_peak_halves(self):
        from repro.analysis.experiments import diurnal_rising_windows

        assert diurnal_rising_windows(10.0, 4.0) == [(3.0, 5.0), (7.0, 9.0)]
        # skip_cycles=0 includes cycle 0's rising half, clipped at t=0.
        assert diurnal_rising_windows(10.0, 4.0, skip_cycles=0) == [
            (0.0, 1.0), (3.0, 5.0), (7.0, 9.0),
        ]
        # The final window clips at the run's end.
        assert diurnal_rising_windows(8.0, 4.0) == [(3.0, 5.0), (7.0, 8.0)]
        with pytest.raises(ValueError):
            diurnal_rising_windows(0.0, 4.0)
        with pytest.raises(ValueError):
            diurnal_rising_windows(10.0, 4.0, skip_cycles=-1)


class TestControlPlaneForecastWiring:
    def test_config_selects_the_predictive_planner(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(
                cores=1, invokers=2, control_plane=True, planner="predictive",
                forecast_period_seconds=4.0, seed=3,
            )
        )
        assert isinstance(cluster.control_plane.planner, PredictivePlanner)
        forecaster = cluster.control_plane.planner.forecaster
        assert forecaster.season_period_seconds == 4.0
        stats = cluster.control_plane_stats()
        assert stats["planner"] == "predictive"
        assert "predictive_seeds" in stats

    def test_reactive_remains_the_default(self):
        cluster = FaaSCluster(SimulationConfig(control_plane=True))
        assert not isinstance(cluster.control_plane.planner, PredictivePlanner)
        assert cluster.control_plane_stats()["planner"] == "reactive"

    def test_deploy_calibrates_the_predictive_planner(self, small_python_profile):
        cluster = FaaSCluster(
            SimulationConfig(cores=1, invokers=2, control_plane=True,
                             planner="predictive", seed=3)
        )
        planner = cluster.control_plane.planner
        cluster.deploy(_action(small_python_profile, "cal"))
        # The measured boot time became the forecast lead for the action.
        assert planner.lead_seconds("cal") != planner.lead_seconds("other")
        assert planner.lead_seconds("cal") > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(planner="nope")
        with pytest.raises(ValueError):
            SimulationConfig(planner="predictive")  # needs control_plane
        with pytest.raises(ValueError):
            # A declared season period without the predictive planner (the
            # only consumer) would be silently dead configuration — refuse
            # it loudly instead.
            SimulationConfig(forecast_period_seconds=4.0)
        with pytest.raises(ValueError):
            SimulationConfig(control_plane=True, forecast_period_seconds=4.0)
        with pytest.raises(ValueError):
            SimulationConfig(
                control_plane=True, planner="predictive",
                forecast_period_seconds=0.0,
            )
