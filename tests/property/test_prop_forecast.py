"""Property tests for the demand forecaster and the predictive planner.

The forecaster feeds a planner that moves real capacity, so its outputs
must be *safe under any observation history* — not just the smooth
synthetic loads the unit tests fit:

* **Finite and non-negative** — whatever (count, interval) sequence is
  observed, every forecast at every horizon is a finite float >= 0; a
  negative or infinite rate would propagate straight into container
  targets.
* **Determinism** — identical observation histories produce identical
  forecasts, and identical cluster histories produce identical predictive
  plans (the cluster-wide reproducibility guarantee extends to the
  forecast layer).
* **Budget safety under forecast pressure** — however aggressive the
  forecast-implied seeding is, the planner never pushes the cluster's
  container count above the global budget (inherited from the reactive
  planner, re-verified here because the predictive subclass adds a whole
  new pressure source).
"""

from __future__ import annotations

import math
from typing import List

from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.controlplane import CapacityPlanner, DemandForecaster, PredictivePlanner
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation, InvocationStatus
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _profile(name: str) -> FunctionProfile:
    return FunctionProfile(
        name=name,
        language=Language.PYTHON,
        suite="prop",
        exec_seconds=0.008,
        exec_jitter=0.0,
        total_kpages=1.0,
        dirtied_kpages=0.1,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=2,
        input_bytes=64,
        output_bytes=64,
        threads=1,
        init_fraction=0.8,
    )


#: One observation: (count, interval) — counts include bursty extremes.
OBSERVATIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False,
                  allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)

SEASONS = st.one_of(st.none(), st.floats(min_value=0.5, max_value=100.0))

HORIZONS = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(observations=OBSERVATIONS, season=SEASONS, horizons=HORIZONS)
def test_forecasts_are_finite_and_non_negative(observations, season, horizons):
    forecaster = DemandForecaster(season_period_seconds=season)
    now = 0.0
    for count, interval in observations:
        now += interval
        forecaster.observe("act", count, now, interval)
        for horizon in horizons:
            value = forecaster.forecast("act", now + horizon)
            assert math.isfinite(value), f"forecast {value!r} is not finite"
            assert value >= 0.0, f"forecast {value!r} is negative"
    snapshot = forecaster.snapshot("act")
    assert math.isfinite(snapshot["level"]) and snapshot["level"] >= 0.0
    assert math.isfinite(snapshot["trend"])
    assert all(math.isfinite(factor) for factor in snapshot["seasonal"])


@settings(max_examples=40, deadline=None)
@given(observations=OBSERVATIONS, season=SEASONS)
def test_forecaster_determinism(observations, season):
    def build() -> DemandForecaster:
        forecaster = DemandForecaster(season_period_seconds=season)
        now = 0.0
        for count, interval in observations:
            now += interval
            forecaster.observe("act", count, now, interval)
        return forecaster, now

    first, at_first = build()
    second, at_second = build()
    assert at_first == at_second
    for horizon in (0.0, 0.25, 1.0, 60.0):
        assert first.forecast("act", at_first + horizon) == second.forecast(
            "act", at_second + horizon
        )
    assert first.ready("act") == second.ready("act")
    assert first.snapshot("act") == second.snapshot("act")


ACTIONS = ("act-0", "act-1", "act-2")

#: One step: (action index, burst size, events to process before planning).
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(ACTIONS) - 1),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=12,
)


def _build(num_invokers: int):
    loop = EventLoop()
    invokers = [
        Invoker(loop, SimulationConfig(cores=2), invoker_id=f"invoker-{i}")
        for i in range(num_invokers)
    ]
    for index, name in enumerate(ACTIONS):
        spec = ActionSpec.for_profile(_profile(name), "base", name=name)
        home = index % num_invokers
        for position, invoker in enumerate(invokers):
            if position == home:
                invoker.deploy(spec, containers=1, max_containers=2)
            else:
                invoker.register(spec, max_containers=2)
    return loop, invokers


def _run_history(ops, num_invokers: int, budget: int, *, min_history: float):
    """Drive one history under a PredictivePlanner; verify budget each tick."""
    loop, invokers = _build(num_invokers)
    planner = PredictivePlanner(
        budget=budget,
        queue_high=2,
        min_idle_seconds=0.0,
        forecaster=DemandForecaster(min_history_seconds=min_history,
                                    min_observations=1),
        default_boot_seconds=0.2,
        default_service_seconds=0.05,
    )
    completed: List[Invocation] = []
    submitted = 0
    for action_index, burst, events in ops:
        action = ACTIONS[action_index]
        home = invokers[action_index % num_invokers]
        for _ in range(burst):
            home.submit(
                Invocation(
                    action=action,
                    caller="t",
                    invocation_id=f"inv-{submitted}",
                    submitted_at=loop.now,
                ),
                completed.append,
            )
            submitted += 1
        loop.run(max_events=events)
        total_before = CapacityPlanner.total_containers(
            [invoker.snapshot() for invoker in invokers]
        )
        planner.plan(invokers, loop.now)
        total_after = CapacityPlanner.total_containers(
            [invoker.snapshot() for invoker in invokers]
        )
        assert total_after <= max(budget, total_before), (
            f"predictive planner pushed the cluster to {total_after} "
            f"containers (budget {budget}, was {total_before})"
        )
    loop.run()
    return planner, completed, submitted


@settings(max_examples=25, deadline=None)
@given(ops=OPS, num_invokers=st.integers(min_value=2, max_value=3),
       budget=st.integers(min_value=3, max_value=10))
def test_predictive_planner_respects_budget_and_loses_no_work(
    ops, num_invokers, budget
):
    planner, completed, submitted = _run_history(
        ops, num_invokers, budget, min_history=0.0
    )
    assert len(completed) == submitted
    assert all(inv.status is InvocationStatus.COMPLETED for inv in completed)
    assert len({inv.invocation_id for inv in completed}) == submitted


@settings(max_examples=15, deadline=None)
@given(ops=OPS, budget=st.integers(min_value=3, max_value=10))
def test_predictive_planner_is_deterministic(ops, budget):
    first, _, _ = _run_history(ops, 3, budget, min_history=0.0)
    second, _, _ = _run_history(ops, 3, budget, min_history=0.0)
    assert first.decisions == second.decisions
    assert first.predictive_seeds == second.predictive_seeds
    assert first.forecast_stats() == second.forecast_stats()


@settings(max_examples=15, deadline=None)
@given(ops=OPS, budget=st.integers(min_value=3, max_value=10))
def test_unready_forecaster_degrades_to_reactive_plans(ops, budget):
    """With history gated off, the predictive plans equal the reactive
    planner's exactly — graceful fallback holds for any interleaving."""
    predictive, _, _ = _run_history(ops, 3, budget, min_history=1e9)
    loop, invokers = _build(3)
    reactive = CapacityPlanner(budget=budget, queue_high=2, min_idle_seconds=0.0)
    for action_index, burst, events in ops:
        action = ACTIONS[action_index]
        home = invokers[action_index % 3]
        for _ in range(burst):
            home.submit(
                Invocation(action=action, caller="t", submitted_at=loop.now),
                lambda inv: None,
            )
        loop.run(max_events=events)
        reactive.plan(invokers, loop.now)
    loop.run()
    assert predictive.decisions == reactive.decisions
    assert predictive.predictive_seeds == 0
