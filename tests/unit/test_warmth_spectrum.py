"""Tests for the restoration-aware warmth spectrum.

With ``restorable_snapshots`` on, keep-alive eviction and drains demote
idle dynamic containers to held snapshots instead of destroying them,
and demand (or a planner pre-warm) revives a snapshot with an on-core
*restore* priced by the isolation mechanism — far cheaper than a boot,
but not free.  These tests pin the state transitions, the restore's
core accounting, the dispatch classification, and the spectrum-off
escape hatch.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import MECHANISMS
from repro.config import ISOLATION_MECHANISMS, SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.restorecost import restore_seconds_for
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _profile(name: str, exec_seconds: float = 0.010) -> FunctionProfile:
    """A jitter-free profile so every timing assertion below is exact."""
    return FunctionProfile(
        name=name,
        language=Language.PYTHON,
        suite="unit",
        exec_seconds=exec_seconds,
        exec_jitter=0.0,
        total_kpages=1.2,
        dirtied_kpages=0.15,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=4,
        input_bytes=128,
        output_bytes=256,
    )


def _action(name: str, exec_seconds: float = 0.010) -> ActionSpec:
    return ActionSpec.for_profile(_profile(name, exec_seconds), "base", name=name)


def _spectrum_invoker(loop: EventLoop, **knobs) -> Invoker:
    knobs.setdefault("cores", 1)
    knobs.setdefault("keep_alive_seconds", 0.05)
    knobs.setdefault("restorable_snapshots", True)
    return Invoker(loop, SimulationConfig(**knobs))


def _make_demoted_snapshot(loop: EventLoop, invoker: Invoker, action: str) -> None:
    """Run one request through a registered (all-dynamic) action and let
    keep-alive eviction demote the container to a held snapshot."""
    done = []
    invoker.submit(Invocation(action=action, payload=b"x"), done.append)
    loop.run(until=loop.now + 3.0)
    assert [inv.status for inv in done] == [InvocationStatus.COMPLETED]
    assert invoker.demotes >= 1
    assert invoker.snapshot().snapshots_held.get(action, 0) == 1


class TestDemoteOnEvict:
    def test_keep_alive_eviction_demotes_instead_of_destroying(self):
        loop = EventLoop()
        invoker = _spectrum_invoker(loop)
        invoker.register(_action("act"), max_containers=1)
        _make_demoted_snapshot(loop, invoker, "act")
        # The container left the pool (it serves nothing, counts toward
        # no budget) but survives as a revivable snapshot.
        assert invoker.pool("act") == []
        assert invoker.evictions == 1
        assert invoker.demotes == 1
        assert invoker.snapshots_held() == 1

    def test_spectrum_off_eviction_destroys(self):
        loop = EventLoop()
        invoker = Invoker(
            loop,
            SimulationConfig(cores=1, keep_alive_seconds=0.05, restorable_snapshots=False),
        )
        invoker.register(_action("act"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="act", payload=b"x"), done.append)
        loop.run(until=3.0)
        assert invoker.evictions == 1
        assert invoker.demotes == 0
        assert invoker.snapshots_held() == 0
        # The next request pays a full cold start again.
        invoker.submit(Invocation(action="act", payload=b"x"), done.append)
        loop.run(until=6.0)
        assert invoker.cold_starts == 2
        assert invoker.restores == 0

    def test_snapshot_budget_discards_least_recently_demoted(self):
        loop = EventLoop()
        invoker = _spectrum_invoker(loop, cores=2, snapshot_budget=1)
        invoker.register(_action("a"), max_containers=1)
        invoker.register(_action("b"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="a", payload=b"x"), done.append)
        loop.run(until=3.0)
        assert invoker.snapshot().snapshots_held.get("a", 0) == 1
        invoker.submit(Invocation(action="b", payload=b"x"), done.append)
        loop.run(until=6.0)
        # b's demotion breached the budget of 1: a's older snapshot went.
        assert invoker.demotes == 2
        assert invoker.snapshot_discards == 1
        assert invoker.snapshot().snapshots_held.get("a", 0) == 0
        assert invoker.snapshot().snapshots_held.get("b", 0) == 1
        assert invoker.snapshots_held() == 1


class TestRestoreAccounting:
    def test_demand_revives_snapshot_as_priced_restore(self):
        loop = EventLoop()
        invoker = _spectrum_invoker(loop)
        invoker.register(_action("act"), max_containers=1)
        _make_demoted_snapshot(loop, invoker, "act")
        # Stop the short keep-alive from demoting the revived container
        # again, so the post-restore pool state stays observable.
        invoker.keep_alive_seconds = 60.0
        cold_before = invoker.cold_starts
        start = loop.now
        done = []
        invoker.submit(Invocation(action="act", payload=b"x"), done.append)
        loop.run(until=start + 3.0)
        assert done[0].status is InvocationStatus.COMPLETED
        # Revived by restore, not by a second boot.
        assert invoker.restores == 1
        assert invoker.cold_starts == cold_before
        assert invoker.snapshots_held() == 0
        # The restore sat on the request's critical path: a restore
        # dispatch, priced by the mechanism's restore model.
        assert invoker.restore_dispatches == 1
        container = invoker.pool("act")[0]
        price = restore_seconds_for(
            invoker.isolation_mechanism, container.init_report, invoker.cost_model
        )
        assert price > 0.0
        assert done[0].dispatched_at == pytest.approx(start + price)
        # And the restore is orders of magnitude cheaper than the boot
        # it replaced — the whole point of holding the snapshot.
        assert price < container.init_report.total_seconds / 10

    def test_restore_waits_for_a_busy_core(self):
        # A restore is CPU work exactly like a boot: with the only core
        # executing a long request, the restore waits in the backlog and
        # the revived request dispatches only after core-free + price.
        loop = EventLoop()
        invoker = _spectrum_invoker(loop)
        invoker.register(_action("act"), max_containers=1)
        invoker.deploy(_action("blocker", exec_seconds=1.0), containers=1)
        _make_demoted_snapshot(loop, invoker, "act")
        invoker.keep_alive_seconds = 60.0
        done = []
        invoker.submit(Invocation(action="blocker", payload=b"x"), done.append)
        assert invoker.cores_in_use == 1
        invoker.submit(Invocation(action="act", payload=b"x"), done.append)
        # The restore began (the snapshot is claimed) but is backlogged.
        assert invoker.restores == 1
        assert invoker.snapshots_held() == 0
        assert invoker.pending_boots == 1
        assert invoker.cores_in_use == 1
        loop.run(until=loop.now + 5.0)
        blocker, revived = done
        container = invoker.pool("act")[0]
        price = restore_seconds_for(
            invoker.isolation_mechanism, container.init_report, invoker.cost_model
        )
        # Serialised: the restore could only run after the blocker freed
        # the core, and the request only after the restore completed.
        assert revived.dispatched_at >= blocker.completed_at + price * 0.99
        assert invoker.restore_dispatches == 1

    def test_request_after_restore_completion_is_a_warm_hit(self):
        # The pre-warm honesty rule, mirrored for restores: a restore
        # finishing *before* a request is submitted bought that request
        # genuine warm service, so it must not count as a restore
        # dispatch.
        loop = EventLoop()
        invoker = _spectrum_invoker(loop)
        invoker.register(_action("act"), max_containers=1)
        _make_demoted_snapshot(loop, invoker, "act")
        invoker.keep_alive_seconds = 60.0
        warm_before = invoker.warm_hits
        # A planner-style pre-warm revives the snapshot ahead of demand.
        assert invoker.prewarm("act") is True
        assert invoker.restores == 1
        loop.run(until=loop.now + 1.0)  # restore completes off-path
        container = invoker.pool("act")[0]
        assert container.ready_at < loop.now
        done = []
        # submitted_at matters here: the honesty rule compares it against
        # the restore's completion (the cluster layer stamps it on entry).
        invoker.submit(
            Invocation(action="act", payload=b"x", submitted_at=loop.now),
            done.append,
        )
        loop.run(until=loop.now + 1.0)
        assert done[0].status is InvocationStatus.COMPLETED
        assert invoker.restore_dispatches == 0
        assert invoker.warm_hits == warm_before + 1


class TestDrainDemotes:
    def test_drain_demotes_and_never_resurrects_work(self):
        loop = EventLoop()
        invoker = _spectrum_invoker(loop, cores=2, keep_alive_seconds=60.0)
        invoker.register(_action("act"), max_containers=2)
        done = []
        for _ in range(2):
            invoker.submit(Invocation(action="act", payload=b"x"), done.append)
        loop.run(until=5.0)
        assert len(invoker.pool("act")) == 2
        dispatched_before = invoker.invocations_dispatched
        # Drain both idle dynamic containers: they demote (the budget
        # frees) and nothing runs, restores, or boots as a side effect.
        assert invoker.drain("act", 2) == 2
        assert invoker.demotes == 2
        assert invoker.snapshot().snapshots_held.get("act", 0) == 2
        assert invoker.pool("act") == []
        assert invoker.restores == 0
        assert invoker.pending_boots == 0
        assert invoker.cores_in_use == 0
        assert invoker.invocations_dispatched == dispatched_before
        # A drain of the now-empty (snapshot-holding) pool reclaims
        # nothing further — snapshots are not drainable capacity.
        assert invoker.drain("act", 2) == 0
        assert invoker.snapshot().snapshots_held.get("act", 0) == 2
        assert invoker.restores == 0

    def test_prewarm_prefers_held_snapshot_over_boot(self):
        loop = EventLoop()
        invoker = _spectrum_invoker(loop, keep_alive_seconds=60.0)
        invoker.register(_action("act"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="act", payload=b"x"), done.append)
        loop.run(until=3.0)
        assert invoker.drain("act", 1) == 1
        cold_before = invoker.cold_starts
        assert invoker.can_prewarm("act") is True
        assert invoker.prewarm("act") is True
        loop.run(until=6.0)
        assert invoker.restores == 1
        assert invoker.cold_starts == cold_before
        assert len(invoker.pool("act")) == 1


class TestSpectrumOffEscapeHatch:
    def test_config_defaults_keep_the_spectrum_off(self):
        config = SimulationConfig()
        assert config.restorable_snapshots is False
        assert config.snapshot_budget is None
        assert config.isolation_mechanism == "gh"

    def test_off_run_never_enters_spectrum_state(self):
        loop = EventLoop()
        invoker = Invoker(loop, SimulationConfig(cores=2, keep_alive_seconds=0.05))
        invoker.register(_action("a"), max_containers=2)
        done = []
        for _ in range(4):
            invoker.submit(Invocation(action="a", payload=b"x"), done.append)
        loop.run(until=5.0)
        assert invoker.demotes == 0
        assert invoker.restores == 0
        assert invoker.restore_dispatches == 0
        assert invoker.snapshot_discards == 0
        assert invoker.snapshots_held() == 0
        stats = invoker.stats()
        assert stats["demotes"] == 0
        assert stats["restores"] == 0

    def test_default_invoker_matches_explicit_spectrum_off(self):
        # The escape hatch: constructing with the spectrum knobs at their
        # documented defaults is the same machine as not passing them —
        # a default cluster reproduces pre-spectrum behaviour bit for bit.
        def run(**kwargs):
            loop = EventLoop()
            invoker = Invoker(
                loop, SimulationConfig(cores=1, keep_alive_seconds=0.05, **kwargs)
            )
            invoker.register(_action("a"), max_containers=2)
            done = []
            for _ in range(3):
                invoker.submit(Invocation(action="a", payload=b"x"), done.append)
            loop.run(until=5.0)
            trace = [(inv.dispatched_at, inv.completed_at) for inv in done]
            return trace, invoker.stats()

        assert run() == run(
            restorable_snapshots=False,
            snapshot_budget=None,
            isolation_mechanism="gh",
        )


class TestMechanismCatalogue:
    def test_isolation_mechanisms_match_the_baseline_registry(self):
        # config.ISOLATION_MECHANISMS is a literal (the registry import
        # would cycle); this pins it to the real mechanism catalogue so
        # adding a mechanism cannot silently miss the CLI choices.
        assert set(ISOLATION_MECHANISMS) == set(MECHANISMS)

    def test_restore_prices_order_sensibly(self):
        # gh restores page-served snapshots orders of magnitude faster
        # than a cold boot; "base"/"cold" have no snapshot to restore and
        # price at the full boot.
        loop = EventLoop()
        invoker = _spectrum_invoker(loop)
        invoker.register(_action("act"), max_containers=1)
        _make_demoted_snapshot(loop, invoker, "act")
        invoker.keep_alive_seconds = 60.0
        loop.run(until=loop.now + 1.0)
        invoker.prewarm("act")
        loop.run(until=loop.now + 3.0)
        init = invoker.pool("act")[0].init_report
        boot = init.total_seconds
        gh = restore_seconds_for("gh", init, invoker.cost_model)
        base = restore_seconds_for("base", init, invoker.cost_model)
        assert 0.0 < gh < boot / 10
        assert base == pytest.approx(boot)
