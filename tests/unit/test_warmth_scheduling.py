"""Tests for core-charged cold starts, the warmth surface, and work stealing."""

from __future__ import annotations

import pytest

from repro.config import SCHEDULER_POLICIES
from repro.errors import PlatformError
from repro.faas.action import ActionSpec
from repro.faas.index import ClusterIndex
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation, InvocationStatus
from repro.faas.scheduler import (
    HashAffinityPolicy,
    Scheduler,
    WarmAwarePolicy,
    create_policy,
    home_index,
)
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _action(profile: FunctionProfile, name: str, mechanism: str = "base") -> ActionSpec:
    return ActionSpec.for_profile(profile, mechanism, name=name)


def _steady_profile(name: str = "steady") -> FunctionProfile:
    """A profile with zero execution jitter: identical requests take
    identical time, so completion order is fully determined by dispatch
    order and the FIFO assertions below are exact."""
    return FunctionProfile(
        name=name,
        language=Language.PYTHON,
        suite="unit",
        exec_seconds=0.010,
        exec_jitter=0.0,
        total_kpages=1.2,
        dirtied_kpages=0.15,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=4,
        input_bytes=128,
        output_bytes=256,
    )


def _homed_name(prefix: str, invokers: int, home: int) -> str:
    """An action name whose hash home is ``home`` of ``invokers``."""
    index = 0
    while True:
        name = f"{prefix}-{index}"
        if home_index(name, invokers) == home:
            return name
        index += 1


class TestCoreChargedColdStarts:
    def test_boot_waits_for_a_busy_core(self, small_python_profile, small_c_profile):
        # One core, occupied by a warm request; a registered action's boot
        # must wait in the backlog until the core frees.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(_action(small_python_profile, "warm"), containers=1)
        invoker.register(_action(small_c_profile, "cold"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="warm", payload=b"x"), done.append)
        invoker.submit(Invocation(action="cold", payload=b"x"), done.append)
        assert invoker.cold_starts == 1
        assert invoker.cores_in_use == 1  # the warm request, not the boot
        assert invoker.pending_boots == 1  # the boot is backlogged
        # Bound the run so the keep-alive eviction (10 min out) has not yet
        # reclaimed the dynamic container whose init report we read.
        loop.run(until=100.0)
        assert [inv.status for inv in done] == [InvocationStatus.COMPLETED] * 2
        warm, cold = done
        boot_seconds = invoker.pool("cold")[0].init_report.total_seconds
        # The cold request could only dispatch after the warm request
        # finished *and* the boot ran its full duration on the core.
        assert cold.dispatched_at >= warm.completed_at + boot_seconds * 0.99
        assert invoker.boot_core_seconds == pytest.approx(boot_seconds)

    def test_concurrent_boots_serialise_on_a_full_invoker(
        self, small_python_profile, small_c_profile
    ):
        # Two cold actions, one core: the boots run back to back, not in
        # parallel — a booting container occupies the core like any other.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.register(_action(small_python_profile, "first"), max_containers=1)
        invoker.register(_action(small_c_profile, "second"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="first", payload=b"x"), done.append)
        invoker.submit(Invocation(action="second", payload=b"x"), done.append)
        assert invoker.cores_in_use == 1  # one boot on the core...
        assert invoker.booting == 1
        assert invoker.pending_boots == 1  # ...the other waiting
        loop.run(until=100.0)
        first, second = done
        first_boot = invoker.pool("first")[0].init_report.total_seconds
        second_boot = invoker.pool("second")[0].init_report.total_seconds
        assert first.dispatched_at >= first_boot * 0.99
        # The second boot could only start once the first one released the
        # core, so its request dispatched after both full boot durations.
        assert second.dispatched_at >= first_boot + second_boot * 0.99
        assert invoker.boot_core_seconds == pytest.approx(first_boot + second_boot)

    def test_parallel_boots_use_parallel_cores(
        self, small_python_profile, small_c_profile
    ):
        # With two cores the same two boots overlap instead of serialising.
        loop = EventLoop()
        invoker = Invoker(loop, cores=2)
        invoker.register(_action(small_python_profile, "first"), max_containers=1)
        invoker.register(_action(small_c_profile, "second"), max_containers=1)
        done = []
        invoker.submit(Invocation(action="first", payload=b"x"), done.append)
        invoker.submit(Invocation(action="second", payload=b"x"), done.append)
        assert invoker.cores_in_use == 2
        assert invoker.pending_boots == 0
        loop.run(until=100.0)
        first_boot = invoker.pool("first")[0].init_report.total_seconds
        second_boot = invoker.pool("second")[0].init_report.total_seconds
        assert done[1].dispatched_at < first_boot + second_boot

    def test_load_counts_boots_in_flight(self, small_python_profile, small_c_profile):
        # Boots on a core and boots in the backlog both show up in the
        # least-loaded metric, so policies are not blind to them — but a
        # queued invocation whose boot is already in flight is the *same*
        # unit of demand as that boot, and must not be counted twice.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.register(_action(small_python_profile, "a"), max_containers=1)
        invoker.register(_action(small_c_profile, "b"), max_containers=1)
        assert invoker.load == 0
        invoker.submit(Invocation(action="a", payload=b"x"), lambda inv: None)
        # One boot occupying the core; the queued invocation it will serve
        # is covered by it, not added on top.
        assert invoker.cores_in_use == 1
        assert invoker.queued_invocations() == 1
        assert invoker.load == 1
        invoker.submit(Invocation(action="b", payload=b"x"), lambda inv: None)
        # + one backlogged boot covering the second queued invocation.
        assert invoker.pending_boots == 1
        assert invoker.load == 2

    def test_load_counts_uncovered_queue_beyond_boots(self, small_python_profile):
        # Regression for the double-count fix's other direction: queued
        # work *beyond* what the boots in flight can absorb still counts.
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.register(_action(small_python_profile, "a"), max_containers=1)
        for _ in range(3):
            invoker.submit(Invocation(action="a", payload=b"x"), lambda inv: None)
        # One boot on the core (covers one queued entry), two uncovered.
        assert invoker.cores_in_use == 1
        assert invoker.queued_invocations() == 3
        assert invoker.queued_uncovered() == 2
        assert invoker.load == 3
        snap = invoker.snapshot()
        assert snap.queued == 3
        assert snap.queued_uncovered == 2
        assert snap.load == invoker.load


class TestInvokerSnapshot:
    def test_snapshot_reports_warmth_and_headroom(
        self, small_python_profile, small_c_profile
    ):
        loop = EventLoop()
        invoker = Invoker(loop, cores=2)
        invoker.deploy(_action(small_python_profile, "hot"), containers=2)
        invoker.register(_action(small_c_profile, "cold"), max_containers=4)
        snap = invoker.snapshot()
        assert snap.invoker_id == "invoker-0"
        assert snap.cores == 2 and snap.cores_in_use == 0
        assert snap.idle_warm == {"hot": 2}
        assert snap.warm_total == {"hot": 2}
        assert snap.boots_in_flight == {}
        # Growth is capped by the core count, not just max_containers.
        assert snap.growth_headroom == {"cold": 2}
        assert snap.load == 0 and snap.free_cores == 2
        assert snap.warmth("hot") == 2 and snap.warmth("cold") == 0

    def test_snapshot_tracks_dispatch_and_boots(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=2)
        invoker.deploy(
            _action(small_python_profile, "busy"), containers=1, max_containers=2
        )
        invoker.submit(Invocation(action="busy", payload=b"x"), lambda inv: None)
        invoker.submit(Invocation(action="busy", payload=b"x"), lambda inv: None)
        snap = invoker.snapshot()
        assert snap.cores_in_use == 2  # one executing + one booting
        assert snap.booting == 1
        assert snap.idle_warm == {}
        assert snap.boots_in_flight == {"busy": 1}
        assert snap.queued == 1
        # A boot in flight counts as warmth: the policy should not route a
        # second boot's worth of traffic elsewhere.
        assert snap.warmth("busy") == 2

    def test_growth_headroom_accessor(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(
            _action(small_python_profile, "capped"), containers=1, max_containers=4
        )
        # One container on one core: no growth can ever help.
        assert invoker.growth_headroom("capped") == 0


class TestWarmAwarePolicy:
    def test_prefers_warm_invoker_over_idle_cold(self, small_python_profile):
        loop = EventLoop()
        cold = Invoker(loop, cores=2, invoker_id="invoker-0")
        warm = Invoker(loop, cores=2, invoker_id="invoker-1")
        spec = _action(small_python_profile, "wa")
        cold.register(spec, max_containers=2)
        warm.deploy(spec, containers=1, max_containers=2)
        policy = WarmAwarePolicy()
        policy.bind_index(ClusterIndex([cold, warm]))
        assert policy.select([cold, warm], Invocation(action="wa")) == 1

    def test_spills_once_backlog_outweighs_the_penalty(self, small_python_profile):
        loop = EventLoop()
        warm = Invoker(loop, cores=1, invoker_id="invoker-0")
        cold = Invoker(loop, cores=1, invoker_id="invoker-1")
        spec = _action(small_python_profile, "spill")
        warm.deploy(spec, containers=1, max_containers=1)
        cold.register(spec, max_containers=1)
        # Build a backlog of 3 on the warm invoker (1 running + 2 queued).
        for _ in range(3):
            warm.submit(Invocation(action="spill", payload=b"x"), lambda inv: None)
        # Backlog below the penalty: stay warm.  Above it: pay the boot.
        index = ClusterIndex([warm, cold])
        patient = WarmAwarePolicy(cold_start_penalty=8.0)
        eager = WarmAwarePolicy(cold_start_penalty=2.0)
        for policy in (patient, eager):
            policy.bind_index(index)
        assert patient.select([warm, cold], Invocation(action="spill")) == 0
        assert eager.select([warm, cold], Invocation(action="spill")) == 1

    def test_boot_in_flight_counts_as_warmth(self, small_python_profile):
        # An invoker already booting a container for the action does not
        # pay the cold-start penalty again.
        loop = EventLoop()
        booting = Invoker(loop, cores=4, invoker_id="invoker-0")
        cold = Invoker(loop, cores=4, invoker_id="invoker-1")
        spec = _action(small_python_profile, "inflight")
        booting.register(spec, max_containers=4)
        cold.register(spec, max_containers=4)
        booting.submit(Invocation(action="inflight", payload=b"x"), lambda inv: None)
        policy = WarmAwarePolicy(cold_start_penalty=32.0)
        policy.bind_index(ClusterIndex([cold, booting]))
        # booting has load 1 (boot on core; the queued invocation it will
        # serve is covered) but warmth 1; cold has load 0 but would boot
        # fresh: 1 < 0 + 32.
        assert policy.select([cold, booting], Invocation(action="inflight")) == 1

    def test_registry_and_config_expose_warm_aware(self):
        assert "warm-aware" in SCHEDULER_POLICIES
        assert isinstance(create_policy("warm-aware"), WarmAwarePolicy)
        with pytest.raises(PlatformError):
            WarmAwarePolicy(cold_start_penalty=-1.0)


class TestWorkStealing:
    def _affinity_cluster(self, spec_name_prefix: str, loop: EventLoop):
        invokers = [
            Invoker(loop, cores=1, invoker_id=f"invoker-{i}") for i in range(2)
        ]
        return invokers

    def test_instant_steal_takes_the_queue_head(self):
        # Both invokers hold a warm container; affinity funnels everything
        # to the home.  The idle peer must pull the *oldest* queued
        # invocation and completions must stay in submission order.
        profile = _steady_profile()
        name = _homed_name("steal", 2, 0)
        loop = EventLoop()
        invokers = self._affinity_cluster("steal", loop)
        spec = _action(profile, name)
        for invoker in invokers:
            invoker.deploy(spec, containers=1, max_containers=1)
        scheduler = Scheduler(
            invokers, HashAffinityPolicy(), work_stealing=True
        )
        submitted = [Invocation(action=name, payload=b"x") for _ in range(4)]
        finished = []
        for invocation in submitted:
            scheduler.submit(invocation, finished.append)
        assert scheduler.steals >= 1
        assert invokers[1].steals >= 1
        assert invokers[0].stolen_away >= 1
        loop.run()
        assert finished == submitted  # per-action FIFO completion order
        dispatch_times = [inv.dispatched_at for inv in submitted]
        assert dispatch_times == sorted(dispatch_times)

    def test_the_lowest_index_idle_peer_steals_first(self):
        # Both peers of the home hold an idle warm container and a free
        # core, so either could serve the queued request: thieves are
        # tried by ascending index, and invoker 1 takes it.
        name = _homed_name("order", 3, 0)
        loop = EventLoop()
        invokers = [
            Invoker(loop, cores=1, invoker_id=f"invoker-{i}") for i in range(3)
        ]
        spec = _action(_steady_profile(), name)
        for invoker in invokers:
            invoker.deploy(spec, containers=1, max_containers=1)
        scheduler = Scheduler(invokers, HashAffinityPolicy(), work_stealing=True)
        for _ in range(2):
            scheduler.submit(Invocation(action=name, payload=b"x"), lambda inv: None)
        assert [invoker.steals for invoker in invokers] == [0, 1, 0]
        assert invokers[0].stolen_away == 1

    @staticmethod
    def _laminar_cluster(monkeypatch):
        # Eight invokers under hash affinity, each action's one container
        # on its home only; a probe records every thief the steal search
        # asks.
        loop = EventLoop()
        invokers = [
            Invoker(loop, cores=2, invoker_id=f"invoker-{i}") for i in range(8)
        ]
        scheduler = Scheduler(invokers, HashAffinityPolicy(), work_stealing=True)
        name = _homed_name("laminar", 8, 3)
        for action in [name] + [f"laminar-other-{i}" for i in range(4)]:
            scheduler.deploy(
                _action(_steady_profile(action), action),
                containers=1, max_containers=1,
            )
        asked = []
        find_steal = Scheduler._find_steal

        def probe(self, thief, candidates):
            asked.append(thief.index_position)
            return find_steal(self, thief, candidates)

        monkeypatch.setattr(Scheduler, "_find_steal", probe)
        return loop, invokers, scheduler, name, asked

    def test_steal_search_skips_invokers_that_cannot_steal(self, monkeypatch):
        # The flooded action's home queues it with a core to spare, and
        # every peer has free cores, but only the home holds the action:
        # nobody can take the queue, so the search asks nobody.
        loop, invokers, scheduler, name, asked = self._laminar_cluster(monkeypatch)
        finished = []
        for _ in range(5):
            scheduler.submit(Invocation(action=name, payload=b"x"), finished.append)
        assert scheduler.index.any_queued()
        assert invokers[3].queued_invocations(name) == 4
        assert invokers[3].cores_in_use < invokers[3].cores
        loop.run()
        assert len(finished) == 5
        assert asked == []
        assert scheduler.steals == 0

    def test_a_deep_capped_queue_still_gets_a_boot_steal(self, monkeypatch):
        # Once the capped home's queue reaches boot_steal_min_queue, a peer
        # that does not hold the action may boot it: the search visits
        # every invoker, and the lowest-index peer takes the tail.
        loop, invokers, scheduler, name, asked = self._laminar_cluster(monkeypatch)
        finished = []
        for _ in range(1 + scheduler.boot_steal_min_queue):
            scheduler.submit(Invocation(action=name, payload=b"x"), finished.append)
        assert scheduler.steals == 1
        assert invokers[0].steals == 1
        assert invokers[0].cold_starts == 1
        assert asked[:8] == list(range(8))
        loop.run()
        assert len(finished) == 1 + scheduler.boot_steal_min_queue

    def test_boot_steal_takes_the_tail_and_seeds_a_warm_container(
        self, small_python_profile
    ):
        # The home is capped (no growth headroom) with a deep backlog; the
        # idle peer boots a container for the *newest* queued invocation.
        name = _homed_name("boot-steal", 2, 0)
        loop = EventLoop()
        home = Invoker(loop, cores=1, invoker_id="invoker-0")
        thief = Invoker(loop, cores=1, invoker_id="invoker-1")
        spec = _action(small_python_profile, name)
        home.deploy(spec, containers=1, max_containers=1)
        thief.register(spec, max_containers=1)
        scheduler = Scheduler(
            [home, thief], HashAffinityPolicy(), work_stealing=True,
            boot_steal_min_queue=8,
        )
        submitted = [Invocation(action=name, payload=b"x") for _ in range(9)]
        finished = []
        for invocation in submitted:
            scheduler.submit(invocation, finished.append)
        assert thief.cold_starts == 1  # the steal triggered a boot
        assert scheduler.steals >= 1
        loop.run(until=100.0)
        assert len(finished) == 9
        assert all(inv.status is InvocationStatus.COMPLETED for inv in submitted)
        # FIFO completion order was preserved: the home drained its eight
        # older requests during the boot and the stolen (newest) invocation
        # completed last.  (It may even have been instant-stolen *back* to
        # the home's warm container if that freed before the boot finished
        # — whichever dispatch happens first wins.)
        assert finished == submitted
        assert home.invocations_completed + thief.invocations_completed == 9
        # Either way the boot ran to completion and left a warm container
        # on the once-cold peer.
        assert len(thief.pool(name)) == 1

    def test_no_boot_steal_while_victim_can_grow(self, small_python_profile):
        # As long as the home still has growth headroom for the action, a
        # burst is its own problem to absorb (its demand-matched boots are
        # already underway): the peer must not spend a core booting for it.
        name = _homed_name("patient", 2, 0)
        loop = EventLoop()
        home = Invoker(loop, cores=8, invoker_id="invoker-0")
        thief = Invoker(loop, cores=8, invoker_id="invoker-1")
        spec = _action(small_python_profile, name)
        home.register(spec, max_containers=8)
        thief.register(spec, max_containers=8)
        scheduler = Scheduler(
            [home, thief], HashAffinityPolicy(), work_stealing=True,
            boot_steal_min_queue=2,
        )
        for _ in range(6):
            scheduler.submit(Invocation(action=name, payload=b"x"), lambda inv: None)
        assert home.queued_invocations(name) >= 2  # deep enough to tempt
        assert home.growth_headroom(name) > 0  # but the home can still grow
        assert thief.cold_starts == 0
        assert scheduler.steals == 0

    def test_steal_cancels_the_victims_surplus_boot(self, small_python_profile):
        # A backlogged boot whose demand was stolen away is cancelled
        # before it wastes a core.
        name = _homed_name("cancel", 2, 0)
        loop = EventLoop()
        home = Invoker(loop, cores=1, invoker_id="invoker-0")
        thief = Invoker(loop, cores=1, invoker_id="invoker-1")
        spec = _action(small_python_profile, name)
        # The home is registered only: its first submission requests a boot
        # that must wait behind... nothing, it boots.  Use two actions so
        # the home's core is busy booting another action first.
        other = _action(small_python_profile, f"{name}-other", mechanism="base")
        home.register(other, max_containers=1)
        home.register(spec, max_containers=1)
        thief.deploy(spec, containers=1, max_containers=1)
        scheduler = Scheduler([home, thief], HashAffinityPolicy(), work_stealing=False)
        # Occupy the home's core with the other action's boot, then queue
        # work for `spec`: its boot lands in the backlog.
        home.submit(Invocation(action=other.name, payload=b"x"), lambda inv: None)
        home.submit(Invocation(action=name, payload=b"x"), lambda inv: None)
        assert home.pending_boots == 1
        # Stealing the queued invocation removes the boot's reason to exist.
        entry = home.release_queued(name)
        assert home.pending_boots == 0
        assert home.boots_cancelled == 1
        thief.adopt(*entry)
        loop.run()
        assert entry[0].status is InvocationStatus.COMPLETED
        assert thief.steals == 1

    def test_stealing_disabled_by_default(self, small_python_profile):
        name = _homed_name("nosteal", 2, 0)
        loop = EventLoop()
        invokers = [
            Invoker(loop, cores=1, invoker_id=f"invoker-{i}") for i in range(2)
        ]
        spec = _action(small_python_profile, name)
        for invoker in invokers:
            invoker.deploy(spec, containers=1, max_containers=1)
        scheduler = Scheduler(invokers, HashAffinityPolicy())
        for _ in range(4):
            scheduler.submit(Invocation(action=name, payload=b"x"), lambda inv: None)
        loop.run()
        assert scheduler.steals == 0
        assert invokers[1].invocations_completed == 0  # peer never helped

    def test_release_queued_requires_waiting_work(self, small_python_profile):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(_action(small_python_profile, "empty"), containers=1)
        with pytest.raises(PlatformError):
            invoker.release_queued("empty")

    def test_routing_skew_reports_imbalance(self, small_python_profile):
        name = _homed_name("skew", 2, 0)
        loop = EventLoop()
        invokers = [
            Invoker(loop, cores=1, invoker_id=f"invoker-{i}") for i in range(2)
        ]
        spec = _action(small_python_profile, name)
        scheduler = Scheduler(invokers, HashAffinityPolicy())
        scheduler.deploy(spec, containers=1, max_containers=1)
        assert scheduler.routing_skew() == 0.0  # nothing routed yet
        for _ in range(4):
            scheduler.submit(Invocation(action=name, payload=b"x"), lambda inv: None)
        # Everything went to the home: max/mean = 4 / 2.
        assert scheduler.routing_skew() == pytest.approx(2.0)
