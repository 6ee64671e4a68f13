"""Unit tests for the incrementally-maintained cluster index.

Covers the index structures directly (lazy heap, warm sets, queue-depth
maps, compaction), the invoker surfaces that feed them (O(1) load,
dirty-flag snapshot caching, Counter-based tenant aggregation), and the
scheduler's index-driven decisions against the scan oracle in
``reference_routing`` (least-loaded argmin, warm-aware scoring,
steal search).
"""

from __future__ import annotations

from typing import List

import reference_routing

from repro.faas.action import ActionSpec
from repro.faas.index import ClusterIndex, _HEAP_SLACK_FACTOR
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation
from repro.faas.scheduler import (
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Scheduler,
    WarmAwarePolicy,
)
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _profile(name: str, exec_seconds: float = 0.01) -> FunctionProfile:
    return FunctionProfile(
        name=name,
        language=Language.PYTHON,
        suite="unit",
        exec_seconds=exec_seconds,
        exec_jitter=0.0,
        total_kpages=1.0,
        dirtied_kpages=0.1,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=2,
        input_bytes=64,
        output_bytes=64,
    )


def _spec(name: str) -> ActionSpec:
    return ActionSpec.for_profile(_profile(name), "base", name=name)


def _cluster(num_invokers: int, cores: int = 1):
    loop = EventLoop()
    invokers = [
        Invoker(loop, cores=cores, invoker_id=f"invoker-{i}")
        for i in range(num_invokers)
    ]
    return loop, invokers


def _scan_least_loaded(invokers: List[Invoker]) -> int:
    return min(range(len(invokers)), key=lambda i: (invokers[i].load, i))


class TestClusterIndexStructures:
    def test_attach_backfills_existing_state(self):
        # Deployments that happened before the index existed must be
        # visible the moment it attaches.
        loop, invokers = _cluster(3)
        invokers[1].deploy(_spec("act-a"), containers=1, max_containers=2)
        invokers[2].register(_spec("act-a"), max_containers=1)
        invokers[1].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        invokers[1].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        index = ClusterIndex(invokers)
        index.verify()
        assert index.load_of(1) == invokers[1].load
        assert index.least_loaded() == _scan_least_loaded(invokers)

    def test_least_loaded_tracks_transitions(self):
        loop, invokers = _cluster(3)
        index = ClusterIndex(invokers)
        for invoker in invokers:
            invoker.deploy(_spec("act-a"), containers=1, max_containers=1)
        assert index.least_loaded() == 0  # all equal: lowest position wins
        invokers[0].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        assert index.least_loaded() == 1
        invokers[1].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        assert index.least_loaded() == 2
        loop.run(until=10.0)  # everything drains
        index.verify()
        assert index.least_loaded() == 0

    def test_heap_compaction_keeps_size_bounded_and_argmin_exact(self):
        loop, invokers = _cluster(2)
        index = ClusterIndex(invokers)
        for invoker in invokers:
            invoker.deploy(_spec("act-a"), containers=1, max_containers=1)
        # Thousands of load transitions on two invokers force many stale
        # heap entries; compaction must keep the heap near-live.
        for round_number in range(400):
            target = invokers[round_number % 2]
            target.submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
            loop.run(until=loop.now + 1.0)
        assert index.compactions > 0
        assert len(index._heap) <= _HEAP_SLACK_FACTOR * len(invokers) + 8 + 1
        index.verify()
        assert index.least_loaded() == _scan_least_loaded(invokers)

    def test_depth_and_warmth_maps_stay_sparse(self):
        loop, invokers = _cluster(2)
        index = ClusterIndex(invokers)
        invokers[0].deploy(_spec("act-a"), containers=1, max_containers=1)
        assert not index.any_queued()
        assert index.depths_for("act-a") == {}
        # One running + two queued on a 1-core invoker.
        for _ in range(3):
            invokers[0].submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
        assert index.any_queued()
        assert index.depths_for("act-a") == {0: 2}
        assert list(index.queued_actions()) == ["act-a"]
        loop.run(until=10.0)
        # Drained queues leave no empty inner maps behind.
        assert not index.any_queued()
        assert index._depths == {}
        assert index._warm == {"act-a": {0}}
        index.verify()

    def test_warm_aware_choose_matches_reference_scan(self):
        # Drive the cluster into a mixed warm/cold, mixed-load state and
        # compare the indexed argmin against the snapshot-based reference
        # scan for every action and penalty.
        loop, invokers = _cluster(4)
        index = ClusterIndex(invokers)
        specs = [_spec(f"act-{i}") for i in range(3)]
        invokers[0].deploy(specs[0], containers=1, max_containers=1)
        invokers[1].deploy(specs[0], containers=1, max_containers=1)
        invokers[1].deploy(specs[1], containers=1, max_containers=1)
        invokers[3].deploy(specs[2], containers=1, max_containers=1)
        for invoker in invokers:
            for spec in specs:
                if not invoker.hosts(spec.name):
                    invoker.register(spec, max_containers=1)
        for _ in range(2):
            invokers[1].submit(
                Invocation(action="act-0", payload=b"x"), lambda inv: None
            )
        invokers[3].submit(
            Invocation(action="act-2", payload=b"x"), lambda inv: None
        )
        index.verify()
        snapshots = [invoker.snapshot() for invoker in invokers]
        for action in ("act-0", "act-1", "act-2"):
            for penalty in (0.0, 0.5, 2.0, 32.0):
                expected = reference_routing.warm_aware_choose(
                    snapshots, action, penalty
                )
                assert index.warm_aware_choose(action, penalty) == expected

    def test_warm_aware_choose_with_no_warm_invoker_is_least_loaded(self):
        loop, invokers = _cluster(3)
        index = ClusterIndex(invokers)
        # "act-x" deployed nowhere: everyone pays the same penalty.
        assert index.warm_aware_choose("act-x", 32.0) == index.least_loaded()


class TestSchedulerIndexWiring:
    def test_index_built_only_when_a_consumer_exists(self):
        loop, invokers = _cluster(3)
        assert Scheduler(invokers, WarmAwarePolicy()).index is not None
        assert Scheduler(invokers, LeastLoadedPolicy()).index is not None
        assert Scheduler(
            invokers, RoundRobinPolicy(), work_stealing=True
        ).index is not None
        # No index consumer: round-robin without stealing.
        assert Scheduler(invokers, RoundRobinPolicy()).index is None
        # Single invoker: no routing decision to index.
        loop2, solo = _cluster(1)
        assert Scheduler(solo, WarmAwarePolicy()).index is None

    @staticmethod
    def _instant_steal_input():
        # One saturated growth-exhausted victim, one idle warm thief.
        loop, invokers = _cluster(2)
        scheduler = Scheduler(
            invokers, RoundRobinPolicy(), work_stealing=True,
            boot_steal_min_queue=2,
        )
        spec = _spec("act-a")
        invokers[0].deploy(spec, containers=1, max_containers=1)
        invokers[1].deploy(spec, containers=1, max_containers=1)
        return loop, invokers, scheduler, [(0, "act-a")] * 6, {False}

    @staticmethod
    def _tied_victims_input():
        # Two saturated victims whose queues grow to equal depths in turn,
        # and an idle warm thief: ties must go to the lowest position.
        loop, invokers = _cluster(3)
        scheduler = Scheduler(
            invokers, RoundRobinPolicy(), work_stealing=True,
            boot_steal_min_queue=None,
        )
        spec = _spec("act-a")
        for invoker in invokers:
            invoker.deploy(spec, containers=1, max_containers=1)
        return loop, invokers, scheduler, [(0, "act-a"), (1, "act-a")] * 3, {False}

    @staticmethod
    def _boot_steal_input():
        # Three invokers, two actions, every pool growth-exhausted where it
        # is deployed.  Invoker 2 is the victim: its act-b queue, and then
        # its act-a queue, pass boot_steal_min_queue on its single core.
        # Invoker 0 runs one act-a and queues one more below that depth,
        # so act-a's shallowest queue comes first in position order, and
        # its second core with an idle warm act-b makes it an instant-steal
        # thief.  Invoker 1 holds neither action warm but has headroom for
        # both: a boot-steal thief.
        loop = EventLoop()
        invokers = [
            Invoker(loop, cores=cores, invoker_id=f"invoker-{i}")
            for i, cores in enumerate((2, 1, 1))
        ]
        scheduler = Scheduler(
            invokers, RoundRobinPolicy(), work_stealing=True,
            boot_steal_min_queue=3,
        )
        spec_a, spec_b = _spec("act-a"), _spec("act-b")
        for position in (0, 2):
            invokers[position].deploy(spec_a, containers=1, max_containers=1)
            invokers[position].deploy(spec_b, containers=1, max_containers=1)
        invokers[1].register(spec_a, max_containers=1)
        invokers[1].register(spec_b, max_containers=1)
        submissions = (
            [(0, "act-a")] * 2 + [(2, "act-a")] + [(2, "act-b")] * 4
            + [(2, "act-a")] * 3
        )
        return loop, invokers, scheduler, submissions, {False, True}

    def test_indexed_find_steal_matches_scan(self):
        # The index-driven steal search must agree with the scan oracle at
        # every point of the drain, including "no steal possible", with
        # one per-pass candidate list shared across all thieves.
        for build in (
            self._instant_steal_input,
            self._tied_victims_input,
            self._boot_steal_input,
        ):
            loop, invokers, scheduler, submissions, kinds = build()
            assert scheduler.index is not None
            seen = set()

            def agree() -> None:
                candidates = scheduler._steal_candidates()
                for thief in invokers:
                    expected = reference_routing.find_steal(
                        invokers, thief, scheduler.boot_steal_min_queue
                    )
                    assert scheduler._find_steal(thief, candidates) == expected
                    if expected is not None:
                        seen.add(expected[2])

            for position, action in submissions:
                # The scheduler's own rebalance is what normally runs;
                # here the search and its oracle are compared directly
                # while the victim's queues build up.
                invokers[position].submit(
                    Invocation(action=action, payload=b"x"), lambda inv: None
                )
                agree()
            while loop.step():
                agree()
            scheduler.index.verify()
            # Each input reaches the steal kinds it was built for.
            assert seen == kinds

    def test_the_index_counts_queues_deep_enough_to_boot_steal(self):
        # The steal filter's boot check reads one count: the queues at
        # least boot_steal_min_queue deep.  verify() recounts it at every
        # step while both of the victim's queues pass the depth and drain.
        loop, invokers, scheduler, submissions, _kinds = self._boot_steal_input()
        index = scheduler.index
        assert index is not None and index.boot_steal_min_queue == 3
        counts = []
        for position, action in submissions:
            invokers[position].submit(
                Invocation(action=action, payload=b"x"), lambda inv: None
            )
            index.verify()
            counts.append(index.deep_queues)
        while loop.step():
            index.verify()
        assert max(counts) == 2  # act-b, then act-a, on invoker 2
        assert index.deep_queues == 0
        # Without stealing nothing reads the count, so nothing keeps it.
        _loop, solo = _cluster(2)
        assert Scheduler(solo, WarmAwarePolicy()).index.boot_steal_min_queue is None


class TestInvokerSurfaces:
    def test_snapshot_cached_until_state_changes(self):
        loop, invokers = _cluster(1)
        invoker = invokers[0]
        invoker.deploy(_spec("act-a"), containers=1, max_containers=2)
        first = invoker.snapshot()
        assert invoker.snapshot() is first  # no mutation: same object
        invoker.submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        second = invoker.snapshot()
        assert second is not first
        assert second.load != first.load
        assert invoker.snapshot() is second
        loop.run(until=10.0)
        assert invoker.snapshot() is not second  # completion invalidated it

    def test_load_matches_snapshot_load(self):
        loop, invokers = _cluster(2, cores=2)
        invoker = invokers[0]
        invoker.deploy(_spec("act-a"), containers=1, max_containers=2)
        for _ in range(4):
            invoker.submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
            assert invoker.load == invoker.snapshot().load
            assert invoker.queued_uncovered() >= 0
        loop.run(until=10.0)
        assert invoker.load == invoker.snapshot().load == 0

    def test_queued_by_tenant_aggregates_with_counter(self):
        loop, invokers = _cluster(2)
        scheduler = Scheduler(invokers, RoundRobinPolicy())
        spec_a, spec_b = _spec("act-a"), _spec("act-b")
        for invoker in invokers:
            invoker.deploy(spec_a, containers=1, max_containers=1)
            invoker.deploy(spec_b, containers=1, max_containers=1)
        # Fill both invokers' queues from two tenants across two actions.
        for tenant, action, count in (
            ("alice", "act-a", 3),
            ("bob", "act-a", 2),
            ("bob", "act-b", 4),
        ):
            for _ in range(count):
                scheduler.submit(
                    Invocation(action=action, payload=b"x", caller=tenant),
                    lambda inv: None,
                )
        totals = scheduler.queued_by_tenant()
        assert totals == {
            tenant: sum(
                invoker.queued_by_tenant().get(tenant, 0)
                for invoker in invokers
            )
            for tenant in ("alice", "bob")
        }
        # Cluster-wide totals equal submissions minus whatever already
        # occupies a core (one per invoker per action at most here).
        running = sum(inv.cores_in_use for inv in invokers)
        assert sum(totals.values()) == 9 - running
