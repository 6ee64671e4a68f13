"""Tests for Groundhog's core: tracking, snapshot, syscall plans, restore, manager."""

from __future__ import annotations

import random

import pytest

from repro.config import PAGE_SIZE
from repro.errors import IsolationError, RestoreError, SnapshotError
from repro.core.manager import GroundhogManager, ManagerState
from repro.core.restore import RestoreBreakdown, Restorer
from repro.core.snapshot import Snapshotter
from repro.core.syscalls import build_restore_plan, madvise_calls_for_runs, summarize_plan
from repro.core.tracking import SoftDirtyTracker, UffdWriteTracker
from repro.mem.image import runs_of_pages
from repro.mem.layout import MemoryLayout, diff_layouts
from repro.mem.page import Protection
from repro.mem.vma import Vma, VmaKind
from repro.proc.procfs import ProcFs
from repro.proc.ptrace import Ptrace
from repro.runtime import build_runtime


@pytest.fixture
def warm_runtime(small_python_profile):
    """A booted and warmed runtime (the state Groundhog snapshots)."""
    from repro.proc.process import SimProcess

    runtime = build_runtime(small_python_profile, SimProcess("gh-test"), random.Random(0))
    runtime.boot()
    runtime.warm()
    return runtime


def _snapshot(runtime):
    procfs = ProcFs(runtime.process)
    ptrace = Ptrace(runtime.process)
    snapshotter = Snapshotter(ptrace, procfs)
    snapshot, stats = snapshotter.take()
    return snapshot, stats, procfs, ptrace


class TestTrackers:
    def test_soft_dirty_tracker_collects_write_set(self, warm_runtime):
        procfs = ProcFs(warm_runtime.process)
        tracker = SoftDirtyTracker(procfs)
        tracker.arm()
        warm_runtime.invoke(b"x", "r1")
        collection = tracker.collect()
        assert len(collection.dirty_pages) > 0
        assert collection.scanned_pages == warm_runtime.process.address_space.total_mapped_pages
        assert collection.collect_seconds > 0

    def test_soft_dirty_rearm_clears_previous_set(self, warm_runtime):
        procfs = ProcFs(warm_runtime.process)
        tracker = SoftDirtyTracker(procfs)
        tracker.arm()
        warm_runtime.invoke(b"x", "r1")
        tracker.collect()
        tracker.arm()
        assert tracker.collect().dirty_pages == ()

    def test_uffd_tracker_collects_same_pages_as_soft_dirty(self, warm_runtime):
        space = warm_runtime.process.address_space
        procfs = ProcFs(warm_runtime.process)
        uffd = UffdWriteTracker(procfs)
        soft = SoftDirtyTracker(procfs)
        soft.arm()
        uffd.arm()
        warm_runtime.invoke(b"x", "r1")
        uffd_pages = set(uffd.collect().dirty_pages)
        sd_pages = set(soft.collect().dirty_pages)
        # UFFD only sees writes to pages that were resident when it armed;
        # soft-dirty also flags newly allocated pages.
        assert uffd_pages <= sd_pages
        assert len(uffd_pages) > 0

    def test_uffd_faults_are_more_expensive_in_function(self, small_python_profile):
        from repro.proc.process import SimProcess

        def in_function_cost(tracker_cls):
            runtime = build_runtime(small_python_profile, SimProcess("t"), random.Random(0))
            runtime.boot()
            runtime.warm()
            procfs = ProcFs(runtime.process)
            tracker = tracker_cls(procfs)
            tracker.arm()
            result = runtime.invoke(b"x", "r1")
            return result.faults.cost_seconds(runtime.process.cost_model)

        assert in_function_cost(UffdWriteTracker) > in_function_cost(SoftDirtyTracker)


class TestSnapshotter:
    def test_snapshot_captures_threads_layout_and_pages(self, warm_runtime):
        snapshot, stats, _, _ = _snapshot(warm_runtime)
        space = warm_runtime.process.address_space
        assert snapshot.num_threads == warm_runtime.process.num_threads
        assert snapshot.num_pages == space.capture().num_pages
        assert snapshot.layout == space.layout()
        assert snapshot.brk == space.brk
        assert stats.total_seconds > 0
        assert stats.pages_captured == snapshot.num_pages

    def test_snapshot_resets_soft_dirty_bits(self, warm_runtime):
        _snapshot(warm_runtime)
        assert warm_runtime.process.address_space.soft_dirty_page_numbers() == set()

    def test_snapshot_leaves_process_running(self, warm_runtime):
        _snapshot(warm_runtime)
        assert warm_runtime.process.state.value == "running"

    def test_snapshot_of_exited_process_fails(self, warm_runtime):
        warm_runtime.process.exit()
        procfs = ProcFs(warm_runtime.process)
        ptrace = Ptrace(warm_runtime.process)
        with pytest.raises(SnapshotError):
            Snapshotter(ptrace, procfs).take()

    def test_snapshot_cost_scales_with_resident_pages(self, small_python_profile, small_node_profile):
        from repro.proc.process import SimProcess

        def snapshot_seconds(profile):
            runtime = build_runtime(profile, SimProcess(profile.name), random.Random(0))
            runtime.boot()
            runtime.warm()
            _, stats, _, _ = _snapshot(runtime)
            return stats.total_seconds

        assert snapshot_seconds(small_node_profile) > snapshot_seconds(small_python_profile)


def _record(start_page, pages, prot=Protection.rw(), kind=VmaKind.ANON, name=""):
    return Vma(start=start_page * PAGE_SIZE, end=(start_page + pages) * PAGE_SIZE,
                     prot=prot, kind=kind, name=name)


class TestSyscallPlans:
    def test_added_region_is_unmapped(self):
        old = MemoryLayout(records=(), brk=0)
        new = MemoryLayout(records=(_record(10, 2, name="scratch"),), brk=0)
        plan = build_restore_plan(diff_layouts(old, new))
        assert summarize_plan(plan) == {"munmap": 1}

    def test_removed_region_is_remapped(self):
        old = MemoryLayout(records=(_record(10, 2, name="lib"),), brk=0)
        new = MemoryLayout(records=(), brk=0)
        plan = build_restore_plan(diff_layouts(old, new))
        assert summarize_plan(plan) == {"mmap": 1}

    def test_grown_region_is_trimmed(self):
        old = MemoryLayout(records=(_record(10, 2, name="arena"),), brk=0)
        new = MemoryLayout(records=(_record(10, 6, name="arena"),), brk=0)
        plan = build_restore_plan(diff_layouts(old, new))
        assert summarize_plan(plan) == {"munmap": 1}
        call = plan[0]
        assert call.args == (12 * PAGE_SIZE, 4 * PAGE_SIZE)

    def test_shrunk_region_is_reextended(self):
        old = MemoryLayout(records=(_record(10, 6, name="arena"),), brk=0)
        new = MemoryLayout(records=(_record(10, 2, name="arena"),), brk=0)
        plan = build_restore_plan(diff_layouts(old, new))
        assert summarize_plan(plan) == {"mmap": 1}

    def test_protection_change_reverted(self):
        old = MemoryLayout(records=(_record(10, 2, name="a", prot=Protection.rw()),), brk=0)
        new = MemoryLayout(records=(_record(10, 2, name="a", prot=Protection.r()),), brk=0)
        plan = build_restore_plan(diff_layouts(old, new))
        assert summarize_plan(plan) == {"mprotect": 1}

    def test_heap_changes_handled_only_by_brk(self):
        heap_old = _record(100, 4, kind=VmaKind.HEAP, name="[heap]")
        heap_new = _record(100, 10, kind=VmaKind.HEAP, name="[heap]")
        old = MemoryLayout(records=(heap_old,), brk=104 * PAGE_SIZE)
        new = MemoryLayout(records=(heap_new,), brk=110 * PAGE_SIZE)
        plan = build_restore_plan(diff_layouts(old, new))
        assert summarize_plan(plan) == {"brk": 1}

    def test_empty_diff_produces_empty_plan(self):
        layout = MemoryLayout(records=(_record(1, 1),), brk=0)
        assert build_restore_plan(diff_layouts(layout, layout)) == []

    def test_madvise_calls_coalesce_contiguous_runs(self):
        calls = madvise_calls_for_runs(runs_of_pages([31, 10, 11, 12, 20, 30]))
        assert len(calls) == 3
        first = calls[0]
        assert first.args == (10 * PAGE_SIZE, 3 * PAGE_SIZE)

    def test_madvise_calls_empty_input(self):
        assert madvise_calls_for_runs(runs_of_pages([])) == []


class TestRestorer:
    def _make_restorer(self, runtime):
        procfs = ProcFs(runtime.process)
        ptrace = Ptrace(runtime.process)
        snapshot, _, _, _ = _snapshot(runtime)
        return Restorer(ptrace, procfs), snapshot

    def test_restore_reverts_memory_content_and_layout(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        warm_runtime.invoke(b"alice-secret", "r1")
        result = restorer.restore(snapshot, verify=True)
        assert result.verified
        buffer = warm_runtime.read_request_buffer()
        assert b"alice-secret" not in buffer

    def test_restore_reports_breakdown_summing_to_total(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        warm_runtime.invoke(b"x", "r1")
        result = restorer.restore(snapshot)
        breakdown = result.breakdown
        assert breakdown.total_seconds == pytest.approx(
            sum(breakdown.as_dict().values())
        )
        assert breakdown.scanning_page_metadata > 0
        assert breakdown.restoring_memory > 0

    def test_restore_counts_reflect_write_set(self, warm_runtime, small_python_profile):
        restorer, snapshot = self._make_restorer(warm_runtime)
        warm_runtime.invoke(b"x", "r1")
        result = restorer.restore(snapshot)
        assert result.dirty_pages == pytest.approx(
            small_python_profile.dirtied_pages, rel=0.4
        )
        assert result.pages_restored > 0
        # The scan covered the pre-restore layout, which is at least as large
        # as the restored (snapshot) layout.
        assert result.pages_scanned >= warm_runtime.process.address_space.total_mapped_pages

    def test_restore_is_idempotent(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        warm_runtime.invoke(b"x", "r1")
        restorer.restore(snapshot, verify=True)
        second = restorer.restore(snapshot, verify=True)
        assert second.pages_restored == 0
        assert second.dirty_pages == 0

    def test_restore_registers(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        before = warm_runtime.process.main_thread.get_registers()
        warm_runtime.invoke(b"x", "r1")
        assert warm_runtime.process.main_thread.get_registers() != before
        restorer.restore(snapshot, verify=True)
        assert warm_runtime.process.main_thread.get_registers() == before

    def test_repeated_invoke_restore_cycles_stay_clean(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        for index in range(5):
            warm_runtime.invoke(f"secret-{index}".encode(), f"r{index}")
            restorer.restore(snapshot, verify=True)
            assert f"secret-{index}".encode() not in warm_runtime.read_request_buffer()

    def test_verify_detects_unrestored_state(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        warm_runtime.invoke(b"dirty", "r1")
        with pytest.raises(RestoreError):
            restorer.verify(snapshot)

    def test_breakdown_fractions_sum_to_one(self, warm_runtime):
        restorer, snapshot = self._make_restorer(warm_runtime)
        warm_runtime.invoke(b"x", "r1")
        result = restorer.restore(snapshot)
        assert sum(result.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_zero_breakdown_fractions(self):
        assert sum(RestoreBreakdown().fractions().values()) == 0.0

    def test_breakdown_total_adds_the_steps_in_display_order(self):
        # total_seconds is sum(self): the fields must be the display order,
        # so it sums what summing the steps by name in that order sums.
        assert RestoreBreakdown._fields == RestoreBreakdown.STEP_ORDER
        steps = RestoreBreakdown(*(0.1 * (index + 1) for index in range(13)))
        expected = sum(getattr(steps, step) for step in RestoreBreakdown.STEP_ORDER)
        assert steps.total_seconds == expected
        assert list(steps.as_dict()) == list(RestoreBreakdown.STEP_ORDER)


class TestGroundhogManager:
    def _manager(self, runtime):
        manager = GroundhogManager(runtime)
        manager.take_snapshot()
        return manager

    def test_requests_blocked_before_snapshot(self, warm_runtime):
        manager = GroundhogManager(warm_runtime)
        with pytest.raises(IsolationError):
            manager.handle_request(b"x", "r1")

    def test_request_then_restore_cycle(self, warm_runtime):
        manager = self._manager(warm_runtime)
        managed = manager.handle_request(b"alice", "r1")
        assert managed.interposition_seconds > 0
        assert manager.state is ManagerState.TAINTED
        result = manager.restore(verify=True)
        assert manager.state is ManagerState.READY
        assert result.pages_restored > 0

    def test_second_request_blocked_until_restore(self, warm_runtime):
        manager = self._manager(warm_runtime)
        manager.handle_request(b"alice", "r1")
        with pytest.raises(IsolationError):
            manager.handle_request(b"bob", "r2")
        manager.restore()
        manager.handle_request(b"bob", "r2")

    def test_skip_restore_marks_clean_without_rollback(self, warm_runtime):
        manager = self._manager(warm_runtime)
        manager.handle_request(b"alice-secret", "r1")
        manager.skip_restore()
        assert manager.restores_skipped == 1
        managed = manager.handle_request(b"bob", "r2")
        # Without a rollback, Alice's data is still visible to Bob.
        assert b"alice-secret" in managed.result.residual

    def test_double_snapshot_rejected(self, warm_runtime):
        manager = self._manager(warm_runtime)
        with pytest.raises(SnapshotError):
            manager.take_snapshot()

    def test_restore_before_snapshot_rejected(self, warm_runtime):
        manager = GroundhogManager(warm_runtime)
        with pytest.raises(RestoreError):
            manager.restore()

    def test_interposition_cost_scales_with_payload(self, warm_runtime):
        manager = self._manager(warm_runtime)
        small = manager.handle_request(b"x" * 10, "r1").interposition_seconds
        manager.restore()
        large = manager.handle_request(b"x" * 200_000, "r2").interposition_seconds
        assert large > small

    def test_counters_track_activity(self, warm_runtime):
        manager = self._manager(warm_runtime)
        manager.handle_request(b"a", "r1")
        manager.restore()
        manager.handle_request(b"b", "r2")
        manager.restore()
        assert manager.requests_forwarded == 2
        assert manager.restores_performed == 2
