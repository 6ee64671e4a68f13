"""Tests for the simulated address space: mappings, faults, tracking, CoW."""

from __future__ import annotations

import pytest

from repro.config import PAGE_SIZE
from repro.errors import MappingError, SegmentationFault
from repro.baselines.registry import create_mechanism
from repro.mem.address_space import AddressSpace, MeterSnapshot
from repro.mem.layout import MemoryLayout
from repro.mem.page import Protection
from repro.mem.vma import Vma, VmaKind
from repro.sim.costs import CostModel
from repro.workloads import find_benchmark


@pytest.fixture
def space() -> AddressSpace:
    return AddressSpace(CostModel())


class TestMapping:
    def test_mmap_creates_page_aligned_vma(self, space):
        vma = space.mmap(3 * PAGE_SIZE + 1)
        assert vma.num_pages == 4
        assert vma.start % PAGE_SIZE == 0
        assert space.total_mapped_pages == 4

    def test_mmap_rejects_nonpositive_length(self, space):
        with pytest.raises(MappingError):
            space.mmap(0)

    def test_mmap_fixed_address(self, space):
        vma = space.mmap(PAGE_SIZE, address=0x10000000)
        assert vma.start == 0x10000000

    def test_mmap_fixed_address_must_be_aligned(self, space):
        with pytest.raises(MappingError):
            space.mmap(PAGE_SIZE, address=123)

    def test_mmap_overlap_rejected(self, space):
        space.mmap(4 * PAGE_SIZE, address=0x10000000)
        with pytest.raises(MappingError):
            space.mmap(PAGE_SIZE, address=0x10000000 + PAGE_SIZE)

    def test_mmap_populate_makes_pages_resident(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        assert space.capture().num_pages == 4
        pages = range(vma.first_page, vma.first_page + vma.num_pages)
        assert all(space.is_resident(p) for p in pages)

    def test_munmap_removes_pages_and_mapping(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        dropped = space.munmap(vma.start, vma.length)
        assert dropped == 4
        assert space.total_mapped_pages == 0
        assert space.capture().num_pages == 0

    def test_munmap_partial_splits_vma(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        space.munmap(vma.start + PAGE_SIZE, PAGE_SIZE)
        assert space.total_mapped_pages == 3
        assert len(space.vmas) == 2

    def test_mprotect_changes_protection(self, space):
        vma = space.mmap(2 * PAGE_SIZE)
        space.mprotect(vma.start, PAGE_SIZE, Protection.r())
        protections = {v.prot for v in space.vmas}
        assert Protection.r() in protections
        assert Protection.rw() in protections

    def test_mprotect_unmapped_range_rejected(self, space):
        with pytest.raises(MappingError):
            space.mprotect(0x500000, PAGE_SIZE, Protection.r())

    def test_madvise_dontneed_drops_contents_keeps_mapping(self, space):
        vma = space.mmap(2 * PAGE_SIZE)
        space.write_page(vma.first_page, b"data")
        dropped = space.madvise_dontneed(vma.start, vma.length)
        assert dropped == 1
        assert space.total_mapped_pages == 2
        assert space.page_content(vma.first_page) == b""

    def test_map_stack_is_separate_region(self, space):
        stack = space.map_stack(8 * PAGE_SIZE)
        assert stack.kind is VmaKind.STACK
        assert space.find_vma(stack.start) == stack


class TestBrk:
    def test_brk_grows_heap(self, space):
        new_brk = space.set_brk(space.brk_base + 4 * PAGE_SIZE)
        assert new_brk == space.brk_base + 4 * PAGE_SIZE
        heap = space.find_vma(space.brk_base)
        assert heap is not None and heap.kind is VmaKind.HEAP

    def test_brk_shrink_drops_pages(self, space):
        space.set_brk(space.brk_base + 4 * PAGE_SIZE)
        space.write_page(space.brk_base // PAGE_SIZE + 3, b"top")
        space.set_brk(space.brk_base + PAGE_SIZE)
        assert not space.is_resident(space.brk_base // PAGE_SIZE + 3)

    def test_brk_below_base_rejected(self, space):
        with pytest.raises(MappingError):
            space.set_brk(space.brk_base - PAGE_SIZE)

    def test_sbrk_adjusts_relative(self, space):
        space.sbrk(2 * PAGE_SIZE)
        assert space.brk == space.brk_base + 2 * PAGE_SIZE

    def test_brk_shrink_to_base_removes_heap_vma(self, space):
        space.set_brk(space.brk_base + 2 * PAGE_SIZE)
        space.set_brk(space.brk_base)
        assert space.find_vma(space.brk_base) is None

    @staticmethod
    def _split_heap(space):
        """A four-page heap whose top half ``mprotect`` made read-only."""
        space.set_brk(space.brk_base + 4 * PAGE_SIZE)
        space.mprotect(space.brk_base + 2 * PAGE_SIZE, 2 * PAGE_SIZE, Protection.r())

    @staticmethod
    def _heap_pieces(space):
        """``(first, end, prot)`` of each mapping, in pages past the heap base."""
        base = space.brk_base
        return [
            ((vma.start - base) // PAGE_SIZE, (vma.end - base) // PAGE_SIZE, vma.prot)
            for vma in space.vmas
        ]

    def test_brk_grows_a_split_heap_at_the_break(self, space):
        self._split_heap(space)
        space.set_brk(space.brk_base + 6 * PAGE_SIZE)
        # The read-only top piece keeps its protection; the new pages are
        # a read-write heap piece of their own, which the next growth extends.
        space.set_brk(space.brk_base + 8 * PAGE_SIZE)
        rw, r = Protection.rw(), Protection.r()
        assert self._heap_pieces(space) == [(0, 2, rw), (2, 4, r), (4, 8, rw)]
        assert all(vma.kind is VmaKind.HEAP for vma in space.vmas)

    def test_brk_shrink_unmaps_every_heap_piece_above_the_break(self, space):
        self._split_heap(space)
        space.kernel_write_range(space.brk_base // PAGE_SIZE + 3, 1, b"top")
        space.set_brk(space.brk_base + PAGE_SIZE)
        assert self._heap_pieces(space) == [(0, 1, Protection.rw())]
        assert not space.is_resident(space.brk_base // PAGE_SIZE + 3)

    def test_brk_into_a_mapping_rejected(self, space):
        anon = space.mmap(4 * PAGE_SIZE, address=space.brk_base + 8 * PAGE_SIZE)
        with pytest.raises(MappingError):
            space.set_brk(space.brk_base + 16 * PAGE_SIZE)
        assert space.brk == space.brk_base
        assert space.vmas == (anon,)
        space.set_brk(space.brk_base + 8 * PAGE_SIZE)
        with pytest.raises(MappingError):
            space.sbrk(PAGE_SIZE)
        assert space.total_mapped_pages == 12


class TestAccessAndFaults:
    def test_write_to_unmapped_address_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.write(0xDEAD0000, b"x")

    def test_write_to_readonly_mapping_faults(self, space):
        vma = space.mmap(PAGE_SIZE, Protection.r())
        with pytest.raises(SegmentationFault):
            space.write_page(vma.first_page, b"x")

    def test_read_of_unmapped_address_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0xDEAD0000)

    def test_first_write_takes_minor_fault(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.write_page(vma.first_page, b"hello")
        assert space.meter.counters.minor_faults == 1
        assert space.page_content(vma.first_page) == b"hello"

    def test_second_write_to_same_page_takes_no_fault(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.write_page(vma.first_page, b"a")
        space.write_page(vma.first_page, b"b")
        assert space.meter.counters.minor_faults == 1
        assert space.meter.counters.soft_dirty_faults == 0

    def test_soft_dirty_fault_only_after_tracking_armed(self, space):
        vma = space.mmap(PAGE_SIZE, populate=True)
        space.write_page(vma.first_page, b"a")
        assert space.meter.counters.soft_dirty_faults == 0
        space.clear_soft_dirty()
        space.write_page(vma.first_page, b"b")
        assert space.meter.counters.soft_dirty_faults == 1

    def test_soft_dirty_bits_track_writes(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        space.clear_soft_dirty()
        assert space.soft_dirty_page_numbers() == set()
        space.write_page(vma.first_page, b"x")
        space.write_page(vma.first_page + 2, b"y")
        assert space.soft_dirty_page_numbers() == {vma.first_page, vma.first_page + 2}

    def test_write_range_rejects_negative_count(self, space):
        vma = space.mmap(4 * PAGE_SIZE)
        with pytest.raises(MappingError):
            space.write_range(vma.first_page, -3, b"x")
        space.write_range(vma.first_page, 0, b"x")
        assert space.meter.counters == MeterSnapshot()
        assert space.capture().num_pages == 0

    def test_write_range_dirties_every_page(self, space):
        vma = space.mmap(10 * PAGE_SIZE)
        space.write_range(vma.first_page, 10, b"bulk")
        assert len(space.soft_dirty_page_numbers()) == 10
        assert space.meter.counters.pages_written == 10

    def test_read_page_returns_zero_content_for_untouched_page(self, space):
        vma = space.mmap(PAGE_SIZE)
        assert space.read_page(vma.first_page) == b""

    def test_touch_read_range_charges_reads(self, space):
        vma = space.mmap(8 * PAGE_SIZE, populate=True)
        space.touch_read_range(vma.first_page, 8)
        assert space.meter.counters.pages_read == 8

    def test_fault_costs_are_added_one_fault_at_a_time(self, space):
        vma = space.mmap(64 * PAGE_SIZE)
        space.write_range(vma.first_page, 64, b"x")
        expected = 0.0
        for _ in range(64):
            expected += space.cost_model.minor_fault_seconds
        assert space.meter.counters.cost_seconds == expected

    def test_meter_checkpoint_delta(self, space):
        vma = space.mmap(4 * PAGE_SIZE)
        checkpoint = space.meter.checkpoint()
        space.write_range(vma.first_page, 4, b"x")
        delta = space.meter.since(checkpoint)
        assert delta.pages_written == 4
        assert delta.minor_faults == 4
        assert delta.cost_seconds > 0


class TestKernelSideAccess:
    def test_kernel_write_does_not_charge_function_faults(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.kernel_write_range(vma.first_page, 1, b"restored")
        assert space.meter.counters.minor_faults == 0
        assert space.page_content(vma.first_page) == b"restored"

    def test_kernel_write_outside_mapping_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.kernel_write_range(0xDEAD, 1, b"x")

    def test_kernel_read_of_non_resident_page_is_zero(self, space):
        vma = space.mmap(PAGE_SIZE)
        assert space.kernel_read_page(vma.first_page) == b""

    def test_kernel_drop_page_removes_residency(self, space):
        vma = space.mmap(PAGE_SIZE, populate=True)
        assert space.kernel_drop_runs(((vma.first_page, vma.first_page + 1),)) == 1
        assert not space.is_resident(vma.first_page)


class TestFork:
    def test_fork_shares_content_copy_on_write(self, space):
        vma = space.mmap(2 * PAGE_SIZE)
        space.write_page(vma.first_page, b"parent")
        child = space.fork()
        child.write_page(vma.first_page, b"child")
        assert space.page_content(vma.first_page) == b"parent"
        assert child.page_content(vma.first_page) == b"child"

    def test_child_write_charges_cow_fault(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.write_page(vma.first_page, b"p")
        child = space.fork()
        child.write_page(vma.first_page, b"c")
        assert child.meter.counters.cow_faults == 1

    def test_parent_write_after_fork_also_pays_cow(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.write_page(vma.first_page, b"p")
        space.fork()
        space.write_page(vma.first_page, b"p2")
        assert space.meter.counters.cow_faults == 1

    def test_child_first_read_pays_first_touch(self, space):
        vma = space.mmap(4 * PAGE_SIZE)
        space.write_range(vma.first_page, 4, b"p")
        child = space.fork()
        child.touch_read_range(vma.first_page, 4)
        assert child.meter.counters.first_touch_faults == 4

    def test_fork_share_counts_follow_copy_on_write(self, space):
        vma = space.mmap(2 * PAGE_SIZE, populate=True)
        page = vma.first_page
        assert space.page_state(page).shares == 1
        first = space.fork()
        second = space.fork()
        assert [s.page_state(page).shares for s in (space, first, second)] == [3, 3, 3]
        first.write_page(page, b"private")
        assert first.page_state(page).shares == 1
        assert space.page_state(page).shares == second.page_state(page).shares == 2
        assert space.page_state(page + 1).shares == 3
        space.munmap(vma.start, vma.length)
        assert second.page_state(page).shares == 1
        assert second.page_state(page).cow

    def test_fork_preserves_layout(self, space):
        space.mmap(2 * PAGE_SIZE)
        space.set_brk(space.brk_base + PAGE_SIZE)
        child = space.fork()
        assert child.layout() == space.layout()


class TestWriteProtection:
    def test_uffd_handler_invoked_on_write(self, space):
        vma = space.mmap(2 * PAGE_SIZE, populate=True)
        written = []
        space.arm_write_protection(written.append)
        space.write_page(vma.first_page, b"x")
        assert written == [vma.first_page]
        assert space.meter.counters.uffd_faults == 1

    def test_uffd_fault_charged_once_per_page(self, space):
        vma = space.mmap(PAGE_SIZE, populate=True)
        space.arm_write_protection()
        space.write_page(vma.first_page, b"a")
        space.write_page(vma.first_page, b"b")
        assert space.meter.counters.uffd_faults == 1


class TestLayoutGeneration:
    """``layout_generation`` moves exactly when mappings or their bounds change."""

    def _moves(self, space, operation):
        before = space.layout_generation
        operation()
        return space.layout_generation != before

    def test_mapping_operations_bump_it(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        assert self._moves(space, lambda: space.mmap(PAGE_SIZE))
        assert self._moves(
            space, lambda: space.mprotect(vma.start, PAGE_SIZE, Protection.r())
        )
        assert self._moves(space, lambda: space.munmap(vma.start, PAGE_SIZE))

    def test_brk_bumps_it_whether_it_maps_or_resizes_the_heap(self, space):
        # Mapping the first heap piece, growing it in place, shrinking it in
        # place and unmapping it are all layout changes.
        assert self._moves(space, lambda: space.sbrk(2 * PAGE_SIZE))
        assert self._moves(space, lambda: space.sbrk(2 * PAGE_SIZE))
        assert self._moves(space, lambda: space.sbrk(-PAGE_SIZE))
        assert self._moves(space, lambda: space.set_brk(space.brk_base))

    def test_page_operations_leave_it(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        page = vma.first_page
        assert not self._moves(space, lambda: space.write_range(page, 2, b"w"))
        assert not self._moves(space, lambda: space.read_page(page))
        assert not self._moves(space, lambda: space.touch_read_range(page, 4))
        assert not self._moves(space, lambda: space.madvise_dontneed(vma.start, PAGE_SIZE))
        assert not self._moves(space, lambda: space.kernel_write_range(page, 1, b"k"))
        assert not self._moves(space, space.clear_soft_dirty)
        assert not self._moves(space, lambda: space.sbrk(0))


def _rebuilt(space):
    """The space's layout built from scratch out of its mappings."""
    return MemoryLayout(tuple(area.vma for area in space._areas), space.brk)


def _assert_shares_unchanged_records(before, after):
    """Every record of ``after`` that ``before`` also has is the same object."""
    for record in after.records:
        if record in before.records:
            assert any(record is old for old in before.records)


def _copied(layout):
    """``layout`` with every record a fresh copy."""
    return MemoryLayout(
        tuple(Vma(r.start, r.end, r.prot, r.kind, r.name) for r in layout.records), layout.brk
    )


class TestLayoutMemo:
    """``layout()`` is built once per generation and shares the space's records."""

    def test_same_object_while_the_generation_holds(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        space.sbrk(2 * PAGE_SIZE)
        layout = space.layout()
        page = vma.first_page
        space.write_range(page, 2, b"w")
        space.read_page(page)
        space.touch_read_range(page, 4)
        space.madvise_dontneed(vma.start, PAGE_SIZE)
        space.clear_soft_dirty()
        space.kernel_write_range(page, 1, b"k")
        space.sbrk(0)
        with pytest.raises(MappingError):
            space.mmap(PAGE_SIZE, address=vma.start)
        assert space.layout() is layout
        assert space.vmas is layout.records

    @pytest.mark.parametrize(
        "change",
        [
            lambda space, vma: space.mmap(PAGE_SIZE, name="late"),
            lambda space, vma: space.munmap(vma.start + PAGE_SIZE, PAGE_SIZE),
            lambda space, vma: space.mprotect(vma.start, 2 * PAGE_SIZE, Protection.r()),
            lambda space, vma: space.sbrk(3 * PAGE_SIZE),
            lambda space, vma: space.sbrk(-PAGE_SIZE),
            lambda space, vma: space.set_brk(space.brk_base),
        ],
        ids=["mmap", "munmap", "mprotect", "brk-up", "brk-down", "brk-to-base"],
    )
    def test_each_mapping_change_gives_a_fresh_equal_layout(self, space, change):
        space.map_stack(2 * PAGE_SIZE)
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        space.sbrk(2 * PAGE_SIZE)
        before = space.layout()
        change(space, vma)
        after = space.layout()
        assert after is not before
        assert after == _rebuilt(space)
        assert after != before
        _assert_shares_unchanged_records(before, after)

    def test_a_fork_child_starts_from_its_parent_layout(self, space):
        space.mmap(2 * PAGE_SIZE, populate=True)
        space.sbrk(PAGE_SIZE)
        parent_layout = space.layout()
        child = space.fork()
        assert child.layout() == parent_layout
        child.mmap(PAGE_SIZE)
        assert child.layout() == _rebuilt(child) != parent_layout
        assert space.layout() is parent_layout

    def test_a_request_leaves_the_snapshot_layout_as_it_was(self):
        # gh-nop takes the snapshot but never restores, so the request's
        # heap growth and a later mprotect stay in the live layout, which
        # shares every other record with the snapshot's.
        mechanism = create_mechanism("gh-nop", find_benchmark("md2html", "p").profile)
        mechanism.initialize()
        snapshot = mechanism.manager.snapshot.layout
        expected = _copied(snapshot)
        space = mechanism.process.address_space
        mechanism.invoke(b"payload", "req-0")
        working = next(vma for vma in space.vmas if vma.name.endswith(".working"))
        space.mprotect(working.start, working.length, Protection.r())
        assert snapshot == expected
        assert space.brk > snapshot.brk
        assert space.layout() == _rebuilt(space) != snapshot
        _assert_shares_unchanged_records(snapshot, space.layout())


class TestMappingHandles:
    def test_handle_calls_equal_the_lookup_calls(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        child = space.fork()
        twin = space.fork()
        page = vma.first_page
        handle = child.mapping_at(page)
        child.write_mapped(handle, page, 2, b"w")
        twin.write_range(page, 2, b"w")
        assert child.read_mapped(handle, page) == twin.read_page(page) == b"w"
        child.touch_read_mapped(handle, page, 4)
        twin.touch_read_range(page, 4)
        assert child.meter.counters == twin.meter.counters
        pages = range(vma.first_page, vma.first_page + vma.num_pages)
        assert [child.page_state(p) for p in pages] == [twin.page_state(p) for p in pages]

    def test_a_write_past_the_handle_continues_into_the_next_mapping(self, space):
        first = space.mmap(2 * PAGE_SIZE, address=0x100 * PAGE_SIZE)
        second = space.mmap(2 * PAGE_SIZE, address=0x102 * PAGE_SIZE)
        space.write_mapped(space.mapping_at(first.first_page), first.first_page, 4, b"w")
        assert space.page_content(second.first_page + second.num_pages - 1) == b"w"
        assert space.meter.counters.pages_written == 4

    def test_unmapped_handle_faults_like_a_lookup(self, space):
        with pytest.raises(SegmentationFault):
            space.write_mapped(space.mapping_at(0x10), 0x10, 1, b"w")
        with pytest.raises(SegmentationFault):
            space.read_mapped(space.mapping_at(0x10), 0x10)
        space.touch_read_mapped(space.mapping_at(0x10), 0x10, 3)
        assert space.meter.counters.pages_read == 3
