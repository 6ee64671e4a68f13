"""Tests for protections, VMAs, the pagemap view and layout diffing."""

from __future__ import annotations

import pytest

from repro.config import PAGE_SIZE
from repro.errors import MappingError
from repro.mem.address_space import AddressSpace
from repro.mem.layout import MemoryLayout, diff_layouts
from repro.mem.page import Protection
from repro.mem.pagemap import PagemapView
from repro.mem.vma import Vma, VmaKind


class TestVma:
    def test_bounds_must_be_page_aligned(self):
        with pytest.raises(MappingError):
            Vma(start=1, end=PAGE_SIZE, prot=Protection.rw())

    def test_positive_length_required(self):
        with pytest.raises(MappingError):
            Vma(start=PAGE_SIZE, end=PAGE_SIZE, prot=Protection.rw())

    def test_page_accessors(self):
        vma = Vma(start=2 * PAGE_SIZE, end=5 * PAGE_SIZE, prot=Protection.rw())
        assert vma.num_pages == 3
        assert vma.first_page == 2

    def test_contains_and_overlaps(self):
        vma = Vma(start=0, end=2 * PAGE_SIZE, prot=Protection.rw())
        assert vma.contains(PAGE_SIZE)
        assert not vma.contains(2 * PAGE_SIZE)
        assert vma.overlaps(PAGE_SIZE, 3 * PAGE_SIZE)
        assert not vma.overlaps(2 * PAGE_SIZE, 3 * PAGE_SIZE)


class TestPagemapView:
    def test_scan_finds_only_dirty_pages(self):
        space = AddressSpace()
        vma = space.mmap(8 * PAGE_SIZE, populate=True)
        space.clear_soft_dirty()
        space.write_page(vma.first_page + 3, b"x")
        result = PagemapView(space).scan_mapped()
        assert result.dirty_pages == (vma.first_page + 3,)
        assert result.scanned_pages == 8

    def test_scan_cost_proportional_to_mapped_pages(self):
        space = AddressSpace()
        space.mmap(100 * PAGE_SIZE)
        small = PagemapView(space).scan_mapped().cost_seconds
        space.mmap(900 * PAGE_SIZE)
        large = PagemapView(space).scan_mapped().cost_seconds
        assert large == pytest.approx(small * 10, rel=0.01)

def _record(start_page: int, pages: int, prot=Protection.rw(), kind=VmaKind.ANON, name=""):
    return Vma(
        start=start_page * PAGE_SIZE,
        end=(start_page + pages) * PAGE_SIZE,
        prot=prot,
        kind=kind,
        name=name,
    )


class TestLayoutDiff:
    def test_identical_layouts_produce_empty_diff(self):
        layout = MemoryLayout(records=(_record(1, 4, name="a"),), brk=0x2000000)
        diff = diff_layouts(layout, layout)
        assert diff.added == diff.removed == diff.changed == ()
        assert not diff.brk_changed

    def test_added_region_detected(self):
        old = MemoryLayout(records=(_record(1, 4, name="a"),), brk=0)
        new = MemoryLayout(records=(_record(1, 4, name="a"), _record(10, 2, name="b")), brk=0)
        diff = diff_layouts(old, new)
        assert [r.name for r in diff.added] == ["b"]
        assert not diff.removed

    def test_removed_region_detected(self):
        old = MemoryLayout(records=(_record(1, 4, name="a"), _record(10, 2, name="b")), brk=0)
        new = MemoryLayout(records=(_record(1, 4, name="a"),), brk=0)
        diff = diff_layouts(old, new)
        assert [r.name for r in diff.removed] == ["b"]

    def test_grown_region_detected(self):
        old = MemoryLayout(records=(_record(1, 4, name="a"),), brk=0)
        new = MemoryLayout(records=(_record(1, 8, name="a"),), brk=0)
        diff = diff_layouts(old, new)
        assert len(diff.changed) == 1
        change = diff.changed[0]
        assert change.grew
        assert change.current.num_pages - change.snapshot.num_pages == 4

    def test_shrunk_region_detected(self):
        old = MemoryLayout(records=(_record(1, 8, name="a"),), brk=0)
        new = MemoryLayout(records=(_record(1, 4, name="a"),), brk=0)
        diff = diff_layouts(old, new)
        assert diff.changed[0].shrank

    def test_protection_change_detected(self):
        old = MemoryLayout(records=(_record(1, 4, name="a", prot=Protection.rw()),), brk=0)
        new = MemoryLayout(records=(_record(1, 4, name="a", prot=Protection.r()),), brk=0)
        diff = diff_layouts(old, new)
        assert diff.changed[0].prot_changed

    def test_brk_change_detected(self):
        old = MemoryLayout(records=(), brk=100 * PAGE_SIZE)
        new = MemoryLayout(records=(), brk=200 * PAGE_SIZE)
        diff = diff_layouts(old, new)
        assert diff.brk_changed
        assert diff.added == diff.removed == diff.changed == ()

    def test_num_operations_counts_all_changes(self):
        old = MemoryLayout(
            records=(_record(1, 4, name="a"), _record(10, 2, name="gone")), brk=0
        )
        new = MemoryLayout(
            records=(_record(1, 8, name="a"), _record(20, 2, name="new")), brk=PAGE_SIZE
        )
        diff = diff_layouts(old, new)
        assert [r.name for r in diff.added] == ["new"]
        assert [r.name for r in diff.removed] == ["gone"]
        assert [change.grew for change in diff.changed] == [True]
        assert diff.brk_changed

    def test_layout_total_pages(self):
        layout = MemoryLayout(records=(_record(1, 4), _record(10, 6)), brk=0)
        assert layout.total_pages == 10
        assert layout.num_vmas == 2
