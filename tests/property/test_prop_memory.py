"""Property-based tests (hypothesis) for the memory substrate invariants.

The write-fault path (:meth:`AddressSpace.write_range`) and the kernel-side
write-back (:meth:`AddressSpace.kernel_write_pages`) work per VMA run.  The
per-page functions below are the reference oracle they must equal: twin
address spaces driven through each must agree on every page, every
tracking bit, every handler call and every meter counter, bit for bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.registry import create_mechanism
from repro.config import PAGE_SIZE
from repro.errors import SegmentationFault
from repro.mem.address_space import AddressSpace
from repro.mem.layout import diff_layouts
from repro.mem.pagemap import PagemapView
from repro.mem.page import Frame, Page, Protection, ZERO_CONTENT
from repro.workloads import find_benchmark

#: A handful of mapping sizes (in pages) exercised by the strategies.
sizes = st.integers(min_value=1, max_value=32)


def _space_with_regions(region_sizes):
    space = AddressSpace()
    vmas = [space.mmap(size * PAGE_SIZE, populate=True) for size in region_sizes]
    return space, vmas


class TestAddressSpaceInvariants:
    @given(st.lists(sizes, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_vmas_never_overlap_and_are_sorted(self, region_sizes):
        space, _ = _space_with_regions(region_sizes)
        vmas = space.vmas
        for earlier, later in zip(vmas, vmas[1:]):
            assert earlier.end <= later.start
        assert space.total_mapped_pages == sum(region_sizes)

    @given(st.lists(sizes, min_size=1, max_size=6), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_munmap_everything_leaves_nothing_behind(self, region_sizes, rnd):
        space, vmas = _space_with_regions(region_sizes)
        order = list(vmas)
        rnd.shuffle(order)
        for vma in order:
            space.munmap(vma.start, vma.length)
        assert space.total_mapped_pages == 0
        assert space.resident_pages == 0
        assert space.soft_dirty_page_numbers() == set()

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_write_set_matches_soft_dirty_bits(self, mapped, writes):
        space = AddressSpace()
        vma = space.mmap(mapped * PAGE_SIZE, populate=True)
        space.clear_soft_dirty()
        written = set()
        for index in range(writes):
            page = vma.first_page + (index * 7) % mapped
            space.write_page(page, b"w")
            written.add(page)
        assert space.soft_dirty_page_numbers() == written
        scan = PagemapView(space).scan_mapped()
        assert set(scan.dirty_pages) == written

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_brk_grow_then_shrink_is_identity(self, grow, shrink):
        space = AddressSpace()
        base_layout = space.layout()
        space.sbrk(grow * PAGE_SIZE)
        space.sbrk(-min(shrink, grow) * PAGE_SIZE)
        space.set_brk(space.brk_base)
        assert space.layout() == base_layout

    @given(st.lists(sizes, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_fork_child_sees_identical_content(self, region_sizes):
        space, vmas = _space_with_regions(region_sizes)
        for index, vma in enumerate(vmas):
            space.write_page(vma.first_page, f"region-{index}".encode())
        child = space.fork()
        for index, vma in enumerate(vmas):
            assert child.page_content(vma.first_page) == f"region-{index}".encode()
        assert child.layout() == space.layout()

    @given(st.lists(sizes, min_size=1, max_size=6), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_fork_isolation_is_symmetric(self, region_sizes, writes):
        space, vmas = _space_with_regions(region_sizes)
        child = space.fork()
        for index in range(writes):
            vma = vmas[index % len(vmas)]
            child.write_page(vma.first_page, f"child-{index}".encode())
            space.write_page(vma.last_page, f"parent-{index}".encode())
        for index in range(writes):
            vma = vmas[index % len(vmas)]
            assert b"child" not in space.page_content(vma.first_page)
            assert b"parent" not in child.page_content(vma.last_page)


class TestLayoutDiffProperties:
    @given(st.lists(sizes, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_diff_with_self_is_empty(self, region_sizes):
        space, _ = _space_with_regions(region_sizes)
        layout = space.layout()
        assert diff_layouts(layout, layout).is_empty

    @given(st.lists(sizes, min_size=2, max_size=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_diff_detects_each_removed_region(self, region_sizes, data):
        space, vmas = _space_with_regions(region_sizes)
        before = space.layout()
        to_remove = data.draw(
            st.lists(st.sampled_from(vmas), min_size=1, max_size=len(vmas), unique=True)
        )
        for vma in to_remove:
            space.munmap(vma.start, vma.length)
        diff = diff_layouts(before, space.layout())
        removed_starts = {record.start for record in diff.removed}
        assert removed_starts == {vma.start for vma in to_remove}
        assert not diff.added

    @given(st.lists(sizes, min_size=1, max_size=6), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_diff_operation_count_bounds(self, region_sizes, added_count):
        space, _ = _space_with_regions(region_sizes)
        before = space.layout()
        for index in range(added_count):
            space.mmap(PAGE_SIZE, name=f"added-{index}")
        diff = diff_layouts(before, space.layout())
        assert len(diff.added) == added_count
        assert diff.num_operations == added_count


# ---------------------------------------------------------------------------
# Per-page reference oracle for the write paths
# ---------------------------------------------------------------------------


def _fault_on_write(space, page_number):
    """One page's write fault, looked up and charged on its own."""
    vma = space.vma_for_page(page_number)
    if vma is None:
        raise SegmentationFault(page_number * PAGE_SIZE, access="write")
    if Protection.WRITE not in vma.prot:
        raise SegmentationFault(page_number * PAGE_SIZE, access="write")
    cm = space.cost_model
    page = space._pages.get(page_number)
    took_allocating_fault = False
    if page is None:
        page = Page(Frame(ZERO_CONTENT))
        space._pages[page_number] = page
        space.meter.charge(cm.minor_fault_seconds, minor_faults=1)
        took_allocating_fault = True
    else:
        if page_number in space._tlb_cold:
            space.meter.charge(cm.fork_first_touch_seconds, first_touch_faults=1)
            space._tlb_cold.discard(page_number)
        if page_number in space._cow:
            old_frame = page.frame
            old_frame.release()
            page.frame = old_frame.copy()
            space._cow.discard(page_number)
            space.meter.charge(cm.cow_fault_seconds, cow_faults=1)
            took_allocating_fault = True
    if page_number in space._wp:
        space.meter.charge(cm.uffd_fault_seconds, uffd_faults=1)
        space._wp.discard(page_number)
        if space._wp_handler is not None:
            space._wp_handler(page_number)
    if page_number not in space._soft_dirty:
        if space._sd_tracking_armed and not took_allocating_fault:
            space.meter.charge(cm.soft_dirty_fault_seconds, soft_dirty_faults=1)
        space._soft_dirty.add(page_number)


def oracle_write_range(space, start_page, count, data):
    """``write_range`` as one fault call per page."""
    for page_number in range(start_page, start_page + count):
        _fault_on_write(space, page_number)
        space._pages[page_number].frame.content = data
    space.meter.charge(pages_written=count)


def _kernel_write_page(space, page_number, data):
    """One page's kernel-side write, with its own VMA lookup."""
    vma = space.vma_for_page(page_number)
    if vma is None:
        raise SegmentationFault(page_number * PAGE_SIZE, access="kernel-write")
    page = space._pages.get(page_number)
    if page is None:
        page = Page(Frame(data))
        space._pages[page_number] = page
    else:
        if page_number in space._cow:
            page.frame.release()
            page.frame = Frame(data)
            space._cow.discard(page_number)
        page.frame.content = data
    space._soft_dirty.add(page_number)


def oracle_kernel_write_pages(space, ascending_pages, source):
    """``kernel_write_pages`` as one kernel write per page."""
    for page_number in ascending_pages:
        _kernel_write_page(space, page_number, source[page_number])


# ---------------------------------------------------------------------------
# Twin address spaces
# ---------------------------------------------------------------------------

#: First page of the first mapping the twin scenarios lay out.
BASE_PAGE = 0x100


@st.composite
def twin_scenarios(draw):
    """Mappings (one read-only, gaps or none between them) and tracking state."""
    count = draw(st.integers(min_value=2, max_value=4))
    read_only = draw(st.integers(min_value=0, max_value=count - 1))
    regions = [
        (
            draw(st.integers(min_value=1, max_value=6)),  # pages
            draw(st.integers(min_value=0, max_value=2)),  # gap before, in pages
            index == read_only,
            draw(st.booleans()),  # populated
        )
        for index in range(count)
    ]
    return {
        "regions": regions,
        "armed": draw(st.booleans()),
        "forked": draw(st.booleans()),
        # Which side gets userfaultfd write protection: none, parent, child.
        "protect": draw(st.sampled_from([None, 0, 1])),
    }


def _build_twin(scenario):
    """Build one side of a twin: the spaces and the handler-call log."""
    space = AddressSpace()
    page = BASE_PAGE
    for pages, gap, read_only, populate in scenario["regions"]:
        page += gap
        prot = Protection.r() if read_only else Protection.rw()
        space.mmap(pages * PAGE_SIZE, prot, address=page * PAGE_SIZE, populate=populate)
        page += pages
    if scenario["armed"]:
        space.clear_soft_dirty()
    spaces = [space, space.fork()] if scenario["forked"] else [space]
    calls = []
    protect = scenario["protect"]
    if protect is not None and protect < len(spaces):
        spaces[protect].arm_write_protection(
            lambda page_number, side=protect: calls.append((side, page_number))
        )
    return spaces, calls


def _state(spaces, calls):
    """Everything a write can change, per space."""
    return [
        {
            "pages": {
                number: (page.frame.content, page.frame.refcount)
                for number, page in sorted(space._pages.items())
            },
            "soft_dirty": set(space._soft_dirty),
            "cow": set(space._cow),
            "wp": set(space._wp),
            "tlb_cold": set(space._tlb_cold),
            "meter": space.meter.counters,
        }
        for space in spaces
    ] + [list(calls)]


def _apply(action):
    """Run ``action``; return the fault it raised as comparable data."""
    try:
        action()
    except SegmentationFault as fault:
        return (fault.address, fault.access)
    return None


write_ops = st.tuples(
    st.integers(min_value=0, max_value=1),  # side (parent / child)
    st.sampled_from(["range", "page", "write", "clear"]),
    st.integers(min_value=-2, max_value=30),  # start, pages past BASE_PAGE
    st.integers(min_value=0, max_value=12),  # count
)


class TestRangePathsMatchPerPageOracle:
    @given(twin_scenarios(), st.lists(write_ops, min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_write_range_equals_per_page_faults(self, scenario, ops):
        shipped, shipped_calls = _build_twin(scenario)
        oracle, oracle_calls = _build_twin(scenario)
        for index, (side, kind, offset, count) in enumerate(ops):
            side = min(side, len(shipped) - 1)
            first = BASE_PAGE + offset
            data = f"op{index}".encode()
            a, b = shipped[side], oracle[side]
            if kind == "range":
                got = _apply(lambda: a.write_range(first, count, data))
                want = _apply(lambda: oracle_write_range(b, first, count, data))
            elif kind == "page":
                got = _apply(lambda: a.write_page(first, data))
                want = _apply(lambda: oracle_write_range(b, first, 1, data))
            elif kind == "write":
                address = first * PAGE_SIZE + count
                got = _apply(lambda: a.write(address, data))
                want = _apply(lambda: oracle_write_range(b, address // PAGE_SIZE, 1, data))
            else:
                got, want = a.clear_soft_dirty(), b.clear_soft_dirty()
            assert got == want
            assert _state(shipped, shipped_calls) == _state(oracle, oracle_calls)

    @given(
        twin_scenarios(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.lists(st.integers(min_value=-2, max_value=30), max_size=10, unique=True),
                st.booleans(),  # ascending
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_kernel_write_pages_equals_per_page_writes(self, scenario, ops):
        shipped, shipped_calls = _build_twin(scenario)
        oracle, oracle_calls = _build_twin(scenario)
        for index, (side, offsets, ascending) in enumerate(ops):
            side = min(side, len(shipped) - 1)
            numbers = [BASE_PAGE + offset for offset in offsets]
            if ascending:
                numbers.sort()
            source = {number: f"k{index}:{number}".encode() for number in numbers}
            got = _apply(lambda: shipped[side].kernel_write_pages(numbers, source))
            want = _apply(lambda: oracle_kernel_write_pages(oracle[side], numbers, source))
            assert got == want
            assert _state(shipped, shipped_calls) == _state(oracle, oracle_calls)


# ---------------------------------------------------------------------------
# Mechanism level: the paper's functions under Groundhog
# ---------------------------------------------------------------------------

#: The Python functions the ``gh-tenants`` benchmark workload deploys.
GH_TENANTS_FUNCTIONS = ("md2html", "json", "get-time", "version", "deltablue", "float")


def _serve(name, requests=3):
    """Boot ``name`` under ``gh`` with verified restores; serve a few requests."""
    profile = find_benchmark(name, "p").profile
    mechanism = create_mechanism("gh", profile, rng=random.Random(7), verify_restores=True)
    mechanism.initialize()
    reports = []
    for index in range(requests):
        report = mechanism.invoke(f"payload-{index}".encode() * 4, f"req-{index}")
        result, restore = report.result, report.restore
        reports.append(
            (
                result.fault_seconds,
                result.faults,
                result.pages_written,
                restore.total_seconds,
                restore.breakdown,
                restore.pages_restored,
                restore.dirty_pages,
                restore.pages_dropped,
                restore.verified,
            )
        )
    return reports


class TestMechanismTwin:
    @pytest.mark.parametrize("name", GH_TENANTS_FUNCTIONS)
    def test_gh_requests_match_per_page_oracle(self, name, monkeypatch):
        shipped = _serve(name)
        monkeypatch.setattr(AddressSpace, "write_range", oracle_write_range)
        monkeypatch.setattr(AddressSpace, "kernel_write_pages", oracle_kernel_write_pages)
        oracle = _serve(name)
        assert shipped == oracle
        assert all(report[-1] for report in shipped)
