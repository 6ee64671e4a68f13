"""Property-based tests (hypothesis) for the memory substrate invariants.

The address space keeps page state run-length: per-VMA bitmaps and payload
runs.  :class:`reference_space.ReferenceAddressSpace`, the per-page model it
replaced, is the reference it must equal: twin address spaces driven through
the same writes, kernel write-backs, ``clear_refs``, forks, unmaps, ``brk``
moves and scans must agree on every page's contents, tracking bits and share
count, every handler call and every meter counter, bit for bit.  The same
holds one level up, for whole isolation mechanisms serving requests.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.registry import create_mechanism
from repro.config import PAGE_SIZE
from repro.errors import MappingError, SegmentationFault
from repro.mem.address_space import AddressSpace
from repro.mem.image import PageImage, intersect_runs, put_content, subtract_runs
from repro.mem.layout import diff_layouts
from repro.mem.pagemap import PagemapView
from repro.mem.page import Protection
from repro.proc import process as sim_process
from repro.workloads import find_benchmark, microbenchmark_profile

from reference_space import ReferenceAddressSpace

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
# Content runs against a per-page dict
# ---------------------------------------------------------------------------

#: Few payloads, so writes often meet neighbours holding the same one.
PAYLOADS = (b"", b"a", b"b", b"c")

content_ops = st.lists(
    st.tuples(
        st.booleans(),  # rewrite exactly one existing run (else any range)
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(PAYLOADS),
    ),
    min_size=1,
    max_size=30,
)


class TestPutContentMatchesPerPageDict:
    @given(content_ops)
    @settings(max_examples=300, deadline=None)
    def test_runs_stay_canonical_and_equal_the_pages(self, ops):
        runs = []
        pages = {}
        for exact, start, length, payload in ops:
            if exact and runs:
                first, end, _ = runs[start % len(runs)]
            else:
                first, end = start, start + length
            put_content(runs, first, end, payload)
            for page in range(first, end):
                if payload:
                    pages[page] = payload
                else:
                    pages.pop(page, None)
            assert {page: payload for a, b, payload in runs for page in range(a, b)} == pages
            for a, b, payload in runs:
                assert a < b and payload
            for (_, b, left), (a, _, right) in zip(runs, runs[1:]):
                assert b <= a
                assert b < a or left != right


# ---------------------------------------------------------------------------
# Snapshot run algebra against the merge walks
# ---------------------------------------------------------------------------


@st.composite
def maximal_runs(draw, limit=200):
    """A maximal page run list: sorted, disjoint, never touching, non-empty runs."""
    bounds = sorted(draw(st.sets(st.integers(min_value=0, max_value=limit), max_size=24)))
    return tuple(zip(bounds[0::2], bounds[1::2]))


@st.composite
def page_images(draw):
    """An image over maximal runs, cut into pieces whose payloads may repeat."""
    pieces = []
    for first, end in draw(maximal_runs()):
        inner = st.integers(min_value=first + 1, max_value=end - 1)
        cuts = draw(st.sets(inner, max_size=3)) if end - first > 1 else ()
        edges = [first, *sorted(cuts), end]
        for a, b in zip(edges, edges[1:]):
            pieces.append((a, b, draw(st.sampled_from(PAYLOADS[1:]))))
    return PageImage(pieces)


class TestSnapshotRunAlgebraMatchesMergeWalks:
    @given(page_images(), maximal_runs())
    @example(PageImage([(3, 5, b"a"), (5, 9, b"b"), (12, 13, b"a")]), ((0, 4), (8, 14)))
    @settings(max_examples=300, deadline=None)
    def test_covered_and_missing_equal_the_merge_walks(self, image, runs):
        assert image.covered(runs) == intersect_runs(runs, image.coverage)
        assert image.missing(runs) == subtract_runs(runs, image.coverage)


# ---------------------------------------------------------------------------
# Twin address spaces: run-length against the per-page reference
# ---------------------------------------------------------------------------

#: First page of the first mapping the twin scenarios lay out.
BASE_PAGE = 0x100
#: The heap starts inside the mapping area, so ``brk`` can run into a mapping.
BRK_BASE_PAGE = BASE_PAGE + 48
#: Every page the twin scenarios can touch.
TWIN_PAGES = range(BASE_PAGE - 2, BASE_PAGE + 80)
#: Largest mapping of the wide twin scenarios, in pages: one write there
#: is a run of more faults than the closed-form charge starts at.
WIDE_PAGES = 96
#: Every page the wide twin scenarios can touch.
WIDE_TWIN_PAGES = range(BASE_PAGE - 2, BASE_PAGE + 4 * (WIDE_PAGES + 2) + 2)


@st.composite
def twin_scenarios(draw, max_pages=16):
    """Mappings (one read-only, gaps or none between them) and tracking state."""
    count = draw(st.integers(min_value=2, max_value=4))
    read_only = draw(st.integers(min_value=0, max_value=count - 1))
    regions = [
        (
            # Up to 16 pages by default, so one write can take a long run
            # of faults; the wide scenarios go past the closed-form charge.
            draw(st.integers(min_value=1, max_value=max_pages)),  # pages
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


def _build_twin(space_class, scenario):
    """Build one side of a twin: the spaces and the handler-call log."""
    space = space_class(brk_base=BRK_BASE_PAGE * PAGE_SIZE)
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


def _twins(scenario):
    return _build_twin(AddressSpace, scenario), _build_twin(ReferenceAddressSpace, scenario)


def _state(spaces, calls, pages=TWIN_PAGES):
    """Everything an operation can change, per space, through public accessors."""
    return [
        {
            "pages": [space.page_state(number) for number in pages],
            "layout": space.layout(),
            "image": space.capture(),
            "soft_dirty": space.soft_dirty_runs(),
            "resident": space.resident_pages,
            "meter": space.meter.counters,
        }
        for space in spaces
    ] + [list(calls)]


def _assert_mapped_pages_counted(spaces):
    """The kept mapped-page count equals a fresh sum over the mappings."""
    for space in spaces:
        assert space.total_mapped_pages == sum(vma.num_pages for vma in space.vmas)


def _apply(action):
    """Run ``action``; return its result or the error it raised, as comparable data."""
    try:
        return ("ok", action())
    except SegmentationFault as fault:
        return ("segv", fault.address, fault.access)
    except MappingError as error:
        return ("mapping", str(error))


def _operate(space, kind, first, count, data):
    """One operation on one space; kinds mirror what runtimes and restores do."""
    if kind == "range":
        return space.write_range(first, count, data)
    if kind == "page":
        return space.write_page(first, data)
    if kind == "write":
        return space.write(first * PAGE_SIZE + abs(count), data)
    if kind == "clear":
        return space.clear_soft_dirty()
    if kind == "read":
        return space.read_page(first)
    if kind == "touch":
        return space.touch_read_range(first, count)
    if kind == "kernel":
        return space.kernel_write_range(first, count, data)
    if kind == "munmap":
        return space.munmap(first * PAGE_SIZE, max(count, 1) * PAGE_SIZE)
    if kind == "madvise":
        return space.madvise_dontneed(first * PAGE_SIZE, max(count, 1) * PAGE_SIZE)
    if kind == "mprotect":
        prot = Protection.r() if count % 2 else Protection.rw()
        return space.mprotect(first * PAGE_SIZE, max(count, 1) * PAGE_SIZE, prot)
    if kind == "brk":
        return space.set_brk((BRK_BASE_PAGE + abs(count)) * PAGE_SIZE)
    if kind == "scan":
        return PagemapView(space).scan_mapped()
    raise AssertionError(kind)


write_ops = st.tuples(
    st.integers(min_value=0, max_value=3),  # side (parent / children)
    st.sampled_from(
        ["range", "range", "page", "write", "clear", "read", "touch", "kernel",
         "munmap", "madvise", "mprotect", "brk", "scan", "fork"]
    ),
    st.integers(min_value=-2, max_value=60),  # start, pages past BASE_PAGE
    st.integers(min_value=-3, max_value=24),  # count
)

#: The same operations over the wide scenarios' mappings, with writes of up
#: to 100 pages.
wide_write_ops = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(
        ["range", "range", "range", "page", "clear", "touch", "kernel",
         "munmap", "madvise", "mprotect", "brk", "scan", "fork"]
    ),
    st.integers(min_value=-2, max_value=4 * (WIDE_PAGES + 2)),
    st.integers(min_value=-3, max_value=100),
)


#: Always-run twin scenarios: a 12-page run of allocating faults (long
#: enough for repeated float adds to differ from one multiplication), an
#: unmap that splits a populated VMA, and a forked child breaking CoW.
PINNED_SCENARIO = {
    "regions": [(12, 0, False, True), (12, 1, False, False)],
    "armed": True,
    "forked": True,
    "protect": None,
}
PINNED_OPS = [
    (0, "range", 13, 12),
    (0, "munmap", 6, 3),
    (1, "range", 0, 8),
    (0, "range", 2, 6),
]
#: A heap split by ``mprotect`` (read-only top), grown past it and shrunk
#: back below the split.
SPLIT_HEAP_OPS = [
    (0, "brk", 0, 5),
    (0, "mprotect", 50, 3),
    (0, "brk", 0, 7),
    (0, "brk", 0, 1),
]


#: Mapping edits only visit the VMAs their range overlaps, found by
#: bisection.  Three populated VMAs with a one-page gap before each of the
#: last two (pages 0-3, 5-8 and 10-13 past ``BASE_PAGE``): an ``mprotect``
#: starting in a gap and one crossing a gap (both refused), an ``munmap``
#: of a gap page alone ending at the next VMA's start, one cutting a tail
#: and ending exactly at a VMA's start, and one from inside the first VMA
#: to inside the third.
GAPPED_SCENARIO = {
    "regions": [(4, 0, False, True), (4, 1, False, False), (4, 1, True, True)],
    "armed": True,
    "forked": False,
    "protect": None,
}
GAPPED_OPS = [
    (0, "mprotect", 4, 3),
    (0, "mprotect", 2, 4),
    (0, "munmap", 9, 1),
    (0, "munmap", 2, 3),
    (0, "range", 5, 4),
    (0, "munmap", 1, 12),
]
#: The same three VMAs back to back (pages 0-3, 4-7, 8-11): an ``mprotect``
#: ending exactly at the second VMA's start, one spanning all three, and an
#: ``munmap`` of exactly the middle one.
ADJACENT_SCENARIO = {
    "regions": [(4, 0, False, True), (4, 0, False, False), (4, 0, True, True)],
    "armed": True,
    "forked": True,
    "protect": None,
}
ADJACENT_OPS = [
    (0, "mprotect", 2, 2),
    (0, "mprotect", 3, 7),
    (1, "range", 0, 12),
    (0, "munmap", 4, 4),
    (0, "range", 0, 12),
]


#: Always-run wide scenario: 90 populated pages with tracking armed, then
#: 80 unpopulated ones.  The writes take a run of 80 soft-dirty faults and
#: one of 70 allocating faults; after a fork, the parent's rewrite takes
#: copy-on-write faults in stretches of 5, 80 and 5 pages and the child's
#: read-touch 90 first-touch faults.  The runs of 64 or more are charged
#: in closed form; the child's write takes two faults per page (the loop).
WIDE_SCENARIO = {
    "regions": [(90, 0, False, True), (80, 1, False, False), (4, 0, True, True)],
    "armed": True,
    "forked": False,
    "protect": None,
}
WIDE_OPS = [
    (0, "range", 5, 80),
    (0, "range", 95, 70),
    (0, "fork", 0, 0),
    (0, "range", 0, 90),
    (1, "touch", 0, 90),
    (1, "range", 95, 70),
]


def _run_twin_ops(scenario, ops, pages):
    """Drive twin spaces through ``ops``; compare them after every one."""
    (shipped, shipped_calls), (reference, reference_calls) = _twins(scenario)
    _assert_mapped_pages_counted(shipped)
    for index, (side, kind, offset, count) in enumerate(ops):
        side = min(side, len(shipped) - 1)
        if kind == "fork":
            if len(shipped) < 4:
                shipped.append(shipped[side].fork())
                reference.append(reference[side].fork())
        else:
            first = BASE_PAGE + offset
            data = f"op{index}".encode() if index % 5 else b""
            got = _apply(lambda: _operate(shipped[side], kind, first, count, data))
            want = _apply(lambda: _operate(reference[side], kind, first, count, data))
            assert got == want
        _assert_mapped_pages_counted(shipped)
        assert _state(shipped, shipped_calls, pages) == _state(
            reference, reference_calls, pages
        )


class TestRangePathsMatchPerPageOracle:
    @given(twin_scenarios(), st.lists(write_ops, min_size=1, max_size=14))
    @example(PINNED_SCENARIO, PINNED_OPS)
    @example(PINNED_SCENARIO, SPLIT_HEAP_OPS)
    @example(GAPPED_SCENARIO, GAPPED_OPS)
    @example(ADJACENT_SCENARIO, ADJACENT_OPS)
    @settings(max_examples=150, deadline=None)
    def test_write_range_equals_per_page_faults(self, scenario, ops):
        _run_twin_ops(scenario, ops, TWIN_PAGES)

    @given(
        twin_scenarios(max_pages=WIDE_PAGES),
        st.lists(wide_write_ops, min_size=1, max_size=10),
    )
    @example(WIDE_SCENARIO, WIDE_OPS)
    @settings(max_examples=60, deadline=None)
    def test_long_writes_equal_per_page_faults(self, scenario, ops):
        # Writes of more pages than the closed-form charge starts at: the
        # per-page reference meter adds each fault's cost on its own.
        _run_twin_ops(scenario, ops, WIDE_TWIN_PAGES)

    @given(
        twin_scenarios(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                # (start past BASE_PAGE, pages) runs, in any order.
                st.lists(
                    st.tuples(
                        st.integers(min_value=-2, max_value=60),
                        st.integers(min_value=0, max_value=12),
                    ),
                    max_size=4,
                ),
                st.booleans(),  # write the image back (or drop the pages)
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_kernel_write_pages_equals_per_page_writes(self, scenario, ops):
        (shipped, shipped_calls), (reference, reference_calls) = _twins(scenario)
        for index, (side, spans, write_back) in enumerate(ops):
            side = min(side, len(shipped) - 1)
            runs = [(BASE_PAGE + start, BASE_PAGE + start + length) for start, length in spans]
            # An image whose payloads change every few pages, with holes.
            image = PageImage(
                [
                    (page, page + 1, f"k{index}:{page // 3}".encode() if page % 4 else b"")
                    for page in range(BASE_PAGE - 2, BASE_PAGE + 66)
                    if page % 7
                ]
            )
            if write_back:
                got = _apply(lambda: shipped[side].kernel_write_image(image, runs))
                want = _apply(lambda: reference[side].kernel_write_image(image, runs))
            else:
                got = _apply(lambda: shipped[side].kernel_drop_runs(sorted(runs)))
                want = _apply(lambda: reference[side].kernel_drop_runs(sorted(runs)))
            assert got == want
            assert _state(shipped, shipped_calls) == _state(reference, reference_calls)


# ---------------------------------------------------------------------------
# Mechanism level: the paper's functions under each isolation mechanism
# ---------------------------------------------------------------------------

#: The Python functions the ``gh-tenants`` benchmark workload deploys.
GH_TENANTS_FUNCTIONS = ("md2html", "json", "get-time", "version", "deltablue", "float")

#: The §5.2 microbenchmark as the ``diurnal-base`` and ``wide-routing``
#: benchmark workloads deploy it.
BOOKKEEPING_PROFILE = microbenchmark_profile(16, 2)


def _reprotect_working(space):
    """``mprotect`` the runtime's working VMA (same protection, new mapping)."""
    working = next(vma for vma in space.vmas if vma.name.endswith(".working"))
    space.mprotect(working.start, working.length, Protection.rw())


def _map_late(space):
    """``mmap`` one more region."""
    space.mmap(3 * PAGE_SIZE, name="late")


def _serve(profile, mechanism_name="gh", requests=3, change_at=None, change=None, **options):
    """Boot ``profile`` under a mechanism; serve requests; report everything.

    Before request ``change_at``, ``change`` is applied to the process's
    address space (a layout change between two requests).
    """
    if isinstance(profile, str):
        profile = find_benchmark(profile, "p").profile
    mechanism = create_mechanism(mechanism_name, profile, rng=random.Random(7), **options)
    served = {"init": mechanism.initialize(), "requests": [], "restores": []}
    for index in range(requests):
        if index == change_at:
            change(mechanism.process.address_space)
        report = mechanism.invoke(f"payload-{index}".encode() * 4, f"req-{index}")
        result, restore = report.result, report.restore
        served["requests"].append(
            (
                result.fault_seconds,
                result.faults,
                result.pages_written,
                result.residual,
                report.critical_seconds,
                report.post_seconds,
                report.post_skipped,
            )
        )
        if restore is not None:
            served["restores"].append(
                (
                    restore.total_seconds,
                    restore.breakdown,
                    restore.pages_scanned,
                    restore.pages_restored,
                    restore.dirty_pages,
                    restore.pages_dropped,
                    restore.syscalls,
                    restore.verified,
                )
            )
    space = mechanism.process.address_space
    served["pages"] = [space.page_state(page) for vma in space.vmas for page in vma.pages()]
    served["meter"] = space.meter.counters
    return served


def _serve_twins(monkeypatch, *args, **options):
    shipped = _serve(*args, **options)
    monkeypatch.setattr(sim_process, "AddressSpace", ReferenceAddressSpace)
    reference = _serve(*args, **options)
    return shipped, reference


class TestMechanismTwin:
    @pytest.mark.parametrize("name", GH_TENANTS_FUNCTIONS)
    def test_gh_requests_match_per_page_oracle(self, name, monkeypatch):
        shipped, reference = _serve_twins(monkeypatch, name, verify_restores=True)
        assert shipped == reference
        assert len(shipped["restores"]) == 3
        assert all(restore[-1] for restore in shipped["restores"])

    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("gh", {"tracker": "uffd", "verify_restores": True}),
            ("gh-nop", {}),
            ("fork", {}),
            ("criu", {}),
            ("faasm", {}),
        ],
    )
    def test_mechanism_matches_per_page_reference(self, mechanism, options, monkeypatch):
        shipped, reference = _serve_twins(
            monkeypatch, "version", mechanism, requests=4, **options
        )
        assert shipped == reference

    @pytest.mark.parametrize("change", [_reprotect_working, _map_late])
    @pytest.mark.parametrize("mechanism", ["base", "gh-nop", "fork"])
    def test_bookkeeping_requests_match_per_page_oracle(self, mechanism, change, monkeypatch):
        # The reference space also rejects any mapping handle that is not
        # the one a fresh lookup returns, so a request plan that missed the
        # layout change cannot pass by luck.
        shipped, reference = _serve_twins(
            monkeypatch, BOOKKEEPING_PROFILE, mechanism, requests=50,
            change_at=25, change=change,
        )
        assert shipped == reference
        assert len(shipped["requests"]) == 50
