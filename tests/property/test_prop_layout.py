"""Property tests (hypothesis): the merge-walk layout diff equals its oracle.

:func:`repro.mem.layout.diff_layouts` walks the two start-sorted record
tuples once and passes over every record the layouts share (the same
object).  :func:`reference_layout.reference_diff_layouts`, the dict-based
diff it replaced, compares everything by value.  Both must return the same
:class:`LayoutDiff`, field for field and in the same order, on

(a) the layouts an :class:`AddressSpace` hands out across random ``mmap``,
    ``munmap``, ``mprotect``, ``madvise`` and ``brk`` sequences, which share
    the space's own records;
(b) the same sequences on :class:`ReferenceAddressSpace`, whose layouts
    are fresh records on every call, so the identity skip never fires; and
(c) hand-built sorted layouts, where a region may be shared, copied,
    resized, re-protected, moved, renamed at the same start, removed or
    added.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import PAGE_SIZE
from repro.errors import MappingError
from repro.mem.address_space import DEFAULT_BRK_BASE, AddressSpace
from repro.mem.layout import LayoutDiff, MemoryLayout, diff_layouts
from repro.mem.page import Protection
from repro.mem.vma import Vma

from reference_layout import reference_diff_layouts
from reference_space import ReferenceAddressSpace

#: Page of the heap base both spaces start their break at.
BRK_BASE_PAGE = DEFAULT_BRK_BASE // PAGE_SIZE
#: First page of the first mapping the operation sequences lay out: the
#: heap starts among the mappings, so ``brk`` can run into one.
BASE_PAGE = BRK_BASE_PAGE - 40
#: Few names, so a region re-mapped at a start often gets another name.
NAMES = ("", "lib", "arena")
PROTECTIONS = (Protection.rw(), Protection.r(), Protection.rx())


def assert_same_diff(snapshot: MemoryLayout, current: MemoryLayout) -> None:
    """The shipped diff of the two layouts equals the reference, field by field."""
    got = diff_layouts(snapshot, current)
    want = reference_diff_layouts(snapshot, current)
    for field in LayoutDiff._fields:
        assert getattr(got, field) == getattr(want, field), field


# ---------------------------------------------------------------------------
# (a), (b): layouts of an address space across mapping operations
# ---------------------------------------------------------------------------

regions = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),  # pages
        st.integers(min_value=0, max_value=2),  # gap before, in pages
        st.sampled_from(NAMES),
    ),
    min_size=1,
    max_size=5,
)

mapping_ops = st.lists(
    st.tuples(
        st.sampled_from(["mmap", "munmap", "mprotect", "madvise", "brk"]),
        st.integers(min_value=-2, max_value=48),  # start, pages past BASE_PAGE
        st.integers(min_value=-3, max_value=12),  # count
        st.sampled_from(NAMES),  # name of a new mapping
    ),
    min_size=1,
    max_size=12,
)


def _operate(space, kind, offset, count, name):
    """One mapping operation; one that the space refuses changes nothing."""
    start = (BASE_PAGE + offset) * PAGE_SIZE
    length = max(count, 1) * PAGE_SIZE
    try:
        if kind == "mmap":
            space.mmap(length, address=start, name=name)
        elif kind == "munmap":
            space.munmap(start, length)
        elif kind == "mprotect":
            space.mprotect(start, length, Protection.r() if count % 2 else Protection.rw())
        elif kind == "madvise":
            space.madvise_dontneed(start, length)
        else:
            space.set_brk((BRK_BASE_PAGE + abs(count)) * PAGE_SIZE)
    except MappingError:
        pass


#: Pinned for both spaces: a region re-mapped at its old start under
#: another name (removed and added at one start), a whole region made
#: read-only (a change of protection alone), and the heap grown, split by
#: ``mprotect`` and shrunk below the split.
PINNED_OPS = [
    ("munmap", 0, 2, ""),
    ("mmap", 0, 2, "arena"),
    ("mprotect", 3, 3, ""),
    ("brk", 0, 6, ""),
    ("mprotect", 42, 3, ""),
    ("brk", 0, 1, ""),
]


class TestMergeWalkMatchesDictDiff:
    @pytest.mark.parametrize("space_class", [AddressSpace, ReferenceAddressSpace])
    @given(regions, mapping_ops)
    @example([(2, 0, "lib"), (3, 1, "")], PINNED_OPS)
    @settings(max_examples=120, deadline=None)
    def test_space_layouts(self, space_class, initial, ops):
        space = space_class()
        page = BASE_PAGE
        for pages, gap, name in initial:
            page += gap
            space.mmap(pages * PAGE_SIZE, address=page * PAGE_SIZE, name=name)
            page += pages
        layouts = [space.layout()]
        for op in ops:
            _operate(space, *op)
            layouts.append(space.layout())
        for earlier in range(len(layouts)):
            for later in range(earlier, len(layouts)):
                assert_same_diff(layouts[earlier], layouts[later])
                assert_same_diff(layouts[later], layouts[earlier])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),  # slot, 8 pages each
                st.integers(min_value=1, max_value=6),  # pages
                st.sampled_from(PROTECTIONS),
                st.sampled_from(NAMES),
                st.sampled_from(
                    ["shared", "copy", "resized", "reprotected", "renamed",
                     "moved", "removed", "added"]
                ),
                st.integers(min_value=1, max_value=7),  # pages after a resize
            ),
            max_size=8,
            unique_by=lambda region: region[0],
        ),
        st.integers(min_value=0, max_value=3),  # snapshot brk, pages
        st.integers(min_value=0, max_value=3),  # current brk, pages
    )
    @example([(0, 2, Protection.rw(), "lib", "renamed", 2)], 0, 0)
    @settings(max_examples=300, deadline=None)
    def test_hand_built_layouts(self, plan, snapshot_brk, current_brk):
        snapshot, current = [], []
        for slot, pages, prot, name, fate, resized in sorted(plan, key=lambda r: r[0]):
            first = slot * 8
            record = Vma(first * PAGE_SIZE, (first + pages) * PAGE_SIZE, prot, name=name)
            if fate != "added":
                snapshot.append(record)
            if fate in ("shared", "added"):
                current.append(record)
            elif fate == "copy":
                current.append(Vma(record.start, record.end, prot, name=name))
            elif fate == "resized":
                current.append(record.with_bounds(record.start, (first + resized) * PAGE_SIZE))
            elif fate == "reprotected":
                current.append(record.with_prot(PROTECTIONS[(PROTECTIONS.index(prot) + 1) % 3]))
            elif fate == "renamed":
                current.append(Vma(record.start, record.end, prot, name=name + "'"))
            elif fate == "moved":
                current.append(record.with_bounds(record.start + PAGE_SIZE, record.end + PAGE_SIZE))
        old = MemoryLayout(tuple(snapshot), snapshot_brk * PAGE_SIZE)
        new = MemoryLayout(tuple(current), current_brk * PAGE_SIZE)
        assert_same_diff(old, new)
        assert_same_diff(new, old)
        assert_same_diff(old, old)
